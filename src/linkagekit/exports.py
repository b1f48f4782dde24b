"""Trace serialization: CSV rows and a deterministic to-scale SVG plot."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import MM_PER_UNIT, LinkageSpec

if TYPE_CHECKING:
    from .solver import Trace

# anchor cross arm, in mm on the page
_CROSS = 3.0


def _escape(text: str) -> str:
    """text as XML character data: &, > and < escaped, quotes left alone."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def trace_csv(trace: Trace) -> str:
    """CSV text of the trace samples.

    Header is exactly theta,x,y,residual; floats are written with repr so
    values round-trip through a parser unchanged.
    """
    lines = ["theta,x,y,residual"]
    for s in trace.samples:
        lines.append(f"{s.theta!r},{s.x!r},{s.y!r},{s.residual!r}")
    return "\n".join(lines) + "\n"


def trace_svg(trace: Trace, spec: LinkageSpec, description: str = "") -> str:
    """SVG plot of the trace at true scale: 8 mm per model unit.

    The curve is a polyline, anchored joints are drawn as crosses, and the
    viewBox pads the content by 10% per axis. Output is deterministic: same
    trace, same bytes. Page y points down, so model y is negated.
    """
    pts = [(s.x * MM_PER_UNIT, -s.y * MM_PER_UNIT) for s in trace.samples]
    crosses = [
        (float(j.anchor[0]) * MM_PER_UNIT, -float(j.anchor[1]) * MM_PER_UNIT)
        for j in spec.joints
        if j.is_anchored
    ]
    xs = [p[0] for p in pts] + [v for cx, _ in crosses for v in (cx - _CROSS, cx + _CROSS)]
    ys = [p[1] for p in pts] + [v for _, cy in crosses for v in (cy - _CROSS, cy + _CROSS)]
    if not xs:
        xs = ys = [0.0]

    def padded(lo: float, hi: float) -> tuple[float, float]:
        span = hi - lo
        pad = 0.1 * span if span > 1e-9 else 4.0
        return lo - pad, hi - lo + 2 * pad

    x0, w = padded(min(xs), max(xs))
    y0, h = padded(min(ys), max(ys))

    scale_note = "Scale: 8 mm per model unit (one beam hole pitch)."
    note = f"{description} {scale_note}".strip()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.3f}mm" height="{h:.3f}mm" '
        f'viewBox="{x0:.3f} {y0:.3f} {w:.3f} {h:.3f}">',
        f"  <desc>{_escape(note)}</desc>",
    ]
    if pts:
        joined = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
        parts.append(
            f'  <polyline fill="none" stroke="#202020" stroke-width="0.5" points="{joined}"/>'
        )
    for cx, cy in crosses:
        parts.append(
            f'  <path stroke="#c02020" stroke-width="0.5" d="M {cx - _CROSS:.3f} {cy:.3f} '
            f"L {cx + _CROSS:.3f} {cy:.3f} M {cx:.3f} {cy - _CROSS:.3f} "
            f'L {cx:.3f} {cy + _CROSS:.3f}"/>'
        )
    tx, ty = x0 + 1.5, y0 + 4.5
    if description:
        parts.append(
            f'  <text x="{tx:.3f}" y="{ty:.3f}" font-size="3" font-family="sans-serif" '
            f'fill="#202020">{_escape(description)}</text>'
        )
        ty += 4.0
    parts.append(
        f'  <text x="{tx:.3f}" y="{ty:.3f}" font-size="3" font-family="sans-serif" '
        f'fill="#202020">{_escape(scale_note)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
