"""Numeric constraint solving and coupler-curve tracing.

The bar-length system is solved by damped Newton iteration at a fixed driver
angle, and curves are traced by continuation: each angle step is seeded from
the previous solution, halving the step on failure. One continuation loop
both carries the seed to the sweep start and sweeps the window; a stall is
NoSeed in the first use and a workspace boundary in the second. Newton runs
on the rows of model.reduced_constraints, the encoding the locus builder
shares: collinear bar triples (rigid beams with interior joints) become
affine rows plus the outer bar's quadric, since the raw triple encoding has
an everywhere-singular Jacobian, and the driver's quadric gives way to two
driver-angle rows. Convergence is always measured against the full original
constraint set, never the rewritten rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import Bar, LinkageSpec, reduced_constraints

MM_PER_UNIT = 8.0


class NoSeed(RuntimeError):
    """No solvable configuration could be reached at the sweep start."""


class NonConvergence(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"Newton stalled after {iterations} iterations, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class SingularJacobian(RuntimeError):
    def __init__(self, condition: float):
        super().__init__(f"constraint Jacobian is singular (condition {condition:.3e})")
        self.condition = condition


class DegenerateWindow(ValueError):
    """The window holds too few samples, or samples that cannot define a line."""


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-12
    max_newton_iters: int = 50
    initial_step: float = 1e-2
    min_step: float = 1e-7
    condition_threshold: float = 1e10

    def __post_init__(self):
        values = (self.tol, self.max_newton_iters, self.initial_step, self.min_step)
        if not all(0 < v < math.inf for v in values):  # false for NaN too
            raise ValueError("solver settings must be positive and finite")
        if self.min_step > self.initial_step:
            raise ValueError("min_step must not exceed initial_step")


@dataclass(frozen=True)
class Configuration:
    """One placement of every joint (anchored joints included, as floats)."""

    positions: dict[str, tuple[float, float]]

    def __getitem__(self, joint_id: str) -> tuple[float, float]:
        return self.positions[joint_id]

    def __contains__(self, joint_id: str) -> bool:
        return joint_id in self.positions


class EventKind(Enum):
    WORKSPACE_BOUNDARY = "workspace_boundary"
    SINGULAR_CONFIGURATION = "singular_configuration"


@dataclass(frozen=True)
class BranchEvent:
    theta: float
    kind: EventKind


@dataclass(frozen=True)
class TraceSample:
    theta: float
    x: float
    y: float
    residual: float


@dataclass(frozen=True)
class Trace:
    samples: list[TraceSample]
    events: list[BranchEvent]

    def windowed(self, window: tuple[float, float]) -> list[TraceSample]:
        lo, hi = min(window), max(window)
        return [s for s in self.samples if lo <= s.theta <= hi]

    def points(self) -> np.ndarray:
        return np.array([(s.x, s.y) for s in self.samples], dtype=float)


# ---------------------------------------------------------------------------
# system compilation


@dataclass
class _Compiled:
    spec: LinkageSpec
    free: list[str]
    col: dict[str, int]
    anchors: dict[str, tuple[float, float]]
    affine: list[tuple[str, str, str, float]]  # mid = (1-t)*a + t*b
    quad_bars: list[Bar]
    driver_free: str
    driver_anchor: tuple[float, float]
    driver_length: float

    def pos(self, x: np.ndarray, jid: str) -> tuple[float, float]:
        if jid in self.col:
            i = self.col[jid]
            return (x[i], x[i + 1])
        return self.anchors[jid]

    def to_vec(self, cfg: Configuration) -> np.ndarray:
        missing = [j for j in self.free if j not in cfg]
        if missing:
            raise ValueError(f"seed missing free joints {missing}")
        x = np.empty(2 * len(self.free))
        for j in self.free:
            i = self.col[j]
            x[i], x[i + 1] = cfg[j]
        return x

    def to_config(self, x: np.ndarray) -> Configuration:
        positions = dict(self.anchors)
        for j in self.free:
            i = self.col[j]
            positions[j] = (float(x[i]), float(x[i + 1]))
        return Configuration(positions)

    def reduced_residual(self, x: np.ndarray, theta: float) -> np.ndarray:
        rows = []
        for mid, a, b, t in self.affine:
            mx, my = self.pos(x, mid)
            ax, ay = self.pos(x, a)
            bx, by = self.pos(x, b)
            rows.append(mx - (1 - t) * ax - t * bx)
            rows.append(my - (1 - t) * ay - t * by)
        for bar in self.quad_bars:
            pax, pay = self.pos(x, bar.a)
            pbx, pby = self.pos(x, bar.b)
            rows.append((pax - pbx) ** 2 + (pay - pby) ** 2 - float(bar.length) ** 2)
        fx, fy = self.pos(x, self.driver_free)
        ax, ay = self.driver_anchor
        rows.append(fx - (ax + self.driver_length * math.cos(theta)))
        rows.append(fy - (ay + self.driver_length * math.sin(theta)))
        return np.array(rows)

    def jacobian(self, x: np.ndarray, theta: float) -> np.ndarray:
        n = 2 * len(self.free)
        m = 2 * len(self.affine) + len(self.quad_bars) + 2
        J = np.zeros((m, n))
        r = 0
        for mid, a, b, t in self.affine:
            for jid, w in ((mid, 1.0), (a, -(1 - t)), (b, -t)):
                if jid in self.col:
                    i = self.col[jid]
                    J[r, i] += w
                    J[r + 1, i + 1] += w
            r += 2
        for bar in self.quad_bars:
            pax, pay = self.pos(x, bar.a)
            pbx, pby = self.pos(x, bar.b)
            dx, dy = pax - pbx, pay - pby
            if bar.a in self.col:
                i = self.col[bar.a]
                J[r, i] += 2 * dx
                J[r, i + 1] += 2 * dy
            if bar.b in self.col:
                i = self.col[bar.b]
                J[r, i] -= 2 * dx
                J[r, i + 1] -= 2 * dy
            r += 1
        i = self.col[self.driver_free]
        J[r, i] = 1.0
        J[r + 1, i + 1] = 1.0
        return J

    def full_residual(self, x: np.ndarray, theta: float) -> float:
        worst = 0.0
        for bar in self.spec.bars:
            pax, pay = self.pos(x, bar.a)
            pbx, pby = self.pos(x, bar.b)
            v = abs((pax - pbx) ** 2 + (pay - pby) ** 2 - float(bar.length) ** 2)
            worst = max(worst, v)
        fx, fy = self.pos(x, self.driver_free)
        ax, ay = self.driver_anchor
        worst = max(worst, abs(fx - ax - self.driver_length * math.cos(theta)))
        worst = max(worst, abs(fy - ay - self.driver_length * math.sin(theta)))
        return worst

    def tracer_point(self, x: np.ndarray) -> tuple[float, float]:
        t = self.spec.tracer
        if t.on_bar:
            bar = self.spec.bar(t.bar)
            off = float(t.offset)
            pax, pay = self.pos(x, bar.a)
            pbx, pby = self.pos(x, bar.b)
            return ((1 - off) * pax + off * pbx, (1 - off) * pay + off * pby)
        return self.pos(x, t.joint)


def _compile(spec: LinkageSpec) -> _Compiled:
    anchors = {
        j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.joints if j.is_anchored
    }
    free = [j.id for j in spec.joints if not j.is_anchored]
    col = {j: 2 * i for i, j in enumerate(free)}

    triples, quadrics = reduced_constraints(spec)
    driver_bar = spec.bar(spec.driver.bar)
    if spec.joint(driver_bar.a).is_anchored:
        anchor_id, free_id = driver_bar.a, driver_bar.b
    else:
        anchor_id, free_id = driver_bar.b, driver_bar.a

    # the driver's quadric gives way to the two driver-angle rows
    quad_bars = [b for b in quadrics if b.id != driver_bar.id]
    affine = [(t.mid, t.a, t.b, float(t.t)) for t in triples]
    return _Compiled(
        spec=spec,
        free=free,
        col=col,
        anchors=anchors,
        affine=affine,
        quad_bars=quad_bars,
        driver_free=free_id,
        driver_anchor=anchors[anchor_id],
        driver_length=float(driver_bar.length),
    )


# ---------------------------------------------------------------------------
# Newton iteration


def _newton(comp: _Compiled, theta: float, x0: np.ndarray, settings: SolverSettings):
    """Damped Newton from x0. Returns (x, iterations, residual, max_cond, ok)."""
    x = x0.copy()
    max_cond = 0.0
    for it in range(settings.max_newton_iters + 1):
        full = comp.full_residual(x, theta)
        if full < settings.tol:
            return x, it, full, max_cond, True
        if it == settings.max_newton_iters:
            return x, it, full, max_cond, False
        r = comp.reduced_residual(x, theta)
        J = comp.jacobian(x, theta)
        sv = np.linalg.svd(J, compute_uv=False)
        cond = math.inf if sv[-1] == 0 else float(sv[0] / sv[-1])
        max_cond = max(max_cond, cond)
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return x, it, full, max_cond, False
        base = float(np.linalg.norm(r, np.inf))
        scale = 1.0
        for _ in range(20):
            xn = x + scale * delta
            if float(np.linalg.norm(comp.reduced_residual(xn, theta), np.inf)) < base:
                break
            scale /= 2
        else:
            return x, it, full, max_cond, False
        x = xn
    return x, settings.max_newton_iters, comp.full_residual(x, theta), max_cond, False


def solve_configuration(
    spec: LinkageSpec,
    theta: float,
    seed: Configuration,
    settings: Optional[SolverSettings] = None,
) -> Configuration:
    """Solve all bar constraints plus the driver angle; raises on failure."""
    settings = settings or SolverSettings()
    comp = _compile(spec)
    x, it, residual, max_cond, ok = _newton(comp, theta, comp.to_vec(seed), settings)
    if not ok:
        if max_cond > settings.condition_threshold:
            raise SingularJacobian(max_cond)
        raise NonConvergence(it, residual)
    return comp.to_config(x)


def default_layout(spec: LinkageSpec) -> Configuration:
    """Deterministic geometric starting guess: breadth-first placement from
    the anchors, intersecting circles where two neighbors are already placed.
    Newton refines it; this only has to be in the right basin often enough."""
    placed: dict[str, tuple[float, float]] = {
        j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.joints if j.is_anchored
    }
    remaining = [j.id for j in spec.joints if not j.is_anchored]
    golden = 2.399963229728653
    tick = 0
    while remaining:
        progressed = False
        for jid in list(remaining):
            known = [
                (b, b.a if b.b == jid else b.b)
                for b in spec.bars_at(jid)
                if (b.a if b.b == jid else b.b) in placed
            ]
            if not known:
                continue
            if len(known) == 1:
                bar, other = known[0]
                ox, oy = placed[other]
                ang = golden * tick
                L = float(bar.length)
                placed[jid] = (ox + L * math.cos(ang), oy + L * math.sin(ang))
            else:
                (b1, o1), (b2, o2) = known[0], known[1]
                p1 = np.array(placed[o1])
                p2 = np.array(placed[o2])
                r1, r2 = float(b1.length), float(b2.length)
                d = float(np.linalg.norm(p2 - p1))
                if d < 1e-12:
                    placed[jid] = (p1[0] + r1, p1[1])
                else:
                    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
                    h2 = r1 * r1 - a * a
                    h = math.sqrt(h2) if h2 > 0 else 0.0
                    u = (p2 - p1) / d
                    perp = np.array([-u[1], u[0]])
                    p = p1 + a * u + h * perp
                    placed[jid] = (float(p[0]), float(p[1]))
            remaining.remove(jid)
            progressed = True
            tick += 1
        if not progressed:
            # disconnected leftovers; validation rejects these anyway
            for i, jid in enumerate(remaining):
                placed[jid] = (float(i + 1), 0.0)
            break
    return Configuration(placed)


def flip_branch(
    config: Configuration, joint: str, across: tuple[str, str]
) -> Configuration:
    """Seed transform: reflect one joint across the line of two reference
    joints, switching the assembly branch the next solve converges to."""
    p = np.array(config[joint])
    a = np.array(config[across[0]])
    b = np.array(config[across[1]])
    d = b - a
    n2 = float(d @ d)
    if n2 < 1e-24:
        raise ValueError(f"reference joints {across} coincide; no reflection line")
    proj = a + d * (float((p - a) @ d) / n2)
    q = 2 * proj - p
    positions = dict(config.positions)
    positions[joint] = (float(q[0]), float(q[1]))
    return Configuration(positions)


# ---------------------------------------------------------------------------
# continuation tracing


def _steps(
    comp: _Compiled, x: np.ndarray, theta: float, theta_to: float, settings: SolverSettings
):
    """Continuation from the solution x at theta toward theta_to.

    Yields (theta, x, max_cond) after every accepted step. A failed step is
    retried with half the step length, and an accepted one grows a shortened
    step back toward the initial step. The generator ends at theta_to, or at
    the last accepted angle once the step falls below the minimum (a stall).
    """
    sign = 1.0 if theta_to > theta else -1.0
    step = settings.initial_step * sign
    while theta != theta_to:
        nxt = theta + step
        if (theta_to - nxt) * sign < 0:
            nxt = theta_to
        xn, _, _, max_cond, ok = _newton(comp, nxt, x, settings)
        if ok:
            theta = nxt
            x = xn
            yield theta, x, max_cond
            if abs(step) < settings.initial_step:
                step = sign * min(abs(step) * 1.5, settings.initial_step)
        else:
            step /= 2
            if abs(step) < settings.min_step:
                return


def trace(
    spec: LinkageSpec,
    theta_start: float,
    theta_end: float,
    settings: Optional[SolverSettings] = None,
    seed: Optional[Configuration] = None,
    seed_theta: Optional[float] = None,
) -> Trace:
    """Sweep the driver angle, recording the tracer point at every solved step.

    The seed (default: a geometric layout guess) is first carried to
    theta_start by continuation; a stall there raises NoSeed. During the
    sweep a failed step is retried with half the step length; below the
    minimum step a workspace boundary is recorded and the sweep ends.
    Near-singular Jacobians are flagged as singular-configuration events
    without stopping or switching branches.
    """
    settings = settings or SolverSettings()
    comp = _compile(spec)
    if seed is None:
        seed = default_layout(spec)
        seed_theta = theta_start
    elif seed_theta is None:
        seed_theta = theta_start

    x, _, _, _, ok = _newton(comp, seed_theta, comp.to_vec(seed), settings)
    if not ok:
        raise NoSeed(f"no solvable configuration at theta={seed_theta:.6g}")
    theta = seed_theta
    for theta, x, _ in _steps(comp, x, theta, theta_start, settings):
        pass
    if theta != theta_start:
        raise NoSeed(
            f"continuation from theta={seed_theta:.6g} stalled at "
            f"theta={theta:.6g} before reaching {theta_start:.6g}"
        )

    samples: list[TraceSample] = []
    events: list[BranchEvent] = []

    def record(theta: float, x: np.ndarray) -> None:
        px, py = comp.tracer_point(x)
        samples.append(
            TraceSample(theta, float(px), float(py), comp.full_residual(x, theta))
        )

    theta = theta_start
    record(theta, x)
    near_singular = False
    for theta, x, max_cond in _steps(comp, x, theta, theta_end, settings):
        record(theta, x)
        if max_cond > settings.condition_threshold:
            if not near_singular:
                events.append(BranchEvent(theta, EventKind.SINGULAR_CONFIGURATION))
                near_singular = True
        else:
            near_singular = False
    if theta != theta_end:
        events.append(BranchEvent(theta, EventKind.WORKSPACE_BOUNDARY))
    return Trace(samples, events)


# ---------------------------------------------------------------------------
# straightness statistics


@dataclass(frozen=True)
class StraightnessStats:
    line: tuple[float, float, float]  # a*x + b*y + c fit, a^2 + b^2 = 1
    max_deviation: float  # perpendicular distance, units
    rms_deviation: float
    n_samples: int

    @property
    def max_deviation_mm(self) -> float:
        return self.max_deviation * MM_PER_UNIT

    @property
    def rms_deviation_mm(self) -> float:
        return self.rms_deviation * MM_PER_UNIT


def straightness_stats(trace: Trace, window: tuple[float, float]) -> StraightnessStats:
    """Total-least-squares line through the windowed tracer points."""
    pts = np.array([(s.x, s.y) for s in trace.windowed(window)], dtype=float)
    if len(pts) < 2:
        raise DegenerateWindow(f"window {window} holds {len(pts)} samples; need at least 2")
    centroid = pts.mean(axis=0)
    M = pts - centroid
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    span = float(sv[0])
    if span <= 1e-12 * (1.0 + float(np.linalg.norm(centroid))):
        raise DegenerateWindow("all windowed points coincide")
    a, b = (float(v) for v in Vt[-1])
    c = -float(a * centroid[0] + b * centroid[1])
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    dev = np.abs(M @ np.array([a, b]))
    return StraightnessStats(
        line=(a, b, c),
        max_deviation=float(dev.max()),
        rms_deviation=float(math.sqrt(float((dev**2).mean()))),
        n_samples=len(pts),
    )
