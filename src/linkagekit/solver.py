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
driver-angle rows. _compile turns those rows, once per solve or trace, into
integer index tables over one coordinate list (free coordinates, then
anchors) that the residuals read as Python floats; the Jacobian copies a
template of its constant rows. Convergence is always measured against the
full original constraint set, never the rewritten rows. Condition numbers
cost one batched SVD per Newton call and are computed only where they are
read: on the sweep's accepted steps and on a failed solve_configuration.
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


def _on_coordinates(rows):
    """Run a row method on the coordinate list of x as Python floats. A float
    ** 2 past the float range raises OverflowError; the method then runs again
    on numpy scalars, which read the overflow as inf."""

    def run(comp: _Compiled, x: np.ndarray, drive: tuple[float, ...]):
        try:
            return rows(comp, x.tolist() + comp.anchor_xy, drive)
        except OverflowError:
            return rows(comp, list(x) + comp.anchor_xy, drive)

    return run


@dataclass
class _Compiled:
    """model.reduced_constraints as integer index tables over one coordinate
    list: the free coordinates x first, the anchor coordinates after them. A
    joint at index i has its x there and its y at i + 1."""

    free: list[str]  # free[k] owns x[2k], x[2k + 1]
    anchors: dict[str, tuple[float, float]]
    anchor_xy: list[float]
    affine: list[tuple[int, int, int, float, float]]  # mid, a, b, 1-t, t: mid = (1-t)*a + t*b
    quad: list[tuple[int, int, float]]  # a, b, length**2 of the reduced quadric rows
    bars: list[tuple[int, int, float]]  # a, b, length**2 of every bar, for the full check
    driver: int  # index of the driven joint
    driver_anchor: tuple[float, float]
    driver_length: float
    tracer: tuple[int, Optional[int], float]  # a, b, offset; b is None for a joint tracer
    template: np.ndarray  # Jacobian over every coordinate: constant affine and driver rows
    slots: np.ndarray  # flat template indices of the quadric gradients, as jacobian lists them

    def to_vec(self, cfg: Configuration) -> np.ndarray:
        missing = [j for j in self.free if j not in cfg]
        if missing:
            raise ValueError(f"seed missing free joints {missing}")
        bad = [j for j in self.free if not all(map(math.isfinite, cfg[j]))]
        if bad:
            raise ValueError(f"seed coordinates of {bad} are not finite")
        x = np.empty(2 * len(self.free))
        for k, j in enumerate(self.free):
            x[2 * k], x[2 * k + 1] = cfg[j]
        return x

    def to_config(self, x: np.ndarray) -> Configuration:
        v = x.tolist()
        return Configuration({**self.anchors, **dict(zip(self.free, zip(v[::2], v[1::2])))})

    def drive(self, theta: float) -> tuple[float, float, float, float]:
        """L cos(theta), L sin(theta), and the driven joint's target."""
        c, s = self.driver_length * math.cos(theta), self.driver_length * math.sin(theta)
        ax, ay = self.driver_anchor
        return c, s, ax + c, ay + s

    @_on_coordinates
    def reduced_residual(self, v: list[float], drive: tuple[float, ...]) -> list[float]:
        rows = []
        for mid, a, b, u, t in self.affine:
            rows += (v[mid] - u * v[a] - t * v[b], v[mid + 1] - u * v[a + 1] - t * v[b + 1])
        rows += [(v[a] - v[b]) ** 2 + (v[a + 1] - v[b + 1]) ** 2 - sq for a, b, sq in self.quad]
        f = self.driver
        rows += (v[f] - drive[2], v[f + 1] - drive[3])
        return rows

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        v = x.tolist() + self.anchor_xy
        grad = []
        for a, b, _ in self.quad:
            gx, gy = 2 * (v[a] - v[b]), 2 * (v[a + 1] - v[b + 1])
            grad += (gx, gy, -gx, -gy)
        J = self.template.copy()
        # added to the zero slots, so a -0.0 gradient is stored as 0.0
        J.reshape(-1)[self.slots] += grad
        return J[:, : len(x)]

    @_on_coordinates
    def full_residual(self, v: list[float], drive: tuple[float, ...]) -> float:
        f = self.driver
        ax, ay = self.driver_anchor
        bars = [abs((v[a] - v[b]) ** 2 + (v[a + 1] - v[b + 1]) ** 2 - sq) for a, b, sq in self.bars]
        # builtin max skips NaN rows after the leading 0.0
        return max([0.0, *bars, abs(v[f] - ax - drive[0]), abs(v[f + 1] - ay - drive[1])])

    def tracer_point(self, x: np.ndarray) -> tuple[float, float]:
        v = x.tolist() + self.anchor_xy
        a, b, off = self.tracer
        if b is None:
            return v[a], v[a + 1]
        return ((1 - off) * v[a] + off * v[b], (1 - off) * v[a + 1] + off * v[b + 1])


def _compile(spec: LinkageSpec) -> _Compiled:
    anchors = {
        j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.joints if j.is_anchored
    }
    free = [j.id for j in spec.joints if not j.is_anchored]
    at = {j: 2 * k for k, j in enumerate([*free, *anchors])}

    triples, quadrics = reduced_constraints(spec)
    driver_bar = spec.bar(spec.driver.bar)
    if spec.joint(driver_bar.a).is_anchored:
        anchor_id, free_id = driver_bar.a, driver_bar.b
    else:
        anchor_id, free_id = driver_bar.b, driver_bar.a

    def table(bars: Sequence[Bar]) -> list[tuple[int, int, float]]:
        return [(at[b.a], at[b.b], float(b.length) ** 2) for b in bars]

    # the driver's quadric gives way to the two driver-angle rows
    quad = table([b for b in quadrics if b.id != driver_bar.id])
    width = 2 * len(at)
    template = np.zeros((2 * len(triples) + len(quad) + 2, width))
    affine = []
    for r, tri in enumerate(triples):
        t = float(tri.t)
        affine.append((at[tri.mid], at[tri.a], at[tri.b], 1 - t, t))
        for jid, w in ((tri.mid, 1.0), (tri.a, -(1 - t)), (tri.b, -t)):
            template[2 * r, at[jid]] += w
            template[2 * r + 1, at[jid] + 1] += w
    template[-2, at[free_id]] = 1.0
    template[-1, at[free_id] + 1] = 1.0
    rows = range(2 * len(triples), len(template))
    slots = [r * width + i for r, (a, b, _) in zip(rows, quad) for i in (a, a + 1, b, b + 1)]

    tr = spec.tracer
    bar = spec.bar(tr.bar) if tr.on_bar else None
    tracer = (at[bar.a], at[bar.b], float(tr.offset)) if bar else (at[tr.joint], None, 0.0)
    return _Compiled(
        free=free,
        anchors=anchors,
        anchor_xy=[c for xy in anchors.values() for c in xy],
        affine=affine,
        quad=quad,
        bars=table(spec.bars),
        driver=at[free_id],
        driver_anchor=anchors[anchor_id],
        driver_length=float(driver_bar.length),
        tracer=tracer,
        template=template,
        slots=np.array(slots, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# Newton iteration


def _inf_norm(rows: list[float]) -> float:
    """max |row|, or NaN if a row is NaN, as np.linalg.norm(rows, np.inf)."""
    mags = list(map(abs, rows))
    return math.nan if math.isnan(sum(mags)) else max(mags)


def _max_condition(jacobians: Sequence[np.ndarray]) -> float:
    """The largest 2-norm condition number of the Jacobians, from one batched
    SVD: inf for an exactly singular one, 0.0 for none, NaN ones skipped."""
    if not jacobians:
        return 0.0
    sv = np.linalg.svd(np.array(jacobians), compute_uv=False)
    low = sv[:, -1]
    cond = np.divide(sv[:, 0], low, out=np.full(len(sv), math.inf), where=low != 0)
    return max([0.0, *cond.tolist()])


def _newton(comp: _Compiled, theta: float, x: np.ndarray, settings: SolverSettings):
    """Damped Newton from x. Returns (x, iterations, residual, jacobians, ok),
    with the Jacobian of every iteration run, for _max_condition."""
    drive = comp.drive(theta)
    jacobians: list[np.ndarray] = []
    for it in range(settings.max_newton_iters + 1):
        full = comp.full_residual(x, drive)
        if full < settings.tol:
            return x, it, full, jacobians, True
        if it == settings.max_newton_iters:
            return x, it, full, jacobians, False
        r = comp.reduced_residual(x, drive)
        J = comp.jacobian(x)
        jacobians.append(J)
        try:
            delta = np.linalg.solve(J, -np.array(r))
        except np.linalg.LinAlgError:
            return x, it, full, jacobians, False
        base = _inf_norm(r)
        scale = 1.0
        for _ in range(20):
            xn = x + scale * delta
            if _inf_norm(comp.reduced_residual(xn, drive)) < base:
                break
            scale /= 2
        else:
            return x, it, full, jacobians, False
        x = xn


def solve_configuration(
    spec: LinkageSpec,
    theta: float,
    seed: Configuration,
    settings: Optional[SolverSettings] = None,
) -> Configuration:
    """Solve all bar constraints plus the driver angle; raises on failure."""
    settings = settings or SolverSettings()
    comp = _compile(spec)
    x, it, residual, jacobians, ok = _newton(comp, theta, comp.to_vec(seed), settings)
    if not ok:
        condition = _max_condition(jacobians)
        if condition > settings.condition_threshold:
            raise SingularJacobian(condition)
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

    Yields (theta, x, jacobians) after every accepted step, with the Jacobians
    of its Newton call. A failed step is retried with half the step length,
    and an accepted one grows a shortened step back toward the initial step.
    The generator ends at theta_to, or at the last accepted angle once the
    step falls below the minimum (a stall).
    """
    sign = 1.0 if theta_to > theta else -1.0
    step = settings.initial_step * sign
    while theta != theta_to:
        nxt = theta + step
        if (theta_to - nxt) * sign < 0:
            nxt = theta_to
        xn, _, _, jacobians, ok = _newton(comp, nxt, x, settings)
        if ok:
            theta = nxt
            x = xn
            yield theta, x, jacobians
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
    without stopping or switching branches. A NaN or infinite theta_start,
    theta_end or seed_theta raises ValueError before any step is taken.
    """
    for name, value in (("theta_start", theta_start), ("theta_end", theta_end),
                        ("seed_theta", seed_theta)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
        samples.append(TraceSample(theta, px, py, comp.full_residual(x, comp.drive(theta))))

    theta = theta_start
    record(theta, x)
    near_singular = False
    for theta, x, jacobians in _steps(comp, x, theta, theta_end, settings):
        record(theta, x)
        if _max_condition(jacobians) > settings.condition_threshold:
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
    n_samples: int


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
        n_samples=len(pts),
    )
