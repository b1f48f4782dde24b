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
full original constraint set, never the rewritten rows.

Newton fails fast: once the full residual has failed to drop below
STALL_RATIO (0.9) times its previous value on STALL_ITERS (10) consecutive
iterations, the call fails, and the continuation halves its step, instead
of iterating to MAX_NEWTON_ITERS (50) at a workspace boundary. A NonConvergence
reports the iterations actually run. The catalog traces are the same bits
with and without the rule; on other linkages a call that creeps across a
fold for longer can be cut short, which changes the step schedule, and so
the sample grid, near the fold. The reduced residual of a point the line
search accepts is the next iteration's, not computed again, and a sample's
full residual is the one its Newton call accepted it with. Work is counted
in each Trace's SolveStats. Condition numbers are computed only where they
are read: on the sweep's accepted steps, one batched SVD per run of steps
holding CONDITION_BATCH (64) Jacobians, compared with CONDITION_THRESHOLD
(10^10) step by step in order, and on a failed solve_configuration. A leg
longer than MAX_SWEEP_STEPS (10^5) steps is refused before it starts, and so
is a linkage whose anchor coordinates or squared bar lengths overflow a float.

This is the one module that imports numpy, and only the commands that trace
load it. The total-least-squares line through a traced window is fitted in
locus.straightness_stats, in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .model import Bar, Configuration, LinkageSpec, reduced_constraints

# trace refuses a leg longer than this many steps at settings.initial_step;
# the catalog's longest sweep takes 630
MAX_SWEEP_STEPS = 10**5

# _newton gives up after MAX_NEWTON_ITERS iterations, or once the full
# residual has failed to drop below STALL_RATIO times its previous value on
# STALL_ITERS consecutive iterations
MAX_NEWTON_ITERS = 50
STALL_ITERS = 10
STALL_RATIO = 0.9

# a Newton Jacobian whose condition number exceeds this is near-singular
CONDITION_THRESHOLD = 1e10

# trace computes condition numbers with one batched SVD once its accepted
# steps hold this many Jacobians; the bound caps the memory a batch holds
CONDITION_BATCH = 64


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


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-12
    initial_step: float = 1e-2
    min_step: float = 1e-7

    def __post_init__(self):
        values = (self.tol, self.initial_step, self.min_step)
        if not all(0 < v < math.inf for v in values):  # false for NaN too
            raise ValueError("solver settings must be positive and finite")
        if self.min_step > self.initial_step:
            raise ValueError("min_step must not exceed initial_step")


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


@dataclass
class SolveStats:
    """Newton work counted over a whole trace, seed leg included."""

    calls: int = 0
    iterations: int = 0
    failed_calls: int = 0
    failed_iterations: int = 0  # iterations run by the failed calls
    backtracks: int = 0  # line-search step halvings


@dataclass(frozen=True)
class Trace:
    samples: list[TraceSample]
    events: list[BranchEvent]
    stats: SolveStats = field(default_factory=SolveStats)

    def windowed(self, window: tuple[float, float]) -> list[TraceSample]:
        lo, hi = min(window), max(window)
        return [s for s in self.samples if lo <= s.theta <= hi]


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
    try:
        anchors = {
            j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.joints if j.is_anchored
        }
        squares = {b: float(b.length) ** 2 for b in spec.bars}
    except OverflowError:
        raise ValueError(
            f"{spec.name!r} has an anchor coordinate or a squared bar length "
            "beyond the float range"
        ) from None
    free = [j.id for j in spec.joints if not j.is_anchored]
    at = {j: 2 * k for k, j in enumerate([*free, *anchors])}

    triples, quadrics = reduced_constraints(spec)
    driver_bar = spec.bar(spec.driver.bar)
    if spec.joint(driver_bar.a).is_anchored:
        anchor_id, free_id = driver_bar.a, driver_bar.b
    else:
        anchor_id, free_id = driver_bar.b, driver_bar.a

    def table(bars: Sequence[Bar]) -> list[tuple[int, int, float]]:
        return [(at[b.a], at[b.b], squares[b]) for b in bars]

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


def _conditions(jacobians: Sequence[np.ndarray]) -> list[float]:
    """The 2-norm condition number of each Jacobian, from one batched SVD:
    inf for an exactly singular one."""
    if not jacobians:
        return []
    sv = np.linalg.svd(np.array(jacobians), compute_uv=False)
    low = sv[:, -1]
    return np.divide(sv[:, 0], low, out=np.full(len(sv), math.inf), where=low != 0).tolist()


def _max_condition(jacobians: Sequence[np.ndarray]) -> float:
    """The largest condition number of the Jacobians: 0.0 for none, NaN ones
    skipped."""
    return max([0.0, *_conditions(jacobians)])


def _newton(
    comp: _Compiled, theta: float, x: np.ndarray, settings: SolverSettings, stats: SolveStats
):
    """Damped Newton from x. Returns (x, iterations, residual, jacobians, ok),
    with the Jacobian of every iteration run, for _conditions, and adds its
    work to stats. It fails at MAX_NEWTON_ITERS, on a singular or
    non-descending step, or once the full residual stalls (STALL_ITERS)."""
    drive = comp.drive(theta)
    jacobians: list[np.ndarray] = []
    r = None
    previous, stalled = math.inf, 0
    for it in range(MAX_NEWTON_ITERS + 1):
        full = comp.full_residual(x, drive)
        if full < settings.tol:
            break
        stalled = 0 if full < STALL_RATIO * previous else stalled + 1
        previous = full
        if it == MAX_NEWTON_ITERS or stalled == STALL_ITERS:
            break
        if r is None:
            r = comp.reduced_residual(x, drive)
        J = comp.jacobian(x)
        jacobians.append(J)
        try:
            delta = np.linalg.solve(J, -np.array(r))
        except np.linalg.LinAlgError:
            break
        base = _inf_norm(r)
        scale = 1.0
        for _ in range(20):
            xn = x + scale * delta
            # the reduced residual of an accepted point is the next iteration's r
            rn = comp.reduced_residual(xn, drive)
            if _inf_norm(rn) < base:
                break
            scale /= 2
            stats.backtracks += 1
        else:
            break
        x, r = xn, rn
    ok = full < settings.tol
    stats.calls += 1
    stats.iterations += it
    if not ok:
        stats.failed_calls += 1
        stats.failed_iterations += it
    return x, it, full, jacobians, ok


def solve_configuration(
    spec: LinkageSpec,
    theta: float,
    seed: Configuration,
    settings: Optional[SolverSettings] = None,
) -> Configuration:
    """Solve all bar constraints plus the driver angle; raises on failure."""
    settings = settings or SolverSettings()
    comp = _compile(spec)
    x, it, residual, jacobians, ok = _newton(
        comp, theta, comp.to_vec(seed), settings, SolveStats()
    )
    if not ok:
        condition = _max_condition(jacobians)
        if condition > CONDITION_THRESHOLD:
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


# ---------------------------------------------------------------------------
# continuation tracing


def _steps(
    comp: _Compiled,
    x: np.ndarray,
    theta: float,
    theta_to: float,
    settings: SolverSettings,
    stats: SolveStats,
):
    """Continuation from the solution x at theta toward theta_to.

    Yields (theta, x, residual, jacobians) after every accepted step, with the
    full residual at x and the Jacobians of its Newton call. A failed step is
    retried with half the step length, and an accepted one grows a shortened
    step back toward the initial step.
    The generator ends at theta_to, or at the last accepted angle once the
    step falls below the minimum (a stall).
    """
    sign = 1.0 if theta_to > theta else -1.0
    step = settings.initial_step * sign
    while theta != theta_to:
        nxt = theta + step
        if (theta_to - nxt) * sign < 0:
            nxt = theta_to
        xn, _, full, jacobians, ok = _newton(comp, nxt, x, settings, stats)
        if ok:
            theta = nxt
            x = xn
            yield theta, x, full, jacobians
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
    without stopping or switching branches. The Newton work of the whole
    trace, seed leg included, is counted in Trace.stats. A NaN or infinite
    theta_start, theta_end or seed_theta raises ValueError before any step is
    taken, and so does a leg (seed_theta to theta_start, or theta_start to
    theta_end) longer than MAX_SWEEP_STEPS steps of settings.initial_step.
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
    for a, b in ((seed_theta, theta_start), (theta_start, theta_end)):
        if abs(b - a) > MAX_SWEEP_STEPS * settings.initial_step:
            raise ValueError(
                f"sweep from theta={a:.6g} to {b:.6g} needs more than "
                f"{MAX_SWEEP_STEPS} steps of {settings.initial_step:g}"
            )

    stats = SolveStats()
    x, _, full, _, ok = _newton(comp, seed_theta, comp.to_vec(seed), settings, stats)
    if not ok:
        raise NoSeed(f"no solvable configuration at theta={seed_theta:.6g}")
    theta = seed_theta
    for theta, x, full, _ in _steps(comp, x, theta, theta_start, settings, stats):
        pass
    if theta != theta_start:
        raise NoSeed(
            f"continuation from theta={seed_theta:.6g} stalled at "
            f"theta={theta:.6g} before reaching {theta_start:.6g}"
        )

    samples: list[TraceSample] = []
    events: list[BranchEvent] = []

    def record(theta: float, x: np.ndarray, residual: float) -> None:
        px, py = comp.tracer_point(x)
        samples.append(TraceSample(theta, px, py, residual))

    near_singular = False

    def flag(steps: list[tuple[float, list[np.ndarray]]]) -> None:
        """Compare each step's largest condition number with the threshold,
        in step order, from one SVD over all their Jacobians."""
        nonlocal near_singular
        conditions = iter(_conditions([J for _, jacobians in steps for J in jacobians]))
        for at, jacobians in steps:
            if max([0.0, *islice(conditions, len(jacobians))]) > CONDITION_THRESHOLD:
                if not near_singular:
                    events.append(BranchEvent(at, EventKind.SINGULAR_CONFIGURATION))
                    near_singular = True
            else:
                near_singular = False

    theta = theta_start
    record(theta, x, full)
    batch: list[tuple[float, list[np.ndarray]]] = []
    held = 0
    for theta, x, full, jacobians in _steps(comp, x, theta, theta_end, settings, stats):
        record(theta, x, full)
        batch.append((theta, jacobians))
        held += len(jacobians)
        if held >= CONDITION_BATCH:
            flag(batch)
            batch, held = [], 0
    flag(batch)
    if theta != theta_end:
        events.append(BranchEvent(theta, EventKind.WORKSPACE_BOUNDARY))
    return Trace(samples, events, stats)

