"""Numeric constraint solving and coupler-curve tracing.

The bar-length system is solved by damped Newton iteration at a fixed driver
angle, and curves are traced by predictor-corrector continuation: each angle
step starts Newton from the secant through the last two accepted solutions
(from the last solution while there is only one), halving the step on
failure. One continuation loop both carries the seed to the sweep start and
sweeps the window; a stall is NoSeed in the first use and a workspace
boundary in the second. Newton runs on the rows of
model.reduced_constraints, the encoding the locus builder shares: collinear
bar triples (rigid beams with interior joints) become affine rows plus the
outer bar's quadric, since the raw triple encoding has an
everywhere-singular Jacobian, and the driver's quadric gives way to two
driver-angle rows. _compile turns those rows, once per trace, into integer
index tables over one coordinate list (free coordinates, then anchors) that
the residuals read as Python floats; the Jacobian copies a template of its
constant rows. Once a square passes the float range every bar row reads
inf, which Newton refuses. Convergence is always measured against the full
original constraint set, never the rewritten rows, at settings.tol or at the
rounding floor of a bar row, 4 ulp of the largest squared bar length,
whichever is larger: the row's two squares, their sum and the rounded
length**2 account for 2.5 of them, and the rounding of joint coordinates
within a few bar lengths of the origin for the rest. Coordinates far from
the origin round more coarsely than the floor allows for; there Newton
does not converge, and trace raises NoSeed instead of accepting the seed.

A Newton call fails at MAX_NEWTON_ITERS (50) iterations, on a singular
Jacobian, or when its line search has halved a step MAX_HALVINGS (8) times
without lowering the reduced residual; the continuation then halves its
step. Just past a workspace boundary the line search runs out within a few
iterations. NoSeed is the one error for a failed solve: trace raises it when
the seed solve or the seed leg fails. The reduced residual of a point the
line search accepts is the next iteration's, not computed again, and a
sample's full residual is the one its Newton call accepted it with. Work is
counted in each Trace's SolveStats.

Each accepted step of the sweep is flagged from the Jacobian at its own
solution, so a singular-configuration event depends on the configuration,
not on Newton's path. Their condition numbers come from one batched SVD per
CONDITION_BATCH (64) steps and are compared with CONDITION_THRESHOLD
(10^10) in step order. A leg longer than MAX_SWEEP_STEPS (10^5) steps is
refused before it starts (check_sweep), and so is a linkage whose anchor
coordinates or squared bar lengths overflow a float, or whose default layout
does.

This is the one module that imports numpy, and only the commands that trace
load it. The total-least-squares line through a traced window is fitted in
locus.straightness_stats, in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import Bar, Configuration, LinkageSpec, reduced_constraints

# trace refuses a leg longer than this many steps at settings.initial_step;
# the catalog's longest sweep takes 630
MAX_SWEEP_STEPS = 10**5

# _newton gives up after MAX_NEWTON_ITERS iterations, or once its line
# search has halved a step MAX_HALVINGS times without lowering the residual
MAX_NEWTON_ITERS = 50
MAX_HALVINGS = 8

# a Newton Jacobian whose condition number exceeds this is near-singular
CONDITION_THRESHOLD = 1e10

# trace computes condition numbers with one batched SVD per this many accepted
# steps; the bound caps the memory a batch holds
CONDITION_BATCH = 64


class NoSeed(RuntimeError):
    """No solvable configuration could be reached at the sweep start."""


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


def _bar_rows(v: list[float], bars: list[tuple[int, int, float]]) -> list[float]:
    """Squared distance minus squared length for each (a, b, length**2);
    every row reads inf once a square passes the float range."""
    try:
        return [(v[a] - v[b]) ** 2 + (v[a + 1] - v[b + 1]) ** 2 - sq for a, b, sq in bars]
    except OverflowError:  # float ** 2 raises where float * float gives inf
        return [math.inf] * len(bars)


@dataclass
class _Compiled:
    """model.reduced_constraints as integer index tables over one coordinate
    list: the free coordinates x first, the anchor coordinates after them. A
    joint at index i has its x there and its y at i + 1."""

    free: list[str]  # free[k] owns x[2k], x[2k + 1]
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
    tol_floor: float  # 4 ulp of the largest squared bar length

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

    def drive(self, theta: float) -> tuple[float, float, float, float]:
        """L cos(theta), L sin(theta), and the driven joint's target."""
        c, s = self.driver_length * math.cos(theta), self.driver_length * math.sin(theta)
        ax, ay = self.driver_anchor
        return c, s, ax + c, ay + s

    def reduced_residual(self, x: np.ndarray, drive: tuple[float, ...]) -> list[float]:
        v = x.tolist() + self.anchor_xy
        rows = []
        for mid, a, b, u, t in self.affine:
            rows += (v[mid] - u * v[a] - t * v[b], v[mid + 1] - u * v[a + 1] - t * v[b + 1])
        rows += _bar_rows(v, self.quad)
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

    def full_residual(self, x: np.ndarray, drive: tuple[float, ...]) -> float:
        v = x.tolist() + self.anchor_xy
        f = self.driver
        ax, ay = self.driver_anchor
        bars = map(abs, _bar_rows(v, self.bars))
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
        tol_floor=4 * math.ulp(max(squares.values())),
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


def _newton(
    comp: _Compiled, theta: float, x: np.ndarray, settings: SolverSettings, stats: SolveStats
):
    """Damped Newton from x. Returns (x, residual, ok) and adds its work to
    stats. It fails at MAX_NEWTON_ITERS, on a singular step, or when
    MAX_HALVINGS halvings of a step do not lower the reduced residual."""
    drive = comp.drive(theta)
    tol = max(settings.tol, comp.tol_floor)
    r = None
    for it in range(MAX_NEWTON_ITERS + 1):
        full = comp.full_residual(x, drive)
        if full < tol or it == MAX_NEWTON_ITERS:
            break
        if r is None:
            r = comp.reduced_residual(x, drive)
        J = comp.jacobian(x)
        try:
            delta = np.linalg.solve(J, -np.array(r))
        except np.linalg.LinAlgError:
            break
        base = _inf_norm(r)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
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
    ok = full < tol
    stats.calls += 1
    stats.iterations += it
    if not ok:
        stats.failed_calls += 1
        stats.failed_iterations += it
    return x, full, ok


def default_layout(spec: LinkageSpec) -> Configuration:
    """Deterministic geometric starting guess: breadth-first placement from
    the anchors, intersecting circles where two neighbors are already placed.
    Newton refines it; this only has to be in the right basin often enough.
    A layout past the float range (joints so far apart that their squared
    distance overflows) raises ValueError."""
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
                (x1, y1), (x2, y2) = placed[o1], placed[o2]
                r1, r2 = float(b1.length), float(b2.length)
                dx, dy = x2 - x1, y2 - y1
                d = math.sqrt(dx * dx + dy * dy)
                if d < 1e-12:
                    placed[jid] = (x1 + r1, y1)
                else:
                    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
                    h2 = r1 * r1 - a * a
                    h = math.sqrt(h2) if h2 > 0 else 0.0
                    ux, uy = dx / d, dy / d
                    placed[jid] = (x1 + a * ux - h * uy, y1 + a * uy + h * ux)
            remaining.remove(jid)
            progressed = True
            tick += 1
        if not progressed:
            # disconnected leftovers; validation rejects these anyway
            for i, jid in enumerate(remaining):
                placed[jid] = (float(i + 1), 0.0)
            break
    bad = [j for j, xy in placed.items() if not all(map(math.isfinite, xy))]
    if bad:
        raise ValueError(
            f"the default layout of {spec.name!r} places {bad} beyond the float range"
        )
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

    Yields (theta, x, residual) after every accepted step, with the full
    residual at x. Newton starts from the secant prediction through the last
    two accepted points, or from x while only x has been accepted. A failed
    step is retried with half the step length, and an accepted one grows a
    shortened step back toward the initial step.
    The generator ends at theta_to, or at the last accepted angle once the
    step falls below the minimum (a stall).
    """
    sign = 1.0 if theta_to > theta else -1.0
    step = settings.initial_step * sign
    x_prev = theta_prev = None
    while theta != theta_to:
        nxt = theta + step
        if (theta_to - nxt) * sign < 0:
            nxt = theta_to
        guess = x if x_prev is None else x + (x - x_prev) * (nxt - theta) / (theta - theta_prev)
        xn, full, ok = _newton(comp, nxt, guess, settings, stats)
        if ok:
            x_prev, theta_prev = x, theta
            theta = nxt
            x = xn
            yield theta, x, full
            if abs(step) < settings.initial_step:
                step = sign * min(abs(step) * 1.5, settings.initial_step)
        else:
            step /= 2
            if abs(step) < settings.min_step:
                return


def check_sweep(
    theta_start: float,
    theta_end: float,
    settings: SolverSettings,
    seed_theta: Optional[float] = None,
) -> None:
    """Raise ValueError for a sweep that trace refuses before any step: a NaN
    or infinite angle, or a leg (seed_theta to theta_start, or theta_start to
    theta_end) longer than MAX_SWEEP_STEPS steps of settings.initial_step."""
    for name, value in (("theta_start", theta_start), ("theta_end", theta_end),
                        ("seed_theta", seed_theta)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    seed_theta = theta_start if seed_theta is None else seed_theta
    for a, b in ((seed_theta, theta_start), (theta_start, theta_end)):
        if abs(b - a) > MAX_SWEEP_STEPS * settings.initial_step:
            raise ValueError(
                f"sweep from theta={a:.6g} to {b:.6g} needs more than "
                f"{MAX_SWEEP_STEPS} steps of {settings.initial_step:g}"
            )


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
    trace, seed leg included, is counted in Trace.stats. seed_theta, where the
    seed holds (default theta_start), is ignored without a seed. A sweep that
    check_sweep refuses raises ValueError before any step is taken, and so
    does a linkage whose dimensions overflow a float.
    """
    settings = settings or SolverSettings()
    if seed is None or seed_theta is None:
        seed_theta = theta_start
    check_sweep(theta_start, theta_end, settings, seed_theta)
    comp = _compile(spec)
    if seed is None:
        seed = default_layout(spec)

    stats = SolveStats()
    x, full, ok = _newton(comp, seed_theta, comp.to_vec(seed), settings, stats)
    if not ok:
        raise NoSeed(f"no solvable configuration at theta={seed_theta:.6g}")
    theta = seed_theta
    for theta, x, full in _steps(comp, x, theta, theta_start, settings, stats):
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

    def flag(steps: list[tuple[float, np.ndarray]]) -> None:
        """Compare each step's condition number with the threshold, in step
        order, from one SVD over their Jacobians."""
        nonlocal near_singular
        for (at, _), cond in zip(steps, _conditions([J for _, J in steps])):
            if cond > CONDITION_THRESHOLD:
                if not near_singular:
                    events.append(BranchEvent(at, EventKind.SINGULAR_CONFIGURATION))
                    near_singular = True
            else:
                near_singular = False

    theta = theta_start
    record(theta, x, full)
    batch: list[tuple[float, np.ndarray]] = []
    for theta, x, full in _steps(comp, x, theta, theta_end, settings, stats):
        record(theta, x, full)
        batch.append((theta, comp.jacobian(x)))
        if len(batch) == CONDITION_BATCH:
            flag(batch)
            batch = []
    flag(batch)
    if theta != theta_end:
        events.append(BranchEvent(theta, EventKind.WORKSPACE_BOUNDARY))
    return Trace(samples, events, stats)

