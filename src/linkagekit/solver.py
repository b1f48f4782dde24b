"""Numeric constraint solving and coupler-curve tracing.

The bar-length system is solved by damped Newton iteration at a fixed driver
angle, and curves are traced by predictor-corrector continuation, halving the
step on failure. One continuation loop both carries the seed to the sweep
start and sweeps the window; a stall is NoSeed in the first use and a
workspace boundary in the second. Newton runs on the rows of
model.reduced_constraints, the encoding the locus builder shares: collinear
bar triples (rigid beams with interior joints) become affine rows plus the
outer bar's quadric, since the raw triple encoding has an everywhere-singular
Jacobian, and the driver's quadric gives way to two driver-angle rows.
_compile turns those rows, once per trace, into integer index tables over one
coordinate list (free coordinates, then anchors).

The predictor places joints by construction where it can, as
graph-constructive solvers do (Owen 1991; Fudos and Hoffmann 1997). _compile
builds the plan from reduced_constraints and the framed squared length of
every bar, inner bars included: starting from the anchors and the driven
joint, it places the first unplaced free joint, in spec order, that is either
an affine point of a collinear triple (the interior joint from both ends, or
an end from the interior joint and the other end) or a dyad, a joint with bars
to two placed joints. A step takes the secant through the last two accepted
solutions (the last solution alone at the start of a leg), then puts the
driven joint at its target and each planned joint at its construction; a dyad
keeps the side of its parents it had in the last accepted state, the sign of a
cross product. Newton stays the one judge: the constructed point must pass its
first test, or it iterates from there. A joint the plan cannot place, one of a
triad (a class-III Assur group) for example, keeps the secant guess, and so
does a dyad whose parents coincide. A planned joint hangs only on anchors, the
driven joint and joints placed before it, so where a dyad's parents are apart
but its bars cannot meet, the branch has no configuration at the new angle,
and the step is halved without a Newton call. SolveStats counts the halvings,
whatever refused the step.

The system is solved in a frame, the usual diagonal scaling of a nonlinear
system: its origin is the driver's anchor and its unit u the least power of
two no shorter than any quadric bar (a bar between two anchors is none).
Framed anchors and squared lengths are rounded once from the exact rationals,
so a linkage moved anywhere, or scaled by a power of two, solves the same
framed system. to_vec maps a seed into the frame, the default seed is laid out
in it (_layout), tracer_point maps pen points back, and a sample's residual is
reported in model units, (r*u)*u; condition numbers are those of the framed
Jacobians.

The state is a plain list of Python floats; numpy serves only LAPACK's solve,
the Jacobians (copies of a template of the constant rows, with the quadric
gradients added) and their SVDs. Each Newton step calls
numpy.linalg._umath_linalg.solve1, the gufunc np.linalg.solve calls for a 1-D
right-hand side, under np.linalg.solve's own error settings, which trace enters
once around all its Newton calls: the same bits, and LinAlgError for a singular
matrix. One evaluation of a point gives the full residual and the reduced rows,
squaring each bar once as dx*dx + dy*dy; a row past the float range reads inf
or NaN on its own. Both residuals are infinity norms that a NaN row makes NaN,
so Newton refuses such a point, a non-finite start included. Convergence is
measured on the full original constraint set, never the rewritten rows, at
settings.tol (model units, so tol/u**2 in the frame) or at the rounding floor
of a bar row, 4 ulp of the largest framed squared quadric length, whichever is
larger: the row's two squares, their sum and the rounded length**2 account for
2.5 of them, and the rounding of framed joint coordinates for the rest.

A Newton call fails at MAX_NEWTON_ITERS (50) iterations, on a singular
Jacobian, or when its line search has halved a step MAX_HALVINGS (8) times
without lowering the reduced residual; the continuation then halves its step.
NoSeed, the one error for a failed solve, is raised when the seed solve or the
seed leg fails. The residuals of a point the line search accepts are the next
iteration's, and a sample's full residual is the one its Newton call accepted
it with. Work is counted in each Trace's SolveStats.

Each accepted step of the sweep is flagged from the Jacobian at its own
solution, so a singular-configuration event depends on the configuration, not
on Newton's path: CONDITION_BATCH (64) steps at a time, their Jacobians are
built in one vectorised pass, and their condition numbers come from one
np.linalg.cond, a batched SVD, and are compared with CONDITION_THRESHOLD
(10^10) in step order. The largest is kept in SolveStats.max_condition. A NaN
or infinite angle, or a leg longer than MAX_SWEEP_STEPS (10^5) steps, is
refused with SweepError before any step; a linkage whose anchor coordinates or
squared bar lengths overflow a float, in model units or in the frame, with a
plain ValueError.

This is the one module that imports numpy, and only the commands that trace
load it. The total-least-squares line through a traced window is fitted in
locus.straightness_stats, in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Container, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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


class SweepError(ValueError):
    """A sweep refused before any step: a NaN or infinite angle, or a leg
    longer than MAX_SWEEP_STEPS steps of settings.initial_step."""


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
    halvings: int = 0  # continuation step halvings, whatever refused the step
    max_condition: float = 0.0  # largest over the sweep's steps; 0.0 with no step


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
    """Squared distance minus squared length for each (a, b, length**2)."""
    return [(dx := v[a] - v[b]) * dx + (dy := v[a + 1] - v[b + 1]) * dy - sq
            for a, b, sq in bars]


@dataclass
class _Compiled:
    """model.reduced_constraints as integer index tables over one coordinate
    list in the frame: the free coordinates x first, the anchor coordinates
    after them. A joint at index i has its x there and its y at i + 1. A
    framed point p is origin + unit * p in model units."""

    free: list[str]  # free[k] owns x[2k], x[2k + 1]
    origin: tuple[float, float]  # the driver's anchor, in model units
    unit: float  # a power of two
    anchor_xy: list[float]
    affine: list[tuple[int, int, int, float, float]]  # mid, a, b, 1-t, t: mid = (1-t)*a + t*b
    quad: list[tuple[int, int, float]]  # a, b, length**2 of the reduced quadric rows
    rest: list[tuple[int, int, float]]  # a, b, length**2 of the other bars, only checked
    driver: int  # index of the driven joint
    driver_length: float
    tracer: tuple[int, int, float]  # a, b, offset; a joint tracer is (a, a, 0.0)
    template: np.ndarray  # Jacobian over every coordinate: constant affine and driver rows
    slots: np.ndarray  # flat template indices of the quadric gradients, as jacobian lists them
    heads: np.ndarray  # slot k's gradient is 2 * (v[heads[k]] - v[tails[k]]),
    tails: np.ndarray  # up to the sign of a zero
    tol_floor: float  # 4 ulp of the largest framed squared quadric length
    # the constructive plan, in order: (joint, p, q, a, b, dyad). A dyad
    # puts the joint where bars of squared lengths a from p and b from q
    # meet; an affine step puts it at a*p + b*q
    plan: list[tuple[int, int, int, float, float, bool]]

    def to_vec(self, cfg: Configuration) -> list[float]:
        missing = [j for j in self.free if j not in cfg]
        if missing:
            raise ValueError(f"seed missing free joints {missing}")
        bad = [j for j in self.free if not all(map(math.isfinite, cfg[j]))]
        if bad:
            raise ValueError(f"seed coordinates of {bad} are not finite")
        u = self.unit
        return [(float(c) - o) / u for j in self.free for c, o in zip(cfg[j], self.origin)]

    def drive(self, theta: float) -> tuple[float, float]:
        """The driven joint's target, L cos(theta) and L sin(theta)."""
        return self.driver_length * math.cos(theta), self.driver_length * math.sin(theta)

    def construct(self, x: list[float], last: list[float], theta: float) -> Optional[list[float]]:
        """x with the driven joint at its target at theta and each planned
        joint at its construction, a dyad on the side of its parents it has
        in last. A dyad whose parents coincide keeps x's point. None if a
        dyad's parents are apart but its bars cannot meet: no configuration
        with last's dyad sides exists at theta."""
        v = x + self.anchor_xy
        w = last + self.anchor_xy
        v[self.driver], v[self.driver + 1] = self.drive(theta)
        for j, p, q, a, b, dyad in self.plan:
            px, py, qx, qy = v[p], v[p + 1], v[q], v[q + 1]
            if not dyad:
                v[j], v[j + 1] = a * px + b * qx, a * py + b * qy
                continue
            dx, dy = qx - px, qy - py
            dd = dx * dx + dy * dy
            if dd == 0:
                continue
            # the joint's foot on p-q lies s along it, the joint k off it, in units of |q - p|
            s = (dd + a - b) / (2 * dd)
            kk = a / dd - s * s
            if kk < 0:
                return None
            k = math.sqrt(kk)
            if (w[q] - w[p]) * (w[j + 1] - w[p + 1]) < (w[q + 1] - w[p + 1]) * (w[j] - w[p]):
                k = -k
            v[j], v[j + 1] = px + s * dx - k * dy, py + s * dy + k * dx
        return v[: len(x)]

    def residuals(self, x: list[float], drive: tuple[float, float]) -> tuple[float, list[float]]:
        """The full residual, _inf_norm over every bar and the driver's
        position, and the reduced rows Newton solves, squaring each bar once."""
        v = x + self.anchor_xy
        rows = []
        for mid, a, b, u, t in self.affine:
            rows += (v[mid] - u * v[a] - t * v[b], v[mid + 1] - u * v[a + 1] - t * v[b + 1])
        checked = _bar_rows(v, self.quad)
        checked += (v[self.driver] - drive[0], v[self.driver + 1] - drive[1])
        rows += checked
        return _inf_norm(checked + _bar_rows(v, self.rest)), rows

    def jacobian(self, x: list[float]) -> np.ndarray:
        v = x + self.anchor_xy
        grad = []
        for a, b, _ in self.quad:
            gx, gy = 2 * (v[a] - v[b]), 2 * (v[a + 1] - v[b + 1])
            # what adding to the template's zero slots stores: 0.0 for -0.0
            grad += (0.0 + gx, 0.0 + gy, 0.0 - gx, 0.0 - gy)
        J = self.template.copy()
        J.reshape(-1)[self.slots] = grad
        return J[:, : len(x)]

    def jacobians(self, xs: list[list[float]]) -> np.ndarray:
        """jacobian at each state of xs, stacked, built in one pass."""
        v = np.array([x + self.anchor_xy for x in xs])
        J = np.repeat(self.template[np.newaxis], len(xs), axis=0)
        # 2*(v[b] - v[a]) is -2*(v[a] - v[b]) up to the sign of a zero, and
        # added to the zero slots either zero is stored as 0.0
        J.reshape(len(xs), -1)[:, self.slots] += 2 * (v[:, self.heads] - v[:, self.tails])
        return J[:, :, : len(xs[0])]

    def tracer_point(self, x: list[float]) -> tuple[float, float]:
        """The pen point, in model units."""
        v = x + self.anchor_xy
        a, b, off = self.tracer
        px, py = (1 - off) * v[a] + off * v[b], (1 - off) * v[a + 1] + off * v[b + 1]
        return self.origin[0] + self.unit * px, self.origin[1] + self.unit * py


def _bars_to(spec: LinkageSpec, jid: str, placed: Container[str]) -> list[tuple[Bar, str]]:
    """(bar, neighbor) for each bar from jid to a placed joint, in spec order:
    the bars that place jid, in the constructive plan and in _layout alike."""
    return [(b, o) for b in spec.bars_at(jid) if (o := b.a if b.b == jid else b.b) in placed]


def _compile(spec: LinkageSpec) -> _Compiled:
    anchored = spec.anchored_joints
    try:
        # a trace reports in model units, where each of these must fit a float
        for value in [c for j in anchored for c in j.anchor] + [b.length ** 2 for b in spec.bars]:
            float(value)
    except OverflowError:
        raise ValueError(
            f"{spec.name!r} has an anchor coordinate or a squared bar length "
            "beyond the float range"
        ) from None
    triples, quadrics = reduced_constraints(spec)
    driver_bar = spec.bar(spec.driver.bar)
    anchor_id, free_id = driver_bar.a, driver_bar.b
    if not spec.joint(anchor_id).is_anchored:
        anchor_id, free_id = free_id, anchor_id

    # the frame: the driver's anchor, and the least power of two no shorter than any quadric bar
    origin = spec.joint(anchor_id).anchor
    m, e = math.frexp(float(max(b.length for b in quadrics)))
    power = e - 1 if m == 0.5 else e
    unit = Fraction(2) ** power
    try:
        # anchors far apart against the quadric bars can overflow in the frame alone
        anchor_xy = [float((c - o) / unit) for j in anchored for c, o in zip(j.anchor, origin)]
        squares = {b: float((b.length / unit) ** 2) for b in spec.bars}
    except OverflowError:
        raise ValueError(
            f"{spec.name!r} has an anchor coordinate or a squared bar length "
            f"beyond the float range in its frame's unit, 2**{power}"
        ) from None
    free = [j.id for j in spec.joints if not j.is_anchored]
    at = {j: 2 * k for k, j in enumerate([*free, *(a.id for a in anchored)])}

    def table(bars: Sequence[Bar]) -> list[tuple[int, int, float]]:
        return [(at[b.a], at[b.b], squares[b]) for b in bars]

    # the driver's quadric gives way to the two driver-angle rows
    solved = [b for b in quadrics if b.id != driver_bar.id]
    quad = table(solved)
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
    ends = (spec.bar(tr.bar).a, spec.bar(tr.bar).b) if tr.on_bar else (tr.joint, tr.joint)
    tracer = (at[ends[0]], at[ends[1]], float(tr.offset) if tr.on_bar else 0.0)

    # the constructive plan: again and again, the first free joint in spec
    # order that placement can place, an affine point before a dyad
    placed = {j.id for j in anchored} | {free_id}
    plan = []

    def placement(jid: str) -> Optional[tuple[int, int, int, float, float, bool]]:
        for tri in triples:
            t = float(tri.t)
            if jid == tri.mid and {tri.a, tri.b} <= placed:
                return at[jid], at[tri.a], at[tri.b], 1 - t, t, False
            # an end from the interior joint and the other end
            if jid == tri.a and {tri.mid, tri.b} <= placed:
                return at[jid], at[tri.mid], at[tri.b], 1 / (1 - t), -t / (1 - t), False
            if jid == tri.b and {tri.mid, tri.a} <= placed:
                return at[jid], at[tri.mid], at[tri.a], 1 / t, -(1 - t) / t, False
        known = _bars_to(spec, jid, placed)
        if len(known) < 2:
            return None
        (b1, o1), (b2, o2) = known[:2]
        return at[jid], at[o1], at[o2], squares[b1], squares[b2], True

    while step := next(((j, s) for j in free if j not in placed and (s := placement(j))), None):
        placed.add(step[0])
        plan.append(step[1])
    return _Compiled(
        free=free,
        origin=(float(origin[0]), float(origin[1])),
        unit=float(unit),
        anchor_xy=anchor_xy,
        affine=affine,
        quad=quad,
        rest=table([b for b in spec.bars if b not in solved]),
        driver=at[free_id],
        driver_length=float(driver_bar.length / unit),
        tracer=tracer,
        template=template,
        slots=np.array(slots, dtype=np.intp),
        heads=np.array([i for a, b, _ in quad for i in (a, a + 1, b, b + 1)], dtype=np.intp),
        tails=np.array([i for a, b, _ in quad for i in (b, b + 1, a, a + 1)], dtype=np.intp),
        tol_floor=4 * math.ulp(max(squares[b] for b in quadrics)),
        plan=plan,
    )


# ---------------------------------------------------------------------------
# Newton iteration


def _inf_norm(rows: list[float]) -> float:
    """max |row|, or NaN if a row is NaN, as np.linalg.norm(rows, np.inf)."""
    mags = list(map(abs, rows))
    return math.nan if math.isnan(sum(mags)) else max(mags)


def _raise_singular(err: str, flag: int) -> None:
    """The errstate handler np.linalg.solve installs: its gufunc flags a
    singular matrix as an invalid floating-point operation."""
    raise np.linalg.LinAlgError("Singular matrix")


def _solve_errors() -> np.errstate:
    """np.linalg.solve's error settings around its gufunc, which trace enters
    once for all its Newton calls: a singular matrix raises LinAlgError, and
    an inf or NaN right-hand side raises nothing, its step comes out
    non-finite. np.linalg.cond and its SVD set their own."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _newton(
    comp: _Compiled, theta: float, x: list[float], settings: SolverSettings, stats: SolveStats
):
    """Damped Newton from x, under _solve_errors(). Returns (x, residual, ok)
    and adds its work to stats. It fails at MAX_NEWTON_ITERS, on a singular
    step, or when MAX_HALVINGS halvings of a step do not lower the reduced
    residual; a start with a NaN or infinite residual never passes."""
    drive = comp.drive(theta)
    tol = max(settings.tol / comp.unit / comp.unit, comp.tol_floor)
    full, r = comp.residuals(x, drive)
    base = _inf_norm(r)
    for it in range(MAX_NEWTON_ITERS + 1):
        if full < tol or it == MAX_NEWTON_ITERS:
            break
        try:
            # the Newton step is -delta: x - s*delta rounds as x + s*(-delta) would
            delta = _umath_linalg.solve1(comp.jacobian(x), r, signature="dd->d").tolist()
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            xn = [c - scale * d for c, d in zip(x, delta)]
            # the residuals of an accepted point, and their norm, are the next iteration's
            fn, rn = comp.residuals(xn, drive)
            bn = _inf_norm(rn)
            if bn < base:
                break
            scale /= 2
            stats.backtracks += 1
        else:
            break
        x, full, r, base = xn, fn, rn, bn
    ok = full < tol
    stats.calls += 1
    stats.iterations += it
    if not ok:
        stats.failed_calls += 1
        stats.failed_iterations += it
    return x, full, ok


def _layout(spec: LinkageSpec, comp: _Compiled, theta: float) -> list[float]:
    """The default seed at driver angle theta, a framed state: the driven
    joint at its target, then, one at a time, the first free joint in spec
    order with two placed neighbors, at a circle intersection, or else the
    first with one, at a golden-angle step around it. Newton refines it; this
    only has to be in the right basin often enough. Every bar that places a
    joint is at most one frame unit long, a quadric bar by the choice of unit
    and an inner bar as part of its outer one, so only anchors far apart in
    the frame, whose distance squares past the float range, can make a point
    inf or NaN; Newton refuses that start."""
    xy = comp.anchor_xy
    placed = {j.id: (xy[2 * k], xy[2 * k + 1]) for k, j in enumerate(spec.anchored_joints)}
    # the frame's origin is the driver's anchor
    placed[comp.free[comp.driver // 2]] = comp.drive(theta)
    unit = Fraction(comp.unit)
    golden = 2.399963229728653
    tick = 0

    while ready := [(jid, k) for jid in comp.free
                    if jid not in placed and (k := _bars_to(spec, jid, placed))]:
        # the first with two placed neighbors, or else the first with one
        jid, k = next((r for r in ready if len(r[1]) > 1), ready[0])
        if len(k) > 1:
            (b1, o1), (b2, o2) = k[0], k[1]
            (x1, y1), (x2, y2) = placed[o1], placed[o2]
            r1, r2 = float(b1.length / unit), float(b2.length / unit)
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
        else:
            ((bar, other),) = k
            ox, oy = placed[other]
            ang = golden * tick
            L = float(bar.length / unit)
            placed[jid] = (ox + L * math.cos(ang), oy + L * math.sin(ang))
            tick += 1
    # a joint no bar path joins to an anchor, which validation rejects, stays at the origin
    return [c for j in comp.free for c in placed.get(j, (0.0, 0.0))]


# ---------------------------------------------------------------------------
# continuation tracing


def _steps(
    comp: _Compiled,
    x: list[float],
    theta: float,
    theta_to: float,
    settings: SolverSettings,
    stats: SolveStats,
):
    """Continuation from the solution x at theta toward theta_to.

    Yields (theta, x, residual) after every accepted step, with the full
    residual at x. Newton starts from the construction (comp.construct) on
    the secant prediction through the last two accepted points, or on x
    while only x has been accepted. A step that has no configuration or that
    Newton fails is retried with half the step length, and an accepted one
    grows a shortened step back toward the initial step.
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
        if x_prev is None:
            guess = x
        else:
            ahead, back = nxt - theta, theta - theta_prev
            guess = [c + (c - p) * ahead / back for c, p in zip(x, x_prev)]
        guess = comp.construct(guess, x, nxt)
        ok = guess is not None
        if ok:
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
            stats.halvings += 1
            if abs(step) < settings.min_step:
                return


def _check_sweep(
    theta_start: float, theta_end: float, settings: SolverSettings, seed_theta: float
) -> None:
    """Raise SweepError for a NaN or infinite angle, or a leg (seed_theta to
    theta_start, or theta_start to theta_end) longer than MAX_SWEEP_STEPS
    steps of settings.initial_step."""
    for name, value in (("theta_start", theta_start), ("theta_end", theta_end),
                        ("seed_theta", seed_theta)):
        if not math.isfinite(value):
            raise SweepError(f"{name} must be finite, got {value}")
    for a, b in ((seed_theta, theta_start), (theta_start, theta_end)):
        if abs(b - a) > MAX_SWEEP_STEPS * settings.initial_step:
            raise SweepError(
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

    The seed (default: a layout that starts at the driven joint's target) is
    first carried to theta_start by continuation; a start Newton cannot
    solve, a seed or layout not finite in the frame among them, or a stall
    on the way raises NoSeed. During the sweep a failed step is retried with
    half the step length; below the minimum step a workspace boundary is
    recorded and the sweep ends. Near-singular Jacobians are flagged as
    singular-configuration events without stopping or switching branches.
    The Newton work of the whole trace, seed leg included, is counted in
    Trace.stats. seed_theta, where the seed holds (default theta_start), is
    ignored without a seed. A NaN or infinite angle, or a leg longer than
    MAX_SWEEP_STEPS steps, raises SweepError before any step is taken; a
    linkage whose dimensions overflow a float raises a plain ValueError.
    """
    settings = settings or SolverSettings()
    if seed is None or seed_theta is None:
        seed_theta = theta_start
    _check_sweep(theta_start, theta_end, settings, seed_theta)
    comp = _compile(spec)
    stats = SolveStats()
    x0 = _layout(spec, comp, seed_theta) if seed is None else comp.to_vec(seed)
    samples: list[TraceSample] = []
    events: list[BranchEvent] = []

    def record(theta: float, x: list[float], residual: float) -> None:
        samples.append(TraceSample(theta, *comp.tracer_point(x), residual * comp.unit * comp.unit))

    near_singular = False

    def flag(steps: list[tuple[float, list[float]]]) -> None:
        """Compare each step's condition number with the threshold, in step
        order, from one SVD over their Jacobians."""
        nonlocal near_singular
        if not steps:
            return
        conditions = np.linalg.cond(comp.jacobians([x for _, x in steps])).tolist()
        stats.max_condition = max(stats.max_condition, *conditions)
        for (at, _), cond in zip(steps, conditions):
            if cond > CONDITION_THRESHOLD:
                if not near_singular:
                    events.append(BranchEvent(at, EventKind.SINGULAR_CONFIGURATION))
                    near_singular = True
            else:
                near_singular = False

    # the generators run in this frame, so the error settings cover their steps
    with _solve_errors():
        x, full, ok = _newton(comp, seed_theta, x0, settings, stats)
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

        theta = theta_start
        record(theta, x, full)
        batch: list[tuple[float, list[float]]] = []
        for theta, x, full in _steps(comp, x, theta, theta_end, settings, stats):
            record(theta, x, full)
            batch.append((theta, x))
            if len(batch) == CONDITION_BATCH:
                flag(batch)
                batch = []
        flag(batch)
    if theta != theta_end:
        events.append(BranchEvent(theta, EventKind.WORKSPACE_BOUNDARY))
    return Trace(samples, events, stats)
