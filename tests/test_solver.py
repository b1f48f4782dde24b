"""Newton solving, continuation tracing, events, and straightness statistics."""

import hashlib
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import catalog_trace, cell, four_bars, moved, reflect, scaled, solve
from linkagekit import solver
from linkagekit.catalog import entry, names
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer, validate
from linkagekit.solver import (
    BranchEvent,
    Configuration,
    EventKind,
    NoSeed,
    SolveStats,
    SolverSettings,
    _inf_norm,
    trace,
)
from linkagekit.locus import locus_equation, straightness_stats
from linkagekit.poly import MultiPoly


def nearest_theta_pairs(a, b, tol=1e-9, map_b=lambda t: t, min_fraction=0.5):
    """Pair samples of two traces by nearest theta.  Adaptive stepping can
    leave part of one grid unmatched, so callers set the coverage floor."""
    bs = sorted(b, key=lambda s: map_b(s.theta))
    thetas = [map_b(s.theta) for s in bs]
    pairs = []
    for s in a:
        i = int(np.searchsorted(thetas, s.theta))
        best = None
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(bs) and abs(thetas[j] - s.theta) < tol:
                best = bs[j]
                break
        if best is not None:
            pairs.append((s, best))
    assert len(pairs) >= min_fraction * len(a)
    return pairs


# sha256 of each catalog trace: one line per sample with float.hex of theta, x,
# y and residual, then one line per event with float.hex of theta and the kind.
# Recorded on x86-64 Linux, CPython 3.11, numpy 2.4; another libm or LAPACK
# build may move the last bit.
TRACE_SHA256 = {
    "compass": "cc5c71022fa409f49c093565029cab753813a759d2068ccb33c8da2f6d3c97c5",
    "chebyshev": "9f3b2212faa6b9b07930fa99453f3c8202ce8201f42aee339f610ff853d207eb",
    "chebyshev_open": "7fee08bbf782b02d8ef750f41fa1ba605030662f768c2d90236998489bd07bb7",
    "chebyshev_lambda": "172604a09b14dfffc39396e91621c6fd5c1419bade87ec1e3efea6ef0e74f614",
    "watt": "cf927f98bc0cf3724b670849c340ba9339df994682639c5d6e8601d1a6dddff5",
    "hart_inversor": "27d7b9e9906a84e895fed59c114b689416cd69a37b8297b81720812405557d87",
    "hart_aframe": "fb0b8fa8cc6f2da3e31df94dca00f6a6ee6ae0ffd859e40e79fdf39b03687b86",
}


def trace_digest(tr):
    lines = [
        " ".join(float.hex(v) for v in (s.theta, s.x, s.y, s.residual))
        for s in tr.samples
    ]
    lines += [f"{float.hex(e.theta)} {e.kind.value}" for e in tr.events]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_catalog_traces_are_pinned_bit_for_bit(traces):
    assert set(traces) == set(TRACE_SHA256)
    for name, tr in traces.items():
        assert trace_digest(tr) == TRACE_SHA256[name], name


def test_trace_counts_newton_work(traces):
    # hart_inversor's 141 calls: the seed solve, 13 steps of the seed leg from
    # pi to 3.02, then 127 accepted steps of the sweep; each accepted step is
    # constructed, so no call iterates, and the 22 halvings at the workspace
    # boundary are refused without a call
    assert traces["hart_inversor"].stats == SolveStats(
        calls=141, halvings=22, max_condition=25212.36700599835,
    )
    assert traces["hart_aframe"].stats == SolveStats(
        calls=113, halvings=21, max_condition=47407.902402769985,
    )
    e = entry("watt")
    cfg = solve(e.spec, 0.1, e.seed)
    assert trace(e.spec, 0.1, 0.1, seed=cfg, seed_theta=0.1).stats == SolveStats(calls=1)


# the constructive plan of each linkage: (joint, parent, parent, kind) in the
# order _compile places the joints; the driver places the driven joint
PLANS = {
    "compass": [],
    "chebyshev": [("D", "C", "A2", "dyad")],
    "chebyshev_open": [("D", "C", "A2", "dyad")],
    "chebyshev_lambda": [("B", "A", "O2", "dyad"), ("T", "B", "A", "affine")],
    "watt": [("D", "C", "W2", "dyad")],
    "hart_inversor": [("A", "O", "P", "dyad"), ("B", "O", "A", "affine"),
                      ("D", "P", "A", "affine"), ("C", "B", "D", "dyad"),
                      ("Q", "B", "C", "affine")],
    "hart_aframe": [("M1", "F1", "T1", "affine"), ("M2", "F2", "M1", "dyad"),
                    ("T2", "M2", "F2", "affine"), ("C", "T1", "T2", "dyad")],
    "cell": [("A", "O", "P", "dyad"), ("B", "O", "P", "dyad"), ("Q", "A", "B", "dyad")],
}


def plan_of(spec):
    """The compiled plan with joint names, and the free joints that neither
    the plan nor the driver places."""
    comp = solver._compile(spec)
    ids = [*comp.free, *(j.id for j in spec.anchored_joints)]
    steps = [(ids[j // 2], ids[p // 2], ids[q // 2], "dyad" if dyad else "affine")
             for j, p, q, _, _, dyad in comp.plan]
    placed = {ids[comp.driver // 2], *(j for j, *_ in steps)}
    return steps, [j for j in comp.free if j not in placed]


@pytest.mark.parametrize("name", [*names(), "cell"])
def test_plan_places_every_free_joint(name):
    spec = cell() if name == "cell" else entry(name).spec
    assert plan_of(spec) == (PLANS[name], [])


def triad():
    """A rigid triangle U-V-W tied to the anchors A1 and A2 and to the driven
    joint P by one bar each, a class-III Assur group that no dyad or affine
    point places, with a seed at theta = pi/2: (spec, seed, theta)."""
    spec = LinkageSpec(
        name="triad",
        joints=(Joint("O", (F(0), F(0))), Joint("A1", (F(-6), F(11))),
                Joint("A2", (F(7), F(10))), Joint("P", None), Joint("U", None),
                Joint("V", None), Joint("W", None)),
        bars=(Bar("crank", "O", "P", F(1)), Bar("uv", "U", "V", F(6)), Bar("vw", "V", "W", F(5)),
              Bar("wu", "W", "U", F(5)), Bar("ua", "U", "A1", F(5)), Bar("va", "V", "A2", F(5)),
              Bar("wp", "W", "P", F(2))),
        driver=Driver("crank"),
        tracer=Tracer(joint="W"),
    )
    seed = {"P": (0.0, 1.0), "U": (-3.0, 7.0), "V": (3.0, 7.0), "W": (0.0, 3.0)}
    return spec, seed, math.pi / 2


# the triad's Newton iterations and line-search backtracks at each cap on
# the line search's halvings
TRIAD_SEARCH = {8: (149, 329), 20: (216, 1457)}


@pytest.mark.parametrize("cap", TRIAD_SEARCH)
def test_linkage_the_plan_cannot_place_traces_with_newton(monkeypatch, cap):
    # the triad's joints keep the secant guess and Newton places them; the
    # grid and the boundary are those traced before steps were constructed.
    # Newton fails the 21 steps past the boundary; a longer line search
    # works longer on them, and the trace is the same
    monkeypatch.setattr(solver, "MAX_HALVINGS", cap)
    spec, seed, theta = triad()
    assert plan_of(spec) == ([], ["U", "V", "W"])
    tr = trace(spec, theta, theta + 3, seed=seed, seed_theta=theta)
    grid = hashlib.sha256("\n".join(s.theta.hex() for s in tr.samples).encode()).hexdigest()
    assert (len(tr.samples), grid) == (
        30, "e04bf9e9c0ba076b8a3adec1c68f76bbeb51e4c29a3bda8ae7b248e2305383c4")
    assert tr.events == [BranchEvent(float.fromhex("0x1.cafbd45e80423p+0"),
                                     EventKind.WORKSPACE_BOUNDARY)]
    assert max(s.residual for s in tr.samples) < 1e-12
    st = tr.stats
    assert (st.iterations, st.backtracks) == TRIAD_SEARCH[cap]
    assert st.failed_calls == st.halvings == 21


def test_partial_plan_refuses_a_fold_without_newton():
    # a dyad D on the driven joint and a third anchor joins the triad: the
    # plan places D but not the triad. D hangs on P and A3 alone, so a step
    # past D's fold has no configuration and is refused without a Newton
    # call; the boundary is recorded at the fold, where |P - A3| = PD + DA3,
    # cos(theta) = -3/32
    spec, seed, theta = triad()
    spec = replace(spec, joints=(*spec.joints, Joint("A3", (F(3), F(0))), Joint("D", None)),
                   bars=(*spec.bars, Bar("pd", "P", "D", F(2)), Bar("da", "D", "A3", F(5, 4))))
    assert plan_of(spec) == ([("D", "P", "A3", "dyad")], ["U", "V", "W"])
    seed = {**seed, "D": (1.98, 0.72)}
    tr = trace(spec, theta, theta + 3, seed=seed, seed_theta=theta)
    (event,) = tr.events
    assert event.kind is EventKind.WORKSPACE_BOUNDARY
    assert abs(event.theta - math.acos(-3 / 32)) < 1e-6
    assert tr.stats.failed_calls == 0 and tr.stats.halvings > 0


def test_dyad_on_coincident_parents_falls_back_to_newton():
    # the cell's default layout is folded: A and B, the dyads on O and P,
    # take the same side and coincide, so Q's parents do. Q keeps its guess,
    # and the step goes to Newton, which fails on the folded cell's singular
    # Jacobian; no step is refused without a Newton call
    spec = cell()
    comp = solver._compile(spec)
    x = solver._layout(spec, comp, -0.5)
    a, b, q = (2 * comp.free.index(j) for j in "ABQ")
    assert x[a : a + 2] == x[b : b + 2]
    guess = [c + 0.01 for c in x]
    placed = comp.construct(guess, x, -0.49)
    assert placed[a : a + 2] == placed[b : b + 2] != x[a : a + 2]
    assert placed[q : q + 2] == guess[q : q + 2]
    st = trace(spec, -0.5, 0.0).stats
    assert st.calls == st.failed_calls + 1 and st.failed_calls == st.halvings > 0


def test_halving_cap_is_invisible_on_the_catalog(monkeypatch):
    # no catalog step runs a line search: the accepted ones are constructed,
    # and the refused ones at the workspace boundaries call no Newton. So the
    # cap cannot move a catalog trace; the triad above is where it still acts
    monkeypatch.setattr(solver, "MAX_HALVINGS", 20)
    for name in names():
        tr = catalog_trace(name)
        assert trace_digest(tr) == TRACE_SHA256[name], name
        assert (tr.stats.iterations, tr.stats.backtracks) == (0, 0), name


def _retrace(name, spec):
    e = entry(name)
    return trace(spec, *e.sweep, SolverSettings(), seed=e.seed, seed_theta=e.theta_ref)


@pytest.mark.parametrize("name, anchors, distance", [
    ("watt", ("W1", "W2"), 16),
    ("hart_inversor", ("O", "S"), 4),
], ids=["watt", "hart_inversor"])
def test_ground_bar_changes_nothing(traces, loci, name, anchors, distance):
    # reduced_constraints drops a bar between two anchors; validate checks
    # its length against the anchor distance
    spec = entry(name).spec
    grounded = replace(spec, bars=spec.bars + (Bar("ground", *anchors, F(distance)),))
    assert validate(grounded).ok
    tr = _retrace(name, grounded)
    assert trace_digest(tr) == TRACE_SHA256[name]
    assert tr.stats == traces[name].stats
    assert locus_equation(grounded) == loci[name]
    wrong = replace(spec, bars=spec.bars + (Bar("ground", *anchors, F(distance + 1)),))
    assert [c.name for c in validate(wrong).failures] == ["anchored-lengths"]


def test_driver_listed_anchor_last_traces_the_same(traces):
    spec = entry("watt").spec
    flipped = replace(spec, bars=tuple(
        Bar(b.id, b.b, b.a, b.length) if b.id == spec.driver.bar else b for b in spec.bars
    ))
    driver = flipped.bar(flipped.driver.bar)
    assert flipped.joint(driver.b).is_anchored and not flipped.joint(driver.a).is_anchored
    tr = _retrace("watt", flipped)
    assert trace_digest(tr) == TRACE_SHA256["watt"]
    assert tr.stats == traces["watt"].stats


def _fold_distance(theta, spec):
    """Distance in rad from theta to the nearest exact fold angle of a
    four-bar: where |P(theta) - B| = b + c or |b - c|, that is
    cos(theta) = (a^2 + d^2 - (b +- c)^2) / (2ad)."""
    d = float(spec.joint("B").anchor[0])
    a, b, c = (float(spec.bar(n).length) for n in ("crank", "coupler", "rocker"))
    folds = []
    for reach in (b + c, b - c):
        cos = (a * a + d * d - reach * reach) / (2 * a * d)
        if abs(cos) <= 1:
            folds += [math.acos(cos), -math.acos(cos)]
    return min(abs((theta - f + math.pi) % (2 * math.pi) - math.pi) for f in folds)


def test_boundaries_of_generated_four_bars_sit_on_exact_folds():
    # A four-bar's dyad folds where the crank pin's distance to the rocker
    # pivot reaches b + c or |b - c|, at rational cosines. Every workspace
    # boundary must be recorded there; a sweep that meets none turns fully.
    # Each accepted step is constructed, so no Newton call iterates, and a
    # step past a fold is refused without one.
    linkages = four_bars(range(3))
    boundaries = halvings = 0
    for spec, seed, theta in linkages:
        tr = trace(spec, theta, theta + 2 * math.pi, seed=seed, seed_theta=theta)
        assert max(s.residual for s in tr.samples) < 1e-12
        assert (tr.stats.iterations, tr.stats.failed_calls) == (0, 0)
        halvings += tr.stats.halvings
        for e in tr.events:
            if e.kind is EventKind.WORKSPACE_BOUNDARY:
                boundaries += 1
                assert _fold_distance(e.theta, spec) < 1e-6
        if not tr.events:
            first, last = tr.samples[0], tr.samples[-1]
            assert math.hypot(first.x - last.x, first.y - last.y) < 1e-9
    assert (len(linkages), boundaries, halvings) == (68, 43, 924)


def test_generated_four_bar_loci_are_circular():
    # a four-bar coupler curve is a circular sextic: its top-degree form is
    # c*(x^2 + y^2)^3; a tracer on the crank or rocker pin draws a circle
    circle = MultiPoly(("x", "y"), {(2, 0): 1, (0, 2): 1})
    degrees = []
    for spec, _, _ in four_bars(range(3)):
        p = locus_equation(spec).locus
        d = p.total_degree()
        assert d == (2 if spec.tracer.offset in (0, 1) else 6)
        top = MultiPoly(p.vars, {e: c for e, c in p.terms if sum(e) == d})
        assert top == p.coefficient((d, 0)) * circle ** (d // 2)
        degrees.append(d)
    assert (degrees.count(6), degrees.count(2)) == (59, 9)


def test_generated_four_bar_samples_lie_on_their_loci():
    # the numeric half against the symbolic half: every traced pen point
    # zeroes the exact locus, relative to the size of its terms
    worst = 0.0
    for spec, seed, theta in four_bars([0]):
        p = locus_equation(spec).locus
        for s in trace(spec, theta, theta + 2 * math.pi, seed=seed, seed_theta=theta).samples:
            terms = [float(c) * s.x**i * s.y**j for (i, j), c in p.terms]
            worst = max(worst, abs(math.fsum(terms)) / math.fsum(map(abs, terms)))
    assert worst < 1e-8


def test_every_sample_converged(traces):
    for name, tr in traces.items():
        worst = max(s.residual for s in tr.samples)
        assert worst < 1e-12, name


def test_theta_strictly_monotone(traces):
    for name, tr in traces.items():
        ts = [s.theta for s in tr.samples]
        diffs = np.diff(ts)
        assert (diffs > 0).all() or (diffs < 0).all(), name


def test_compass_closed_form():
    e = entry("compass")
    for theta, expect in ((0.0, (4.0, 0.0)), (math.pi / 2, (0.0, 4.0))):
        cfg = solve(e.spec, theta, e.seed)
        assert cfg["T"] == pytest.approx(expect, abs=1e-12)


def test_compass_radius(traces):
    for s in traces["compass"].samples:
        assert abs(math.hypot(s.x, s.y) - 4.0) <= 1e-9


def test_compass_trace_closes(traces):
    first, last = traces["compass"].samples[0], traces["compass"].samples[-1]
    assert math.hypot(first.x - last.x, first.y - last.y) < 1e-9


def test_step_halving_stability():
    for name in ("watt", "hart_inversor"):
        coarse = catalog_trace(name)
        fine = catalog_trace(name, SolverSettings(initial_step=5e-3))
        for a, b in nearest_theta_pairs(coarse.samples, fine.samples):
            assert math.hypot(a.x - b.x, a.y - b.y) < 1e-8


def test_workspace_boundary_events(traces):
    hart = traces["hart_inversor"].events
    assert any(
        e.kind is EventKind.WORKSPACE_BOUNDARY and abs(e.theta - 4.20703) < 1e-3
        for e in hart
    )
    aframe = traces["hart_aframe"].events
    assert any(
        e.kind is EventKind.WORKSPACE_BOUNDARY and abs(e.theta - math.pi / 2) < 1e-3
        for e in aframe
    )


def test_closed_sweeps_have_no_boundary(traces):
    for name in ("compass", "chebyshev_lambda"):
        kinds = {e.kind for e in traces[name].events}
        assert EventKind.WORKSPACE_BOUNDARY not in kinds


def test_windowed_returns_samples(traces):
    e = entry("watt")
    out = traces["watt"].windowed(e.window)
    assert isinstance(out, list)
    assert all(e.window[0] <= s.theta <= e.window[1] for s in out)
    assert len(out) >= 10


def test_mirror_symmetry_axis_anchored():
    # anchors on the symmetry axis: the mirrored sweep is theta -> pi - theta
    for name in ("compass", "hart_inversor"):
        e = entry(name)
        lo, hi = e.sweep
        base = catalog_trace(name)
        mirrored_seed = Configuration(
            {jid: (-x, y) for jid, (x, y) in e.seed.items()}
        )
        mirrored = trace(
            e.spec, math.pi - lo, math.pi - hi, SolverSettings(),
            seed=mirrored_seed, seed_theta=math.pi - e.theta_ref,
        )
        pairs = nearest_theta_pairs(
            base.samples, mirrored.samples,
            map_b=lambda t: math.pi - t, min_fraction=0.9,
        )
        for a, b in pairs:
            assert math.hypot(-a.x - b.x, a.y - b.y) < 1e-9, name


def test_mirror_symmetry_watt_swaps_rockers():
    # watt anchors sit off-axis, so the mirror image drives the other rocker
    e = entry("watt")
    spec2 = replace(e.spec, driver=Driver("rocker2"))
    seed = e.seed
    seed2 = Configuration(
        {"C": (-seed["D"][0], seed["D"][1]), "D": (-seed["C"][0], seed["C"][1])}
    )
    lo, hi = e.sweep
    base = catalog_trace("watt")
    mirrored = trace(
        spec2, math.pi - lo, math.pi - hi, SolverSettings(),
        seed=seed2, seed_theta=math.pi - e.theta_ref,
    )
    pairs = nearest_theta_pairs(
        base.samples, mirrored.samples, map_b=lambda t: math.pi - t
    )
    assert len(pairs) > 100
    for a, b in pairs:
        assert math.hypot(-a.x - b.x, a.y - b.y) < 1e-9


def test_flip_branch_switches_assembly():
    e = entry("hart_inversor")
    base = solve(e.spec, 3.6, e.seed)
    flipped = solve(e.spec, 3.6, reflect(base, "C", ("B", "D")))
    # base rides the line y = -3/2; the parallelogram assembly leaves it
    assert abs(base["Q"][1] + 1.5) < 1e-9
    assert abs(flipped["Q"][1] + 1.5) > 0.5


def test_no_seed_when_unreachable():
    spec = LinkageSpec(
        name="too_far",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (F(40), F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", F(4)), Bar("coupler", "P", "Q", F(4)),
              Bar("rocker", "B", "Q", F(8))),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    with pytest.raises(NoSeed):
        trace(spec, 0.0, 1.0, SolverSettings())


def test_straightness_stats_watt(traces):
    window = entry("watt").window
    stats = straightness_stats(traces["watt"], window)
    a, b, c = stats.line
    assert a * a + b * b == pytest.approx(1.0)
    assert stats.max_deviation < 2e-2
    assert len(traces["watt"].windowed(window)) >= 50


def test_straightness_stats_exact_on_hart(traces):
    stats = straightness_stats(traces["hart_inversor"], entry("hart_inversor").window)
    assert stats.max_deviation < 1e-9
    # fitted line is y = -3/2 up to normalization
    a, b, c = stats.line
    assert abs(a) < 1e-9
    assert c / b == pytest.approx(1.5, abs=1e-9)


def test_tracer_on_bar_midpoint(traces):
    e = entry("watt")
    cfg = solve(e.spec, 0.1, e.seed)
    mid = ((cfg["C"][0] + cfg["D"][0]) / 2, (cfg["C"][1] + cfg["D"][1]) / 2)
    tr = trace(e.spec, 0.1, 0.1, SolverSettings(), seed=cfg, seed_theta=0.1)
    assert tr.samples[0].x == pytest.approx(mid[0], abs=1e-12)
    assert tr.samples[0].y == pytest.approx(mid[1], abs=1e-12)


def watt_seed(**joints):
    e = entry("watt")
    return e.spec, Configuration({**e.seed, **joints})


def test_overflowing_seed_keeps_its_errors():
    # (1e200 - x) ** 2 is past the float range: the row reads as inf, and a
    # trial point with an inf or NaN residual is refused
    spec, seed = watt_seed(C=(1e200, 4.0))
    with pytest.raises(NoSeed, match=r"^no solvable configuration at theta=0$"):
        trace(spec, 0.0, 0.1, seed=seed, seed_theta=0.0)


@pytest.mark.parametrize("k", [10, 30, 100, 1000, 10**6])
def test_scaled_watt_traces_as_the_unscaled_one(traces, k):
    # Newton solves in a frame whose unit scales with the linkage, so the
    # scaled linkage takes the same steps and its pen points are k times the
    # unscaled ones
    e = entry("watt")
    seed = Configuration({j: (x * k, y * k) for j, (x, y) in e.seed.items()})
    tr = trace(scaled(e.spec, F(k)), *e.sweep, seed=seed, seed_theta=e.theta_ref)
    base = traces["watt"]
    assert (tr.events, tr.stats.failed_calls) == ([], 0)
    assert [s.theta for s in tr.samples] == [s.theta for s in base.samples]
    for s, b in zip(tr.samples, base.samples):
        assert math.hypot(s.x - k * b.x, s.y - k * b.y) < 2e-13 * k


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("k", [-3, 10])
def test_power_of_two_scaling_is_exact(name, k):
    # scaled by 2^k, the linkage's framed system is the same bit for bit;
    # under a tolerance below the rounding floor the floor, which is framed
    # too, decides convergence, so the trace is the unscaled one times 2^k
    e = entry(name)
    settings = SolverSettings(tol=1e-300)
    factor = 2.0**k
    seed = Configuration({j: (x * factor, y * factor) for j, (x, y) in e.seed.items()})
    tr = trace(scaled(e.spec, F(2) ** k), *e.sweep, settings, seed=seed, seed_theta=e.theta_ref)
    base = catalog_trace(name, settings)
    assert (tr.stats, tr.events) == (base.stats, base.events)
    assert [(s.theta, s.x, s.y, s.residual) for s in tr.samples] == [
        (b.theta, b.x * factor, b.y * factor, b.residual * factor * factor)
        for b in base.samples
    ]


# the frame's origin is the driver's anchor, so a linkage far from the model
# origin solves the framed system of the same linkage at the origin
@pytest.mark.parametrize("offset", [10**6, 10**154], ids=["1e6", "1e154"])
def test_watt_far_from_the_origin_traces_as_at_the_origin(traces, offset):
    e = entry("watt")
    seed = Configuration({j: (x + offset, y) for j, (x, y) in e.seed.items()})
    tr = trace(moved(e.spec, offset), *e.sweep, seed=seed, seed_theta=e.theta_ref)
    base = traces["watt"]
    assert (tr.events, tr.stats.failed_calls) == ([], 0)
    assert [s.theta for s in tr.samples] == [s.theta for s in base.samples]
    for s, b in zip(tr.samples, base.samples):
        assert abs(s.x - (b.x + offset)) <= math.ulp(offset) and abs(s.y - b.y) < 2e-12


# the default layout is placed in the frame too, so it reaches as far as a seed
@pytest.mark.parametrize("offset", [10**6, 10**154], ids=["1e6", "1e154"])
def test_watt_far_from_the_origin_traces_from_the_default_layout(offset):
    e = entry("watt")
    tr = trace(moved(e.spec, offset), *e.sweep)
    base = trace(e.spec, *e.sweep)
    assert (tr.events, tr.stats.failed_calls) == ([], 0)
    assert [s.theta for s in tr.samples] == [s.theta for s in base.samples]


# samples, events, failed calls and step halvings with no seed, from a layout
# that starts at the driven joint's target; chebyshev lands on
# chebyshev_open's branch
SEEDLESS = {
    "compass": (630, [], 0, 0),
    "chebyshev": (110, [], 0, 0),
    "chebyshev_open": (110, [], 0, 0),
    "chebyshev_lambda": (630, [], 0, 0),
    "watt": (161, [], 0, 0),
    "hart_inversor": (128, [(4.207028, EventKind.WORKSPACE_BOUNDARY)], 0, 22),
    "hart_aframe": (75, [(1.570796, EventKind.WORKSPACE_BOUNDARY)], 0, 21),
}


@pytest.mark.parametrize("name", names())
def test_catalog_traces_from_the_default_layout(name):
    e = entry(name)
    tr = trace(e.spec, *e.sweep)
    events = [(round(ev.theta, 6), ev.kind) for ev in tr.events]
    st = tr.stats
    assert (len(tr.samples), events, st.failed_calls, st.halvings) == SEEDLESS[name]


# a window inside both catalog sweeps, started from the default layout at 0.9
@pytest.mark.parametrize("name", ["chebyshev", "hart_aframe"])
def test_default_layout_reaches_a_window_inside_the_sweep(name):
    tr = trace(entry(name).spec, 0.9, 1.5)
    assert (len(tr.samples), tr.events, tr.stats.failed_calls) == (61, [], 0)


# 10^155 overflows a squared bar length, 10^400 an anchor coordinate
@pytest.mark.parametrize("power", [155, 400])
def test_dimensions_beyond_the_float_range_are_refused(monkeypatch, power):
    e = entry("watt")
    spec = scaled(e.spec, F(10) ** power)
    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("Newton ran"))
    message = (r"^'watt' has an anchor coordinate or a squared bar length "
               r"beyond the float range$")
    with pytest.raises(ValueError, match=message):
        trace(spec, 0.0, 0.1)
    with pytest.raises(ValueError, match=message):
        trace(spec, 0.0, 0.1, seed=e.seed, seed_theta=0.0)


# 10^305 fits a float but not in frame units of 2^-20; a 10^154 bar between
# the anchors squares within the float range, but not in the frame
@pytest.mark.parametrize("gap, ground", [(F(10) ** 305, False), (F(10) ** 154, True)],
                         ids=["anchor", "anchor-bar"])
def test_anchors_beyond_the_float_range_in_the_frame_are_refused(monkeypatch, gap, ground):
    tiny = F(1, 2**20)
    spec = LinkageSpec(
        name="far_apart",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (gap, F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", tiny), Bar("coupler", "P", "Q", tiny),
              Bar("rocker", "B", "Q", tiny), *([Bar("ground", "A", "B", gap)] if ground else [])),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    assert validate(spec).ok
    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("Newton ran"))
    with pytest.raises(ValueError, match=r"^'far_apart' has an anchor coordinate or a squared "
                       r"bar length beyond the float range in its frame's unit, 2\*\*-20$"):
        trace(spec, 0.0, 0.1)


# anchors 10^200 frame units apart: placing Q squares their distance to inf,
# so the layout puts Q at NaN, and Newton's first test fails on the NaN residual
@pytest.mark.parametrize("bar", [F(1), F(1, 2**20)], ids=["unit", "tiny"])
def test_non_finite_default_layout_raises_no_seed(bar):
    gap = F(10) ** 200 * bar
    spec = LinkageSpec(
        name="far_apart",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (gap, F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", bar), Bar("coupler", "P", "Q", bar),
              Bar("rocker", "B", "Q", bar)),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    assert validate(spec).ok
    with pytest.raises(NoSeed, match=r"^no solvable configuration at theta=0$"):
        trace(spec, 0.0, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_seed_is_refused(bad):
    spec, seed = watt_seed(D=(1.0, bad))
    with pytest.raises(ValueError, match=r"^seed coordinates of \['D'\] are not finite$"):
        trace(spec, 0.0, 0.1, seed=seed, seed_theta=0.0)


@pytest.mark.parametrize("arg", ["theta_start", "theta_end", "seed_theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sweep_bound_is_refused(monkeypatch, arg, bad):
    # refused before the first Newton call: a NaN or infinite bound would
    # otherwise keep the continuation stepping forever on the compass
    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("continuation ran"))
    e = entry("compass")
    bounds = {"theta_start": 0.0, "theta_end": 1.0, "seed_theta": e.theta_ref, arg: bad}
    with pytest.raises(ValueError, match=rf"^{arg} must be finite, got {bad}$"):
        trace(e.spec, settings=SolverSettings(), seed=e.seed, **bounds)


class _NewtonCalled(Exception):
    pass


@pytest.mark.parametrize(
    "start, end, seed_theta, leg",
    [
        (0.0, 1e6 + 1, 0.0, "theta=0 to 1e+06"),
        (0.0, -1e6 - 1, 0.0, "theta=0 to -1e+06"),
        (1e6 + 1, 0.0, 0.0, "theta=0 to 1e+06"),
        (0.0, 1.0, -1e6 - 1, "theta=-1e+06 to 0"),
        (0.0, 1e5 + 1, 0.0, "theta=0 to 100001"),
    ],
)
def test_sweep_longer_than_the_step_cap_is_refused(monkeypatch, start, end, seed_theta, leg):
    # refused before the first Newton call: either leg would otherwise take
    # more than 10^5 steps, each kept as a sample
    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("continuation ran"))
    e = entry("compass")
    with pytest.raises(
        ValueError, match=rf"^sweep from {re.escape(leg)} needs more than 100000 steps of 1$"
    ):
        trace(e.spec, start, end, SolverSettings(initial_step=1.0),
              seed=e.seed, seed_theta=seed_theta)


def test_sweep_at_the_step_cap_runs(monkeypatch):
    def newton(*args):
        raise _NewtonCalled

    monkeypatch.setattr(solver, "_newton", newton)
    e = entry("compass")
    assert solver.MAX_SWEEP_STEPS == 10**5
    with pytest.raises(_NewtonCalled):
        trace(e.spec, 0.0, 1e5, SolverSettings(initial_step=1.0),
              seed=e.seed, seed_theta=-1e5)


def test_conditions_match_per_matrix_svd():
    # trace flags a batch with np.linalg.cond on the stacked Jacobians, under
    # the error settings it enters for its solves
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(4, 4)) for _ in range(6)]
    mats += [np.diag([3.0, 2.0, 1.0, 0.0]), np.zeros((4, 4))]
    conds = []
    for m in mats:
        sv = np.linalg.svd(m, compute_uv=False)
        conds.append(math.inf if sv[-1] == 0 else float(sv[0] / sv[-1]))
    assert conds[-2:] == [math.inf, math.inf]
    with solver._solve_errors():
        assert np.linalg.cond(np.array(mats)).tolist() == conds
        for k in range(len(mats)):
            assert np.linalg.cond(np.array(mats[k : k + 1])).tolist() == conds[k : k + 1]


def test_inf_norm_matches_numpy():
    # a trial point whose residual has a NaN row must be refused, wherever the row is
    nan, inf = math.nan, math.inf
    for rows in ([1.0, -3.0, 2.0], [0.0], [1.0, nan, 5.0], [nan, 1.0], [-inf, 1.0], [inf, nan]):
        want, got = float(np.linalg.norm(rows, np.inf)), _inf_norm(rows)
        assert got == want or (math.isnan(got) and math.isnan(want)), rows


def test_singular_seed_raises_no_seed(monkeypatch):
    # the coupler's ends coincide, so its quadric row has a zero gradient
    # and the first Newton solve fails; no catalog sweep reaches this path
    spec, seed = watt_seed(D=(0.0, 4.0))
    seen = []
    newton = solver._newton
    monkeypatch.setattr(solver, "_newton", lambda *args: seen.append(args[-1]) or newton(*args))
    errors = np.geterr(), np.geterrcall()
    with pytest.raises(NoSeed, match=r"^no solvable configuration at theta=0$"):
        trace(spec, 0.0, 0.1, seed=seed, seed_theta=0.0)
    assert seen == [SolveStats(calls=1, failed_calls=1)]
    # the error settings trace enters for its solves do not leak out of it
    assert (np.geterr(), np.geterrcall()) == errors
    catalog_trace("watt")
    assert (np.geterr(), np.geterrcall()) == errors


def test_error_settings_are_the_callers_after_a_stall_and_a_boundary():
    # a caller's settings that would raise at any floating-point error, and
    # a handler of its own: trace replaces both while it runs, and restores
    # them when the seed leg stalls and when the sweep ends at a boundary
    e = entry("hart_inversor")

    def handler(err, flag):
        pass

    with np.errstate(all="raise", call=handler):
        errors = np.geterr(), np.geterrcall()
        with pytest.raises(NoSeed, match=r"^continuation from theta=3\.14159 stalled at "
                           r"theta=4\.20703 before reaching 4\.5$"):
            trace(e.spec, 4.5, 4.6, seed=e.seed, seed_theta=e.theta_ref)
        assert (np.geterr(), np.geterrcall()) == errors
        tr = catalog_trace("hart_inversor")
        assert [ev.kind for ev in tr.events] == [EventKind.WORKSPACE_BOUNDARY]
        assert (np.geterr(), np.geterrcall()) == errors


# the singular-configuration events of watt's whole sweep, as float.hex of
# their angles, recorded with one SVD per accepted step. Each of its 160
# steps holds one Jacobian, so 64-step batches end after steps 64 and 128.
# At 3.362 the runs of steps over the threshold are steps 1-30, 72-88 and
# 130-160; 20-step batches end inside each of them.
WATT_SINGULAR_EVENTS = {
    1.0: ["-0x1.947ae147ae148p-1"],
    3.362: ["-0x1.947ae147ae148p-1", "-0x1.47ae147ae1455p-4", "0x1.0000000000007p-1"],
}


@pytest.mark.parametrize("threshold", sorted(WATT_SINGULAR_EVENTS))
def test_condition_batches_keep_the_events(monkeypatch, threshold):
    batches = []
    jacobians = solver._Compiled.jacobians
    monkeypatch.setattr(solver._Compiled, "jacobians",
                        lambda comp, xs: batches.append(len(xs)) or jacobians(comp, xs))
    monkeypatch.setattr(solver, "CONDITION_THRESHOLD", threshold)
    settings = SolverSettings()
    batched = catalog_trace("watt", settings)
    assert batches == [64, 64, 32]
    assert [e.kind for e in batched.events] == [EventKind.SINGULAR_CONFIGURATION] * len(
        WATT_SINGULAR_EVENTS[threshold]
    )
    assert [e.theta.hex() for e in batched.events] == WATT_SINGULAR_EVENTS[threshold]
    for size in (1, 20):
        monkeypatch.setattr(solver, "CONDITION_BATCH", size)
        assert catalog_trace("watt", settings).events == batched.events


def test_line_search_ends_a_failed_call():
    # past hart_inversor's workspace boundary the iterates wander until a
    # step that MAX_HALVINGS halvings cannot make descend
    e = entry("hart_inversor")
    comp = solver._compile(e.spec)
    stats = SolveStats()
    with solver._solve_errors():
        _, residual, ok = solver._newton(comp, 4.5, comp.to_vec(e.seed), SolverSettings(), stats)
    # _newton's residual is in the frame; in model units it is (r*u)*u
    assert not ok and f"{residual * comp.unit * comp.unit:.3e}" == "1.589e+01"
    assert stats == SolveStats(calls=1, iterations=6, failed_calls=1, failed_iterations=6,
                               backtracks=21)
    assert stats.iterations < solver.MAX_NEWTON_ITERS


def test_condition_threshold_flags_singular_configuration(monkeypatch):
    monkeypatch.setattr(solver, "CONDITION_THRESHOLD", 1.0)
    e = entry("watt")
    tr = trace(e.spec, -0.1, 0.1, SolverSettings(),
               seed=e.seed, seed_theta=0.0)
    assert tr.events == [BranchEvent(tr.samples[1].theta, EventKind.SINGULAR_CONFIGURATION)]
