"""Newton solving, continuation tracing, events, and straightness statistics."""

import hashlib
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import catalog_trace, reflect, scaled
from linkagekit import solver
from linkagekit.catalog import entry, names
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer, validate
from linkagekit.solver import (
    BranchEvent,
    Configuration,
    EventKind,
    NonConvergence,
    NoSeed,
    SingularJacobian,
    SolveStats,
    SolverSettings,
    _conditions,
    _inf_norm,
    _max_condition,
    solve_configuration,
    trace,
)
from linkagekit.locus import locus_equation, straightness_stats


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
    "compass": "cfad1fefddffee6525f2f03aa0fba00e9b76dea3fe5da456720657484de355dc",
    "chebyshev": "1cb0953d5a850a47ed7b35dc3ed8a4662804a2707a7833649d7e610a6b1d6946",
    "chebyshev_open": "4e40730b63325a9509a45c019b374af30471952e40f5251c394e62b104864d12",
    "chebyshev_lambda": "45ecdc4e56508b860848af3474cbec34c57a9df8a7163bca6454b27d472dd20b",
    "watt": "0258fb4eb2c16242fbc13c235c510162ed8169b1e7f57c7ead5409b50b9f9ea2",
    "hart_inversor": "409e4da8d9182fac3ae6a37367fb1bf36a31f5588c4e33c2392f6ebec3daf728",
    "hart_aframe": "5205eb94cdb88e6be83b811f9be7c2154e501adb94144af2bda907a74ed2f9d8",
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
    # hart_inversor's 163 calls: the seed solve, 13 steps of the seed leg from
    # pi to 3.02, then 127 accepted and 22 failed steps of the sweep
    assert traces["hart_inversor"].stats == SolveStats(
        calls=163, iterations=801, failed_calls=22, failed_iterations=247, backtracks=1512
    )
    assert traces["hart_aframe"].stats == SolveStats(
        calls=134, iterations=612, failed_calls=21, failed_iterations=235, backtracks=2077
    )
    e = entry("watt")
    cfg = solve_configuration(e.spec, 0.1, e.seed_config())
    assert trace(e.spec, 0.1, 0.1, seed=cfg, seed_theta=0.1).stats == SolveStats(calls=1)


def test_fail_fast_is_invisible_on_the_catalog(monkeypatch):
    # without it the failed calls at hart_inversor's workspace boundary run
    # to MAX_NEWTON_ITERS: 1586 iterations, 1032 of them in failed calls
    monkeypatch.setattr(solver, "STALL_ITERS", math.inf)
    for name in names():
        tr = catalog_trace(name)
        assert trace_digest(tr) == TRACE_SHA256[name], name
        if name == "hart_inversor":
            assert (tr.stats.iterations, tr.stats.failed_iterations) == (1586, 1032)


def _retrace(name, spec):
    e = entry(name)
    return trace(spec, *e.sweep, SolverSettings(), seed=e.seed_config(), seed_theta=e.theta_ref)


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


def four_bar(rng):
    """A four-bar with rational bars between 1 and 40, many of them
    non-Grashof, and a seed assembled at a random crank angle theta:
    (spec, seed, theta), or None where it does not assemble."""
    d, a, b, c = (F(rng.randint(4, 40), rng.randint(1, 4)) for _ in range(4))
    theta = rng.uniform(0, 2 * math.pi)
    p = (float(a) * math.cos(theta), float(a) * math.sin(theta))
    dx, dy = float(d) - p[0], -p[1]
    dist = math.hypot(dx, dy)
    along = (dist**2 + float(b) ** 2 - float(c) ** 2) / (2 * dist)
    if along**2 >= float(b) ** 2:
        return None
    h = math.sqrt(float(b) ** 2 - along**2)
    q = (p[0] + (along * dx - h * dy) / dist, p[1] + (along * dy + h * dx) / dist)
    spec = LinkageSpec(
        name="four_bar",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (d, F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", a), Bar("coupler", "P", "Q", b),
              Bar("rocker", "B", "Q", c)),
        driver=Driver("crank"),
        tracer=Tracer(bar="coupler", offset=F(rng.randint(-4, 8), 4)),
    )
    return spec, Configuration({"A": (0.0, 0.0), "B": (float(d), 0.0), "P": p, "Q": q}), theta


def test_fail_fast_on_generated_four_bars(monkeypatch):
    # Near a fold a Newton call can creep, its full residual falling by less
    # than a tenth an iteration for STALL_ITERS iterations in a row, and
    # still converge. Fail-fast cuts it short and the step is halved, so
    # there the sample grid can differ from a run without the rule. The
    # curve, the branch, the event kinds and their angles to within 1e-6
    # rad may not.
    rng = random.Random(0)
    linkages = [fb for fb in (four_bar(rng) for _ in range(50)) if fb is not None]
    identical = boundaries = 0
    iterations = {math.inf: 0, solver.STALL_ITERS: 0}
    for spec, seed, theta in linkages:
        runs = []
        for stall_iters in (math.inf, solver.STALL_ITERS):
            monkeypatch.setattr(solver, "STALL_ITERS", stall_iters)
            runs.append(trace(spec, theta, theta + 2 * math.pi, seed=seed, seed_theta=theta))
            iterations[stall_iters] += runs[-1].stats.iterations
        off, on = runs
        identical += trace_digest(off) == trace_digest(on)
        boundaries += bool(on.events)
        for tr in runs:
            assert max(s.residual for s in tr.samples) < 1e-12
        assert [e.kind for e in on.events] == [e.kind for e in off.events]
        for a, b in zip(on.events, off.events):
            assert abs(a.theta - b.theta) < 1e-6
        assert on.samples[0] == off.samples[0]
        if not on.events:  # both swept the whole turn, on the same branch
            a, b = on.samples[-1], off.samples[-1]
            assert a.theta == b.theta and math.hypot(a.x - b.x, a.y - b.y) < 1e-9
        at = {s.theta: s for s in off.samples}
        for s in on.samples:
            if s.theta in at:
                assert math.hypot(s.x - at[s.theta].x, s.y - at[s.theta].y) < 1e-9
    # 15 of the 24 end at a workspace boundary; 3 of those traces differ
    assert (len(linkages), boundaries, identical) == (24, 15, 21)
    assert iterations[solver.STALL_ITERS] < iterations[math.inf]


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
        cfg = solve_configuration(e.spec, theta, e.seed_config(), SolverSettings())
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
            {jid: (-x, y) for jid, (x, y) in e.seed_config().positions.items()}
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
    seed = e.seed_config()
    seed2 = Configuration(
        {
            "W1": seed["W1"], "W2": seed["W2"],
            "C": (-seed["D"][0], seed["D"][1]),
            "D": (-seed["C"][0], seed["C"][1]),
        }
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
    base = solve_configuration(e.spec, 3.6, e.seed_config(), SolverSettings())
    flipped = solve_configuration(
        e.spec, 3.6, reflect(base, "C", ("B", "D")), SolverSettings()
    )
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
    cfg = solve_configuration(e.spec, 0.1, e.seed_config(), SolverSettings())
    mid = ((cfg["C"][0] + cfg["D"][0]) / 2, (cfg["C"][1] + cfg["D"][1]) / 2)
    tr = trace(e.spec, 0.1, 0.1, SolverSettings(), seed=cfg, seed_theta=0.1)
    assert tr.samples[0].x == pytest.approx(mid[0], abs=1e-12)
    assert tr.samples[0].y == pytest.approx(mid[1], abs=1e-12)


def watt_seed(**joints):
    e = entry("watt")
    return e.spec, Configuration({**e.seed_config().positions, **joints})


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_seed_keeps_its_errors():
    # (1e200 - x) ** 2 is past the float range: the row reads as inf, and a
    # trial point with an inf or NaN residual is refused
    spec, seed = watt_seed(C=(1e200, 4.0))
    with pytest.raises(SingularJacobian, match=r"^constraint Jacobian is singular "
                       r"\(condition 6\.497e\+200\)$"):
        solve_configuration(spec, 0.0, seed)
    with pytest.raises(NoSeed, match=r"^no solvable configuration at theta=0$"):
        trace(spec, 0.0, 0.1, seed=seed, seed_theta=0.0)


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
        solve_configuration(spec, 0.0, e.seed_config())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_seed_is_refused(bad):
    spec, seed = watt_seed(D=(1.0, bad))
    with pytest.raises(ValueError, match=r"^seed coordinates of \['D'\] are not finite$"):
        solve_configuration(spec, 0.0, seed)
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
        trace(e.spec, settings=SolverSettings(), seed=e.seed_config(), **bounds)


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
              seed=e.seed_config(), seed_theta=seed_theta)


def test_sweep_at_the_step_cap_runs(monkeypatch):
    def newton(*args):
        raise _NewtonCalled

    monkeypatch.setattr(solver, "_newton", newton)
    e = entry("compass")
    assert solver.MAX_SWEEP_STEPS == 10**5
    with pytest.raises(_NewtonCalled):
        trace(e.spec, 0.0, 1e5, SolverSettings(initial_step=1.0),
              seed=e.seed_config(), seed_theta=-1e5)


def test_max_condition_matches_per_matrix_svd():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(4, 4)) for _ in range(6)]
    mats += [np.diag([3.0, 2.0, 1.0, 0.0]), np.zeros((4, 4))]
    conds = []
    for m in mats:
        sv = np.linalg.svd(m, compute_uv=False)
        conds.append(math.inf if sv[-1] == 0 else float(sv[0] / sv[-1]))
    assert conds[-2:] == [math.inf, math.inf]
    assert _conditions(mats) == conds
    assert _conditions([]) == []
    for k in range(len(mats)):
        assert _max_condition(mats[: k + 1]) == max([0.0, *conds[: k + 1]])
    assert _max_condition([np.zeros((4, 4))]) == math.inf
    assert _max_condition([]) == 0.0


def test_inf_norm_matches_numpy():
    # a trial point whose residual has a NaN row must be refused, wherever the row is
    nan, inf = math.nan, math.inf
    for rows in ([1.0, -3.0, 2.0], [0.0], [1.0, nan, 5.0], [nan, 1.0], [-inf, 1.0], [inf, nan]):
        want, got = float(np.linalg.norm(rows, np.inf)), _inf_norm(rows)
        assert got == want or (math.isnan(got) and math.isnan(want)), rows


def test_singular_seed_raises_singular_jacobian():
    # the coupler's ends coincide, so its quadric row has a zero gradient
    spec, seed = watt_seed(D=(0.0, 4.0))
    with pytest.raises(SingularJacobian, match=r"\(condition inf\)$") as err:
        solve_configuration(spec, 0.0, seed)
    assert err.value.condition == math.inf


# the singular-configuration events of watt's whole sweep, as float.hex of
# their angles, recorded with one SVD per accepted step. At 23.3 the runs of
# steps over the threshold are steps 1-31, 72-89 and 130-160; each step
# holds 3 Jacobians, so a batch of 66 ends after every 22nd step, and each
# run crosses a batch boundary.
WATT_SINGULAR_EVENTS = {
    1.0: ["-0x1.947ae147ae148p-1"],
    23.3: ["-0x1.947ae147ae148p-1", "-0x1.47ae147ae1455p-4", "0x1.0000000000007p-1"],
}


@pytest.mark.parametrize("threshold", sorted(WATT_SINGULAR_EVENTS))
def test_condition_batches_keep_the_events(monkeypatch, threshold):
    batches = []
    conditions = solver._conditions
    monkeypatch.setattr(solver, "_conditions", lambda js: batches.append(len(js)) or conditions(js))
    monkeypatch.setattr(solver, "CONDITION_THRESHOLD", threshold)
    settings = SolverSettings()
    batched = catalog_trace("watt", settings)
    assert batches == [66] * 7 + [40]
    assert [e.kind for e in batched.events] == [EventKind.SINGULAR_CONFIGURATION] * len(
        WATT_SINGULAR_EVENTS[threshold]
    )
    assert [e.theta.hex() for e in batched.events] == WATT_SINGULAR_EVENTS[threshold]
    monkeypatch.setattr(solver, "CONDITION_BATCH", 1)
    assert catalog_trace("watt", settings).events == batched.events


def test_non_convergence_reports_the_iterations_run():
    # past hart_inversor's workspace boundary the residual stalls at once
    e = entry("hart_inversor")
    with pytest.raises(NonConvergence, match=r"^Newton stalled after 10 iterations, "
                       r"residual 6\.273e\+00$") as err:
        solve_configuration(e.spec, 4.5, e.seed_config())
    assert err.value.iterations == solver.STALL_ITERS < solver.MAX_NEWTON_ITERS


def test_condition_threshold_flags_singular_configuration(monkeypatch):
    monkeypatch.setattr(solver, "CONDITION_THRESHOLD", 1.0)
    e = entry("watt")
    tr = trace(e.spec, -0.1, 0.1, SolverSettings(),
               seed=e.seed_config(), seed_theta=0.0)
    assert tr.events == [BranchEvent(tr.samples[1].theta, EventKind.SINGULAR_CONFIGURATION)]
