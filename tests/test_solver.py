"""Newton solving, continuation tracing, events, and straightness statistics."""

import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import catalog_trace
from linkagekit.catalog import entry, names
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer
from linkagekit.solver import (
    Configuration,
    EventKind,
    NoSeed,
    SolverSettings,
    flip_branch,
    solve_configuration,
    straightness_stats,
    trace,
)


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
        e.spec, 3.6, flip_branch(base, "C", ("B", "D")), SolverSettings()
    )
    # base rides the line y = -3/2; the parallelogram assembly leaves it
    assert abs(base["Q"][1] + 1.5) < 1e-9
    assert abs(flipped["Q"][1] + 1.5) > 0.5


def test_flip_branch_rejects_coincident_reference():
    cfg = Configuration({"A": (0.0, 0.0), "B": (1.0, 1.0), "C": (1.0, 1.0)})
    with pytest.raises(ValueError, match="coincide"):
        flip_branch(cfg, "A", ("B", "C"))


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
    stats = straightness_stats(traces["watt"], entry("watt").window)
    a, b, c = stats.line
    assert a * a + b * b == pytest.approx(1.0)
    assert stats.max_deviation < 2e-2
    assert stats.max_deviation_mm == pytest.approx(stats.max_deviation * 8.0)
    assert stats.n_samples >= 50


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
