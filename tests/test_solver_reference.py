"""The solver's fused residual evaluator, its batched Jacobians and its
linear step, checked against the separate full and reduced residuals they
replaced, which are kept here as reference implementations, against the
per-point Jacobian, and against np.linalg.solve."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalog_trace, four_bars
from linkagekit import solver
from linkagekit.catalog import entry, names
from linkagekit.model import Configuration, reduced_constraints
from linkagekit.solver import SolverSettings, SolveStats

# -- references --------------------------------------------------------------


def ref_bar_rows(v, bars):
    """Squared distance minus squared length for each (a, b, length**2)."""
    rows = []
    for a, b, sq in bars:
        dx, dy = v[a] - v[b], v[a + 1] - v[b + 1]
        rows.append(dx * dx + dy * dy - sq)
    return rows


def ref_every_bar(spec, comp):
    """(a, b, length**2) of every bar of spec in comp's frame, indexed as
    comp indexes joints."""
    anchors = [j.id for j in spec.joints if j.is_anchored]
    at = {j: 2 * k for k, j in enumerate([*comp.free, *anchors])}
    unit = Fraction(comp.unit)
    return [(at[b.a], at[b.b], float((b.length / unit) ** 2)) for b in spec.bars]


def ref_reduced_residual(comp, x, drive):
    v = list(x) + comp.anchor_xy
    rows = []
    for mid, a, b, u, t in comp.affine:
        rows += (v[mid] - u * v[a] - t * v[b], v[mid + 1] - u * v[a + 1] - t * v[b + 1])
    rows += ref_bar_rows(v, comp.quad)
    f = comp.driver
    rows += (v[f] - drive[0], v[f + 1] - drive[1])
    return rows


def ref_full_residual(comp, bars, x, drive):
    # the driver's anchor is the frame's origin
    v = list(x) + comp.anchor_xy
    f = comp.driver
    rows = map(abs, ref_bar_rows(v, bars))
    return max([0.0, *rows, abs(v[f] - drive[0]), abs(v[f + 1] - drive[1])])


# -- helpers -----------------------------------------------------------------


def bits(values):
    """float.hex of each value: signed zeros differ, and every NaN reads nan."""
    return [float.hex(v) for v in values]


def accepted_states(spec, seed, seed_theta, lo, hi, count=None):
    """The compiled model and the first count (theta, state) pairs, or all of
    them, that a sweep from lo to hi accepts, as trace reaches them."""
    comp = solver._compile(spec)
    settings, stats = SolverSettings(), SolveStats()
    x, _, ok = solver._newton(comp, seed_theta, comp.to_vec(seed), settings, stats)
    assert ok
    for _, x, _ in solver._steps(comp, x, seed_theta, lo, settings, stats):
        pass
    states = []
    for theta, x, _ in solver._steps(comp, x, lo, hi, settings, stats):
        states.append((theta, x))
        if len(states) == count:
            break
    return comp, states


def sweep_states(name, count):
    """The compiled model and the first count states its catalog sweep
    accepts, as trace reaches them."""
    e = entry(name)
    comp, states = accepted_states(e.spec, e.seed, e.theta_ref, *e.sweep, count)
    assert len(states) == count
    return comp, [x for _, x in states]


def check_residuals(spec, comp, x, drive):
    """The fused evaluator against both references, bit for bit."""
    full, rows = comp.residuals(x, drive)
    assert bits(rows) == bits(ref_reduced_residual(comp, x, drive))
    assert bits([full]) == bits([ref_full_residual(comp, ref_every_bar(spec, comp), x, drive)])
    return full, rows


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("name", names())
def test_frame_is_the_driver_anchor_and_a_power_of_two(name):
    # the unit is the least power of two no shorter than any quadric bar, and
    # the framed anchors are rounded once from the exact rationals
    spec = entry(name).spec
    comp = solver._compile(spec)
    longest = max(b.length for b in reduced_constraints(spec)[1])
    unit = Fraction(comp.unit)
    assert math.frexp(comp.unit)[0] == 0.5 and longest <= unit < 2 * longest
    driver = spec.bar(spec.driver.bar)
    origin = spec.joint(driver.a if spec.joint(driver.a).is_anchored else driver.b).anchor
    assert comp.origin == (float(origin[0]), float(origin[1]))
    assert comp.anchor_xy == [float((c - o) / unit) for j in spec.anchored_joints
                              for c, o in zip(j.anchor, origin)]


@pytest.mark.parametrize("name", names())
def test_residuals_match_the_separate_references(name):
    spec = entry(name).spec
    comp, states = sweep_states(name, 64)
    seed = comp.to_vec(entry(name).seed)
    rng = random.Random(name)
    points = [seed, *states]
    for scale in (1e-6, 1e-2, 1.0, 1e3):
        points += [[c + rng.gauss(0, scale) for c in x] for x in (seed, states[-1])]
    for theta in (entry(name).theta_ref, 0.0, 2.5):
        drive = comp.drive(theta)
        for x in points:
            check_residuals(spec, comp, x, drive)


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("far", [1e200, math.inf])
def test_residuals_match_past_the_float_range(name, far):
    spec = entry(name).spec
    comp, (x, *_) = sweep_states(name, 1)
    drive = comp.drive(entry(name).theta_ref)
    free = 2 * len(comp.free)
    quad_rows = slice(2 * len(comp.affine), 2 * len(comp.affine) + len(comp.quad))

    # a free end of a reduced quadric bar sits far away; a square that
    # overflows, or an infinite coordinate, sets only the rows that read it
    # to inf
    for a, b, _ in comp.quad:
        moved = list(x)
        far_index = a if a < free else b
        moved[far_index] = far
        full, rows = check_residuals(spec, comp, moved, drive)
        assert full == math.inf
        for (qa, qb, _), row in zip(comp.quad, rows[quad_rows]):
            assert row == math.inf if far_index in (qa, qb) else math.isfinite(row)
    # every free coordinate far away: at inf a bar between two free joints reads NaN
    check_residuals(spec, comp, [far] * free, drive)

    # only the driver bar, checked but not solved, reaches the driver anchor
    anchor = next(j.id for j in spec.joints if j.is_anchored
                  and spec.driver.bar in [b.id for b in spec.bars_at(j.id)])
    index = [j.id for j in spec.joints if j.is_anchored].index(anchor)
    anchor_xy = list(comp.anchor_xy)
    anchor_xy[2 * index] = far
    far_anchor = replace(comp, anchor_xy=anchor_xy)
    assert all(free + 2 * index not in (a, b) for a, b, _ in comp.quad)
    full, rows = check_residuals(spec, far_anchor, x, drive)
    assert full == math.inf
    if far == 1e200:
        assert all(map(math.isfinite, rows))


@pytest.mark.parametrize("name", names())
def test_batched_jacobians_match_per_point(name):
    comp, states = sweep_states(name, 64)
    batch = comp.jacobians(states)
    stacked = np.array([comp.jacobian(x) for x in states])
    assert batch.shape == stacked.shape
    assert np.array_equal(batch, stacked)
    assert np.array_equal(np.signbit(batch), np.signbit(stacked))


def test_samples_and_events_hold_plain_floats(traces):
    for name, tr in traces.items():
        for s in tr.samples:
            assert {type(s.theta), type(s.x), type(s.y), type(s.residual)} == {float}, name
        assert all(type(e.theta) is float for e in tr.events), name
        assert type(tr.stats.max_condition) is float, name


# -- the linear step --------------------------------------------------------
# _newton calls numpy's private gufunc, the one np.linalg.solve calls for a
# 1-D right-hand side, under the error settings np.linalg.solve enters for it.
# These tests hold it to np.linalg.solve, bit for bit and error for error.


def direct_step(J, r):
    """_newton's linear step, as _newton makes it."""
    with solver._solve_errors():
        return solver._umath_linalg.solve1(J, r, signature="dd->d")


def outcome(solve, J, r):
    """The bits of the solution, or the error raised."""
    try:
        return bits(solve(J, r).tolist())
    except np.linalg.LinAlgError as err:
        return f"LinAlgError: {err}"


def check_steps(comp, states):
    """The direct step against np.linalg.solve on the Jacobian and the
    reduced residual rows at each (theta, state)."""
    for theta, x in states:
        J = comp.jacobian(x)
        _, r = comp.residuals(x, comp.drive(theta))
        assert outcome(direct_step, J, r) == outcome(np.linalg.solve, J, r)


@pytest.mark.parametrize("name", names())
def test_step_matches_numpy_solve_on_catalog_sweeps(name):
    e = entry(name)
    check_steps(*accepted_states(e.spec, e.seed, e.theta_ref, *e.sweep))


def test_step_matches_numpy_solve_on_generated_four_bars():
    for spec, seed, theta in four_bars(range(3)):
        check_steps(*accepted_states(spec, seed, theta, theta, theta + 2 * math.pi))


def test_newton_solves_match_numpy_solve(monkeypatch):
    # every solve _newton makes over the catalog sweeps, at its own iterates;
    # none of them meets a singular matrix
    gufuncs, solves = solver._umath_linalg, []

    class Spy:
        @staticmethod
        def solve1(J, r, signature):
            delta = gufuncs.solve1(J, r, signature=signature)
            assert bits(delta.tolist()) == bits(np.linalg.solve(J, r).tolist())
            solves.append(J.shape)
            return delta

    monkeypatch.setattr(solver, "_umath_linalg", Spy)
    for name in names():
        catalog_trace(name)
    assert len(solves) == 4229


def test_step_fails_as_numpy_solve():
    # a singular matrix raises; an inf or NaN right-hand side raises in
    # neither, and the non-finite step is left to the line search to refuse
    e = entry("watt")
    comp = solver._compile(e.spec)
    seed = e.seed
    x = comp.to_vec(seed)
    J, (_, r) = comp.jacobian(x), comp.residuals(x, comp.drive(0.0))
    # the coupler's ends coincide, so its quadric row has a zero gradient
    x = comp.to_vec(Configuration({**seed, "D": (0.0, 4.0)}))
    singular, (_, rs) = comp.jacobian(x), comp.residuals(x, comp.drive(0.0))
    cases = [(singular, rs), (np.zeros((3, 3)), [1.0, 0.0, 0.0]),
             (np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 2.0])]
    for bad in (math.inf, -math.inf, math.nan):
        cases += [(J, [bad] + r[1:]), (J, [bad] * len(r)), (singular, [bad] + rs[1:])]
    for J, r in cases:
        want = outcome(np.linalg.solve, J, r)
        assert outcome(direct_step, J, r) == want
        if np.linalg.matrix_rank(J) < len(J):
            assert want == "LinAlgError: Singular matrix"
        else:
            assert {"inf", "-inf", "nan"} & set(want)
