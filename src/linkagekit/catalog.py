"""Builtin linkage catalog.

Each entry freezes a mechanism's exact dimensions together with the numeric
context a trace needs: a hand-verified seed configuration at a reference
driver angle, the usable driver sweep, and the sub-window where the drawn
segment is (nearly) straight. Dimensions come from beam hole counts (a beam
with n holes spans n-1 units) and were frozen only after the solver confirmed
closure over the full sweep and the locus module reproduced the expected
curve degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import Bar, Configuration, Driver, Joint, LinkageSpec, Tracer, UnknownModelError

F = Fraction

TAU = 2 * math.pi
_S7 = math.sqrt(7.0)
_S15 = math.sqrt(15.0)


@dataclass(frozen=True)
class CatalogEntry:
    spec: LinkageSpec
    theta_ref: float
    seed: Configuration  # the free joints at theta_ref
    sweep: tuple[float, float]
    window: tuple[float, float]
    description: str
    table_model: Optional[str]  # column in the parts table, None if absent

    def seed_config(self) -> Configuration:
        """The seed at theta_ref, anchored joints included."""
        anchored = {
            j.id: (float(j.anchor[0]), float(j.anchor[1]))
            for j in self.spec.anchored_joints
        }
        return {**anchored, **self.seed}


def _anchor(jid: str, x, y) -> Joint:
    return Joint(jid, (F(x), F(y)))


def _compass() -> CatalogEntry:
    spec = LinkageSpec(
        name="compass",
        joints=(_anchor("O", 0, 0), Joint("T")),
        bars=(Bar("arm", "O", "T", F(4)),),
        driver=Driver("arm"),
        tracer=Tracer(joint="T"),
    )
    return CatalogEntry(
        spec=spec,
        theta_ref=0.0,
        seed={"T": (4.0, 0.0)},
        sweep=(0.0, TAU),
        window=(0.3, 1.3),
        description="Single pinned bar; the pen at its free end draws a circle of radius 4 units.",
        table_model="compass",
    )


def _chebyshev_spec(name: str) -> LinkageSpec:
    return LinkageSpec(
        name=name,
        joints=(_anchor("A1", -4, 0), _anchor("A2", 4, 0), Joint("C"), Joint("D")),
        bars=(
            Bar("rocker1", "A1", "C", F(10)),
            Bar("coupler", "C", "D", F(4)),
            Bar("rocker2", "A2", "D", F(10)),
        ),
        driver=Driver("rocker1"),
        tracer=Tracer(bar="coupler", offset=F(1, 2)),
    )


def _chebyshev() -> CatalogEntry:
    # crossed assembly: rockers intersect, the branch with the straight stretch
    return CatalogEntry(
        spec=_chebyshev_spec("chebyshev"),
        theta_ref=math.atan2(8.0, 6.0),
        seed={"C": (2.0, 8.0), "D": (-2.0, 8.0)},
        sweep=(0.66, 1.75),
        window=(0.80, 1.60),
        description="Crossed four-bar; the coupler midpoint runs nearly straight across the top.",
        table_model="chebyshev",
    )


def _chebyshev_open() -> CatalogEntry:
    # same bars, open assembly branch (rockers uncrossed): the rounded lobe
    return CatalogEntry(
        spec=_chebyshev_spec("chebyshev_open"),
        theta_ref=math.atan2(8.0, 6.0),
        seed={"C": (2.0, 8.0), "D": (94.0 / 17.0, 168.0 / 17.0)},
        sweep=(0.66, 1.75),
        window=(0.90, 1.50),
        description="Open-branch assembly of the same four-bar; draws the rounded lobe of the sextic.",
        table_model="chebyshev",
    )


def _chebyshev_lambda() -> CatalogEntry:
    # crank 2, rocker 5, and a 11-hole beam split at its middle hole:
    # A-B and B-T are the two halves, A-T the rigid whole (collinear triple)
    spec = LinkageSpec(
        name="chebyshev_lambda",
        joints=(_anchor("O1", 0, 0), _anchor("O2", 4, 0), Joint("A"), Joint("B"), Joint("T")),
        bars=(
            Bar("crank", "O1", "A", F(2)),
            Bar("beam_a", "A", "B", F(5)),
            Bar("beam_b", "B", "T", F(5)),
            Bar("beam", "A", "T", F(10)),
            Bar("rocker", "O2", "B", F(5)),
        ),
        driver=Driver("crank"),
        tracer=Tracer(joint="T"),
    )
    return CatalogEntry(
        spec=spec,
        theta_ref=math.pi / 2,
        seed={"A": (0.0, 2.0), "B": (4.0, 5.0), "T": (8.0, 8.0)},
        sweep=(0.0, TAU),
        window=(2.1, 3.3),
        description="Lambda-shaped four-bar: a full crank turn redraws the crossed four-bar's curve in one movement.",
        table_model="chebyshev_lambda",
    )


def _watt() -> CatalogEntry:
    # anchors sit 4 units above the baseline, reachable by 3-4-5 triangles
    spec = LinkageSpec(
        name="watt",
        joints=(_anchor("W1", -8, 4), _anchor("W2", 8, 4), Joint("C"), Joint("D")),
        bars=(
            Bar("rocker1", "W1", "C", F(8)),
            Bar("coupler", "C", "D", F(4)),
            Bar("rocker2", "W2", "D", F(8)),
        ),
        driver=Driver("rocker1"),
        tracer=Tracer(bar="coupler", offset=F(1, 2)),
    )
    return CatalogEntry(
        spec=spec,
        theta_ref=0.0,
        seed={"C": (0.0, 4.0), "D": (1.0, 4.0 - _S15)},
        sweep=(-0.80, 0.80),
        window=(-0.15, 0.65),
        description="Watt's four-bar: the coupler midpoint spans a near-straight stretch of roughly 7 cm at 8 mm per unit.",
        table_model="watt",
    )


def _hart_inversor() -> CatalogEntry:
    # antiparallelogram A-B / C-D long (8), B-C / D-A short (4); anchored at
    # the midpoint O of A-B, cranked at the midpoint P of D-A, pen at the
    # midpoint Q of B-C. Each midpoint is a collinear bar triple.
    spec = LinkageSpec(
        name="hart_inversor",
        joints=(
            _anchor("O", 0, 0),
            _anchor("S", 0, 4),
            Joint("A"),
            Joint("B"),
            Joint("C"),
            Joint("D"),
            Joint("P"),
            Joint("Q"),
        ),
        bars=(
            Bar("ao", "A", "O", F(4)),
            Bar("ob", "O", "B", F(4)),
            Bar("ab", "A", "B", F(8)),
            Bar("bq", "B", "Q", F(2)),
            Bar("qc", "Q", "C", F(2)),
            Bar("bc", "B", "C", F(4)),
            Bar("cd", "C", "D", F(8)),
            Bar("dp", "D", "P", F(2)),
            Bar("pa", "P", "A", F(2)),
            Bar("da", "D", "A", F(4)),
            Bar("crank", "S", "P", F(4)),
        ),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    return CatalogEntry(
        spec=spec,
        theta_ref=math.pi,
        seed={
            "A": (-(11.0 + _S7) / 4.0, (11.0 - _S7) / 4.0),
            "B": ((11.0 + _S7) / 4.0, -(11.0 - _S7) / 4.0),
            "C": ((1.0 - _S7) / 4.0, -(1.0 + _S7) / 4.0),
            "D": ((_S7 - 21.0) / 4.0, (21.0 + _S7) / 4.0),
            "P": (-4.0, 4.0),
            "Q": (1.5, -1.5),
        },
        sweep=(3.02, 4.21),
        window=(3.10, 4.10),
        description="Hart's antiparallelogram inversor: the pen joint draws an exactly straight segment a few centimeters long.",
        table_model="hart_inversor",
    )


def _hart_aframe() -> CatalogEntry:
    # two legs of span 8 pinned to the base at F1/F2, crossbar of span 4
    # between the legs' sixth holes M1/M2, pen C where the two span-4 apex
    # links meet. With feet 8 apart this drives the pen exactly along the
    # frame's axis x = 0; the seed closes in Q(sqrt 7): the crossbar gap is
    # (1/2, -3*sqrt(7)/2), of length exactly 4.
    spec = LinkageSpec(
        name="hart_aframe",
        joints=(
            _anchor("F1", -4, 0),
            _anchor("F2", 4, 0),
            Joint("M1"),
            Joint("T1"),
            Joint("M2"),
            Joint("T2"),
            Joint("C"),
        ),
        bars=(
            Bar("l1a", "F1", "M1", F(6)),
            Bar("l1b", "M1", "T1", F(2)),
            Bar("l1", "F1", "T1", F(8)),
            Bar("l2a", "F2", "M2", F(6)),
            Bar("l2b", "M2", "T2", F(2)),
            Bar("l2", "F2", "T2", F(8)),
            Bar("cross", "M1", "M2", F(4)),
            Bar("w1", "T1", "C", F(4)),
            Bar("w2", "T2", "C", F(4)),
        ),
        driver=Driver("l1"),
        tracer=Tracer(joint="C"),
    )
    return CatalogEntry(
        spec=spec,
        theta_ref=math.atan2(5.0 + _S7, 5.0 - _S7),
        seed={
            "T1": (1.0 - _S7, 5.0 + _S7),
            "T2": (-1.0 - _S7, 5.0 - _S7),
            "M1": (-(1.0 + 3.0 * _S7) / 4.0, (15.0 + 3.0 * _S7) / 4.0),
            "M2": ((1.0 - 3.0 * _S7) / 4.0, (15.0 - 3.0 * _S7) / 4.0),
            "C": (0.0, 4.0),
        },
        # the drive folds at pi/2 (right leg and crossbar align, pen at
        # y = 8); sweeping past it reports the boundary
        sweep=(0.90, 1.60),
        window=(1.00, 1.50),
        description="Hart's A-frame: the pen at the apex runs exactly along the frame's centerline, about 4.5 cm of it over the default sweep.",
        table_model=None,
    )


_BUILDERS = {
    "compass": _compass,
    "chebyshev": _chebyshev,
    "chebyshev_open": _chebyshev_open,
    "chebyshev_lambda": _chebyshev_lambda,
    "watt": _watt,
    "hart_inversor": _hart_inversor,
    "hart_aframe": _hart_aframe,
}

_CACHE: dict[str, CatalogEntry] = {}


def names() -> list[str]:
    return list(_BUILDERS)


def entry(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownModelError(name, names())
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]

