"""Linkage data model: joints, bars, driver, tracer, validation, file io.

A linkage is a constraint graph: joints are nodes (anchored ones carry exact
rational coordinates), bars are edges with exact rational lengths. One bar is
the driver (its free endpoint is steered by an angle), and a tracer marks the
pen point, either a joint or a point at a fixed fraction along a bar.

All dimensions are exact rationals in abstract units (one unit = one beam hole
pitch = 8 mm when rendering). Physical beams with interior holes used as
attachment points appear as collinear bar triples: two inner bars sharing the
interior joint plus the outer bar, with inner lengths summing to the outer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

Coord = tuple[Fraction, Fraction]

MM_PER_UNIT = 8.0  # one unit (a beam hole pitch) on the page, in mm


class ParseError(ValueError):
    """Malformed linkage file; message names the offending field."""


class ValidationError(ValueError):
    """Spec failed validation; carries the full report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(c.detail for c in report.failures))
        self.report = report


class UnknownModelError(KeyError):
    """A model name missing from the builtin catalog or from the parts table."""

    def __init__(self, name: str, known: Iterable[str]):
        super().__init__(f"unknown model {name!r}; catalog covers: {', '.join(known)}")
        self.model = name


@dataclass(frozen=True)
class Joint:
    id: str
    anchor: Optional[Coord] = None  # None = free joint

    @property
    def is_anchored(self) -> bool:
        return self.anchor is not None


@dataclass(frozen=True)
class Bar:
    id: str
    a: str
    b: str
    length: Fraction

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Tracer:
    """Pen point: a joint, or a point `offset` of the way from bar.a to bar.b."""

    joint: Optional[str] = None
    bar: Optional[str] = None
    offset: Optional[Fraction] = None

    @property
    def on_bar(self) -> bool:
        return self.bar is not None


@dataclass(frozen=True)
class Driver:
    """The driven bar; its angle is measured at the anchored endpoint."""

    bar: str


@dataclass(frozen=True)
class LinkageSpec:
    name: str
    joints: tuple[Joint, ...]
    bars: tuple[Bar, ...]
    driver: Driver
    tracer: Tracer

    def joint(self, joint_id: str) -> Joint:
        for j in self.joints:
            if j.id == joint_id:
                return j
        raise KeyError(joint_id)

    def bar(self, bar_id: str) -> Bar:
        for b in self.bars:
            if b.id == bar_id:
                return b
        raise KeyError(bar_id)

    @property
    def anchored_joints(self) -> tuple[Joint, ...]:
        return tuple(j for j in self.joints if j.is_anchored)

    @property
    def free_joints(self) -> tuple[Joint, ...]:
        return tuple(j for j in self.joints if not j.is_anchored)

    def bars_at(self, joint_id: str) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if joint_id in b.endpoints)


# a placement of joints as floats: a plain dict from joint id to (x, y);
# called, the alias builds one
Configuration = dict[str, tuple[float, float]]


@dataclass(frozen=True)
class CollinearTriple:
    """Bar triple encoding a rigid beam with an interior attachment joint.

    Bars inner_a (mid-a), inner_b (mid-b) and outer (a-b) satisfy
    len(inner_a) + len(inner_b) = len(outer), which forces mid onto the
    segment a-b at fraction t = len(inner_a)/len(outer) from a.
    """

    mid: str
    a: str
    b: str
    t: Fraction
    inner_bars: tuple[str, str]


def collinear_triples(spec: LinkageSpec) -> list[CollinearTriple]:
    """Detect all collinear bar triples of a spec.

    A bar may belong to at most one triple; overlapping triples raise, since
    reduced_constraints would be ambiguous.
    """
    by_pair: dict[frozenset[str], Bar] = {}
    for b in spec.bars:
        by_pair[frozenset(b.endpoints)] = b
    triples = []
    used: set[str] = set()
    for j in spec.joints:
        incident = spec.bars_at(j.id)
        for i in range(len(incident)):
            for k in range(i + 1, len(incident)):
                ba, bb = incident[i], incident[k]
                a = ba.a if ba.b == j.id else ba.b
                b = bb.a if bb.b == j.id else bb.b
                if a == b:
                    continue
                outer = by_pair.get(frozenset((a, b)))
                if outer is None or ba.length + bb.length != outer.length:
                    continue
                ids = {ba.id, bb.id, outer.id}
                if ids & used:
                    raise ValueError(
                        f"bar(s) {sorted(ids & used)} belong to more than one collinear triple"
                    )
                used |= ids
                triples.append(
                    CollinearTriple(
                        mid=j.id,
                        a=a,
                        b=b,
                        t=ba.length / outer.length,
                        inner_bars=(ba.id, bb.id),
                    )
                )
    return triples


def reduced_constraints(spec: LinkageSpec) -> tuple[list[CollinearTriple], list[Bar]]:
    """The constraint encoding shared by the solver and the locus builder.

    Each collinear triple becomes two affine rows mid = (1-t)*a + t*b, and its
    outer bar keeps its squared-length quadric. The inner bars are dropped:
    the raw triple encoding has an everywhere-singular Jacobian and a
    non-radical ideal. Bars joining two anchors are dropped too, since they
    constrain nothing (validate checks them against the anchor distance).
    Returns the triples, ordered by interior joint, and the quadric bars in
    spec order; in a validated spec the driver bar is a quadric bar.
    """
    triples = collinear_triples(spec)
    inner = {bid for t in triples for bid in t.inner_bars}
    quadrics = [
        b
        for b in spec.bars
        if b.id not in inner
        and not (spec.joint(b.a).is_anchored and spec.joint(b.b).is_anchored)
    ]
    return triples, quadrics


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(spec: LinkageSpec) -> ValidationReport:
    """Check every structural invariant; failures are reported, not raised."""
    checks: list[Check] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, passed, detail))

    joint_ids = [j.id for j in spec.joints]
    bar_ids = [b.id for b in spec.bars]
    check(
        "unique-ids",
        len(set(joint_ids)) == len(joint_ids) and len(set(bar_ids)) == len(bar_ids),
        "joint and bar ids are unique",
    )
    known = set(joint_ids)

    check(
        "has-anchor",
        any(j.is_anchored for j in spec.joints),
        "at least one anchored joint",
    )

    bad_bars = [
        b.id
        for b in spec.bars
        if b.a == b.b or b.a not in known or b.b not in known or b.length <= 0
    ]
    check(
        "bars-well-formed",
        not bad_bars,
        "bars have distinct existing endpoints and positive length"
        + (f" (bad: {bad_bars})" if bad_bars else ""),
    )

    # connectivity over the constraint graph
    if spec.joints and not bad_bars:
        seen = {spec.joints[0].id}
        frontier = [spec.joints[0].id]
        while frontier:
            cur = frontier.pop()
            for b in spec.bars_at(cur):
                for e in b.endpoints:
                    if e not in seen:
                        seen.add(e)
                        frontier.append(e)
        connected = seen == known
    else:
        connected = not spec.bars
    check("connected", connected, "constraint graph is connected")

    # one degree of freedom before driving
    n_free = sum(1 for j in spec.joints if not j.is_anchored)
    moving_bars = [
        b
        for b in spec.bars
        if not (
            b.a in known
            and b.b in known
            and spec.joint(b.a).is_anchored
            and spec.joint(b.b).is_anchored
        )
    ] if not bad_bars else []
    dof = 2 * n_free - len(moving_bars) - 1
    check(
        "one-dof",
        not bad_bars and dof == 0,
        f"2*free_joints - moving_bars - 1 = {dof if not bad_bars else 'n/a'} (want 0)",
    )

    # bars joining two anchors must match the anchor distance exactly
    inconsistent = []
    if not bad_bars:
        for b in spec.bars:
            ja, jb = spec.joint(b.a), spec.joint(b.b)
            if ja.is_anchored and jb.is_anchored:
                dx = ja.anchor[0] - jb.anchor[0]
                dy = ja.anchor[1] - jb.anchor[1]
                if dx * dx + dy * dy != b.length * b.length:
                    inconsistent.append(b.id)
    check(
        "anchored-lengths",
        not inconsistent,
        "bars between anchors match the anchor distance"
        + (f" (bad: {inconsistent})" if inconsistent else ""),
    )

    driver_ok = False
    driver_detail = "driver bar has exactly one anchored endpoint"
    try:
        db = spec.bar(spec.driver.bar)
        anchored_ends = sum(1 for e in db.endpoints if spec.joint(e).is_anchored)
        driver_ok = anchored_ends == 1
        if not driver_ok:
            driver_detail += f" (found {anchored_ends})"
    except KeyError:
        driver_detail = f"driver bar {spec.driver.bar!r} not found"
    check("driver", driver_ok, driver_detail)

    tracer_ok = False
    tracer_detail = "tracer host exists"
    t = spec.tracer
    if t.joint is not None and t.bar is None:
        tracer_ok = t.joint in known
        if not tracer_ok:
            tracer_detail = f"tracer joint {t.joint!r} not found"
    elif t.bar is not None and t.joint is None:
        if t.bar not in bar_ids:
            tracer_detail = f"tracer bar {t.bar!r} not found"
        elif t.offset is None or not (0 <= t.offset <= 1):
            tracer_detail = f"tracer offset {t.offset} outside [0, 1]"
        else:
            tracer_ok = True
    else:
        tracer_detail = "tracer must name exactly one of joint or bar"
    check("tracer", tracer_ok, tracer_detail)

    try:
        triples = collinear_triples(spec)
        check("triples", True, "collinear bar triples are disjoint")
    except ValueError as e:
        triples = []
        check("triples", False, str(e))
    # the solver swaps the driver's quadric for the two driver-angle rows,
    # which needs the driver to keep its quadric in reduced_constraints
    check(
        "driver-outer",
        all(spec.driver.bar not in t.inner_bars for t in triples),
        "driver bar is not an inner bar of a collinear triple",
    )

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# file format (JSON, exact rationals as integer pairs)


def _want(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _rat(value, where: str) -> Fraction:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError(f"{where}: expected a rational as [numerator, denominator]")
    if value[1] == 0:
        raise ParseError(f"{where}: zero denominator")
    return Fraction(value[0], value[1])


def load(text: str) -> LinkageSpec:
    """Parse and validate a linkage file; raises ParseError or ValidationError."""
    try:
        doc = json.loads(text)
    # besides JSONDecodeError: an integer past the int digit limit raises a
    # plain ValueError, and deep nesting a RecursionError
    except (ValueError, RecursionError) as e:
        raise ParseError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")

    name = _want(doc, "name", "top level")
    if not isinstance(name, str):
        raise ParseError("name: expected a string")

    raw_joints = _want(doc, "joints", "top level")
    if not isinstance(raw_joints, list):
        raise ParseError("joints: expected an array")
    joints = []
    for i, rj in enumerate(raw_joints):
        where = f"joints[{i}]"
        if not isinstance(rj, dict):
            raise ParseError(f"{where}: expected an object")
        jid = _want(rj, "id", where)
        if not isinstance(jid, str):
            raise ParseError(f"{where}.id: expected a string")
        anchor = None
        if "anchored" in rj:
            quad = rj["anchored"]
            if (
                not isinstance(quad, list)
                or len(quad) != 4
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in quad)
            ):
                raise ParseError(
                    f"{where}.anchored: expected [xnum, xden, ynum, yden] integers"
                )
            anchor = (_rat(quad[0:2], f"{where}.anchored x"), _rat(quad[2:4], f"{where}.anchored y"))
        joints.append(Joint(jid, anchor))

    raw_bars = _want(doc, "bars", "top level")
    if not isinstance(raw_bars, list):
        raise ParseError("bars: expected an array")
    bars = []
    for i, rb in enumerate(raw_bars):
        where = f"bars[{i}]"
        if not isinstance(rb, dict):
            raise ParseError(f"{where}: expected an object")
        bid = _want(rb, "id", where)
        a = _want(rb, "a", where)
        b = _want(rb, "b", where)
        if not all(isinstance(v, str) for v in (bid, a, b)):
            raise ParseError(f"{where}: id, a, b must be strings")
        length = _rat(_want(rb, "length", where), f"{where}.length")
        bars.append(Bar(bid, a, b, length))

    raw_driver = _want(doc, "driver", "top level")
    if not isinstance(raw_driver, dict):
        raise ParseError("driver: expected an object")
    driver_bar = _want(raw_driver, "bar", "driver")
    if not isinstance(driver_bar, str):
        raise ParseError("driver.bar: expected a string")

    raw_tracer = _want(doc, "tracer", "top level")
    if not isinstance(raw_tracer, dict):
        raise ParseError("tracer: expected an object")
    if "joint" in raw_tracer:
        tj = raw_tracer["joint"]
        if not isinstance(tj, str):
            raise ParseError("tracer.joint: expected a string")
        tracer = Tracer(joint=tj)
    elif "bar" in raw_tracer:
        tb = raw_tracer["bar"]
        if not isinstance(tb, str):
            raise ParseError("tracer.bar: expected a string")
        offset = _rat(_want(raw_tracer, "offset", "tracer"), "tracer.offset")
        tracer = Tracer(bar=tb, offset=offset)
    else:
        raise ParseError("tracer: expected a joint or a bar with offset")

    spec = LinkageSpec(
        name=name,
        joints=tuple(joints),
        bars=tuple(bars),
        driver=Driver(driver_bar),
        tracer=tracer,
    )
    report = validate(spec)
    if not report.ok:
        raise ValidationError(report)
    return spec


def save(spec: LinkageSpec) -> str:
    """Serialize a spec; load(save(s)) is structurally equal to s."""
    joints = []
    for j in spec.joints:
        if j.is_anchored:
            x, y = j.anchor
            joints.append(
                {
                    "id": j.id,
                    "anchored": [x.numerator, x.denominator, y.numerator, y.denominator],
                }
            )
        else:
            joints.append({"id": j.id})
    bars = [
        {"id": b.id, "a": b.a, "b": b.b, "length": [b.length.numerator, b.length.denominator]}
        for b in spec.bars
    ]
    if spec.tracer.on_bar:
        tracer = {
            "bar": spec.tracer.bar,
            "offset": [spec.tracer.offset.numerator, spec.tracer.offset.denominator],
        }
    else:
        tracer = {"joint": spec.tracer.joint}
    doc = {
        "name": spec.name,
        "joints": joints,
        "bars": bars,
        "driver": {"bar": spec.driver.bar},
        "tracer": tracer,
    }
    return json.dumps(doc, indent=2) + "\n"
