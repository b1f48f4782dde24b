"""Spec construction, validation, triples, and the file format round-trip."""

import copy
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linkagekit import catalog
from linkagekit.model import (
    Bar,
    Driver,
    Joint,
    LinkageSpec,
    ParseError,
    Tracer,
    ValidationError,
    collinear_triples,
    load,
    save,
    validate,
)


# committed per-model bar lengths; the builtin specs must match this table
EXPECTED_LENGTHS = {
    "compass": {"arm": F(4)},
    "chebyshev": {"rocker1": F(10), "coupler": F(4), "rocker2": F(10)},
    "chebyshev_open": {"rocker1": F(10), "coupler": F(4), "rocker2": F(10)},
    "chebyshev_lambda": {
        "crank": F(2),
        "beam_a": F(5),
        "beam_b": F(5),
        "beam": F(10),
        "rocker": F(5),
    },
    "watt": {"rocker1": F(8), "coupler": F(4), "rocker2": F(8)},
    "hart_inversor": {
        "ao": F(4),
        "ob": F(4),
        "ab": F(8),
        "bq": F(2),
        "qc": F(2),
        "bc": F(4),
        "cd": F(8),
        "dp": F(2),
        "pa": F(2),
        "da": F(4),
        "crank": F(4),
    },
    "hart_aframe": {
        "l1a": F(6),
        "l1b": F(2),
        "l1": F(8),
        "l2a": F(6),
        "l2b": F(2),
        "l2": F(8),
        "cross": F(4),
        "w1": F(4),
        "w2": F(4),
    },
}


def test_every_builtin_validates():
    for name in catalog.names():
        report = validate(catalog.entry(name).spec)
        assert report.ok, [c for c in report.failures]


def test_builtin_bar_lengths_match_committed_table():
    for name, lengths in EXPECTED_LENGTHS.items():
        spec = catalog.entry(name).spec
        assert {b.id: b.length for b in spec.bars} == lengths


def test_unknown_builtin():
    with pytest.raises(catalog.UnknownModelError, match="no_such_linkage"):
        catalog.entry("no_such_linkage")


def test_roundtrip_every_builtin():
    for name in catalog.names():
        spec = catalog.entry(name).spec
        assert load(save(spec)) == spec


def test_collinear_triples_hart():
    triples = {t.mid: t for t in collinear_triples(catalog.entry("hart_inversor").spec)}
    assert set(triples) == {"O", "P", "Q"}
    assert triples["Q"].t == F(1, 2)
    assert (triples["Q"].a, triples["Q"].b) == ("B", "C")


def test_collinear_triples_lambda_off_center():
    (t,) = collinear_triples(catalog.entry("chebyshev_lambda").spec)
    assert (t.mid, t.a, t.b) == ("B", "A", "T")
    assert t.t == F(1, 2)


def test_collinear_triples_aframe_quarter_points():
    triples = {t.mid: t for t in collinear_triples(catalog.entry("hart_aframe").spec)}
    assert triples["M1"].t == F(3, 4)
    assert triples["M2"].t == F(3, 4)


def _two_bar(length_b=F(4)):
    return LinkageSpec(
        name="toy",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (F(6), F(0))), Joint("P", None)),
        bars=(Bar("u", "A", "P", F(4)), Bar("v", "B", "P", length_b)),
        driver=Driver("u"),
        tracer=Tracer(joint="P"),
    )


def test_validate_flags_missing_mobility():
    report = validate(_two_bar())
    assert not report.ok
    assert "one-dof" in {c.name for c in report.failures}


def _mangled(mutate):
    doc = json.loads(save(catalog.entry("compass").spec))
    mutate(doc)
    return json.dumps(doc)


def test_parse_error_not_json():
    with pytest.raises(ParseError, match="not valid JSON"):
        load("{nope")


def test_parse_error_missing_driver():
    def drop(doc):
        del doc["driver"]

    with pytest.raises(ParseError, match="driver"):
        load(_mangled(drop))


def test_negative_length_rejected():
    def poison(doc):
        doc["bars"][0]["length"] = [-3, 1]

    with pytest.raises((ParseError, ValidationError)):
        load(_mangled(poison))


def test_duplicate_joint_id_rejected():
    def clash(doc):
        doc["joints"][1]["id"] = "O"

    with pytest.raises((ParseError, ValidationError)):
        load(_mangled(clash))


def test_save_uses_exact_rationals():
    assert "." not in save(catalog.entry("chebyshev_lambda").spec)


def test_inner_bar_driver_rejected():
    spec = replace(catalog.entry("hart_aframe").spec, driver=Driver("l1a"))
    report = validate(spec)
    assert [c.name for c in report.failures] == ["driver-outer"]
    with pytest.raises(ValidationError, match="not an inner bar"):
        load(save(spec))


# replacement values: every JSON type, rationals with a zero denominator or
# the wrong arity, and objects shaped like the file's own
_RETYPES = [None, True, 0, -1, 2, 1.5, "", "O", [], {}, [1], [1, 0], [1, 2, 3], [[1, 2]],
            {"id": "O"}, {"bar": 1}]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(catalog.names()), seed=st.integers(0, 2**32))
def test_mutated_file_raises_only_parse_or_validation_errors(name, seed):
    # ten files a case, each with one to three fields dropped, retyped or
    # nested; each field is found by a random walk down from the top level
    saved = save(catalog.entry(name).spec)
    rng = random.Random(seed)
    for _ in range(10):
        box = {"doc": json.loads(saved)}
        for _ in range(rng.randint(1, 3)):
            if "doc" not in box:
                break
            node, key = box, "doc"
            while isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.8:
                node = node[key]
                key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            op = rng.choice(["drop", "retype", "nest"])
            if op == "drop":
                del node[key]
            elif op == "retype":
                node[key] = copy.deepcopy(rng.choice(_RETYPES))
            else:
                node[key] = rng.choice([[node[key]], {"value": node[key]}])
        try:
            assert isinstance(load(json.dumps(box.get("doc"))), LinkageSpec)
        except (ParseError, ValidationError):
            pass
