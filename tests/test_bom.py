"""Catalog parsing, shopping-list unions, and exact pricing."""

from fractions import Fraction as F

import pytest

from linkagekit.bom import (
    CatalogError,
    UnknownModelError,
    UnknownPartError,
    catalog_load,
    format_price,
    price,
    set_union,
    shipped,
    simultaneous_union,
)

PARTS, REQS = shipped()

MODELS = ("compass", "chebyshev", "chebyshev_lambda", "watt", "hart_inversor")

PIECE_COUNTS = {
    "compass": 3,
    "chebyshev": 12,
    "chebyshev_lambda": 10,
    "watt": 21,
    "hart_inversor": 14,
    "set": 24,
}


def test_shipped_piece_counts():
    _, reqs = shipped()
    assert set(reqs) == set(PIECE_COUNTS)
    for model, n in PIECE_COUNTS.items():
        assert sum(reqs[model].values()) == n, model


def test_shipped_set_prices():
    _, reqs = shipped()
    assert price(reqs["set"], "brickowl", PARTS) == F(1123, 1000)
    assert price(reqs["set"], "bricklink", PARTS) == F(253, 625)
    assert format_price(price(reqs["set"], "brickowl", PARTS)) == "1.1230"
    assert format_price(price(reqs["set"], "bricklink", PARTS)) == "0.4048"


def test_watt_bom_prices():
    shopping = set_union(["watt"], REQS)
    assert sum(shopping.values()) == 21
    assert price(shopping, "brickowl", PARTS) == F(1023, 1000)
    assert price(shopping, "bricklink", PARTS) == F(3796, 10000)


def test_set_column_is_set_union_of_all_models():
    _, reqs = shipped()
    assert set_union(MODELS, REQS) == reqs["set"]


def test_set_union_takes_per_part_maximum():
    u = set_union(("chebyshev", "hart_inversor"), REQS)
    assert u[2780] == 8  # pins: max(5, 8), one set rebuilt between models
    assert u[40490] == 2


def test_simultaneous_union_takes_per_part_sum():
    u = simultaneous_union(("chebyshev", "hart_inversor"), REQS)
    assert u[2780] == 13
    full = simultaneous_union(MODELS, REQS)
    assert sum(full.values()) == 60
    assert price(full, "brickowl", PARTS) == F(2763, 1000)
    assert price(full, "bricklink", PARTS) == F(10792, 10000)


def test_set_union_never_costs_more_than_separate_purchases():
    for vendor in ("brickowl", "bricklink"):
        separate = sum(price(set_union([m], REQS), vendor, PARTS) for m in MODELS)
        assert price(set_union(MODELS, REQS), vendor, PARTS) <= separate


def test_bricklink_undercuts_brickowl_on_every_shipped_part():
    parts, _ = shipped()
    for part in parts.values():
        assert part.price_bricklink <= part.price_brickowl, part.code


def test_bom_copies_are_independent():
    a = set_union(["compass"], REQS)
    a[2780] = 99
    assert set_union(["compass"], REQS)[2780] == 1


def test_unknown_model():
    with pytest.raises(UnknownModelError, match="catalog covers"):
        set_union(["strandbeest"], REQS)
    with pytest.raises(UnknownModelError):
        set_union(("watt", "strandbeest"), REQS)


def test_unknown_part():
    with pytest.raises(UnknownPartError, match="99999"):
        price({99999: 1}, "brickowl", PARTS)


def test_bad_vendor():
    with pytest.raises(ValueError, match="vendor"):
        price(set_union(["watt"], REQS), "ebay", PARTS)


MINIMAL = """code,name,color,price_brickowl,price_bricklink,alpha,set
2780,Pin,black,0.005,0.0008,2,2
32316,Beam 5,white,0.03,0.0084,1,1
total,,,,,3,3
"""


def test_catalog_load_roundtrip():
    parts, reqs = catalog_load(MINIMAL)
    assert parts[2780].price_bricklink == F(8, 10000)
    assert reqs["alpha"] == {2780: 2, 32316: 1}
    assert price(reqs["alpha"], "brickowl", parts) == F(4, 100)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t.replace("code,name", "id,name"), "header must start with"),
        (lambda t: t.replace(",alpha,set", ""), "no model columns"),
        (lambda t: t.replace(",alpha,set", ",alpha,alpha"), "duplicate model columns"),
        (lambda t: t.replace("32316", "2780"), "duplicate code"),
        (lambda t: t.replace("0.005", "-0.005"), "negative price"),
        (lambda t: t.replace("0.005", "cheap"), "bad price"),
        (lambda t: t.replace("0.0008,2,2", "0.0008,-2,2"), "negative count"),
        (lambda t: t.replace("total,,,,,3,3", "total,,,,,4,3"), "total mismatch for 'alpha'"),
        (lambda t: t.replace("total,,,,,3,3\n", ""), "missing total row"),
        (
            lambda t: t + "total,,,,,3,3\n",
            "more than one total row",
        ),
        (
            lambda t: t.replace("0.0084,1,1", "0.0084,1,2").replace(
                "total,,,,,3,3", "total,,,,,3,4"
            ),
            "set column mismatch for part 32316",
        ),
        (lambda t: t.replace("2780,Pin,black", "2780,Pin"), "expected 7 fields"),
        (lambda t: "", "empty catalog"),
    ],
)
def test_catalog_validation(mangle, message):
    with pytest.raises(CatalogError, match=message):
        catalog_load(mangle(MINIMAL))


def test_part_rows_after_total_rejected():
    text = MINIMAL.replace(
        "32316,Beam 5,white,0.03,0.0084,1,1\ntotal,,,,,3,3",
        "total,,,,,2,2\n32316,Beam 5,white,0.03,0.0084,1,1",
    )
    with pytest.raises(CatalogError, match="after the total row"):
        catalog_load(text)


def test_format_price_rounds_to_four_decimals():
    assert format_price(F(1, 3)) == "0.3333"
    assert format_price(F(2, 3)) == "0.6667"
    assert format_price(F(0)) == "0.0000"
    assert format_price(F(2)) == "2.0000"
