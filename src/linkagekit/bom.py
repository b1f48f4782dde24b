"""Part catalog and bill-of-materials pricing.

The shipped catalog (data/parts.csv) lists each LEGO part with its design
code, color, and unit price at two vendors, plus per-model piece counts and
a "set" column covering every model. Prices are exact rationals end to end;
only display code rounds. The pen refill and drawing paper are deliberately
not cataloged: their street prices vary too widely to pin a number.

Set semantics: one physical set is torn down and rebuilt between models, so
the set column holds the per-part maximum, not the sum. simultaneous_union
gives the per-part sum instead, for building every model at once.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files
from operator import add
from typing import Callable, Iterable, Mapping, Optional

from .model import UnknownModelError

VENDORS = ("brickowl", "bricklink")

_FIXED_COLUMNS = ("code", "name", "color", "price_brickowl", "price_bricklink")

ShoppingList = dict[int, int]
Requirements = dict[str, ShoppingList]


class CatalogError(ValueError):
    """Malformed catalog text or a failed catalog invariant."""


class UnknownPartError(KeyError):
    def __init__(self, code: int):
        super().__init__(f"part code {code} is not in the catalog")
        self.code = code


@dataclass(frozen=True)
class Part:
    code: int
    name: str
    color: str
    price_brickowl: Fraction
    price_bricklink: Fraction

    def price(self, vendor: str) -> Fraction:
        if vendor not in VENDORS:
            raise ValueError(f"vendor must be one of {VENDORS}, not {vendor!r}")
        return self.price_brickowl if vendor == "brickowl" else self.price_bricklink


def _price(text: str, where: str) -> Fraction:
    # an exponent is refused: Fraction("1e999999999") builds a billion-digit
    # integer, and a price past the float range has no display form to round
    try:
        if "e" in text.lower():
            raise ValueError("exponent in price")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise CatalogError(f"{where}: bad price {text!r}") from ex
    if value < 0:
        raise CatalogError(f"{where}: negative price {text!r}")
    return value


def _count(text: str, where: str) -> int:
    try:
        value = int(text)
    except ValueError as ex:
        raise CatalogError(f"{where}: bad count {text!r}") from ex
    if value < 0:
        raise CatalogError(f"{where}: negative count")
    return value


def catalog_load(text: str) -> tuple[dict[int, Part], Requirements]:
    """Parse catalog CSV text and check every catalog invariant.

    Returns parts keyed by design code and requirements keyed by model name
    (the "set" column loads as one more requirement row). The embedded total
    row is recomputed from the counts; the set column is checked to be the
    per-part maximum over the model columns. Zero counts are dropped from
    the requirement maps.
    """
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise CatalogError("empty catalog")
    header = tuple(h.strip() for h in rows[0])
    if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
        raise CatalogError(
            f"header must start with {','.join(_FIXED_COLUMNS)}; got {','.join(header)}"
        )
    count_cols = header[len(_FIXED_COLUMNS):]
    if not count_cols:
        raise CatalogError("no model columns in header")
    if len(set(count_cols)) != len(count_cols):
        raise CatalogError("duplicate model columns")
    models = [c for c in count_cols if c != "set"]

    parts: dict[int, Part] = {}
    counts: dict[str, ShoppingList] = {c: {} for c in count_cols}
    claimed_totals: Optional[dict[str, int]] = None
    for row in rows[1:]:
        if len(row) != len(header):
            raise CatalogError(f"row {row[0]!r}: expected {len(header)} fields, got {len(row)}")
        if row[0].strip() == "total":
            if claimed_totals is not None:
                raise CatalogError("more than one total row")
            claimed_totals = {
                col: _count(row[len(_FIXED_COLUMNS) + i], "total row")
                for i, col in enumerate(count_cols)
            }
            continue
        if claimed_totals is not None:
            raise CatalogError("part rows after the total row")
        where = f"part row {row[0]!r}"
        try:
            code = int(row[0])
        except ValueError as ex:
            raise CatalogError(f"{where}: bad code") from ex
        if code in parts:
            raise CatalogError(f"{where}: duplicate code")
        parts[code] = Part(
            code=code,
            name=row[1].strip(),
            color=row[2].strip(),
            price_brickowl=_price(row[3], where),
            price_bricklink=_price(row[4], where),
        )
        for i, col in enumerate(count_cols):
            n = _count(row[len(_FIXED_COLUMNS) + i], where)
            if n:
                counts[col][code] = n
    if not parts:
        raise CatalogError("no part rows")
    if claimed_totals is None:
        raise CatalogError("missing total row")
    for col in count_cols:
        actual = sum(counts[col].values())
        if actual != claimed_totals[col]:
            raise CatalogError(
                f"total mismatch for {col!r}: counts sum to {actual}, "
                f"total row claims {claimed_totals[col]}"
            )
    if "set" in counts:
        for code in parts:
            expect = max((counts[m].get(code, 0) for m in models), default=0)
            if counts["set"].get(code, 0) != expect:
                raise CatalogError(
                    f"set column mismatch for part {code}: per-model maximum is {expect}, "
                    f"set claims {counts['set'].get(code, 0)}"
                )
    return parts, dict(counts)


@lru_cache(maxsize=1)
def shipped() -> tuple[dict[int, Part], Requirements]:
    """The catalog packaged with the library."""
    text = files("linkagekit").joinpath("data/parts.csv").read_text(encoding="utf-8")
    return catalog_load(text)


def _union(
    models: Iterable[str], requirements: Requirements, combine: Callable[[int, int], int]
) -> ShoppingList:
    out: ShoppingList = {}
    for model in models:
        if model not in requirements:
            raise UnknownModelError(model, requirements)
        for code, n in requirements[model].items():
            out[code] = combine(out.get(code, 0), n)
    return out


def set_union(models: Iterable[str], requirements: Requirements) -> ShoppingList:
    """Parts needed to build the models one at a time: per-part maximum."""
    return _union(models, requirements, max)


def simultaneous_union(models: Iterable[str], requirements: Requirements) -> ShoppingList:
    """Parts needed to build the models all at once: per-part sum."""
    return _union(models, requirements, add)


def price(shopping: Mapping[int, int], vendor: str, parts: Mapping[int, Part]) -> Fraction:
    """Exact total price of a shopping list at one vendor."""
    if vendor not in VENDORS:
        raise ValueError(f"vendor must be one of {VENDORS}, not {vendor!r}")
    total = Fraction(0)
    for code, n in shopping.items():
        if code not in parts:
            raise UnknownPartError(code)
        total += n * parts[code].price(vendor)
    return total


def format_price(value: Fraction) -> str:
    """Display form: four decimals, rounded exactly (half to even)."""
    n = round(value * 10000)
    units, frac = divmod(abs(n), 10000)
    return f"{'-' if n < 0 else ''}{units}.{frac:04d}"
