import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribell.bell_expr as bell_expr
import tribell.fixtures as fixtures
from tribell.bell_expr import (
    BellExpression,
    BellParseError,
    CatalogEntry,
    CatalogIntegrityError,
    catalog_entry,
    deterministic_value,
    format_expression,
    load_catalog,
    local_bound,
    parse_expression,
    substitute_identity,
)

ALL_TERMS = [t for t in itertools.product(range(3), repeat=3) if t != (0, 0, 0)]


def test_parse_catalog_row_2():
    expr = parse_expression("ABC + abC + aBc - Abc")
    assert dict(expr.coeffs) == {(1, 1, 1): 1, (2, 2, 1): 1, (2, 1, 2): 1, (1, 2, 2): -1}


def test_parse_single_letter():
    assert dict(parse_expression("A").coeffs) == {(1, 0, 0): 1}


def test_parse_catalog_row_11():
    expr = parse_expression("2 AB + 2 ab + ABC + aBC - AbC - abC + ABc - aBc + Abc - abc")
    assert len(expr.coeffs) == 10
    assert expr.coefficient((1, 1, 0)) == 2
    assert expr.coefficient((2, 2, 0)) == 2


def test_parse_accumulates_repeated_terms():
    assert dict(parse_expression("A + 2 A").coeffs) == {(1, 0, 0): 3}
    assert dict(parse_expression("A - A").coeffs) == {}


def test_parse_coefficient_without_space():
    assert dict(parse_expression("3AB").coeffs) == {(1, 1, 0): 3}


@pytest.mark.parametrize("text, position", [
    ("A @ B", 2),
    ("AB + A$", 6),
])
def test_parse_reports_bad_character_position(text, position):
    with pytest.raises(BellParseError) as err:
        parse_expression(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["Aa", "ABCc", "aA + B"])
def test_parse_rejects_repeated_party(text):
    with pytest.raises(BellParseError):
        parse_expression(text)


@pytest.mark.parametrize("text", ["BA", "CB", "cA"])
def test_parse_rejects_out_of_order_parties(text):
    with pytest.raises(BellParseError):
        parse_expression(text)


def test_parse_rejects_empty_and_dangling():
    for text in ("", "   ", "A +", "+ - A"):
        with pytest.raises(BellParseError):
            parse_expression(text)


def test_parse_bare_integer_is_a_constant_term():
    assert dict(parse_expression("3").coeffs) == {(0, 0, 0): 3}
    assert dict(parse_expression("2 A - 2").coeffs) == {(1, 0, 0): 2, (0, 0, 0): -2}


def test_format_of_empty_expression():
    assert format_expression(BellExpression({})) == "0"


@pytest.mark.parametrize("coeff", [1.5, 0.4, -2.5, float("inf"), float("nan"), np.float64(0.5)])
def test_expression_rejects_non_integer_coefficients(coeff):
    with pytest.raises(ValueError, match="not an integer"):
        BellExpression({(1, 1, 0): coeff})


def test_expression_accepts_integer_values_of_any_type():
    for coeff in (2, 2.0, np.int64(2), np.float64(2.0), np.int8(2)):
        expr = BellExpression({(1, 1, 0): coeff})
        assert dict(expr.coeffs) == {(1, 1, 0): 2}
        assert type(expr.coefficient((1, 1, 0))) is int


def test_coefficient_sum_is_bounded():
    """Coefficients whose absolute values sum to 2**53 are accepted, and
    every sum and tensor entry of them is exact; one more is rejected."""
    half = 2**52
    expr = BellExpression({(1, 0, 0): half, (0, 1, 0): half})
    assert local_bound(expr)[0] == 2**53
    assert int(expr.tensor().astype(float).sum()) == 2**53
    assert local_bound(BellExpression({(1, 0, 0): half, (0, 1, 0): -half}))[0] == 2**53
    # Terms merge before the sum is taken.
    assert dict(parse_expression(f"{2**53} A + {2**53} A - {2**53} A").coeffs) == {(1, 0, 0): 2**53}
    for coeffs in ({(1, 0, 0): half, (0, 1, 0): -half - 1}, {(1, 1, 1): 10**20},
                   {(1, 0, 0): 2**62, (0, 1, 0): 2**62}):
        with pytest.raises(ValueError, match=r"absolute sum \d+ exceeds 2\*\*53"):
            BellExpression(coeffs)


def test_catalog_round_trip():
    for entry in load_catalog():
        again = parse_expression(format_expression(entry.expression))
        assert dict(again.coeffs) == dict(entry.expression.coeffs)


coeff_maps = st.dictionaries(
    st.sampled_from(ALL_TERMS),
    st.integers(min_value=-9, max_value=9).filter(bool),
    min_size=1,
    max_size=len(ALL_TERMS),
)


@settings(max_examples=1000)
@given(coeff_maps)
def test_random_round_trip(coeffs):
    expr = BellExpression(coeffs)
    again = parse_expression(format_expression(expr))
    assert dict(again.coeffs) == coeffs


@given(coeff_maps, st.tuples(*[st.sampled_from((1, -1))] * 6))
def test_deterministic_value_never_exceeds_local_bound(coeffs, strategy):
    expr = BellExpression(coeffs)
    bound, _ = local_bound(expr)
    assert deterministic_value(expr, strategy) <= bound


def test_local_bound_strategy_is_a_witness():
    for entry in load_catalog():
        bound, strategy = local_bound(entry.expression)
        assert len(strategy) == 6 and all(v in (1, -1) for v in strategy)
        assert deterministic_value(entry.expression, strategy) == bound


def test_catalog_local_maxima():
    for entry in load_catalog():
        bound, _ = local_bound(entry.expression)
        assert bound == entry.local_maximum, f"id {entry.id}"


def test_local_bound_of_trivial_expressions():
    assert local_bound(parse_expression("A"))[0] == 1
    assert local_bound(parse_expression("AB + Ab + aB - ab"))[0] == 2
    assert local_bound(parse_expression("4 abc"))[0] == 4


def test_substitute_identity_bipartite_reduction():
    reduced = substitute_identity(catalog_entry(23).expression, 3, 1, 1)
    expected = parse_expression("2 A + 2 B - 3 AB - Ab - aB + ab")
    assert dict(reduced.coeffs) == dict(expected.coeffs)


def test_substitute_identity_on_single_party():
    # <A> with party 1 frozen to +1/-1 becomes the constant term.
    reduced = substitute_identity(parse_expression("A"), 1, 1, -1)
    assert dict(reduced.coeffs) == {(0, 0, 0): 1}
    reduced = substitute_identity(parse_expression("a"), 1, 1, -1)
    assert dict(reduced.coeffs) == {(0, 0, 0): -1}


@given(coeff_maps, st.sampled_from((1, 2, 3)),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)))
def test_substitute_identity_matches_strategy_restriction(coeffs, party, s1, s2):
    """Freezing one party's outputs commutes with deterministic evaluation."""
    expr = BellExpression(coeffs)
    reduced = substitute_identity(expr, party, s1, s2)
    for outputs in itertools.product((1, -1), repeat=6):
        full = list(outputs)
        full[2 * (party - 1)] = s1
        full[2 * (party - 1) + 1] = s2
        assert deterministic_value(expr, tuple(full)) == deterministic_value(
            reduced, tuple(full))


def test_catalog_entry_bounds():
    assert catalog_entry(1).id == 1
    assert catalog_entry(46).local_maximum == 10
    for bad in (0, 47, -3):
        with pytest.raises(KeyError):
            catalog_entry(bad)


def test_catalog_checksum_guard(monkeypatch):
    import tribell.bell_expr as mod

    load_catalog.cache_clear()
    monkeypatch.setattr(mod, "_CATALOG_CRC32", "0" * 8)
    try:
        with pytest.raises(CatalogIntegrityError):
            load_catalog()
    finally:
        load_catalog.cache_clear()


# Per embedded table: its module, checksum constant, file, loader and error.
CHECKED_TABLES = {
    "catalog": (bell_expr, "_CATALOG_CRC32", "sliwa_catalog.txt", load_catalog,
                CatalogIntegrityError),
    "reference table": (fixtures, "_TABLE_CRC32", "reference_tables.txt",
                        fixtures.load_reference_table, fixtures.FixtureIntegrityError),
}


@pytest.mark.parametrize("table, row, damaged", [
    ("catalog", "41;7;A + B + AB + C + aC - 3 ABC", "41;7;A + B + AB + C + aC - 2 ABC"),
    ("reference table", "3;closed;2*sqrt(2);", "3;closed;3*sqrt(2);"),
], ids=list(CHECKED_TABLES))
def test_checksum_covers_the_text(table, row, damaged, table_copies):
    """One digit of a row changed, under the shipped checksum."""
    _, _, filename, load, error = CHECKED_TABLES[table]
    path = table_copies / filename
    text = path.read_text(encoding="utf-8")
    assert text.count("\n" + row) == 1
    path.write_text(text.replace("\n" + row, "\n" + damaged), encoding="utf-8")
    with pytest.raises(error, match=f"^{table} checksum mismatch"):
        load()


@pytest.mark.parametrize("table", CHECKED_TABLES)
def test_tables_must_hold_ids_in_order(table, table_copies, monkeypatch):
    """Rows 2 and 3 swapped, under a checksum that matches the swap."""
    module, constant, filename, load, error = CHECKED_TABLES[table]
    path = table_copies / filename
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    second, third = (i for i, line in enumerate(lines) if line.startswith(("2;", "3;")))
    lines[second], lines[third] = lines[third], lines[second]
    text = "".join(lines)
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(module, constant, format(zlib.crc32(text.encode("utf-8")), "08x"))
    with pytest.raises(error, match=f"^{table} must hold ids 1..46 in order$"):
        load()


def test_catalog_source_preserves_published_order():
    assert catalog_entry(2).source == "ABC + abC + aBc - Abc"
    for entry in load_catalog():
        assert dict(parse_expression(entry.source).coeffs) == dict(entry.expression.coeffs)


def test_catalog_entry_needs_its_source():
    """An entry carries its published text; none is built without it."""
    entry = catalog_entry(2)
    with pytest.raises(TypeError, match="source"):
        CatalogEntry(entry.id, entry.local_maximum, entry.expression)
