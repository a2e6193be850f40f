"""ANF parsing, formatting, and table conversions."""

import pytest
from hypothesis import given, settings

from conftest import boolean_functions, reference_table

from ncflab import (
    MAX_TABLE_ARITY,
    AnfPolynomial,
    BooleanFunction,
    InvalidInputError,
    ParseError,
)


def monomials(*terms):
    return frozenset(frozenset(t) for t in terms)


def test_parse_cascade():
    p = AnfPolynomial.parse("x1*x2*x3 + x1*x2 + x3", 3)
    assert p.monomials == monomials({1, 2, 3}, {1, 2}, {3})


def test_parse_expands_products_of_sums():
    p = AnfPolynomial.parse("(x3+1)*(x1*x2+1)+1", 3)
    assert p.monomials == monomials({1, 2, 3}, {1, 2}, {3})


def test_parse_constants_and_cancellation():
    assert AnfPolynomial.parse("0", 2).monomials == frozenset()
    assert AnfPolynomial.parse("1", 2).monomials == monomials(())
    assert AnfPolynomial.parse("x1 + x1", 2).monomials == frozenset()
    assert AnfPolynomial.parse("x1*x1", 2).monomials == monomials({1})
    assert AnfPolynomial.parse("1 + 1 + 1", 0).monomials == monomials(())


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        AnfPolynomial.parse("x1 + ", 2)
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        AnfPolynomial.parse("x1 ? x2", 2)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        AnfPolynomial.parse("x5", 3)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        AnfPolynomial.parse("(x1 + x2", 2)
    with pytest.raises(ParseError):
        AnfPolynomial.parse("x", 2)
    with pytest.raises(ParseError):
        AnfPolynomial.parse("", 2)
    with pytest.raises(ParseError):
        AnfPolynomial.parse("x1 x2", 2)


def test_to_function_rejects_arity_above_table_cap():
    wide = AnfPolynomial.from_terms(40, [{1}, {40}])
    with pytest.raises(InvalidInputError, match="table cap"):
        wide.to_function()
    capped = AnfPolynomial.from_terms(MAX_TABLE_ARITY + 1, [])
    with pytest.raises(InvalidInputError, match="table cap"):
        capped.to_function()


def test_format_canonical_order():
    p = AnfPolynomial.parse("x3 + x1*x2 + 1 + x1*x2*x3", 3)
    assert p.format() == "x1*x2*x3 + x1*x2 + x3 + 1"
    assert AnfPolynomial(2, frozenset()).format() == "0"
    assert AnfPolynomial.parse("1", 1).format() == "1"


def test_parse_format_round_trip():
    texts = ["x1*x2*x3 + x1*x2 + x3", "x1*x2 + x1 + 1", "0", "1", "x2"]
    for text in texts:
        p = AnfPolynomial.parse(text, 3)
        assert AnfPolynomial.parse(p.format(), 3) == p


def test_anf_to_table_cascade_column():
    f = AnfPolynomial.parse("x1*x2*x3 + x1*x2 + x3", 3).to_function()
    assert f == reference_table([{1, 2, 3}, {1, 2}, {3}], 3)
    assert AnfPolynomial(2, frozenset()).to_function() == BooleanFunction.constant(2, 0)
    g = AnfPolynomial.parse("x1*x2*x3", 3).to_function()
    assert g.bits == 1 << 7  # true only at (1,1,1)


def test_table_to_anf_examples():
    g = reference_table([{1, 2, 3}], 3)
    assert AnfPolynomial.from_function(g).monomials == monomials({1, 2, 3})
    f = reference_table([{1, 2, 3}, {1, 2}, {3}], 3)
    assert AnfPolynomial.from_function(f).monomials == monomials(
        {1, 2, 3}, {1, 2}, {3}
    )
    ones = BooleanFunction.constant(2, 1)
    assert AnfPolynomial.from_function(ones).monomials == monomials(())


def test_round_trip_exhaustive_small():
    for n in range(0, 3):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert AnfPolynomial.from_function(f).to_function() == f


@settings(max_examples=150)
@given(boolean_functions(0, 10))
def test_round_trip_sampled(f):
    assert AnfPolynomial.from_function(f).to_function() == f
