"""ANF parsing, formatting, and table conversions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ANF_DIGITS,
    ANF_LEAVES,
    ANF_PIECES,
    boolean_functions,
    random_ncf,
    reference_anf_parse,
    reference_table,
)

from ncflab import (
    MAX_TABLE_ARITY,
    AnfPolynomial,
    BooleanFunction,
    InvalidInputError,
    ParseError,
)
from ncflab.anf import anf_text, check_anf, evaluate_anf


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


def test_check_infers_arity_capped_at_table_cap():
    assert check_anf("x3*x1 + x\u0663")[0] == 3
    assert check_anf("1 + 0")[0] == 0
    assert check_anf("x0007")[0] == 7
    with pytest.raises(ParseError) as err:
        check_anf("x0 + x3")
    assert str(err.value) == "variable x0 out of range 1..3 (column 1)"
    with pytest.raises(ParseError) as err:
        check_anf("x1 + x" + "0" * 10 + "9" * 5000)
    assert str(err.value) == f"variable x{'9' * 5000} out of range 1..24 (column 6)"


# check_anf reads each index once, capped by the explicit arity if one is
# given; these outputs were recorded when it read each index twice.
@pytest.mark.parametrize(
    "text, arity, expected",
    [
        ("x0150*x99", 150, (150, [150, "*", 99])),
        ("x9 + x1\u0662\u0663", 200, (200, [9, "+", 123])),
        ("x\u0663\u0662 + x1", 40, (40, [32, "+", 1])),
        ("x1\u0665", None, (15, [15])),
        ("x0" + "\u0660" * 30 + "7", None, (7, [7])),
        ("1", 30, (30, ["1"])),
        ("x" + "9" * 40, 10**40, (10**40, [10**40 - 1])),
        ("x25 + x150", 100, ("variable x150 out of range 1..100 (column 7)", 7)),
        ("x1000", 999, ("variable x1000 out of range 1..999 (column 1)", 1)),
        ("x" + "9" * 41, 10**40, (f"variable x{'9' * 41} out of range 1..{10**40} (column 1)", 1)),
        ("x\uff11\uff12 + x3", 11, ("variable x12 out of range 1..11 (column 1)", 1)),
        ("x2 x0\u0663", 40, ("unexpected token '0\u0663' (column 4)", 4)),
        (
            "x1 + x" + "0" * 10 + "9" * 5000,
            30,
            (f"variable x{'9' * 5000} out of range 1..30 (column 6)", 6),
        ),
    ],
)
def test_check_wide_arities_and_mixed_digits(text, arity, expected):
    if isinstance(expected[0], str):
        with pytest.raises(ParseError) as err:
            check_anf(text, arity)
        assert (str(err.value), err.value.position) == expected
    else:
        assert check_anf(text, arity) == expected


def test_evaluate_long_product_and_deep_nesting():
    product = "*".join(f"(x{i}+1)" for i in range(1, 25))
    assert evaluate_anf(*check_anf(product)) == BooleanFunction(24, 1)
    nested = "(" * 2000 + "x1 + x2" + ")" * 2000 + "*x3"
    assert evaluate_anf(*check_anf(nested)) == reference_table([{1, 3}, {2, 3}], 3)
    with pytest.raises(ParseError) as err:
        check_anf("(" * 2000)
    assert err.value.position == 2001


_digits = st.text(ANF_DIGITS, max_size=4)
_well_formed = st.recursive(
    st.sampled_from(ANF_LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", "*"]), inner).map("".join),
        inner.map(lambda text: f"({text})"),
    ),
    max_leaves=10,
)
_token_soup = st.lists(
    st.one_of(
        st.sampled_from(ANF_PIECES),
        _digits.map(lambda digits: "x" + digits),
        _well_formed,
    ),
    max_size=8,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_well_formed, _token_soup), st.one_of(st.none(), st.integers(0, 4)))
def test_parse_matches_reference_expansion(text, arity):
    try:
        expected = reference_anf_parse(text, arity)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            AnfPolynomial.parse(text, arity)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
    else:
        assert AnfPolynomial.parse(text, arity).monomials == expected


def test_to_function_rejects_arity_above_table_cap():
    wide = AnfPolynomial.from_terms(40, [{1}, {40}])
    with pytest.raises(InvalidInputError, match="table cap"):
        wide.to_function()
    capped = AnfPolynomial.from_terms(MAX_TABLE_ARITY + 1, [])
    with pytest.raises(InvalidInputError, match="table cap"):
        capped.to_function()
    with pytest.raises(InvalidInputError, match="table cap"):
        AnfPolynomial.parse("x1", MAX_TABLE_ARITY + 1)
    # Parse errors come first.
    with pytest.raises(ParseError):
        AnfPolynomial.parse("x1 +", MAX_TABLE_ARITY + 1)


def test_negative_arity_is_invalid_input():
    message = f"arity must lie in 0..{MAX_TABLE_ARITY}, got -1"
    with pytest.raises(InvalidInputError, match=message):
        AnfPolynomial.parse("1", -1)
    with pytest.raises(InvalidInputError, match=message):
        AnfPolynomial(-1, frozenset()).to_function()
    with pytest.raises(InvalidInputError, match=message):
        BooleanFunction(-1, 0)


def test_format_canonical_order():
    p = AnfPolynomial.parse("x3 + x1*x2 + 1 + x1*x2*x3", 3)
    assert p.format() == "x1*x2*x3 + x1*x2 + x3 + 1"
    assert AnfPolynomial(2, frozenset()).format() == "0"
    assert AnfPolynomial.parse("1", 1).format() == "1"
    # Index lists sort as numbers, and formatting builds no table, so an
    # arity above the table cap formats at once.
    p = AnfPolynomial.from_terms(40, [[40, 1], [3], [], [2, 10], [2, 9]])
    assert p.format() == "x1*x40 + x2*x9 + x2*x10 + x3 + 1"


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


def test_to_function_matches_word_by_word_evaluation():
    rng = random.Random(77)
    for n in range(0, 8):
        for _ in range(8):
            terms = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(0, 12))]
            poly = AnfPolynomial.from_terms(n, terms)
            assert poly.to_function() == reference_table(poly.monomials, n), (n, terms)


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


@settings(max_examples=150)
@given(boolean_functions(0, 10))
def test_anf_text_matches_sorted_monomials(f):
    # The documented order, built from the monomial sets: descending degree,
    # then the sorted index lists.
    ordered = sorted(
        AnfPolynomial.from_function(f).monomials, key=lambda m: (-len(m), sorted(m))
    )
    terms = ["*".join(f"x{i}" for i in sorted(m)) or "1" for m in ordered]
    expected = " + ".join(terms) or "0"
    assert anf_text(f) == expected
    assert AnfPolynomial.from_function(f).format() == expected


def test_anf_text_matches_format_on_wide_ncfs_and_edge_arities():
    # Odd and even arities split each term's text into head and tail tables
    # of different sizes; arities 0 and 1 leave the tail table one entry.
    rng = random.Random(2111)
    cases = [random_ncf(rng, n)[1] for n in range(11, 17) for _ in range(2)]
    cases += [BooleanFunction(n, bits) for n in (0, 1) for bits in range(1 << (1 << n))]
    cases += [BooleanFunction.constant(n, b) for n in (2, 11, 16) for b in (0, 1)]
    for f in cases:
        assert anf_text(f) == AnfPolynomial.from_function(f).format(), f.to_hex()
