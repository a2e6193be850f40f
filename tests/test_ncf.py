"""Canonical layer decomposition: classify, rebuild, text form."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    boolean_functions,
    constant_functions,
    flipped_nested_canalizing_functions,
    nested_canalizing_functions,
    planted_inessential_functions,
    reference_decompose,
    reference_table,
)

from ncflab import (
    BooleanFunction,
    InvalidInputError,
    LayerDecomposition,
    NotNcfReason,
    canalizing_pairs,
    compose,
    decompose,
    enumerate_ncfs,
    format_decomposition,
    parse_decomposition,
)
from ncflab.core import full_mask, variable_mask, words

CASCADE3 = reference_table([{1, 2, 3}, {1, 2}, {3}], 3)
MONOMIAL3 = reference_table([{1, 2, 3}], 3)
PARITY2 = reference_table([{1}, {2}], 2)


def test_canalizing_pairs_examples():
    assert canalizing_pairs(MONOMIAL3) == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert canalizing_pairs(CASCADE3) == [(3, 1, 1)]
    assert canalizing_pairs(PARITY2) == []


def test_canalizing_pairs_constant_convention():
    c = BooleanFunction.constant(2, 1)
    assert canalizing_pairs(c) == [(1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1)]
    with pytest.raises(InvalidInputError):
        canalizing_pairs(BooleanFunction.constant(0, 0))


def test_decompose_single_layer_monomial():
    result = decompose(MONOMIAL3)
    assert result.is_ncf
    d = result.decomposition
    assert d.b == 1
    assert d.layers == (((1, 0), (2, 0), (3, 0)),)
    assert d.structure() == (3,)
    assert compose(d) == MONOMIAL3


def test_decompose_cascade():
    result = decompose(CASCADE3)
    assert result.is_ncf
    d = result.decomposition
    assert d.b == 1
    assert d.layers == (((3, 1),), ((1, 0), (2, 0)))
    assert d.structure() == (1, 2)
    assert compose(d) == CASCADE3


def test_decompose_rejections():
    parity = decompose(PARITY2)
    assert not parity.is_ncf
    assert parity.reason is NotNcfReason.NO_CANALIZING_VARIABLE

    constant = decompose(BooleanFunction.constant(3, 1))
    assert constant.reason is NotNcfReason.CONSTANT

    inessential = decompose(reference_table([{1, 3}], 3))  # x2 unused
    assert inessential.reason is NotNcfReason.INESSENTIAL_VARIABLE

    with pytest.raises(InvalidInputError):
        decompose(BooleanFunction.projection(1, 1))


def test_decompose_absorbs_nested_singletons():
    # x1*(x2*(x3+1)+1) looks three-deep but x2, x3 share a layer.
    f = reference_table([{1, 2, 3}, {1, 2}, {1}], 3)
    d = decompose(f).decomposition
    assert d.b == 0
    assert d.layers == (((1, 0),), ((2, 0), (3, 1)))


def test_compose_examples():
    two = LayerDecomposition.from_pairs(2, [[(1, 0), (2, 0)]], 1)
    assert compose(two) == reference_table([{1, 2}], 2)

    cascade = LayerDecomposition.from_pairs(3, [[(3, 1)], [(1, 0), (2, 0)]], 1)
    assert compose(cascade) == CASCADE3

    # structure <1,1,2>, all inputs 0, b=0: x1*(x2*(x3*x4+1)+1),
    # expanded by hand to x1*x2*x3*x4 + x1*x2 + x1.
    deep = LayerDecomposition.from_pairs(4, [[(1, 0)], [(2, 0)], [(3, 0), (4, 0)]], 0)
    assert compose(deep) == reference_table([{1, 2, 3, 4}, {1, 2}, {1}], 4)


def test_compose_matches_prefix_product_expansion():
    # Independent expansion oracle: XOR of prefix products of the layer
    # masks, with one extra complement in the single-layer convention.  It
    # does not depend on compose's own cross-check, which -O compiles out.
    for n in (2, 3, 4, 5):
        full = full_mask(n)
        for d in enumerate_ncfs(n):
            masks = []
            for layer in d.layers:
                mask = full
                for var, inp in layer:  # the factor (x + a) is true where x != a
                    m = variable_mask(n, var)
                    mask &= full ^ m if inp else m
                masks.append(mask)
            prefix = full
            acc = 0
            for mask in masks:
                prefix &= mask
                acc ^= prefix
            if d.b ^ (1 if len(masks) == 1 else 0):
                acc ^= full
            assert compose(d).bits == acc


def test_layer_structure():
    assert decompose(CASCADE3).decomposition.structure() == (1, 2)
    assert decompose(MONOMIAL3).decomposition.structure() == (3,)
    deep = LayerDecomposition.from_pairs(4, [[(1, 0)], [(2, 0)], [(3, 0), (4, 0)]], 0)
    assert deep.structure() == (1, 1, 2)


def test_decomposition_validation():
    with pytest.raises(InvalidInputError):
        LayerDecomposition(3, (((1, 0),), ((2, 0),)), 0)  # last layer too small
    with pytest.raises(InvalidInputError):
        LayerDecomposition(3, (((1, 0), (2, 0), (3, 0)),), 2)  # bad output bit
    with pytest.raises(InvalidInputError):
        LayerDecomposition(3, (((1, 0), (2, 0)),), 0)  # not a partition
    with pytest.raises(InvalidInputError):
        LayerDecomposition(2, (((2, 0), (1, 0)),), 0)  # unsorted entries
    with pytest.raises(InvalidInputError):
        LayerDecomposition(2, (((1, 0), (1, 1)),), 0)  # duplicate variable


def test_text_form_round_trip():
    d = decompose(CASCADE3).decomposition
    text = format_decomposition(d)
    assert text == "1; [3:1 | 1:0, 2:0]"
    assert parse_decomposition(text) == d
    for other in enumerate_ncfs(3):
        assert parse_decomposition(format_decomposition(other)) == other
    with pytest.raises(InvalidInputError):
        parse_decomposition("2; [1:0, 2:0]")
    with pytest.raises(InvalidInputError):
        parse_decomposition("1; 1:0, 2:0")
    with pytest.raises(InvalidInputError):
        parse_decomposition("1; [1:0 | 2:0]")  # one-variable last layer
    # Indices are decimal digits of any script, read as int() reads them.
    assert parse_decomposition("1; [\u0661:0, \u0662:1]") == parse_decomposition("1; [1:0, 2:1]")
    assert parse_decomposition("0; [2:1 | 001:0, 3:0]").layers == (((2, 1),), ((1, 0), (3, 0)))
    with pytest.raises(InvalidInputError, match="bad layer entry"):
        parse_decomposition("1; [1:0, \u00b2:1]")  # str.isdigit takes it, int() does not
    # An index past Python's int-string limit is out of range, not a ValueError.
    with pytest.raises(InvalidInputError, match="out of range 1..2"):
        parse_decomposition("1; [1:0, " + "9" * 5000 + ":1]")
    with pytest.raises(InvalidInputError, match="variable index 3 out of range 1..2"):
        parse_decomposition("1; [1:0, 0003:1]")
    with pytest.raises(InvalidInputError, match="variable index 0 out of range 1..2"):
        parse_decomposition("1; [1:0, 0:1]")


_bits = st.sampled_from([0, 1, False, True])


@st.composite
def _constructor_arguments(draw):
    """Arguments for ``LayerDecomposition``: 1..n in shuffled layers, each
    sorted and the last of two or more, with bits and index 1 as ints or
    bools; half the time one entry holds a float or a non-bit."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(c for c in draw(st.sets(st.integers(1, n - 1))) if c < n - 1)
    layers = [
        [(draw(st.sampled_from([v, v == 1 or v])), draw(_bits)) for v in sorted(order[i:j])]
        for i, j in zip((0, *cuts), (*cuts, n))
    ]
    if draw(st.booleans()):
        layer = draw(st.sampled_from(layers))
        k = draw(st.integers(0, len(layer) - 1))
        v, a = layer[k]
        layer[k] = draw(st.sampled_from([(v + 0.5, a), (float(v), a), (v, 1.0), (v, 2)]))
    return n, layers, draw(_bits)


@settings(max_examples=300, deadline=None)
@given(_constructor_arguments())
@example((2, (((1, True), (2, 0)),), True))  # stored, and written, as 1; [1:1, 2:0]
def test_text_form_reads_back_every_accepted_decomposition(arguments):
    try:
        d = LayerDecomposition(*arguments)
    except InvalidInputError:
        return
    text = format_decomposition(d)
    assert parse_decomposition(text) == d
    assert format_decomposition(parse_decomposition(text)) == text


def test_round_trip_all_enumerated_small():
    for n in (2, 3, 4):
        for d in enumerate_ncfs(n):
            back = decompose(compose(d))
            assert back.is_ncf
            assert back.decomposition == d


def test_peel_layers_are_maximal():
    # Each emitted layer equals the full canalizing set of its stage.
    for n in (2, 3):
        for d in enumerate_ncfs(n):
            f = compose(d)
            stage = f
            positions = list(range(1, n + 1))
            for layer in d.layers:
                pairs = canalizing_pairs(stage)
                local = {positions[i - 1]: a for i, a, _ in pairs}
                assert local == dict(layer)
                stage = stage.restrict_many([(i, a ^ 1) for i, a, _ in pairs])
                for i, _, _ in sorted(pairs, reverse=True):
                    del positions[i - 1]
            assert stage.is_constant


def _classify(decomposer, f):
    try:
        return decomposer(f)
    except InvalidInputError as error:
        return str(error)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        boolean_functions(2, 7),
        constant_functions(),
        nested_canalizing_functions(7),
        flipped_nested_canalizing_functions(7),
        planted_inessential_functions(7),
    )
)
def test_decompose_matches_restrict_peel_oracle(f):
    # The whole classification, reason included, or the same error message.
    assert _classify(decompose, f) == _classify(reference_decompose, f)
    if f.arity >= 1:
        by_words = []
        for i in range(1, f.arity + 1):
            for a in (0, 1):
                values = {f.evaluate(w) for w in words(f.arity) if w[i - 1] == a}
                if len(values) == 1:
                    by_words.append((i, a, values.pop()))
        assert canalizing_pairs(f) == by_words


def test_decompose_matches_restrict_peel_oracle_on_every_small_table():
    for n in (2, 3, 4):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert decompose(f) == reference_decompose(f), f.to_hex()


def test_decompose_builds_no_restricted_tables(monkeypatch):
    def restrict(*args, **kwargs):
        raise AssertionError("decompose built a restricted table")

    monkeypatch.setattr(BooleanFunction, "restrict", restrict)
    monkeypatch.setattr(BooleanFunction, "restrict_many", restrict)
    for n in (2, 3, 4):
        for d in enumerate_ncfs(n):
            back = decompose(compose(d))
            assert back.is_ncf
            assert back.decomposition == d

    # decompose confirms its candidate on the raw table bits, so it builds
    # no table at all, with or without asserts.
    f = compose(next(enumerate_ncfs(5)))
    built = []
    check = BooleanFunction.__post_init__
    monkeypatch.setattr(
        BooleanFunction, "__post_init__", lambda self: built.append(check(self))
    )
    assert decompose(f).is_ncf
    assert built == []
