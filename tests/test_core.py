"""Truth-table representation: evaluation, restriction, transforms."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boolean_functions, reference_table

from ncflab import BooleanFunction, InvalidInputError, index_of, word_at, words
from ncflab.core import _swap_bits, full_mask

CASCADE3 = [{1, 2, 3}, {1, 2}, {3}]  # x1*x2*x3 + x1*x2 + x3


def test_word_encoding_is_little_endian_in_x1():
    assert index_of((1, 0, 0)) == 1
    assert index_of((0, 0, 1)) == 4
    assert word_at(5, 3) == (1, 0, 1)
    assert list(words(2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert next(words(24)) == (0,) * 24  # the table cap: above it, words raises


def test_eval_cascade_rows():
    f = reference_table(CASCADE3, 3)
    assert f.evaluate((0, 0, 1)) == 1
    assert f.evaluate((1, 1, 0)) == 1
    assert f.evaluate((0, 0, 0)) == 0
    # full value column in product order (x3 varies fastest)
    column = tuple(
        f.evaluate(w) for w in itertools.product((0, 1), repeat=3)
    )
    assert column == (0, 1, 0, 1, 0, 1, 1, 1)


def test_eval_constant_and_arity_mismatch():
    zero = BooleanFunction.constant(2, 0)
    assert all(zero.evaluate(w) == 0 for w in words(2))
    with pytest.raises(InvalidInputError):
        zero.evaluate((0, 1, 0))


def test_hex_round_trip_and_padding():
    f = reference_table([{1, 2, 3}], 3)  # 1 only at (1,1,1)
    assert f.to_hex() == "3:80"
    assert BooleanFunction.from_hex("3:80") == f
    assert BooleanFunction.constant(0, 1).to_hex() == "0:1"
    assert BooleanFunction.from_hex("2:F") == BooleanFunction.constant(2, 1)
    with pytest.raises(InvalidInputError):
        BooleanFunction.from_hex("3:8")  # wrong padding
    with pytest.raises(InvalidInputError):
        BooleanFunction.from_hex("3:G0")
    with pytest.raises(InvalidInputError):
        BooleanFunction.from_hex("80")


@pytest.mark.parametrize("text", ["4:+100", "4:1_00", "4: 100", "4:-000", "2:\uff18"])
def test_from_hex_takes_only_ascii_hex_digits(text):
    # int(payload, 16) alone would read each of these payloads.
    with pytest.raises(InvalidInputError, match="bad hex digits"):
        BooleanFunction.from_hex(text)


def test_restrict_cascade():
    f = reference_table(CASCADE3, 3)
    assert f.restrict(3, 1) == BooleanFunction.constant(2, 1)
    assert f.restrict(3, 0) == reference_table([{1, 2}], 2)
    c = BooleanFunction.constant(3, 1)
    assert c.restrict(2, 0) == BooleanFunction.constant(2, 1)
    with pytest.raises(InvalidInputError):
        f.restrict(4, 0)


@settings(max_examples=100)
@given(boolean_functions(1, 7), st.data())
def test_restrict_commutes_with_eval(f, data):
    i = data.draw(st.integers(1, f.arity))
    a = data.draw(st.integers(0, 1))
    g = f.restrict(i, a)
    for short in words(f.arity - 1):
        padded = short[: i - 1] + (a,) + short[i - 1 :]
        assert g.evaluate(short) == f.evaluate(padded)


def test_transform_identity_and_symmetric_monomial():
    f = reference_table([{1, 2, 3}], 3)
    ident = (1, 2, 3)
    assert f.transform(ident, (0, 0, 0), 0) == f
    assert f.transform((2, 1, 3), (0, 0, 0), 0) == f  # symmetric in x1, x2


def test_transform_negation_example():
    # f = x1*x2*x3 with all inputs and the output negated equals
    # (x1+1)(x2+1)(x3+1) + 1, checked word by word.
    f = reference_table([{1, 2, 3}], 3)
    g = f.transform((1, 2, 3), (1, 1, 1), 1)
    for w in words(3):
        expected = ((w[0] ^ 1) & (w[1] ^ 1) & (w[2] ^ 1)) ^ 1
        assert g.evaluate(w) == expected


@settings(max_examples=100)
@given(boolean_functions(1, 6), st.data())
def test_permute_matches_word_level_definition(f, data):
    n = f.arity
    sigma = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    g = f.permute_inputs(sigma)
    for w in words(n):
        assert g.evaluate(w) == f.evaluate(tuple(w[sigma[i] - 1] for i in range(n)))


@settings(max_examples=60)
@given(boolean_functions(1, 6), st.data())
def test_transform_is_a_group_action(f, data):
    n = f.arity
    sigma1 = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    sigma2 = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    beta1 = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    beta2 = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    c1 = data.draw(st.integers(0, 1))
    c2 = data.draw(st.integers(0, 1))

    two_step = f.transform(sigma1, beta1, c1).transform(sigma2, beta2, c2)
    # Composition law: permutations compose as sigma2 then sigma1 at the
    # word level, and the first offset is pulled through sigma2's inverse.
    composed_sigma = tuple(sigma2[sigma1[i] - 1] for i in range(n))
    inverse2 = [0] * n
    for i in range(1, n + 1):
        inverse2[sigma2[i - 1] - 1] = i
    pulled = tuple(beta1[inverse2[j] - 1] for j in range(n))
    combined_beta = tuple(beta2[j] ^ pulled[j] for j in range(n))
    one_step = f.transform(composed_sigma, combined_beta, c1 ^ c2)
    assert two_step == one_step


def test_transform_rejects_non_bijections():
    f = BooleanFunction.constant(3, 0)
    for sigma in ((1, 1, 3), (0, 1), (1, 2, 4)):
        with pytest.raises(InvalidInputError, match="not a permutation"):
            f.permute_inputs(sigma)
    with pytest.raises(InvalidInputError):
        f.transform((1, 2), (0, 0, 0), 0)


def test_swap_and_flip_primitives():
    f = BooleanFunction.projection(3, 1)
    assert f.swap_inputs(1, 3) == BooleanFunction.projection(3, 3)
    assert f.flip_input(1) == f.complement()
    assert f.flip_input(2) == f


def test_swap_bits_matches_word_level_swap():
    # Every pair at n = 1..8: entry w of the result is f at w with bits i, j exchanged.
    rng = random.Random(8)
    for n in range(1, 9):
        for bits in (rng.getrandbits(1 << n), full_mask(n) // 3, 0):
            f = BooleanFunction(n, bits)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                swap = tuple(j if k == i else i if k == j else k for k in range(1, n + 1))
                expected = BooleanFunction.from_predicate(
                    n, lambda word: f.evaluate(tuple(word[k - 1] for k in swap))
                )
                assert _swap_bits(bits, n, i, j) == expected.bits, (n, i, j)


def test_essential_variables():
    f = reference_table([{1, 3}], 3)  # x1*x3, x2 inessential
    assert f.essential_variables() == (1, 3)
    assert not f.is_essential(2)
    assert BooleanFunction.constant(2, 0).essential_variables() == ()


def test_from_values_validation():
    with pytest.raises(InvalidInputError):
        BooleanFunction.from_values([0, 1, 0])
    with pytest.raises(InvalidInputError):
        BooleanFunction.from_values([])
    with pytest.raises(InvalidInputError):
        BooleanFunction(2, 1 << 4)
    assert BooleanFunction.from_values([0, 1]) == BooleanFunction.projection(1, 1)


def test_full_mask_and_values_round_trip():
    f = BooleanFunction(2, 0b0110)
    assert f.values() == (0, 1, 1, 0)
    assert BooleanFunction.from_values(f.values()) == f
    assert full_mask(2) == 0b1111


def _put_back(short, assignments, n):
    """The ``n``-bit word that takes ``assignments`` and ``short`` elsewhere."""
    fixed = dict(assignments)
    rest = iter(short)
    return tuple(fixed[i] if i in fixed else next(rest) for i in range(1, n + 1))


def test_negate_inputs_and_flip_input_match_word_level_offset():
    rng = random.Random(23)
    for n in range(0, 7):
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        offsets = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(4)]
        for beta in offsets:
            g = f.negate_inputs(beta)
            for word in words(n):
                assert g.evaluate(word) == f.evaluate(tuple(a ^ b for a, b in zip(word, beta)))
        for i in range(1, n + 1):
            g = f.flip_input(i)
            for word in words(n):
                flipped = tuple(a ^ (p == i) for p, a in enumerate(word, 1))
                assert g.evaluate(word) == f.evaluate(flipped), (n, i)


def test_restrict_many_matches_evaluate_and_chained_restrict():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(6):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            fixed = rng.sample(range(1, n + 1), rng.randint(1, n))
            assignments = [(i, rng.randint(0, 1)) for i in fixed]
            g = f.restrict_many(assignments)
            assert g.arity == n - len(assignments)
            for short in words(g.arity):
                assert g.evaluate(short) == f.evaluate(_put_back(short, assignments, n))
            # One restrict at a time, in the drawn order, renumbering as we go.
            chained, left = f, list(range(1, n + 1))
            for i, a in assignments:
                chained = chained.restrict(left.index(i) + 1, a)
                left.remove(i)
            assert chained == g, (n, assignments)
            # Any iterable of pairs, read once (an iterator left nothing to restrict).
            assert f.restrict_many(iter(assignments)) == g


def test_values_and_from_values_round_trip_with_bool_entries():
    rng = random.Random(11)
    for n in range(0, 9):
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        column = f.values()
        assert column == tuple(f.evaluate(word) for word in words(n))
        assert all(type(value) is int for value in column)
        assert BooleanFunction.from_values(column) == f
        assert BooleanFunction.from_values([bool(value) for value in column]) == f
        assert BooleanFunction.from_values(list(column)) == f
    assert BooleanFunction.from_values([False, True, True, False]) == BooleanFunction(2, 0b0110)


class _Index:
    """An index type that is not an ``int``: ``bytes()`` takes it, tables do not."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "_Index()"


def test_from_values_names_the_first_bad_entry_of_a_long_list():
    column = [0, 1] * (1 << 19)
    assert BooleanFunction.from_values([bool(v) for v in column]).bits == full_mask(20) // 3 * 2
    for bad in (2, -1, 256, 1.0, "1", None, _Index()):
        with pytest.raises(InvalidInputError) as excinfo:
            BooleanFunction.from_values([*column[:-1], bad])
        assert str(excinfo.value) == f"table entry must be 0 or 1, got {bad!r}"
    with pytest.raises(InvalidInputError, match="got 3$"):
        BooleanFunction.from_values([*column[:-2], 3, 1.0])


def test_table_ops_take_linear_time_at_arity_20():
    # Whole-table kernels only: a per-entry loop over the 2**20-bit integer
    # would take tens of seconds here.
    start = time.perf_counter()
    n = 20
    rng = random.Random(20)
    f = BooleanFunction(n, rng.getrandbits(1 << n))
    probes = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(64)]
    column = f.values()
    assert [column[index_of(word)] for word in probes] == [f.evaluate(w) for w in probes]
    g = BooleanFunction.from_values(column)
    assert [g.evaluate(word) for word in probes] == [f.evaluate(w) for w in probes]
    for a in (0, 1):
        r = f.restrict(1, a)
        assert [r.evaluate(w[1:]) for w in probes] == [f.evaluate((a,) + w[1:]) for w in probes]
    assignments = [(3, 1), (7, 0), (12, 1), (20, 0)]
    r = f.restrict_many(assignments)
    for word in probes:
        short = tuple(b for p, b in enumerate(word, 1) if p not in dict(assignments))
        assert r.evaluate(short) == f.evaluate(_put_back(short, assignments, n))
    h = f.negate_inputs((1,) * n)
    assert [h.evaluate(w) for w in probes] == [f.evaluate(tuple(1 - b for b in w)) for w in probes]
    assert time.perf_counter() - start < 5
