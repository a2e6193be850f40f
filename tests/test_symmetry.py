"""Symmetric classes, symmetry level, strong asymmetry."""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from math import ceil, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    boolean_functions,
    fixes_word_by_word,
    nested_canalizing_functions,
    planted_symmetric_functions,
    planted_table,
    random_ncf,
    reference_automorphisms,
    reference_table,
)

from ncflab import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    LayerDecomposition,
    NcfSymmetryChecks,
    SymmetryPartition,
    compose,
    cycle_notation,
    decompose,
    enumerate_ncfs,
    equivalent,
    is_strongly_asymmetric,
    ncf_symmetry_checks,
    partition,
    symmetry_level,
    symmetry_report,
)
from ncflab import symmetry
from ncflab.core import variable_mask, word_at
from ncflab.symmetry import _automorphisms, has_nontrivial_automorphism

MIXED7 = reference_table([{1, 2, 3, 4}, {5, 6}, {7}], 7)  # x1x2x3x4 + x5x6 + x7
PENTAGON6 = reference_table(
    [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}, {6}], 6
)
CASCADE3 = reference_table([{1, 2, 3}, {1, 2}, {3}], 3)


def test_equivalent_examples():
    assert equivalent(MIXED7, 1, 2)
    assert not equivalent(MIXED7, 4, 5)
    assert equivalent(MIXED7, 3, 3)
    with pytest.raises(InvalidInputError):
        equivalent(MIXED7, 0, 0)
    with pytest.raises(InvalidInputError):
        equivalent(MIXED7, 1, 8)


def test_partition_examples():
    assert partition(MIXED7).classes == ((1, 2, 3, 4), (5, 6), (7,))
    assert partition(reference_table([{1, 2, 3}], 3)).classes == ((1, 2, 3),)
    assert partition(PENTAGON6).classes == ((1,), (2,), (3,), (4,), (5,), (6,))


@settings(max_examples=60, deadline=None)
@given(st.one_of(boolean_functions(0, 8), planted_symmetric_functions(8)))
def test_partition_matches_transposition_oracle(f):
    # i and j share a class iff the transposition (i j) fixes f, word by word.
    n = f.arity
    table = [word_at(idx, n) for idx in range(1 << n)]
    classes = partition(f).classes
    assert symmetry_level(f) == len(classes)
    class_of = {i: cls for cls in classes for i in cls}
    assert sorted(class_of) == list(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            swap = tuple(j if k == i else i if k == j else k for k in range(1, n + 1))
            fixed = fixes_word_by_word(f, swap, table)
            assert (class_of[i] == class_of[j]) == fixed == equivalent(f, i, j), (i, j)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 8),
        planted_symmetric_functions(6),
        nested_canalizing_functions(8),
    )
)
def test_partition_passes_public_validation(f):
    # partition builds its result unchecked; the public constructor, which
    # validates, must accept the same classes and give an equal object.
    p = partition(f)
    assert SymmetryPartition(p.arity, p.classes) == p


def test_symmetry_level_examples():
    assert symmetry_level(MIXED7) == 3
    assert symmetry_level(reference_table([{1, 2, 3}], 3)) == 1
    assert symmetry_level(PENTAGON6) == 6


def test_cycle_notation():
    assert cycle_notation((2, 3, 4, 5, 1, 6)) == "(1 2 3 4 5)"
    assert cycle_notation((2, 1, 3)) == "(1 2)"
    assert cycle_notation((1, 2, 3)) == "()"
    assert cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"
    for sigma in ((1, 1), (0, 1), (1, 2, 4)):
        with pytest.raises(InvalidInputError, match="not a permutation"):
            cycle_notation(sigma)


def test_pentagon_is_n_symmetric_but_not_strongly_asymmetric():
    flag, witness = is_strongly_asymmetric(PENTAGON6)
    assert flag is False
    assert cycle_notation(witness) == "(1 2 3 4 5)"
    assert PENTAGON6.permute_inputs(witness) == PENTAGON6
    assert symmetry_level(PENTAGON6) == 6


def test_strong_asymmetry_small_cases():
    # 2-symmetric cascade: classes {3} and {1, 2}
    flag, witness = is_strongly_asymmetric(CASCADE3)
    assert flag is False
    assert cycle_notation(witness) == "(1 2)"

    mixed2 = reference_table([{1, 2}, {1}], 2)  # x1*(x2+1): 2-symmetric
    assert is_strongly_asymmetric(mixed2) == (True, None)


def test_strong_asymmetry_guard_and_ncf_fast_path():
    # Beyond the permutation guard, a nested canalizing input still works.
    deep = enumerate_ncfs(5).__next__()
    f = compose(deep)
    brute = is_strongly_asymmetric(f)
    fast_flag, fast_witness = is_strongly_asymmetric(f, max_arity=2)
    assert fast_flag == brute[0]
    if fast_witness is not None:
        assert f.permute_inputs(fast_witness) == f

    parity9 = BooleanFunction.from_predicate(9, lambda w: sum(w) % 2 == 1)
    with pytest.raises(GuardExceededError) as err:
        is_strongly_asymmetric(parity9)
    assert err.value.guard == "automorphism"


def test_automorphism_guard_checks_its_limit_first(monkeypatch):
    # The limit is checked as an int before the arity, so a bool limit is
    # refused above the guard too; a table above it raises the guard's
    # error, while an NCF passes without one being built.
    parity9 = BooleanFunction.from_predicate(9, lambda w: sum(w) % 2 == 1)
    for f in (CASCADE3, parity9):
        with pytest.raises(InvalidInputError) as err:
            symmetry_report(f, max_arity=True)
        assert str(err.value) == "guard 'automorphism' limit must be an integer, got True"
    with pytest.raises(GuardExceededError) as err:
        symmetry_report(parity9)
    assert str(err.value) == "guard 'automorphism' exceeded: arity 9 is above the limit 8"
    assert (err.value.guard, err.value.arity, err.value.limit) == ("automorphism", 9, 8)

    def no_error(*args):
        raise AssertionError("a guard error was built for an NCF")

    monkeypatch.setattr(symmetry, "GuardExceededError", no_error)
    _, f = random_ncf(random.Random(9), 9)
    report, _ = symmetry_report(f)
    assert report.strongly_asymmetric == (symmetry_level(f) == 9)


def test_automorphism_guard_below_two_variables():
    # No NCF has fewer than two variables, so above a guard lowered below 2
    # the guard's error is raised, not decompose's refusal of the arity.
    with pytest.raises(GuardExceededError) as err:
        symmetry_report(BooleanFunction(1, 2), max_arity=0)
    assert (err.value.guard, err.value.arity, err.value.limit) == ("automorphism", 1, 0)
    with pytest.raises(GuardExceededError) as err:
        is_strongly_asymmetric(BooleanFunction(0, 1), max_arity=-1)
    assert (err.value.guard, err.value.arity, err.value.limit) == ("automorphism", 0, -1)


def test_decomposition_hint_never_passes_a_non_ncf_above_the_guard(monkeypatch):
    # A hint passes the automorphism guard only if it composes to the table:
    # an NCF's decomposition does not make the 9-variable parity one, and the
    # guard fires before any symmetry class is computed.
    def no_partition(f):
        raise AssertionError("partition ran before the automorphism guard")

    monkeypatch.setattr(symmetry, "partition", no_partition)
    parity9 = BooleanFunction.from_predicate(9, lambda w: sum(w) % 2 == 1)
    assert not decompose(parity9).is_ncf
    d, _ = random_ncf(random.Random(9), 9)
    with pytest.raises(GuardExceededError) as err:
        symmetry_report(parity9, decomposition=d)
    assert (err.value.guard, err.value.arity) == ("automorphism", 9)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 5),
        planted_symmetric_functions(5),
        nested_canalizing_functions(5),
    )
)
def test_automorphism_search_matches_word_level_oracle(f):
    # Same set as the oracle, and in increasing cycle-string order.
    expected = reference_automorphisms(f)
    assert [cycle_notation(s) for s in _automorphisms(f)] == sorted(
        map(cycle_notation, expected)
    )
    flag, witness = is_strongly_asymmetric(f)
    assert has_nontrivial_automorphism(f) == (not flag)
    assert flag == (not expected)
    if expected:
        assert cycle_notation(witness) == min(map(cycle_notation, expected))
    else:
        assert witness is None


def _count_search_and_permutes(monkeypatch):
    """Patch counters in: the functions ``_automorphisms`` ran on, and the
    number of table comparisons it made, each through ``_permute_bits``."""
    searched, permutes = [], [0]
    search, permute = symmetry._automorphisms, symmetry._permute_bits

    def counting_search(f):
        searched.append(f)
        return search(f)

    def counting_permute(bits, arity, sigma):
        permutes[0] += 1
        return permute(bits, arity, sigma)

    monkeypatch.setattr(symmetry, "_automorphisms", counting_search)
    monkeypatch.setattr(symmetry, "_permute_bits", counting_permute)
    return searched, permutes


def _weights(f):
    """The weights ``|f & x_i|``."""
    return [(f.bits & variable_mask(f.arity, i)).bit_count() for i in range(1, f.arity + 1)]


def test_transpositions_short_circuit_the_search_on_ncfs(monkeypatch):
    # An NCF with s < n has a symmetric pair, so a transposition answers
    # before the search; the n-symmetric ones have pairwise-distinct
    # weights, so only the identity fixes them and none reaches the search.
    ncfs = [compose(d) for d in enumerate_ncfs(4)]
    expected = [bool(reference_automorphisms(f)) for f in ncfs]
    searched, permutes = _count_search_and_permutes(monkeypatch)
    assert [has_nontrivial_automorphism(f) for f in ncfs] == expected
    assert permutes[0] == 0
    assert searched == []
    for f in ncfs:
        if symmetry_level(f) == 4:
            assert len(set(_weights(f))) == 4, f


def test_distinct_weights_match_the_word_level_oracle():
    # Pairwise-distinct weights are answered before any pair is tried: hold
    # that answer to the oracle on every 4-variable table it covers, and
    # every answer to it on every table with n <= 3.
    distinct = 0
    for bits in range(1 << 16):
        f = BooleanFunction(4, bits)
        if len(set(_weights(f))) == 4:
            distinct += 1
            assert reference_automorphisms(f) == [], f
            assert has_nontrivial_automorphism(f) is False, f
    assert distinct == 5952
    for n in range(4):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert has_nontrivial_automorphism(f) == bool(reference_automorphisms(f)), f


def _keys(f):
    """Each variable's weight and influence: the entries with ``x_i = 0``
    whose value changes when ``x_i`` flips."""
    n, bits = f.arity, f.bits
    keys = []
    for i, weight in enumerate(_weights(f), 1):
        high = variable_mask(n, i)
        keys.append((weight, ((bits & high) >> (1 << i - 1) ^ bits & ~high).bit_count()))
    return keys


def _fixed_tables(n, sigma):
    """Every ``n``-variable table that ``sigma`` fixes: each union of the
    orbits in which ``permute_inputs`` moves single table entries."""
    moves = [BooleanFunction(n, 1 << idx).permute_inputs(sigma).bits for idx in range(1 << n)]
    tables, seen = {0}, 0
    for idx in range(1 << n):
        orbit, step = 0, 1 << idx
        while not (seen | orbit) & step:
            orbit |= step
            step = moves[step.bit_length() - 1]
        if orbit:
            seen |= orbit
            tables |= {table | orbit for table in tables}
    return tables


def test_distinct_keys_answer_before_any_comparison(monkeypatch):
    # A permutation fixing f keeps each variable's weight and influence, so
    # pairwise-distinct keys leave only the identity, and the search ends
    # before it compares a table.  Hold that to a scan of every permutation
    # on each such 4-variable table, and to the word-level oracle on every
    # 8th (on all of them it would take about 3 s).
    others = list(permutations(range(1, 5)))[1:]
    fixed = set().union(*(_fixed_tables(4, sigma) for sigma in others))
    assert len(fixed) == 22528  # as many as a direct permute_inputs scan finds
    assert BooleanFunction.from_hex("4:0246").bits in fixed
    _, permutes = _count_search_and_permutes(monkeypatch)
    by_weight = by_key = 0
    for bits in range(1 << 16):
        f = BooleanFunction(4, bits)
        if len(set(_keys(f))) < 4:
            continue
        by_key += 1
        by_weight += len(set(_weights(f))) == 4
        assert list(_automorphisms(f)) == [], f
        assert bits not in fixed, f
        if by_key % 8 == 0:
            assert reference_automorphisms(f) == [], f
    assert (by_weight, by_key) == (5952, 24672)
    assert permutes[0] == 0


def test_symmetry_level_is_the_partition_level_on_small_tables():
    for n in range(5):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert symmetry_level(f) == partition(f).level, f


def test_search_runs_when_no_transposition_fixes_the_table(monkeypatch):
    # x1x2x3 + x1x2x4 + x1x3 + x2x4 + x1 + x2: its one non-identity
    # automorphism is (1 2)(3 4).  Every 3-variable function with a
    # non-identity automorphism is fixed by a transposition, so 4 is the
    # smallest arity where the search is needed.
    f = BooleanFunction.from_hex("4:0246")
    assert f == reference_table([{1, 2, 3}, {1, 2, 4}, {1, 3}, {2, 4}, {1}, {2}], 4)
    assert reference_automorphisms(f) == [(2, 1, 4, 3)]
    searched, permutes = _count_search_and_permutes(monkeypatch)
    assert has_nontrivial_automorphism(f)
    assert searched == [f]
    assert permutes[0] == 1


def _count_swaps(monkeypatch):
    """Patch a counter into the transposition pre-pass's ``_swap_bits``."""
    swaps, swap_bits = [0], symmetry._swap_bits

    def counting_swap_bits(bits, arity, i, j):
        swaps[0] += 1
        return swap_bits(bits, arity, i, j)

    monkeypatch.setattr(symmetry, "_swap_bits", counting_swap_bits)
    return swaps


def test_transpositions_try_only_pairs_of_equal_weight(monkeypatch):
    # In an NCF two variables have equal weights only if they are symmetric,
    # so the pre-pass swaps nothing on an n-symmetric NCF and swaps exactly
    # one pair, which fixes the table, on every other.
    swaps = _count_swaps(monkeypatch)
    for d in enumerate_ncfs(5):
        f = compose(d)
        swaps[0] = 0
        symmetric_pair = symmetry_level(f) < 5
        assert has_nontrivial_automorphism(f) == symmetric_pair
        assert swaps[0] == symmetric_pair, d


def test_equal_weights_still_need_the_table_test(monkeypatch):
    # The multiplexer x3 ? x1 : x2 gives x1 and x2 the weight 3, yet swapping
    # them changes the table: both kernels must test the pair and keep the
    # two apart, and the search, which the weights cannot skip, finds no
    # automorphism.
    f = reference_table([{1, 3}, {2, 3}, {2}], 3)
    assert [(f.bits & variable_mask(3, i)).bit_count() for i in (1, 2, 3)] == [3, 3, 2]
    assert partition(f).classes == ((1,), (2,), (3,))
    assert reference_automorphisms(f) == []
    swaps = _count_swaps(monkeypatch)
    searched, _ = _count_search_and_permutes(monkeypatch)
    assert not has_nontrivial_automorphism(f)
    assert swaps[0] == 1
    assert searched == [f]


@pytest.mark.parametrize(
    "f, group_order",
    [
        # totally symmetric: every permutation fixes the table
        (BooleanFunction.from_predicate(5, lambda w: sum(w) >= 3), 120),
        (BooleanFunction.from_predicate(6, lambda w: sum(w) % 2), 720),
        # x1 stands apart by weight; x2..x6 are totally symmetric
        (BooleanFunction.from_predicate(6, lambda w: w[0] & (sum(w[1:]) % 2)), 120),
        # equal weights, but pair weights keep the matching x1x2, x3x4, x5x6
        (reference_table([{1, 2}, {3, 4}, {5, 6}], 6), 48),
    ],
)
def test_automorphism_search_large_groups(f, group_order):
    found = [cycle_notation(s) for s in _automorphisms(f)]
    assert len(found) == group_order - 1
    assert found == sorted(map(cycle_notation, reference_automorphisms(f)))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize(
    "predicate",
    [lambda w: sum(w) >= 4, lambda w: sum(w) % 2, lambda w: sum(w) % 3 == 0],
    ids=["threshold-4", "parity", "mod-3"],
)
def test_totally_symmetric_input_makes_one_comparison(monkeypatch, n, predicate):
    # Every permutation fixes the table, and the string search meets the
    # smallest cycle string, (1 2 ... n), first: one table comparison, not
    # one per non-identity permutation.
    f = BooleanFunction.from_predicate(n, predicate)
    _, permutes = _count_search_and_permutes(monkeypatch)
    flag, witness = is_strongly_asymmetric(f)
    assert flag is False
    assert cycle_notation(witness) == "(" + " ".join(map(str, range(1, n + 1))) + ")"
    assert permutes[0] == 1


def _one_line(n, cycles):
    sigma = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a - 1] = b
    return tuple(sigma)


@pytest.mark.parametrize(
    "n, generators, seed, witness",
    [
        # Witnesses as the whole-group minimum over cycle strings gave them.
        (11, [[(2, 3, 4)], [(10, 11)]], 1, "(10 11)"),
        (10, [[(1, 10, 3)]], 2, "(1 10 3)"),
        (11, [[(1, 2, 3, 4, 5, 6)], [(9, 10, 11)]], 3, "(1 2 3 4 5 6)"),
        (10, [[(1, 2, 10, 3)]], 4, "(1 10)"),
        (11, [[(1, 11, 5, 10), (3, 7)]], 5, "(1 10 5 11)(3 7)"),
        (10, [[(2, 10, 6, 4, 9)], [(1, 7)]], 6, "(1 7)"),
    ],
)
def test_search_order_at_two_digit_indices(n, generators, seed, witness):
    # From x10 on, text order is not numeric order: "(1 10" < "(1 2".
    planted = [_one_line(n, cycles) for cycles in generators]
    f = planted_table(n, planted, random.Random(seed).getrandbits(1 << n))
    found = list(_automorphisms(f))
    strings = [cycle_notation(s) for s in found]
    assert all(a < b for a, b in zip(strings, strings[1:]))
    assert all(fixes_word_by_word(f, sigma) for sigma in found)
    assert set(planted) <= set(found)
    flag, first = is_strongly_asymmetric(f, max_arity=11)
    assert flag is False
    assert cycle_notation(first) == strings[0] == witness


def test_automorphism_search_prunes_by_weight(monkeypatch):
    bits = random.Random(0).getrandbits(256)
    f = BooleanFunction(8, bits)
    weights = [(bits & variable_mask(8, i)).bit_count() for i in range(1, 9)]
    assert len(set(weights)) == 8  # pairwise distinct: only the identity survives

    _, permutes = _count_search_and_permutes(monkeypatch)
    assert is_strongly_asymmetric(f) == (True, None)
    assert permutes[0] <= 8

    # Equal variable weights: only the pair weights keep the matching
    # x1x2, x3x4, x5x6, so every table compared is one of its 47 non-identity
    # automorphisms, not one of the 719 non-identity permutations.
    permutes[0] = 0
    matching = reference_table([{1, 2}, {3, 4}, {5, 6}], 6)
    assert len(list(_automorphisms(matching))) == 47
    assert permutes[0] == 47


def test_strong_asymmetry_iff_n_symmetric_on_ncfs():
    for n in (2, 3):
        for d in enumerate_ncfs(n):
            f = compose(d)
            flag, _ = is_strongly_asymmetric(f)
            assert flag == (symmetry_level(f) == n)


def test_symmetry_report_flags():
    report, classes = symmetry_report(CASCADE3)
    assert report.s == 2
    assert report.partially_symmetric
    assert not report.totally_symmetric
    assert not report.strongly_asymmetric
    data = report.to_json_dict(classes)
    assert set(data) == {
        "s",
        "classes",
        "partially_symmetric",
        "totally_symmetric",
        "strongly_asymmetric",
        "witness",
    }
    assert data["classes"] == [[1, 2], [3]]
    assert data["witness"] == "(1 2)"

    total = reference_table([{1, 2, 3}], 3)
    report, _ = symmetry_report(total)
    assert report.totally_symmetric and report.partially_symmetric


@settings(max_examples=80)
@given(boolean_functions(2, 7))
def test_pairwise_equivalence_matrix_is_transitive(f):
    n = f.arity
    pairs = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and equivalent(f, i, j)
    }
    for i, j in pairs:
        for k in range(1, n + 1):
            if k not in (i, j) and (j, k) in pairs:
                assert (i, k) in pairs
    # classes from union-find agree with the raw matrix
    classes = partition(f).classes
    for cls in classes:
        for a in cls:
            for b in cls:
                assert a == b or (a, b) in pairs


def test_ncf_symmetry_checks_cascade():
    d = decompose(CASCADE3).decomposition
    p = partition(CASCADE3)
    checks = ncf_symmetry_checks(d, p)
    assert checks.all_pass
    assert (checks.s, checks.r, checks.r1, checks.r2) == (2, 2, 2, 0)


def test_ncf_symmetry_checks_two_input_layer():
    f = reference_table([{1, 2}, {1}], 2)  # x1*(x2+1), inputs 0 and 1
    d = decompose(f).decomposition
    checks = ncf_symmetry_checks(d, partition(f))
    assert checks.all_pass
    assert (checks.r1, checks.r2, checks.s) == (0, 1, 2)


def test_ncf_symmetry_checks_wide_layer_forces_partial_symmetry():
    f = reference_table([{1, 2, 3}], 3)
    d = decompose(f).decomposition
    checks = ncf_symmetry_checks(d, partition(f))
    assert checks.all_pass
    assert checks.s <= f.arity - 1  # a 3-wide layer pigeonholes two inputs

    with pytest.raises(InvalidInputError):
        other = LayerDecomposition.from_pairs(2, [[(1, 0), (2, 0)]], 1)
        ncf_symmetry_checks(other, partition(CASCADE3))


def test_ncf_symmetry_checks_all_enumerated():
    for n in (2, 3, 4, 5):
        for d in enumerate_ncfs(n):
            f = compose(d)
            assert ncf_symmetry_checks(d, partition(f)).all_pass


def _reference_symmetry_checks(d, p):
    """The five checks, read off the docstring of :class:`NcfSymmetryChecks`."""
    n, r, s = d.arity, len(d.layers), p.level
    layer_of = {v: t for t, layer in enumerate(d.layers) for v, _ in layer}
    input_of = {v: a for layer in d.layers for v, a in layer}
    within = all(
        len({layer_of[v] for v in cls}) == 1 and len({input_of[v] for v in cls}) == 1
        for cls in p.classes
    )
    held = [sum(any(layer_of[v] == t for v in cls) for cls in p.classes) for t in range(r)]
    inputs = [len({a for _, a in layer}) for layer in d.layers]
    r1, r2 = inputs.count(1), inputs.count(2)
    return NcfSymmetryChecks(
        n, s, r, r1, r2, within, all(h in (1, 2) for h in held), s == r1 + 2 * r2,
        ceil(s / 2) <= r <= min(n - 1, s), r <= s <= min(2 * r, n),
    )


def test_ncf_symmetry_checks_match_the_reference_where_checks_fail():
    # Each NCF against every partition of an NCF of its arity: most pairs
    # fail one check or more, which the enumerated pairs above never do.
    pairs = failing = 0
    for n in (2, 3, 4):
        ncfs = list(enumerate_ncfs(n))
        for p in sorted({partition(compose(d)) for d in ncfs}):
            for d in ncfs:
                checks = ncf_symmetry_checks(d, p)
                assert checks == _reference_symmetry_checks(d, p), (d, p)
                pairs, failing = pairs + 1, failing + (not checks.all_pass)
    assert (pairs, failing) == (11376, 10568)


def test_automorphism_count_is_the_product_of_cell_factorials():
    # An NCF's automorphisms are the permutations within its cells, the
    # variables of one layer with one stored input: |Aut(f)| = prod (size)!.
    for n in (2, 3, 4, 5):
        for d in enumerate_ncfs(n):
            cells = Counter((t, a) for t, layer in enumerate(d.layers) for _, a in layer)
            want = prod(factorial(size) for size in cells.values())
            assert 1 + sum(1 for _ in _automorphisms(compose(d))) == want, d


def test_pair_kernels_keep_no_per_pair_masks():
    # Both pair kernels read the per-arity literal table, O(n 2**n) bits; masks
    # cached per pair would hold O(n**2 2**n), about 73 MB here at n = 20.
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "ncflab":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    f = BooleanFunction(20, random.Random(20).getrandbits(1 << 20))
    tracemalloc.start()
    try:
        assert partition(f).level == 20
        for i, j in combinations(range(1, 21), 2):
            assert f.swap_inputs(i, j) != f
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024
