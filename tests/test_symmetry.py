"""Symmetric classes, symmetry level, strong asymmetry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    boolean_functions,
    planted_symmetric_functions,
    reference_automorphisms,
    reference_table,
)

from ncflab import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    LayerDecomposition,
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
from ncflab.symmetry import has_nontrivial_automorphism

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


@settings(max_examples=60, deadline=None)
@given(st.one_of(boolean_functions(0, 5), planted_symmetric_functions(5)))
def test_automorphism_search_matches_word_level_oracle(f):
    expected = reference_automorphisms(f)
    flag, witness = is_strongly_asymmetric(f)
    assert has_nontrivial_automorphism(f) == (not flag)
    assert flag == (not expected)
    if expected:
        assert cycle_notation(witness) == min(map(cycle_notation, expected))
    else:
        assert witness is None


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
