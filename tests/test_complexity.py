"""Certificate complexity, sensitivity, block sensitivity."""

import functools
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    boolean_functions,
    constant_functions,
    flipped_nested_canalizing_functions,
    nested_canalizing_functions,
    planted_symmetric_functions,
    random_ncf,
    reference_block_sensitivity,
    reference_certificate,
    reference_table,
)

from ncflab import (
    BooleanFunction,
    GuardExceededError,
    block_sensitivity,
    cert_profile,
    certificate_at,
    compose,
    decompose,
    enumerate_ncfs,
    layer_structures,
    ncf_cert_formula,
    parse_decomposition,
    sensitivity,
    sensitivity_at,
    symmetry_report,
    words,
)
from ncflab import complexity
from ncflab.core import InvalidInputError, full_mask, variable_mask

CASCADE3 = reference_table([{1, 2, 3}, {1, 2}, {3}], 3)
MONOMIAL3 = reference_table([{1, 2, 3}], 3)
PARITY2 = reference_table([{1}, {2}], 2)
# An NCF whose fibers' sensitivities differ widely (s0 = 4, s1 = 7), and its
# complement, which swaps them.
SKEWED_NCF = compose(
    parse_decomposition("0; [1:0, 2:0, 3:0, 4:0 | 5:0, 6:0 | 7:0, 8:0 | 9:0, 10:0]")
)
SKEWED_NCF_COMPLEMENT = BooleanFunction(10, SKEWED_NCF.bits ^ full_mask(10))

# (word, value, certificate size, deterministic witness)
CASCADE3_ROWS = [
    ((0, 0, 0), 0, 2, (1, 3)),
    ((0, 0, 1), 1, 1, (3,)),
    ((0, 1, 0), 0, 2, (1, 3)),
    ((0, 1, 1), 1, 1, (3,)),
    ((1, 0, 0), 0, 2, (2, 3)),
    ((1, 0, 1), 1, 1, (3,)),
    ((1, 1, 0), 1, 2, (1, 2)),
    ((1, 1, 1), 1, 1, (3,)),
]


def test_certificates_per_word_on_cascade():
    for word, value, size, witness in CASCADE3_ROWS:
        assert CASCADE3.evaluate(word) == value
        found = certificate_at(CASCADE3, word)
        assert found.size == size
        assert found.certificate == witness


def test_certificate_on_monomial():
    found = certificate_at(MONOMIAL3, (1, 1, 1))
    assert found.size == 3 and found.certificate == (1, 2, 3)
    for word in words(3):
        if word != (1, 1, 1):
            assert certificate_at(MONOMIAL3, word).size == 1


def test_certificate_guard_and_validation():
    big = BooleanFunction.constant(15, 0)
    with pytest.raises(GuardExceededError) as err:
        certificate_at(big, (0,) * 15)
    assert err.value.guard == "certificate"
    with pytest.raises(InvalidInputError):
        certificate_at(CASCADE3, (0, 1))


def test_profile_examples():
    p = cert_profile(CASCADE3)
    assert (p.c0, p.c1, p.c) == (2, 2, 2)
    assert p.sensitivity == 2
    assert not p.degenerate

    g = cert_profile(MONOMIAL3)
    assert (g.c0, g.c1, g.c) == (1, 3, 3)

    zero = cert_profile(BooleanFunction.constant(2, 0))
    assert (zero.c0, zero.c1, zero.c) == (0, 0, 0)
    assert zero.degenerate


def test_profile_json_shape():
    p = cert_profile(CASCADE3, with_witnesses=True, with_block_sensitivity=True)
    data = p.to_json_dict()
    assert set(data) == {"c0", "c1", "c", "s", "bs", "witnesses"}
    assert data["bs"] == 2
    assert data["witnesses"][0] == {"word": "000", "size": 2, "certificate": [1, 3]}


def test_formula_examples():
    assert ncf_cert_formula((1, 2), 1) == (2, 2, 2)
    assert ncf_cert_formula((3,), 1) == (1, 3, 3)
    assert ncf_cert_formula((3,), 0) == (3, 1, 3)
    # brute-force oracle fixes the <1,1,2> case
    deep = reference_table([{1, 2, 3, 4}, {1, 2}, {1}], 4)  # x1*(x2*(x3*x4+1)+1)
    brute = cert_profile(deep)
    assert (brute.c0, brute.c1, brute.c) == (2, 3, 3)
    assert ncf_cert_formula((1, 1, 2), 0) == (2, 3, 3)
    with pytest.raises(InvalidInputError):
        ncf_cert_formula((2, 1), 0)
    with pytest.raises(InvalidInputError):
        ncf_cert_formula((), 0)


def test_formula_matches_bruteforce_small():
    for n in (2, 3):
        for d in enumerate_ncfs(n):
            f = compose(d)
            p = cert_profile(f)
            assert ncf_cert_formula(d.structure(), d.b) == (p.c0, p.c1, p.c)


def test_formula_matches_the_case_split_of_the_paper():
    # One layer, odd r and even r stated apart, as in the paper, with the
    # output bit swapping the pair for b = 1, or for b = 0 with one layer.
    cases = 0
    for n in range(2, 15):
        for k in layer_structures(n):
            r = len(k)
            if r == 1:
                pair = (1, k[0])
            elif r % 2:
                pair = (sum(k[1::2]) + 1, sum(k[0::2]))
            else:
                pair = (sum(k[1::2]), sum(k[0::2]) + 1)
            for b in (0, 1, False, True):
                c0, c1 = pair[::-1] if (r == 1 and b == 0) or (r >= 2 and b == 1) else pair
                assert ncf_cert_formula(k, b) == (c0, c1, max(c0, c1)), (k, b)
                cases += 1
    assert cases == 32764


def test_sensitivity_examples():
    assert sensitivity_at(MONOMIAL3, (1, 1, 1)) == 3
    assert sensitivity(PARITY2) == 2
    assert all(sensitivity_at(PARITY2, w) == 2 for w in words(2))
    assert sensitivity(CASCADE3) == 2
    assert sensitivity(BooleanFunction.constant(3, 1)) == 0


def test_block_sensitivity_examples():
    assert block_sensitivity(PARITY2) == 2
    assert block_sensitivity(MONOMIAL3) == 3
    assert block_sensitivity(CASCADE3) == 2
    maj5 = BooleanFunction.from_predicate(5, lambda w: sum(w) >= 3)
    s = sensitivity(maj5)
    bs = block_sensitivity(maj5)
    assert bs >= s
    assert (s, bs) == (3, 3)
    with pytest.raises(GuardExceededError) as err:
        block_sensitivity(BooleanFunction.constant(9, 0))
    assert err.value.guard == "block sensitivity"


def assert_profile_block_sensitivity_matches_oracles(f):
    p = cert_profile(f, with_block_sensitivity=True)
    assert p.block_sensitivity == block_sensitivity(f) == reference_block_sensitivity(f)
    return p


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 7),
        constant_functions(7),
        nested_canalizing_functions(7),
        flipped_nested_canalizing_functions(7),
        planted_symmetric_functions(7),
    )
)
# A nested canalizing function whose largest packing avoids x1 at some word.
@example(BooleanFunction.from_hex("4:2AAA"))
def test_block_sensitivity_matches_packer_oracle(f):
    assert_profile_block_sensitivity_matches_oracles(f)


def test_block_sensitivity_seeded_seven_variables():
    rng = random.Random(20120)
    for _ in range(3):
        f = BooleanFunction(7, rng.randrange(full_mask(7) + 1))
        assert block_sensitivity(f) == reference_block_sensitivity(f)
    for predicate, bs in (
        (lambda w: sum(w) % 2, 7),
        (lambda w: sum(w) >= 4, 4),
        (all, 7),
    ):
        f = BooleanFunction.from_predicate(7, predicate)
        assert block_sensitivity(f) == reference_block_sensitivity(f) == bs


def test_profile_checks_block_guard_before_certificates(monkeypatch):
    def no_certificates(*args, **kwargs):
        raise AssertionError("the free-set walk ran before the guard")

    monkeypatch.setattr("ncflab.complexity._never_constant", no_certificates)
    f = BooleanFunction.from_predicate(9, lambda w: sum(w) >= 5)
    with pytest.raises(GuardExceededError) as err:
        cert_profile(f, with_block_sensitivity=True)
    assert err.value.guard == "block sensitivity"


# Tables with s < bs = C: cert_profile cannot read their bs off s and C.
S_BELOW_C = (
    "4:1BD8",
    "5:F8DDBB1F",
    "5:EAF3CF57",
    "6:B1D58DA7FD1009F3",
    "6:FAECEC24DB8080A0",
    "6:2B9A70556BDA4B0B",
)


def test_profile_block_sensitivity_matches_oracles_small_and_below_c():
    for n in range(4):
        for bits in range(full_mask(n) + 1):
            assert_profile_block_sensitivity_matches_oracles(BooleanFunction(n, bits))
    for spec in S_BELOW_C:
        p = assert_profile_block_sensitivity_matches_oracles(BooleanFunction.from_hex(spec))
        assert p.sensitivity < p.block_sensitivity == p.c, spec


def test_profile_runs_block_dp_only_when_s_below_c(monkeypatch):
    calls = 0
    dp = complexity.block_sensitivity

    def counted(f, **kwargs):
        nonlocal calls
        calls += 1
        return dp(f, **kwargs)

    monkeypatch.setattr(complexity, "block_sensitivity", counted)
    parity = BooleanFunction.from_predicate(6, lambda w: sum(w) % 2)
    maj5 = BooleanFunction.from_predicate(5, lambda w: sum(w) >= 3)
    for f in (parity, maj5, *map(compose, enumerate_ncfs(4))):
        calls = 0
        p = cert_profile(f, with_block_sensitivity=True)
        assert (calls, p.sensitivity) == (0, p.c), f
    for spec in S_BELOW_C:
        calls = 0
        cert_profile(BooleanFunction.from_hex(spec), with_block_sensitivity=True)
        assert calls == 1, spec


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 6),
        constant_functions(6),
        nested_canalizing_functions(6),
    )
)
def test_cert_sweep_matches_word_level_oracles(f):
    p = cert_profile(f, with_witnesses=True)
    oracle = [certificate_at(f, w) for w in words(f.arity)]
    assert list(p.witnesses) == oracle
    assert [(w.size, w.certificate) for w in oracle] == [
        reference_certificate(f, w) for w in words(f.arity)
    ]
    fiber_max = [0, 0]
    for w in oracle:
        value = f.evaluate(w.word)
        fiber_max[value] = max(fiber_max[value], w.size)
    assert (p.c0, p.c1, p.c) == (fiber_max[0], fiber_max[1], max(fiber_max))
    assert p.degenerate == f.is_constant
    s = max(sensitivity_at(f, w) for w in words(f.arity))
    assert p.sensitivity == sensitivity(f) == s


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 6),
        constant_functions(6),
        nested_canalizing_functions(6),
    )
)
def test_sensitivity_counts_from_fold_steps_match_per_word_oracle(f):
    counts = complexity._sensitivity_counts(complexity._fold_steps(f))
    for idx, w in enumerate(words(f.arity)):
        count = sum((level >> idx & 1) << b for b, level in enumerate(counts))
        assert count == sensitivity_at(f, w), w


def test_cert_profile_builds_fold_steps_once(monkeypatch):
    calls = 0
    fold_steps = complexity._fold_steps

    def counted(f):
        nonlocal calls
        calls += 1
        return fold_steps(f)

    monkeypatch.setattr(complexity, "_fold_steps", counted)
    threshold = BooleanFunction.from_predicate(6, lambda w: sum(w) >= 3)
    for f in (CASCADE3, MONOMIAL3, PARITY2, threshold):
        for with_witnesses in (False, True):
            calls = 0
            cert_profile(f, with_witnesses=with_witnesses)
            assert calls == 1, (f, with_witnesses)


def test_measures_collapse_on_ncfs_small():
    for n in (2, 3):
        for d in enumerate_ncfs(n):
            p = cert_profile(compose(d), with_block_sensitivity=True)
            assert p.sensitivity == p.block_sensitivity == p.c


@settings(max_examples=60, deadline=None)
@given(boolean_functions(1, 6), st.data())
def test_sensitivity_bounded_by_certificate_per_word(f, data):
    idx = data.draw(st.integers(0, (1 << f.arity) - 1))
    word = tuple((idx >> p) & 1 for p in range(f.arity))
    assert sensitivity_at(f, word) <= certificate_at(f, word).size


def test_transform_invariance_seeded():
    rng = random.Random(987654)
    for _ in range(100):
        n = rng.randint(2, 6)
        f = BooleanFunction(n, rng.randrange(full_mask(n) + 1))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        beta = tuple(rng.randint(0, 1) for _ in range(n))
        c = rng.randint(0, 1)
        pf = cert_profile(f)
        pg = cert_profile(f.transform(sigma, beta, c))
        assert pg.c == pf.c
        if c == 0:
            assert (pg.c0, pg.c1) == (pf.c0, pf.c1)
        else:
            assert (pg.c0, pg.c1) == (pf.c1, pf.c0)
        assert pg.c == max(pg.c0, pg.c1)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 8),
        constant_functions(8),
        nested_canalizing_functions(8),
    )
)
@example(SKEWED_NCF)
@example(SKEWED_NCF_COMPLEMENT)
def test_cert_walk_matches_witness_pass_and_per_word_oracle(f):
    plain = cert_profile(f)
    full = cert_profile(f, with_witnesses=True)
    assert plain.witnesses is None
    fields = ("c0", "c1", "c", "degenerate")
    assert [getattr(plain, k) for k in fields] == [getattr(full, k) for k in fields]
    fiber_max = [0, 0]
    for w in words(f.arity):
        value = f.evaluate(w)
        fiber_max[value] = max(fiber_max[value], certificate_at(f, w).size)
    assert (plain.c0, plain.c1, plain.c) == (*fiber_max, max(fiber_max))


def test_cert_walk_matches_formula_on_wide_ncfs():
    # The sensitivity bound lets the walk past the guard at n = 16 in about
    # 10 ms a call.
    rng = random.Random(20260311)
    for n in range(9, 17):
        for _ in range(3):
            d, f = random_ncf(rng, n)
            p = cert_profile(f, max_arity=n)
            assert (p.c0, p.c1, p.c) == ncf_cert_formula(d.structure(), d.b), d


def test_cert_walk_memory_at_guard():
    # The walk keeps only the tables on its stack: at most n(n + 1)/2 tables
    # of 2 KiB at n = 14, where one table per free set would take 32 MiB.
    d, f = random_ncf(random.Random(14), 14)
    tracemalloc.start()
    try:
        p = cert_profile(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (p.c0, p.c1, p.c) == ncf_cert_formula(d.structure(), d.b)
    assert peak < 2 * 1024 * 1024


def reference_never_constant(f):
    """``never[j]`` with no prune: the AND, over every free set of size ``j``,
    of its nonconstancy table, built by spreading the table's OR and AND
    across each free variable (bit ``w`` of the OR is 1 iff ``f`` is 1
    somewhere on the subcube through ``w``, of the AND iff everywhere)."""
    n, bits = f.arity, f.bits
    full = full_mask(n)

    def spread(x, i, op):
        span, hi = 1 << (i - 1), variable_mask(n, i)
        return op(x, ((x & hi) >> span) | ((x << span) & hi))

    never = [0] + [full] * n
    for free in range(1, 1 << n):
        ones, alls = bits, bits
        for i in range(1, n + 1):
            if free >> (i - 1) & 1:
                ones = spread(ones, i, int.__or__)
                alls = spread(alls, i, int.__and__)
        never[bin(free).count("1")] &= ones & ~alls
    return never


def _fiber_sensitivities(f):
    """``(s0, s1)``: the largest sensitivity on each fiber, from the per-word
    oracle (0 for an empty fiber)."""
    s = [0, 0]
    for w in words(f.arity):
        value = f.evaluate(w)
        s[value] = max(s[value], sensitivity_at(f, w))
    return tuple(s)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        boolean_functions(0, 10),
        constant_functions(10),
        nested_canalizing_functions(10),
        flipped_nested_canalizing_functions(10),
    ),
    st.integers(0, 10),
)
@example(BooleanFunction(0, 0), 0)
@example(BooleanFunction(1, 0b10), 1)
@example(SKEWED_NCF, 10)
@example(SKEWED_NCF_COMPLEMENT, 10)
def test_pruned_walk_matches_unpruned_reference(f, drawn):
    reference = reference_never_constant(f)
    steps = complexity._fold_steps(f)
    n = f.arity
    assert complexity._never_constant(f, steps, n) == reference
    # Bounded by any height, the walk is exact on every word at every level
    # up to it.  cert_profile passes n - min(s0, s1).
    for height in (n - min(_fiber_sensitivities(f)), min(drawn, n)):
        never = complexity._never_constant(f, steps, height)
        assert never[: height + 1] == reference[: height + 1], height


def test_pruned_walk_folds_few_free_sets_at_guard(monkeypatch):
    # Without any prune the walk folds all 2^14 - 1 free sets of this NCF;
    # the sensitivity bound of cert_profile leaves fewer than the prune alone.
    d, f = random_ncf(random.Random(14), 14)
    folds = 0
    fold = complexity._fold

    def counted(table, step):
        nonlocal folds
        folds += 1
        return fold(table, step)

    monkeypatch.setattr(complexity, "_fold", counted)
    never = complexity._never_constant(f, complexity._fold_steps(f), 14)
    unbounded, folds = folds, 0
    p = cert_profile(f)
    assert unbounded < (2**14 - 1) // 3
    assert folds < unbounded
    monkeypatch.undo()
    assert never == reference_never_constant(f)
    assert (p.c0, p.c1, p.c) == ncf_cert_formula(d.structure(), d.b)


def _fiber_sensitivities(f):
    """``(s0, s1)``: ``f``'s largest sensitivity on each output fiber."""
    counts = complexity._sensitivity_counts(complexity._fold_steps(f))
    return tuple(complexity._max_count(counts, b) for b in (full_mask(f.arity) ^ f.bits, f.bits))


def _cover(f, layers):
    """``_ncf_cover`` of ``f`` with the proposed ``layers``, told ``f``'s
    per-fiber sensitivities."""
    return complexity._ncf_cover(f, layers, _fiber_sensitivities(f))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.integers(0, 2**32 - 1), st.booleans())
def test_ncf_cover_holds_and_matches_the_walk(n, seed, complement):
    _, f = random_ncf(random.Random(seed), n)
    if complement:
        f = BooleanFunction(n, f.bits ^ full_mask(n))
    classification = decompose(f)
    assert classification.is_ncf
    assert _cover(f, classification.decomposition.layers)
    profile = cert_profile(f, decomposition=classification.decomposition)
    assert profile == cert_profile(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_decomposition_hints_change_no_answer(n, seed, complement):
    # cert_profile and symmetry_report check a decomposition hint on the
    # table: f's own, another NCF's of the same arity and none give the same
    # answers, and a decomposition of another arity is refused.
    rng = random.Random(seed)
    _, f = random_ncf(rng, n)
    if complement:
        f = BooleanFunction(n, f.bits ^ full_mask(n))
    other, _ = random_ncf(rng, n)
    wider, _ = random_ncf(rng, n + 1)
    profile, report = cert_profile(f), symmetry_report(f, max_arity=2)
    for hint in (decompose(f).decomposition, other):
        assert cert_profile(f, decomposition=hint) == profile
        assert symmetry_report(f, max_arity=2, decomposition=hint) == report
    with pytest.raises(InvalidInputError):
        cert_profile(f, decomposition=wider)
    with pytest.raises(InvalidInputError):
        symmetry_report(f, max_arity=2, decomposition=wider)


def test_ncf_cover_refuses_wrong_layers_and_the_walk_answers(monkeypatch):
    calls = 0
    never_constant = complexity._never_constant

    def counted(*args):
        nonlocal calls
        calls += 1
        return never_constant(*args)

    monkeypatch.setattr(complexity, "_never_constant", counted)
    one_layer = parse_decomposition("0; [1:0, 2:0, 3:0, 4:0]")
    four_layers = parse_decomposition("0; [1:1 | 2:0 | 3:1, 4:1]")
    # 4:1BD8 is no NCF, and s = 2 < C = 3: no cover can certify it at s.
    for f, wrong in (
        (compose(four_layers), one_layer),
        (BooleanFunction.from_hex("4:1BD8"), four_layers),
    ):
        assert not _cover(f, wrong.layers)
        calls = 0
        profile = cert_profile(f, decomposition=wrong)
        assert calls == 1, f
        assert profile == cert_profile(f)
        fiber_max = [0, 0]
        for w in words(f.arity):
            value = f.evaluate(w)
            fiber_max[value] = max(fiber_max[value], certificate_at(f, w).size)
        assert (profile.c0, profile.c1) == tuple(fiber_max)


def test_ncf_cover_never_holds_where_s_is_below_c():
    # The cover is checked on the table, so it is sound for any proposed
    # layers: on a function with s_b < C_b for some b it must fail, whatever
    # the layers.  Every table in the orbit of 4:1BD8 under input
    # permutations, input negations and output complement has s = 2 < C = 3.
    base = BooleanFunction.from_hex("4:1BD8")
    orbit = {
        base.transform(sigma, beta, c)
        for sigma in itertools.permutations(range(1, 5))
        for beta in itertools.product((0, 1), repeat=4)
        for c in (0, 1)
    }
    orders = {tuple(tuple(v for v, _ in layer) for layer in d.layers) for d in enumerate_ncfs(4)}
    assert len(orbit) == 24 and len(orders) == 23
    for f in orbit:
        p = cert_profile(f)
        assert (p.sensitivity, p.c) == (2, 3)
        for order in orders:
            assert not _cover(f, [[(v, 0) for v in layer] for layer in order]), (f, order)


def _reference_cover(f, layers, sensitivities):
    """The fold cover: the variable sets of ``_ncf_cover``'s n + 1 cubes,
    each free set's table built from 0 one ``_fold`` at a time, and fiber
    ``b`` covered when each of its words lies outside the table (in a
    constant subcube) of some set of at most ``s_b`` variables.  A cube
    fixes one subcube of its set's, so this holds wherever the cube cover
    does."""
    variables = [[v for v, _ in layer] for layer in layers]
    candidates = []
    for t, layer in enumerate(variables):  # each variable with earlier layers of other parity
        other = [u for k, earlier in enumerate(variables[:t]) if (t - k) % 2 for u in earlier]
        candidates += [{v, *other} for v in layer]
    last = len(variables) - 1  # and every layer of the last layer's parity
    candidates.append({v for t, layer in enumerate(variables) if t % 2 == last % 2 for v in layer})
    assert len(candidates) == f.arity + 1
    steps = complexity._fold_steps(f)
    uncovered = [full_mask(f.arity)] * 2
    for fixed in candidates:
        table = 0
        for p in range(f.arity):
            if p + 1 not in fixed:
                table = complexity._fold(table, steps[p])
        for b in (0, 1):
            if len(fixed) <= sensitivities[b]:
                uncovered[b] &= table
    return not (uncovered[0] & (full_mask(f.arity) ^ f.bits) or uncovered[1] & f.bits)


@functools.lru_cache(maxsize=1)  # a test checks several layers on one table in a row
def _evaluated(f):
    """``{word: f(word)}`` over ``words(n)``, by ``f.evaluate``."""
    return {w: f.evaluate(w) for w in words(f.arity)}


def _reference_cube_cover(f, layers, sensitivities):
    """``_ncf_cover`` word by word: the n + 1 candidates as ``{variable:
    value}`` assignments, each tested for constancy by evaluating ``f`` on
    the words of ``words(n)`` it contains, and a word of fiber ``b`` covered
    when it lies in a constant candidate of at most ``s_b`` variables."""
    candidates = []
    for t, layer in enumerate(layers):  # x_v = a, earlier layers of other parity off their inputs
        quiet = {u: c ^ 1 for k, earlier in enumerate(layers[:t]) if (t - k) % 2 for u, c in earlier}
        candidates += [{**quiet, v: a} for v, a in layer]
    last = len(layers) - 1  # and every layer of the last layer's parity off its inputs
    candidates.append(
        {v: a ^ 1 for t, layer in enumerate(layers) if t % 2 == last % 2 for v, a in layer}
    )
    assert len(candidates) == f.arity + 1
    values = _evaluated(f)
    covered = set()
    for fixed in candidates:
        project = operator.itemgetter(*(v - 1 for v in fixed))
        at = project(tuple(fixed.get(v, 0) for v in range(1, f.arity + 1)))
        cube = [w for w in values if project(w) == at]
        outputs = {values[w] for w in cube}
        if len(outputs) == 1 and len(fixed) <= sensitivities[outputs.pop()]:
            covered.update(cube)
    return covered == set(values)


def test_ncf_cover_matches_a_plain_reference_on_every_small_ncf():
    # Every NCF of 2 to 5 variables, covered with its own layers and with
    # those of the next NCF of the same arity in the stream (the first,
    # after the last); 5,716 of the 11,432 second pairings leave a word
    # uncovered.  The fold cover holds wherever the cube cover does.
    refused = 0
    for n in range(2, 6):
        stream = [(d, compose(d)) for d in enumerate_ncfs(n)]
        for (d, f), (other, _) in zip(stream, stream[1:] + stream[:1]):
            s = _fiber_sensitivities(f)
            assert complexity._ncf_cover(f, d.layers, s)
            assert _reference_cube_cover(f, d.layers, s), d
            assert _reference_cover(f, d.layers, s), d
            held = complexity._ncf_cover(f, other.layers, s)
            assert held == _reference_cube_cover(f, other.layers, s), (d, other)
            assert not held or _reference_cover(f, other.layers, s), (d, other)
            refused += not held
    assert refused > 0


def test_ncf_cover_is_sound_on_arbitrary_tables():
    # Whatever layers it is told, the cover holds only where the walk finds
    # C_b = s_b: every table of 2 and 3 variables with every decomposition
    # of its arity (256 x 64 pairs at n = 3), and seeded 4-variable tables
    # (uniform, NCFs, and NCFs with one entry flipped) with every one of 736.
    rng = random.Random(3904)
    ncfs4 = [compose(d).bits for d in enumerate_ncfs(4)]
    sample4 = [rng.getrandbits(16) for _ in range(40)] + rng.sample(ncfs4, 20)
    sample4 += [bits ^ 1 << rng.randrange(16) for bits in rng.sample(ncfs4, 40)]
    held = 0
    for n, tables in ((2, range(16)), (3, range(256)), (4, sample4)):
        decompositions = list(enumerate_ncfs(n))
        for bits in tables:
            f = BooleanFunction(n, bits)
            s = _fiber_sensitivities(f)
            holds = [d for d in decompositions if complexity._ncf_cover(f, d.layers, s)]
            if holds:
                p = cert_profile(f)
                assert (p.c0, p.c1) == s, (f, holds[0])
                held += len(holds)
    assert held > 0
