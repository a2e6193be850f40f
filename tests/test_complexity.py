"""Certificate complexity, sensitivity, block sensitivity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boolean_functions, reference_table

from ncflab import (
    BooleanFunction,
    GuardExceededError,
    block_sensitivity,
    cert_profile,
    certificate_at,
    compose,
    enumerate_ncfs,
    ncf_cert_formula,
    sensitivity,
    sensitivity_at,
    words,
)
from ncflab.core import InvalidInputError, full_mask

CASCADE3 = reference_table([{1, 2, 3}, {1, 2}, {3}], 3)
MONOMIAL3 = reference_table([{1, 2, 3}], 3)
PARITY2 = reference_table([{1}, {2}], 2)

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
        block_sensitivity(BooleanFunction.constant(7, 0))
    assert err.value.guard == "block sensitivity"


def test_profile_checks_block_guard_before_certificates(monkeypatch):
    def no_certificates(*args, **kwargs):
        raise AssertionError("per-word certificate scan ran before the guard")

    monkeypatch.setattr("ncflab.complexity._certificate_from_tables", no_certificates)
    f = BooleanFunction.from_predicate(7, lambda w: sum(w) >= 4)
    with pytest.raises(GuardExceededError) as err:
        cert_profile(f, with_block_sensitivity=True)
    assert err.value.guard == "block sensitivity"


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
