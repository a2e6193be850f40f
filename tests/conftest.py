"""Shared test helpers: independent oracles and hypothesis strategies."""

import itertools

from hypothesis import strategies as st

from ncflab import BooleanFunction, index_of
from ncflab.core import full_mask, word_at


def reference_anf_value(monomials, word) -> int:
    """Word-level polynomial evaluation, independent of the mask machinery.

    ``monomials`` is an iterable of index collections; XOR of the products.
    """
    acc = 0
    for monomial in monomials:
        prod = 1
        for i in monomial:
            prod &= word[i - 1]
        acc ^= prod
    return acc


def reference_table(monomials, n) -> BooleanFunction:
    """Build a truth table by brute word-by-word evaluation."""
    values = [
        reference_anf_value(monomials, word_at(idx, n)) for idx in range(1 << n)
    ]
    return BooleanFunction.from_values(values)


def boolean_functions(min_arity=0, max_arity=8):
    return st.integers(min_arity, max_arity).flatmap(
        lambda n: st.builds(
            BooleanFunction, st.just(n), st.integers(0, full_mask(n))
        )
    )


def permutations_of(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def _permute_word(word, sigma):
    """The word ``v`` with ``v[i] = word[sigma(i)]`` (1-based one-line sigma)."""
    return tuple(word[image - 1] for image in sigma)


def reference_automorphisms(f):
    """Non-identity permutations fixing ``f``, checked word by word.

    Independent of the table-level permutation machinery: every word is
    permuted as a tuple and both values are read off the table.
    """
    n = f.arity
    identity = tuple(range(1, n + 1))
    table = [word_at(idx, n) for idx in range(1 << n)]
    return [
        sigma
        for sigma in itertools.permutations(identity)
        if sigma != identity
        and all(
            f.bit(index_of(_permute_word(word, sigma))) == f.bit(idx)
            for idx, word in enumerate(table)
        )
    ]


@st.composite
def planted_symmetric_functions(draw, max_arity=5):
    """Functions fixed by a drawn permutation: one random bit per word orbit."""
    n = draw(st.integers(1, max_arity))
    tau = draw(permutations_of(n))
    seed = draw(st.integers(0, full_mask(n)))
    values = []
    for idx in range(1 << n):
        orbit_min, word = idx, _permute_word(word_at(idx, n), tau)
        while (step := index_of(word)) != idx:
            orbit_min = min(orbit_min, step)
            word = _permute_word(word, tau)
        values.append((seed >> orbit_min) & 1)
    return BooleanFunction.from_values(values)
