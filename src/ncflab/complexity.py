"""Certificate complexity, sensitivity and block sensitivity.

A certificate of ``f`` on a word ``w`` is a set of positions whose values,
fixed to the word's bits, force the function constant (the constant is then
``f(w)``).  ``C(f, w)`` is the smallest certificate size; ``C0(f)`` and
``C1(f)`` maximize it over the words of each output fiber, and
``C(f) = max(C0, C1)``.

For nested canalizing functions the pair ``(C0, C1)`` depends only on the
layer structure and the output bit; :func:`ncf_cert_formula` evaluates that
closed form, and the brute-force :func:`cert_profile` serves as its
independent oracle in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
    Word,
    full_mask,
    index_of,
    variable_mask,
    word_at,
)

#: Certificate search walks all index subsets per word; 2^n * 2^n cost.
MAX_CERTIFICATE_ARITY = 14
#: Block sensitivity packs disjoint sensitive blocks per word; harsher cost.
MAX_BLOCK_SENSITIVITY_ARITY = 6


@dataclass(frozen=True)
class CertificateWitness:
    """A minimum certificate found for one word.

    ``certificate`` is the first subset in (cardinality, lexicographic)
    order whose restriction is constant, so ties between equally small
    certificates break deterministically.  Minimality is structural: no
    proper subset can work, as it would have been found at a smaller
    cardinality.
    """

    word: Word
    size: int
    certificate: tuple[int, ...]


@dataclass(frozen=True)
class ComplexityProfile:
    """Exact complexity measures of one function.

    ``degenerate`` marks constant functions, whose empty output fiber makes
    the corresponding maximum 0 by convention.
    """

    c0: int
    c1: int
    c: int
    sensitivity: int
    block_sensitivity: int | None = None
    witnesses: tuple[CertificateWitness, ...] | None = None
    degenerate: bool = False

    def __post_init__(self):
        if self.c != max(self.c0, self.c1):
            raise NcflabError("profile invariant violated: c != max(c0, c1)")
        if self.block_sensitivity is not None:
            if not self.sensitivity <= self.block_sensitivity <= self.c:
                raise NcflabError("profile invariant violated: s <= bs <= c")

    def to_json_dict(self) -> dict:
        witnesses = [
            {
                "word": "".join(str(bit) for bit in w.word),
                "size": w.size,
                "certificate": list(w.certificate),
            }
            for w in (self.witnesses or ())
        ]
        return {
            "c0": self.c0,
            "c1": self.c1,
            "c": self.c,
            "s": self.sensitivity,
            "bs": self.block_sensitivity,
            "witnesses": witnesses,
        }


# ----------------------------------------------------------------------
# Brute-force certificates
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _subsets_by_cardinality(n: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Index subsets of 1..n with their bitmasks, grouped by size, lex order."""
    groups = []
    for k in range(n + 1):
        group = []
        for subset in itertools.combinations(range(1, n + 1), k):
            mask = 0
            for i in subset:
                mask |= 1 << (i - 1)
            group.append((subset, mask))
        groups.append(tuple(group))
    return tuple(groups)


def _freedom_tables(f: BooleanFunction) -> tuple[list[int], list[int]]:
    """OR- and AND-collapse of ``f`` over every set of freed variables.

    Entry ``m`` treats the variables in bitmask ``m`` as free: bit ``w`` of
    ``any_[m]`` (resp. ``all_[m]``) is 1 iff some (resp. every) word agreeing
    with ``w`` outside ``m`` maps to 1.  The restriction that fixes the
    complement of ``m`` at word ``w`` is constant iff the two tables agree
    at ``w``.
    """
    n = f.arity
    size = 1 << n
    any_ = [0] * size
    all_ = [0] * size
    any_[0] = all_[0] = f.bits
    fullm = full_mask(n)
    for m in range(1, size):
        low = m & -m
        prev = m ^ low
        p = low.bit_length() - 1
        span = 1 << p
        hi = variable_mask(n, p + 1)
        lo = ~hi & fullm
        a = any_[prev]
        any_[m] = a | (((a & hi) >> span) | ((a & lo) << span))
        a = all_[prev]
        all_[m] = a & (((a & hi) >> span) | ((a & lo) << span))
    return any_, all_


def certificate_at(
    f: BooleanFunction, word, *, max_arity: int = MAX_CERTIFICATE_ARITY
) -> CertificateWitness:
    """Minimum certificate of ``f`` on ``word`` with deterministic tie-break.

    Subsets are scanned in increasing cardinality and, within a cardinality,
    in lexicographic order of the index tuple; the first whose restriction
    is constant wins, so the reported size is exactly ``C(f, word)``.
    """
    if f.arity > max_arity:
        raise GuardExceededError("certificate", f.arity, max_arity)
    word = tuple(word)
    if len(word) != f.arity:
        raise InvalidInputError(
            f"word length {len(word)} does not match arity {f.arity}"
        )
    tables = _freedom_tables(f)
    return _certificate_from_tables(f, word, tables)


def _certificate_from_tables(f, word, tables) -> CertificateWitness:
    n = f.arity
    any_, all_ = tables
    idx = index_of(word)
    all_vars = (1 << n) - 1
    for group in _subsets_by_cardinality(n):
        for subset, mask in group:
            free = all_vars ^ mask
            if ((any_[free] >> idx) & 1) == ((all_[free] >> idx) & 1):
                return CertificateWitness(word, len(subset), subset)
    raise NcflabError("internal error: the full variable set is always a certificate")


def sensitivity_at(f: BooleanFunction, word) -> int:
    """Number of single-bit flips of ``word`` that change the output."""
    word = tuple(word)
    if len(word) != f.arity:
        raise InvalidInputError(
            f"word length {len(word)} does not match arity {f.arity}"
        )
    idx = index_of(word)
    return _sensitivity_at_index(f, idx)


def _sensitivity_at_index(f: BooleanFunction, idx: int) -> int:
    value = f.bit(idx)
    return sum(1 for p in range(f.arity) if f.bit(idx ^ (1 << p)) != value)


def sensitivity(f: BooleanFunction) -> int:
    """Maximum of the per-word sensitivity over all words."""
    return max(
        (_sensitivity_at_index(f, idx) for idx in range(1 << f.arity)), default=0
    )


def block_sensitivity(
    f: BooleanFunction, *, max_arity: int = MAX_BLOCK_SENSITIVITY_ARITY
) -> int:
    """Maximum number of pairwise-disjoint sensitive blocks over all words.

    A block is a nonempty set of positions whose joint flip changes the
    output.  Computed exactly by packing sensitive blocks with memoized
    search over the remaining free positions.
    """
    if f.arity > max_arity:
        raise GuardExceededError("block sensitivity", f.arity, max_arity)
    n = f.arity
    all_vars = (1 << n) - 1
    best_overall = 0
    for idx in range(1 << n):
        value = f.bit(idx)
        blocks = [
            block
            for block in range(1, 1 << n)
            if f.bit(idx ^ block) != value
        ]
        if not blocks:
            continue
        memo: dict[int, int] = {0: 0}

        def pack(avail: int) -> int:
            cached = memo.get(avail)
            if cached is not None:
                return cached
            best = 0
            for block in blocks:
                if block & ~avail:
                    continue
                candidate = 1 + pack(avail & ~block)
                if candidate > best:
                    best = candidate
            memo[avail] = best
            return best

        best_overall = max(best_overall, pack(all_vars))
    return best_overall


def cert_profile(
    f: BooleanFunction,
    *,
    with_witnesses: bool = False,
    with_block_sensitivity: bool = False,
    max_arity: int = MAX_CERTIFICATE_ARITY,
    block_max_arity: int = MAX_BLOCK_SENSITIVITY_ARITY,
) -> ComplexityProfile:
    """Brute-force complexity profile of ``f``.

    ``c0``/``c1`` maximize the per-word certificate size over the output-0
    and output-1 fibers; an empty fiber contributes 0 and flags the profile
    degenerate.  Witness collection and block sensitivity are optional
    because of their cost.
    """
    if f.arity > max_arity:
        raise GuardExceededError("certificate", f.arity, max_arity)
    if with_block_sensitivity and f.arity > block_max_arity:
        raise GuardExceededError("block sensitivity", f.arity, block_max_arity)
    n = f.arity
    tables = _freedom_tables(f)
    c_by_value = [0, 0]
    fiber_seen = [False, False]
    witnesses = []
    best_sensitivity = 0
    for idx in range(1 << n):
        witness = _certificate_from_tables(f, word_at(idx, n), tables)
        value = f.bit(idx)
        fiber_seen[value] = True
        c_by_value[value] = max(c_by_value[value], witness.size)
        best_sensitivity = max(best_sensitivity, _sensitivity_at_index(f, idx))
        if with_witnesses:
            witnesses.append(witness)
    bs = (
        block_sensitivity(f, max_arity=block_max_arity)
        if with_block_sensitivity
        else None
    )
    return ComplexityProfile(
        c0=c_by_value[0],
        c1=c_by_value[1],
        c=max(c_by_value),
        sensitivity=best_sensitivity,
        block_sensitivity=bs,
        witnesses=tuple(witnesses) if with_witnesses else None,
        degenerate=not (fiber_seen[0] and fiber_seen[1]),
    )


# ----------------------------------------------------------------------
# Closed form for nested canalizing functions
# ----------------------------------------------------------------------


def ncf_cert_formula(structure, b: int) -> tuple[int, int, int]:
    """``(C0, C1, C)`` of a nested canalizing function from its layer sizes.

    For the positive nested form (output bit absorbed), with layer sizes
    ``k1..kr``:

        r odd:  C0 = k2 + k4 + ... + k_{r-1} + 1,  C1 = k1 + k3 + ... + kr
        r even: C0 = k2 + k4 + ... + kr,           C1 = k1 + k3 + ... + k_{r-1} + 1
        r = 1:  (C0, C1) = (1, k1)

    The stored output bit swaps the pair exactly when it complements the
    positive form: with ``r >= 2`` that is ``b = 1``, and in the one-layer
    convention (which carries an inner complement) it is ``b = 0``.
    Variable permutations and input negations never change the pair.
    """
    k = tuple(int(size) for size in structure)
    r = len(k)
    if r == 0 or any(size < 1 for size in k):
        raise InvalidInputError(f"bad layer structure {structure!r}")
    if k[-1] < 2:
        raise InvalidInputError("the last layer must have at least two variables")
    if b not in (0, 1):
        raise InvalidInputError(f"output bit must be 0 or 1, got {b!r}")
    if r == 1:
        c0, c1 = 1, k[0]
    elif r % 2 == 1:
        c0 = sum(k[1::2]) + 1
        c1 = sum(k[0::2])
    else:
        c0 = sum(k[1::2])
        c1 = sum(k[0::2]) + 1
    if (r == 1 and b == 0) or (r >= 2 and b == 1):
        c0, c1 = c1, c0
    return c0, c1, max(c0, c1)
