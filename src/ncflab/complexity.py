"""Certificate complexity, sensitivity and block sensitivity.

A certificate of ``f`` on a word ``w`` is a set of positions whose values,
fixed to the word's bits, force the function constant (the constant is then
``f(w)``).  ``C(f, w)`` is the smallest certificate size; ``C0(f)`` and
``C1(f)`` maximize it over the words of each output fiber, and
``C(f) = max(C0, C1)``.

For nested canalizing functions the pair ``(C0, C1)`` depends only on the
layer structure and the output bit; :func:`ncf_cert_formula` evaluates that
closed form.  :func:`cert_profile` finds every word's certificate size in
one depth-first walk over sets of free variables, each tested against the
whole truth table at once, and the test suite checks the formula against
it.  The walk skips every subtree that can no longer change an answer:
freeing more variables never makes a nonconstant subcube constant, so a
subtree's tables contain its root's, and the per-size masks of words found
nowhere constant only shrink.  The per-word scans :func:`certificate_at`
and :func:`sensitivity_at` serve as its oracles.  :func:`block_sensitivity`
is likewise one whole-table dynamic program over variable sets; the test
suite keeps a per-word block packer as its oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
    Word,
    _one_indices,
    full_mask,
    index_of,
    variable_mask,
)

#: The certificate sweep folds one table of 2^n bits for each of up to 2^n free
#: sets, about seven big-integer operations each.  At n = 14 its prune leaves
#: an NCF 600-2,000 folds (5-10 ms) and threshold-7 12,440 (30-50 ms).
#: It keeps at most n(n + 1)/2 tables on its stack (about 210 KiB at n = 14).
MAX_CERTIFICATE_ARITY = 14
#: Block sensitivity keeps four lists of 2^n tables of 2^n bits (32 KiB at
#: n = 8) and makes about bs * 3^n / 2 big-integer AND/ORs (5 ms at n = 8).
MAX_BLOCK_SENSITIVITY_ARITY = 8


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
# Certificates and sensitivity
# ----------------------------------------------------------------------


def _fold_steps(f: BooleanFunction) -> list[tuple[int, int, int]]:
    """Per position ``p``, the step of :func:`_fold`: ``2^p``, the words with
    ``x_{p+1} = 0``, and those where flipping ``x_{p+1}`` changes ``f``."""
    n, bits = f.arity, f.bits
    lows = [full_mask(n) ^ variable_mask(n, i) for i in range(1, n + 1)]
    return [(1 << p, lo, (bits ^ bits >> (1 << p)) & lo) for p, lo in enumerate(lows)]


def _fold(table: int, step: tuple[int, int, int]) -> int:
    """Free one more variable in a nonconstancy table, whose bit ``w`` is 1
    iff ``f`` is not constant on the words agreeing with ``w`` outside the
    free set.  The joined subcube is nonconstant iff either half is or ``f``
    differs across them: collapse onto the low word, copy up."""
    span, low, flip = step
    t = (table | table >> span) & low | flip
    return t | t << span


def _never_constant(f: BooleanFunction) -> list[int]:
    """``never[j]``: the words at which ``f`` is constant on no subcube with
    ``j`` free variables, from a depth-first walk over free sets.

    A child adds one variable above its parent's top one, and its table is
    one :func:`_fold` of the parent's; only the tables on the stack are kept.
    Children are visited in increasing variable order, the largest subtree
    first.

    The walk prunes a node whose table ``t`` already holds every word of
    ``never[top]``, ``top`` being the size of its deepest descendants (a
    full table is the plain case).  This is exact.  Freeing more variables
    never makes a nonconstant subcube constant, so every descendant's table
    contains ``t``, and the masks only shrink: no descendant could clear a
    word from ``never[top]``.  Nor from any ``never[k]`` below it, because
    the masks grow with ``k`` throughout the walk: a node's prefixes are
    folded before it, and their tables lie inside its own.
    """
    n, full = f.arity, full_mask(f.arity)
    steps = _fold_steps(f)
    never = [0] + [full] * n
    stack = [(0, 0, 0)]  # (table, first variable to free, size of its free set)
    while stack:
        table, start, size = stack.pop()
        if never[size + n - start] | table == table:
            continue
        size += 1
        for p in range(n - 1, start - 1, -1):
            t = _fold(table, steps[p])
            if t != full:
                never[size] &= t
                if p + 1 < n:
                    stack.append((t, p + 1, size))
    return never


def _first_certificates(f: BooleanFunction, never: list[int]) -> tuple:
    """Each word's first certificate in (cardinality, lexicographic) order.

    ``never`` gives every word's ``C(f, w)``, so for each size ``k`` only
    the size-``k`` sets are scanned, each table built by ``n - k`` folds,
    until every word with ``C(f, w) = k`` is certified.
    """
    n = f.arity
    steps = _fold_steps(f)
    first = [()] * (1 << n)
    reach = never + [full_mask(n)]
    for k in range(n + 1):
        pending = reach[n - k + 1] & ~reach[n - k]
        for subset in itertools.combinations(range(1, n + 1), k):
            if not pending:
                break
            free = (steps[p] for p in range(n) if p + 1 not in subset)
            table = functools.reduce(_fold, free, 0)
            new = pending & ~table
            for idx in _one_indices(new):
                first[idx] = subset
            pending ^= new
    # Words in index order (x1 fastest); witnesses skip the frozen __setattr__.
    words = (w[::-1] for w in itertools.product((0, 1), repeat=n))
    witnesses = []
    for word, subset in zip(words, first):
        witness = object.__new__(CertificateWitness)
        witness.__dict__.update(word=word, size=len(subset), certificate=subset)
        witnesses.append(witness)
    return tuple(witnesses)


def certificate_at(
    f: BooleanFunction, word, *, max_arity: int = MAX_CERTIFICATE_ARITY
) -> CertificateWitness:
    """Minimum certificate of ``f`` on ``word`` with deterministic tie-break.

    Subsets are scanned in increasing cardinality and, within a cardinality,
    in lexicographic order of the index tuple; the first whose subcube
    through ``word`` is constant on the table wins, so the reported size is
    exactly ``C(f, word)``.  This per-word scan shares no kernel with the
    sweep of :func:`cert_profile`, for which it is the oracle.
    """
    if f.arity > max_arity:
        raise GuardExceededError("certificate", f.arity, max_arity)
    word = tuple(word)
    value = f.evaluate(word)  # checks the word's length and bits
    n, full = f.arity, full_mask(f.arity)
    # agree[i - 1]: the words whose x_i equals word's
    agree = [variable_mask(n, i) ^ (0 if b else full) for i, b in enumerate(word, 1)]
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            cube = functools.reduce(int.__and__, (agree[i - 1] for i in subset), full)
            if f.bits & cube == (cube if value else 0):
                return CertificateWitness(word, k, subset)
    raise NcflabError("internal error: the full variable set is always a certificate")


def sensitivity_at(f: BooleanFunction, word) -> int:
    """Number of single-bit flips of ``word`` that change the output."""
    word = tuple(word)
    value = f.evaluate(word)  # checks the word's length and bits
    idx = index_of(word)
    return sum(1 for p in range(f.arity) if f.bit(idx ^ (1 << p)) != value)


def sensitivity(f: BooleanFunction) -> int:
    """Maximum of the per-word sensitivity over all words.

    The per-word counts are bit-sliced: bit ``w`` of ``counter[b]`` is bit
    ``b`` of the number of positions whose flip changes ``f`` at ``w``.  Each
    position adds the table ``f ^ flip_i(f)`` with a ripple carry, and the
    maximum is read off from the top counter bit down.
    """
    n, bits = f.arity, f.bits
    counter: list[int] = []
    for i in range(1, n + 1):
        span = 1 << (i - 1)
        hi = variable_mask(n, i)
        carry = bits ^ (((bits & hi) >> span) | ((bits << span) & hi))
        for b, level in enumerate(counter):
            counter[b], carry = level ^ carry, level & carry
            if not carry:
                break
        if carry:
            counter.append(carry)
    best, at_best = 0, full_mask(n)
    for b in reversed(range(len(counter))):
        higher = at_best & counter[b]
        if higher:
            best, at_best = best | 1 << b, higher
    return best


def block_sensitivity(
    f: BooleanFunction, *, max_arity: int = MAX_BLOCK_SENSITIVITY_ARITY
) -> int:
    """Maximum number of pairwise-disjoint sensitive blocks over all words.

    A block is a nonempty set of positions whose joint flip changes the
    output.  One dynamic program over variable sets covers every word at
    once: bit ``w`` of ``sens[B]`` is set when block ``B`` is sensitive at
    ``w``, and on level ``k`` bit ``w`` of ``level[A]`` is set when ``w``
    has ``k`` disjoint sensitive blocks inside the set ``A``.  Such blocks
    either all avoid the lowest variable ``i`` of ``A`` or one of them,
    ``B``, holds it and the other ``k - 1`` lie in ``A - B``, so each level
    is built from the one below in about ``3^n / 2`` AND/OR operations.
    The answer is the last ``k`` at which the full set still holds a word.
    """
    if f.arity > max_arity:
        raise GuardExceededError("block sensitivity", f.arity, max_arity)
    n, bits = f.arity, f.bits
    size = 1 << n
    highs = [variable_mask(n, i) for i in range(1, n + 1)]
    # shifted[B]: the table of f(x ^ B), one input flip from shifted[B - low]
    shifted = [bits] * size
    for block in range(1, size):
        low = block & -block
        hi = highs[low.bit_length() - 1]
        t = shifted[block ^ low]
        shifted[block] = ((t & hi) >> low) | ((t << low) & hi)
    sens = [bits ^ t for t in shifted]
    below = [full_mask(n)] * size
    k = 0
    while k < n:  # n disjoint blocks are singletons: no level above n
        level = [0] * size
        for a in range(1, size):
            low = a & -a
            rest = a ^ low
            acc = level[rest]
            sub = rest
            while True:  # every block holding the lowest variable of a
                block = sub | low
                acc |= sens[block] & below[a ^ block]
                if not sub:
                    break
                sub = (sub - 1) & rest
            level[a] = acc
        if not level[-1]:
            break
        k += 1
        below = level
    return k


def cert_profile(
    f: BooleanFunction,
    *,
    with_witnesses: bool = False,
    with_block_sensitivity: bool = False,
    max_arity: int = MAX_CERTIFICATE_ARITY,
    block_max_arity: int = MAX_BLOCK_SENSITIVITY_ARITY,
) -> ComplexityProfile:
    """Exact complexity profile of ``f`` from one walk over free sets.

    :func:`_never_constant` marks, for each ``j``, the words at which ``f``
    is constant on no subcube with ``j`` free variables, so ``C(f, w) = n -
    max{j : w not in never[j]}`` and ``c_b = n - max{j : fiber_b & never[j]
    == 0}``.  An empty fiber gives 0 and flags the profile degenerate.
    Witnesses come from a second pass in :func:`certificate_at`'s order, so
    they match it word for word.  Witness collection and block sensitivity
    are optional because of their cost.
    """
    if f.arity > max_arity:
        raise GuardExceededError("certificate", f.arity, max_arity)
    if with_block_sensitivity and f.arity > block_max_arity:
        raise GuardExceededError("block sensitivity", f.arity, block_max_arity)
    n = f.arity
    fibers = (full_mask(n) ^ f.bits, f.bits)
    never = _never_constant(f)  # never[0] is 0: fixing all n variables certifies
    c0, c1 = (n - max(j for j in range(n + 1) if not b & never[j]) for b in fibers)
    witnesses = _first_certificates(f, never) if with_witnesses else None
    bs = None
    if with_block_sensitivity:
        bs = block_sensitivity(f, max_arity=block_max_arity)
    return ComplexityProfile(
        c0=c0,
        c1=c1,
        c=max(c0, c1),
        sensitivity=sensitivity(f),
        block_sensitivity=bs,
        witnesses=witnesses,
        degenerate=not all(fibers),
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
