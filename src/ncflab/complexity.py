"""Certificate complexity, sensitivity and block sensitivity.

A certificate of ``f`` on a word ``w`` is a set of positions whose values,
fixed to the word's bits, force the function constant (the constant is then
``f(w)``).  ``C(f, w)`` is the smallest certificate size; ``C0(f)`` and
``C1(f)`` maximize it over the words of each output fiber, and
``C(f) = max(C0, C1)``.

:func:`cert_profile`, the oracle of ``ncf.ncf_cert_formula``, finds every
word's certificate size in one depth-first walk over free sets, each tested
on the whole table at once.  It skips every subtree that can no longer
change an answer: freeing more variables never makes a nonconstant subcube
constant, so a subtree's tables contain its root's, and the per-size masks
of words found nowhere constant only shrink.  Its height is bounded by the
table's sensitivity, as :func:`cert_profile` states.  The per-word scans
:func:`certificate_at` and :func:`sensitivity_at` serve as its oracles.
:func:`block_sensitivity` is likewise one whole-table dynamic program over
variable sets; the test suite keeps a per-word block packer as its oracle.
Since ``s <= bs <= C`` for every function (Nisan 1991), :func:`cert_profile`
reads ``bs = s`` off the profile whenever ``s = C``, as on every NCF, and
runs the dynamic program only when ``s < C``.

:func:`cert_profile` walks unless it is given a decomposition whose cover
holds and no witnesses are asked for.  The decomposition only proposes the
n + 1 certificate cubes of the closed form (each a variable set and its
values) to :func:`_ncf_cover`, each checked constant on the table with one
AND: once every word of fiber ``b`` lies in a constant cube of at most
``s_b`` variables, ``s_b <= C_b <= s_b``, both bounds from the table, so a
wrong decomposition costs only the walk.  ``analyze`` passes an NCF's, and
its ``certificate_formula_matches_bruteforce`` compares the formula with
this table-checked value; ``verify`` passes none, so it stays a search.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .core import (
    BooleanFunction,
    NcflabError,
    Word,
    _check_guard,
    _check_items,
    _literals,
    _one_indices,
    full_mask,
    index_of,
    variable_mask,
    words,
)
from .ncf import LayerDecomposition, _check_decomposition

#: The certificate sweep folds one table of 2^n bits for each of up to 2^n free
#: sets, about seven big-integer operations each.  At n = 14 its prune and its
#: sensitivity bound leave an NCF 355-662 folds (under 2 ms) and threshold-7
#: 9,437 (about 20 ms).
#: It keeps at most n(n + 1)/2 tables on its stack (about 210 KiB at n = 14).
MAX_CERTIFICATE_ARITY = 14
#: Block sensitivity keeps four lists of 2^n tables of 2^n bits (32 KiB at
#: n = 8) and makes about bs * 3^n / 2 big-integer AND/ORs (5 ms at n = 8).
#: cert_profile runs it only when s < C, but checks this guard first all the same.
MAX_BLOCK_SENSITIVITY_ARITY = 8


class CertificateWitness(namedtuple("CertificateWitness", "word size certificate")):
    """A minimum certificate found for one word.

    ``certificate`` is the first subset in (cardinality, lexicographic)
    order whose restriction is constant, so ties between equally small
    certificates break deterministically.  Minimality is structural: no
    proper subset can work, as it would have been found at a smaller
    cardinality.
    """

    __slots__ = ()
    word: Word
    size: int
    certificate: tuple[int, ...]


class ComplexityProfile(namedtuple(
    "ComplexityProfile", "c0 c1 c sensitivity block_sensitivity witnesses degenerate"
)):
    """Exact complexity measures of one function.

    ``degenerate`` marks constant functions, whose empty output fiber makes
    the corresponding maximum 0 by convention.
    """

    __slots__ = ()

    def __new__(
        cls, c0: int, c1: int, c: int, sensitivity: int, block_sensitivity: int | None = None,
        witnesses: tuple[CertificateWitness, ...] | None = None, degenerate: bool = False,
    ):
        if c != max(c0, c1):
            raise NcflabError("profile invariant violated: c != max(c0, c1)")
        if block_sensitivity is not None:
            if not sensitivity <= block_sensitivity <= c:
                raise NcflabError("profile invariant violated: s <= bs <= c")
        fields = c0, c1, c, sensitivity, block_sensitivity, witnesses, degenerate
        return tuple.__new__(cls, fields)

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
    ``x_{p+1} = 0``, and the low half of the derivative: those of them where
    flipping ``x_{p+1}`` changes ``f``."""
    bits = f.bits
    return [
        (1 << p, lo, (bits ^ bits >> (1 << p)) & lo)
        for p, (lo, _) in enumerate(_literals(f.arity))
    ]


def _fold(table: int, step: tuple[int, int, int]) -> int:
    """Free one more variable in a nonconstancy table, whose bit ``w`` is 1
    iff ``f`` is not constant on the words agreeing with ``w`` outside the
    free set.  The joined subcube is nonconstant iff either half is or ``f``
    differs across them: collapse onto the low word, copy up."""
    span, low, flip = step
    t = (table | table >> span) & low | flip
    return t | t << span


def _fold_free(table: int, steps: list, positions) -> int:
    """``table`` with the variables at ``positions`` freed, one :func:`_fold` each."""
    for p in positions:
        table = _fold(table, steps[p])
    return table


def _never_constant(f: BooleanFunction, steps: list, height: int) -> list[int]:
    """``never[j]``: the words at which ``f`` is constant on no subcube with
    ``j`` free variables, for every ``j <= height``, from a depth-first walk
    over free sets that folds with ``steps``, the :func:`_fold_steps` of
    ``f``.  No level above ``height`` is folded: those stay full.

    A child adds one variable above its parent's top one, and its table is
    one :func:`_fold` of the parent's; only the tables on the stack are kept.
    Children are visited in increasing variable order, the largest subtree
    first.

    The walk prunes a node whose table ``t`` already holds every word of
    ``never[min(top, height)]``, ``top`` being the size of its deepest
    descendants (a full table is the plain case).  This is exact.  Freeing
    more variables never makes a nonconstant subcube constant, so every
    descendant's table contains ``t``, and the masks only shrink: no
    descendant could clear a word from that level.  Nor from any level below
    it, because the masks grow with ``j`` throughout the walk: a node's
    prefixes are folded before it, and their tables lie inside its own.  For
    the same reason the walk stops once ``never[height]`` is empty.
    """
    n, full = f.arity, full_mask(f.arity)
    never = [0] + [full] * n
    stack = [(0, 0, 0)]  # (table, first variable to free, size of its free set)
    while stack and never[height]:
        table, start, size = stack.pop()
        if never[min(size + n - start, height)] | table == table:
            continue
        size += 1
        # A child at the height, or with no variable above it, has no
        # tracked descendant: it is folded but not pushed.
        last = n - 1 if size < height else 0
        for p in range(n - 1, start - 1, -1):
            t = _fold(table, steps[p])
            if t != full:
                never[size] &= t
                if p < last:
                    stack.append((t, p + 1, size))
    return never


def _ncf_cover(f: BooleanFunction, layers, sensitivities: tuple[int, int]) -> bool:
    """Whether the NCF certificates proposed by ``layers`` (a decomposition's
    ``(variable, input)`` layers) show ``C_b <= s_b`` on the table.

    Each candidate is a cube, a set of variables at fixed values, from the
    closed form.  Layer ``t``'s quiet mask ``M_t`` holds the words where
    each of its variables is off its input.  Each ``(v, a)`` of layer ``t``
    proposes ``x_v = a`` with every earlier layer of the other parity quiet,
    and the last cube is every layer of the last layer's parity quiet.  A
    cube of ``k`` variables on which ``f`` is ``b`` (one AND) certifies its
    words for fiber ``b`` if ``k <= s_b``, and fiber ``b`` is covered when
    its words all lie in such cubes.
    """
    n, bits = f.arity, f.bits
    full, literals = full_mask(n), _literals(n)
    quiet, sizes = [full, full], [0, 0]  # per parity: the AND of the earlier M_u, their size
    cubes = []  # (cube, number of fixed variables)
    for t, layer in enumerate(layers):
        p = t & 1
        other, size = quiet[p ^ 1], sizes[p ^ 1] + 1
        cubes += [(other & literals[v - 1][a], size) for v, a in layer]
        for v, a in layer:
            quiet[p] &= literals[v - 1][a ^ 1]
        sizes[p] += len(layer)
    last = (len(layers) - 1) & 1
    cubes.append((quiet[last], sizes[last]))
    s0, s1 = sensitivities
    covered0 = covered1 = 0
    for cube, size in cubes:
        held = bits & cube
        if not held:
            if size <= s0:
                covered0 |= cube
        elif held == cube and size <= s1:
            covered1 |= cube
    return covered0 | bits == full and covered1 & bits == bits


def _first_certificates(f: BooleanFunction, steps: list, never: list[int]) -> tuple:
    """Each word's first certificate in (cardinality, lexicographic) order.

    ``never`` gives every word's ``C(f, w)``, so for each size ``k`` only
    the size-``k`` sets are scanned, each table built by ``n - k`` folds
    with ``steps``, until every word with ``C(f, w) = k`` is certified.
    """
    n = f.arity
    first = [()] * (1 << n)
    reach = never + [full_mask(n)]
    for k in range(n + 1):
        pending = reach[n - k + 1] & ~reach[n - k]
        for subset in itertools.combinations(range(1, n + 1), k):
            if not pending:
                break
            table = _fold_free(0, steps, [p for p in range(n) if p + 1 not in subset])
            new = pending & ~table
            for idx in _one_indices(new):
                first[idx] = subset
            pending ^= new
    return tuple(
        tuple.__new__(CertificateWitness, (word, len(subset), subset))
        for word, subset in zip(words(n), first)
    )


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
    _check_guard("certificate", f.arity, max_arity)
    word = tuple(_check_items(word, "word"))
    value = f.evaluate(word)  # checks the word's length and bits
    n, full = f.arity, full_mask(f.arity)
    # agree[i - 1]: the words whose x_i equals word's
    agree = [variable_mask(n, i) ^ (0 if b else full) for i, b in enumerate(word, 1)]
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            cube = functools.reduce(int.__and__, (agree[i - 1] for i in subset), full)
            if f.bits & cube == (cube if value else 0):
                return CertificateWitness(tuple(map(int, word)), k, subset)  # bools as 0/1
    raise NcflabError("internal error: the full variable set is always a certificate")


def sensitivity_at(f: BooleanFunction, word) -> int:
    """Number of single-bit flips of ``word`` that change the output."""
    word = tuple(_check_items(word, "word"))
    value = f.evaluate(word)  # checks the word's length and bits
    idx = index_of(word)
    return sum(1 for p in range(f.arity) if f.bit(idx ^ (1 << p)) != value)


def _sensitivity_counts(steps: list) -> list[int]:
    """Bit-sliced per-word sensitivities from the :func:`_fold_steps` of
    ``f``: bit ``w`` of ``counts[b]`` is bit ``b`` of the number of positions
    whose flip changes ``f`` at ``w``.

    Each step adds its whole derivative, ``flip | flip << span``, with a
    ripple carry.
    """
    counts: list[int] = []
    for span, _, flip in steps:
        carry = flip | flip << span
        for b, level in enumerate(counts):
            counts[b], carry = level ^ carry, level & carry
            if not carry:
                break
        if carry:
            counts.append(carry)
    return counts


def _max_count(counts: list[int], words: int) -> int:
    """The largest count over the words in the mask ``words`` (0 if none),
    read from the top counter bit down."""
    best = 0
    for b in reversed(range(len(counts))):
        higher = words & counts[b]
        if higher:
            best, words = best | 1 << b, higher
    return best


def sensitivity(f: BooleanFunction) -> int:
    """Maximum of the per-word sensitivity over all words."""
    return _max_count(_sensitivity_counts(_fold_steps(f)), full_mask(f.arity))


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
    _check_guard("block sensitivity", f.arity, max_arity)
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
    decomposition: LayerDecomposition | None = None,
) -> ComplexityProfile:
    """Exact complexity profile of ``f`` from one walk over free sets.

    :func:`_never_constant` marks, for each ``j``, the words at which ``f``
    is constant on no subcube with ``j`` free variables, so ``C(f, w) = n -
    max{j : w not in never[j]}`` and ``c_b = n - max{j : fiber_b & never[j]
    == 0}``.  An empty fiber gives 0 and flags the profile degenerate.

    The walk is bounded by sensitivity.  Every certificate of a word holds
    all of its sensitive positions, so ``C_b >= s_b``, the largest
    sensitivity on fiber ``b``, for every function, and the maximum above
    lies at or below ``n - s_b``.  The walk runs to the height ``n -
    min(s0, s1)``: every level up to it is exact, and a nonempty fiber meets
    every level above it, which stay full.  On an NCF (where ``s = C``) it
    confirms a bound it already knows.  The height comes from the table
    alone, so the result stays a brute-force answer, and a function with
    ``C_b > s_b`` still gets its larger ``c_b``.

    Witnesses come from a second pass in :func:`certificate_at`'s order, so
    they match it word for word; they need every word's size, so that path
    walks to height ``n``.  All three passes read one table of
    :func:`_fold_steps`.  Witness collection and block sensitivity are
    optional because of their cost.

    Block sensitivity lies between the two measures, ``s <= bs <= C``, so
    when they meet, as on every NCF, it is ``s``; only when ``s < C`` does
    :func:`block_sensitivity` run its dynamic program.  Its guard is checked
    before the walk either way, so whether ``bs`` is reported never depends
    on the function.

    It walks unless it is given a decomposition of ``f``'s arity whose cover
    holds, with no witnesses asked for: then ``c0, c1 = s0, s1`` is read off
    :func:`_ncf_cover`, which checks the n + 1 proposed certificate cubes on
    the table, one AND each.
    ``analyze`` passes an NCF's; ``verify`` passes none, so it still searches.
    """
    _check_guard("certificate", f.arity, max_arity)
    if with_block_sensitivity:
        _check_guard("block sensitivity", f.arity, block_max_arity)
    _check_decomposition(decomposition, f.arity)
    n = f.arity
    fibers = (full_mask(n) ^ f.bits, f.bits)
    steps = _fold_steps(f)
    counts = _sensitivity_counts(steps)
    s0, s1 = (_max_count(counts, fiber) for fiber in fibers)
    if decomposition is not None and not with_witnesses and _ncf_cover(
        f, decomposition.layers, (s0, s1)
    ):
        c0, c1, witnesses = s0, s1, None  # s_b <= C_b <= s_b
    else:
        # Witnesses need every word's size.  At either height, fiber b meets every
        # level above n - s_b, and never[0] is 0: fixing all n variables certifies.
        never = _never_constant(f, steps, n if with_witnesses else n - min(s0, s1))
        c0, c1 = (n - max(j for j in range(n + 1) if not b & never[j]) for b in fibers)
        witnesses = _first_certificates(f, steps, never) if with_witnesses else None
    s, c = max(s0, s1), max(c0, c1)
    bs = None
    if with_block_sensitivity:
        bs = s if s == c else block_sensitivity(f, max_arity=block_max_arity)
    return ComplexityProfile(
        c0=c0,
        c1=c1,
        c=c,
        sensitivity=s,
        block_sensitivity=bs,
        witnesses=witnesses,
        degenerate=not all(fibers),
    )
