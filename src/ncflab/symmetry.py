"""Variable symmetry: equivalence classes, symmetry level, strong asymmetry.

Two variables are equivalent when swapping them leaves the truth table
unchanged.  The relation is an equivalence (the automorphisms of a function
form a group), and its classes partition the variables.  A function with
``s`` classes is *s-symmetric*; ``s <= n - 1`` makes it partially symmetric
and ``s = 1`` totally symmetric.  A function is *strongly asymmetric* when
the identity is its only variable permutation fixing the table.

A permutation fixing the table keeps the weight ``|f & x_i|`` of every
variable, so both pair kernels filter by it: :func:`_classes`, the class
kernel of :func:`partition` and :func:`symmetry_level`, compares a variable
only with class leaders of its own weight, and
:func:`has_nontrivial_automorphism` answers ``False`` when the weights are
pairwise distinct and else tries only transpositions of equal weights.  The
filter only skips pairs; each kernel still decides every pair it keeps by
its own table test, so ``verify`` still sets the two against each other.

The automorphism search keys each variable by its weight and its
influence, both kept by every permutation fixing the table: pairwise-distinct
keys end it at once, and otherwise it maps a variable only within its key
cell, to one whose pair weights with the variables already mapped agree.  It
writes cycle strings in increasing order, so its first hit is the reported
witness, and a totally symmetric input makes one table comparison.  Its
slow case is a Fano-like table, whose weights, influences and pair weights
are all equal while few permutations fix it.  For nested canalizing
functions strong asymmetry is equivalent to being n-symmetric, which gives
a path past that search above its guard; the equivalence genuinely fails
outside that class (see the 6-variable pentagon function in the tests).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, chain, combinations
from math import ceil

from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
    _check_int,
    _check_items,
    _check_var,
    _literals,
    _permute_bits,
    _swap_bits,
    permutation_cycles,
)
from .ncf import LayerDecomposition, _check_decomposition, _layer_classes, compose, decompose

#: Above this arity only NCFs pass, witnessed by a transposition in a
#: symmetric class; raising it would change the witness of NCFs with n >= 9.
MAX_AUTOMORPHISM_ARITY = 8


class SymmetryPartition(namedtuple("SymmetryPartition", "arity classes")):
    """The symmetric classes: disjoint, sorted, covering ``1..arity``."""

    __slots__ = ()

    def __new__(cls, arity: int, classes: tuple[tuple[int, ...], ...]):
        arity, previous_min = _check_int(arity, "arity"), 0
        classes = tuple(
            tuple(_check_items(members, "symmetry class"))
            for members in _check_items(classes, "symmetry classes")
        )
        for members in classes:
            for i in members:  # before sorted compares them
                _check_var(i, arity)
            if not members or list(members) != sorted(members):
                raise InvalidInputError(f"bad symmetry class {members!r}")
            if members[0] <= previous_min:
                raise InvalidInputError("classes must be sorted by smallest member")
            previous_min = members[0]
        if sorted(chain.from_iterable(classes)) != list(range(1, arity + 1)):
            raise InvalidInputError(f"classes do not partition 1..{arity}")
        return tuple.__new__(cls, (arity, classes))

    @classmethod
    def _unchecked(cls, arity: int, classes: tuple[tuple[int, ...], ...]):
        """Build without validation, for classes that are valid by construction."""
        return tuple.__new__(cls, (arity, classes))

    @property
    def level(self) -> int:
        return len(self.classes)


class SymmetryReport(namedtuple("SymmetryReport", (
    "arity s partially_symmetric totally_symmetric strongly_asymmetric nontrivial_automorphism"
))):
    """Symmetry summary of one function."""

    __slots__ = ()

    def __new__(
        cls, arity: int, s: int, partially_symmetric: bool, totally_symmetric: bool,
        strongly_asymmetric: bool, nontrivial_automorphism: tuple[int, ...] | None = None,
    ):
        if strongly_asymmetric and s != arity:
            raise NcflabError("report invariant violated: strong asymmetry needs s = n")
        return tuple.__new__(cls, (arity, s, partially_symmetric, totally_symmetric,
                                   strongly_asymmetric, nontrivial_automorphism))

    def to_json_dict(self, classes: SymmetryPartition | None = None) -> dict:
        witness = (
            cycle_notation(self.nontrivial_automorphism)
            if self.nontrivial_automorphism
            else None
        )
        return {
            "s": self.s,
            "partially_symmetric": self.partially_symmetric,
            "totally_symmetric": self.totally_symmetric,
            "strongly_asymmetric": self.strongly_asymmetric,
            "witness": witness,
            "classes": (
                [list(cls) for cls in classes.classes] if classes is not None else None
            ),
        }


def equivalent(f: BooleanFunction, i: int, j: int) -> bool:
    """Whether swapping ``x_i`` and ``x_j`` fixes the truth table.

    ``equivalent(f, i, i)`` is true by convention.
    """
    return f.swap_inputs(i, j).bits == f.bits


def _classes(f: BooleanFunction) -> list[list[int]]:
    """Members of each symmetric class of ``f``, tested against class leaders.

    Symmetry of variables is an equivalence relation, so a variable joins a
    class as soon as it is equivalent to the class's first (smallest) member
    ``x_i``: the entries with ``x_i = 1, x_j = 0``, moved up by
    ``2**(j-1) - 2**(i-1)``, must equal those with ``x_i = 0, x_j = 1``.
    The test runs inline on the raw table with the per-arity literal masks,
    and only against leaders of ``x_j``'s weight ``|f & x_j|``, since a swap
    that fixes ``f`` keeps every weight: the weights skip tests but decide
    none.  Variables join classes in increasing order, so the classes come
    out sorted and partition ``1..n``.
    """
    n, bits = f.arity, f.bits
    # Each class: its leader's weight, masks for x_i = 1 and x_i = 0,
    # 2**(i-1), members.
    classes: list[tuple[int, int, int, int, list[int]]] = []
    for j, (low, high) in enumerate(_literals(n), 1):
        off, on, span = bits & low, bits & high, 1 << (j - 1)
        weight = on.bit_count()
        for weight_i, high_i, low_i, span_i, members in classes:
            if weight_i == weight and (off & high_i) << (span - span_i) == on & low_i:
                members.append(j)
                break
        else:
            classes.append((weight, high, low, span, [j]))
    return [c[4] for c in classes]


def partition(f: BooleanFunction) -> SymmetryPartition:
    """Symmetric classes of ``f``: :func:`_classes`, valid by construction, unchecked."""
    return SymmetryPartition._unchecked(f.arity, tuple(map(tuple, _classes(f))))


def symmetry_level(f: BooleanFunction) -> int:
    """The number of symmetric classes (``s`` in "s-symmetric"), no partition built."""
    return len(_classes(f))


def cycle_notation(sigma) -> str:
    """Disjoint-cycle string of a 1-based one-line permutation.

    Cycles start at their smallest member and are listed by smallest member;
    fixed points are omitted.  The identity renders as ``"()"``.
    """
    sigma = tuple(_check_items(sigma, "permutation"))
    cycles = permutation_cycles(sigma, len(sigma))
    return "".join("(" + " ".join(map(str, cycle)) + ")" for cycle in cycles) or "()"


def _automorphisms(f: BooleanFunction):
    """Non-identity permutations fixing ``f``, in increasing order of their
    :func:`cycle_notation` strings: the first one is the report's witness.

    The search spells the string token by token, trying choices in text
    order, so depth-first order is string order.  After a closed cycle it
    first ends the string (every unwritten variable fixed), then opens a
    cycle at an unwritten ``b`` (those below ``b`` fixed, built only as far
    as the search reaches); inside a cycle it goes on to an unwritten ``y``
    before it closes, since ``' ' < ')'``.  Numbers compare as text ("10"
    before "2"); each is followed by ``' '`` or ``')'``, which sort before
    every digit, so "1" comes before "10".

    An automorphism keeps each variable's key, its weight ``|f & x_i|`` and
    influence (the input pairs differing only in ``x_i`` on which ``f``
    differs), and the weight ``|f & x_i & x_k|`` of every pair.  So distinct
    keys end the search at once; else a variable starts from its key cell,
    one alone in its cell is fixed up front, and a variable keeps only the
    images whose pair weights agree with the variables already mapped: a
    partial map dies once such a set is empty.  Each complete map left makes
    one comparison of raw tables; the identity none.  So a Fano-like table,
    whose keys and pair weights are all equal, pays for every map.
    """
    n, bits = f.arity, f.bits
    literals = _literals(n)
    keys = [((bits & high).bit_count(), ((bits ^ bits >> (1 << i)) & low).bit_count())
            for i, (low, high) in enumerate(literals)]
    if len(set(keys)) == n:
        return  # the keys tell every variable apart
    # Sets of variables are bitmasks in which bit c stands for x_c.
    cells: dict[tuple[int, int], int] = {}
    for j, key in enumerate(keys, 1):
        cells[key] = cells.get(key, 0) | 1 << j
    # ``allowed`` maps each variable without an image that may move, in
    # increasing order, to the images it may still take.
    allowed = {j: cells[key] for j, key in enumerate(keys, 1) if cells[key] != 1 << j}
    # with_pair[j][w]: the x_c in allowed, c != j, with pair[j][c] = |f & x_j & x_c| = w
    pair = [{} for _ in range(n + 1)]
    with_pair: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for j, (_, mj) in enumerate(literals, 1):
        high = bits & mj
        for c in allowed:
            if c != j:
                pair[j][c] = w = (high & literals[c - 1][1]).bit_count()
                with_pair[j][w] = with_pair[j].get(w, 0) | 1 << c
    text_order = sorted(range(1, n + 1), key=str)
    image = list(range(n + 1))  # image[c] = sigma(c) of the partial map

    def place(allowed, c, y):
        """``allowed`` once ``sigma(c) = y``; None if a set runs empty."""
        fits, row = with_pair[y].get, pair[c]
        rest = {v: a & fits(row[v], 0) for v, a in allowed.items() if v != c}
        return rest if all(rest.values()) else None

    def fix(allowed, b):  # ``allowed`` once b is fixed too; None once a set is empty
        return place(allowed, b, b) if allowed is not None and allowed[b] >> b & 1 else None

    def open_cycle(allowed):
        # below[b]: ``allowed`` with every unwritten variable below b fixed,
        # built in turn and only as far as the text order reaches
        below, states = {}, zip(allowed, accumulate(allowed, fix, initial=allowed))
        for b in text_order:
            while b in allowed and b not in below:
                c, below[c] = next(states)
            state = below.get(b)
            if state is not None and state[b] != 1 << b:
                yield from in_cycle(state, b, b)

    def in_cycle(allowed, b, c):
        # The open cycle runs from b to c; b and the unwritten variables,
        # all above b, are the images not yet taken.
        here = allowed[c]
        for y in text_order:
            if y != b and here >> y & 1:
                rest = place(allowed, c, y)
                if rest is not None:
                    image[c] = y
                    yield from in_cycle(rest, b, y)
        rest = place(allowed, c, b) if c != b and here >> b & 1 else None
        if rest is not None:
            image[c] = b
            # Fixing a variable never drops another's own image from its
            # set, so the string may end here if each one still holds it.
            if all(a >> v & 1 for v, a in rest.items()):
                sigma = tuple(image[1:])
                if _permute_bits(bits, n, sigma) == bits:
                    yield sigma
            yield from open_cycle(rest)
        image[c] = c

    for j, key in enumerate(keys, 1):
        if cells[key] == 1 << j:  # every automorphism fixes x_j
            allowed = place(allowed, j, j)
    yield from open_cycle(allowed)


def is_strongly_asymmetric(
    f: BooleanFunction, *, max_arity: int = MAX_AUTOMORPHISM_ARITY
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether only the identity permutation fixes ``f``, else the witness of
    :func:`symmetry_report`."""
    report, _ = symmetry_report(f, max_arity=max_arity)
    return report.strongly_asymmetric, report.nontrivial_automorphism


def has_nontrivial_automorphism(f: BooleanFunction) -> bool:
    """Whether a non-identity permutation fixes ``f``: a transposition, tried
    first, or else the automorphism search.

    A permutation that fixes ``f`` keeps the weight ``|f & x_i|`` of every
    variable.  So an ``f`` whose weights are pairwise distinct, such as an
    n-symmetric NCF, is fixed by the identity alone and answered at once;
    otherwise only transpositions of equal weights are tried.  Each tried
    pair is still decided by its own table test: the transposed table is
    rebuilt whole by ``core._swap_bits``, the swap ``_permute_bits`` chains,
    while ``_classes`` compares two quarters of the table in place; both
    read the per-arity literal masks, and ``verify`` still sets them against
    each other."""
    n, bits = f.arity, f.bits
    weights = [(bits & high).bit_count() for _, high in _literals(n)]
    if len(set(weights)) == n:
        return False
    for i, j in combinations(range(1, n + 1), 2):
        if weights[i - 1] == weights[j - 1] and _swap_bits(bits, n, i, j) == bits:
            return True
    return next(_automorphisms(f), None) is not None


def symmetry_report(
    f: BooleanFunction,
    *,
    max_arity: int = MAX_AUTOMORPHISM_ARITY,
    decomposition: LayerDecomposition | None = None,
) -> tuple[SymmetryReport, SymmetryPartition]:
    """Full symmetry summary plus the underlying partition.

    Within the guard the witness is the automorphism search's first hit, the
    automorphism whose cycle-notation string sorts first.  Above it only a
    nested canalizing input passes: for an NCF, strong asymmetry is being
    n-symmetric, and the witness otherwise swaps the first two members of
    the first class with two or more members.  A ``decomposition`` of ``f``'s
    arity may be passed as a hint: above the guard it shows ``f`` an NCF
    only if it composes to ``f``, else ``decompose(f)`` decides.
    """
    n = f.arity
    _check_decomposition(decomposition, n)
    above = n > _check_int(max_arity, "guard 'automorphism' limit")
    # No NCF has fewer than two variables, and decompose refuses them.
    if above and not (
        decomposition and compose(decomposition) == f or n >= 2 and decompose(f).is_ncf
    ):
        raise GuardExceededError("automorphism", n, max_arity)
    classes = partition(f)
    wide = [cls for cls in classes.classes if len(cls) >= 2]
    if not above:
        witness = next(_automorphisms(f), None)
    elif wide:
        a, b = wide[0][:2]
        witness = tuple(b if i == a else a if i == b else i for i in range(1, n + 1))
    else:
        witness = None
    s = classes.level
    report = SymmetryReport(
        arity=n,
        s=s,
        partially_symmetric=s <= n - 1,
        totally_symmetric=s == 1,
        strongly_asymmetric=witness is None,
        nontrivial_automorphism=witness,
    )
    return report, classes


class NcfSymmetryChecks(namedtuple("NcfSymmetryChecks", (
    "arity s r r1 r2 classes_within_layers classes_per_layer class_count_rule"
    " layer_count_bounds symmetry_level_bounds"
))):
    """Structural facts tying a decomposition to its symmetry partition.

    The five checks: every symmetric class sits inside one layer with one
    stored input; every layer holds one or two classes; the class count is
    ``r1 + 2*r2`` (layers with one, resp. two, distinct inputs); and the two
    bound chains ``ceil(s/2) <= r <= min(n-1, s)`` and
    ``r <= s <= min(2r, n)``.
    """

    __slots__ = ()
    arity: int
    s: int
    r: int
    r1: int
    r2: int
    classes_within_layers: bool
    classes_per_layer: bool
    class_count_rule: bool
    layer_count_bounds: bool
    symmetry_level_bounds: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.classes_within_layers
            and self.classes_per_layer
            and self.class_count_rule
            and self.layer_count_bounds
            and self.symmetry_level_bounds
        )


def ncf_symmetry_checks(
    d: LayerDecomposition, p: SymmetryPartition
) -> NcfSymmetryChecks:
    """Run the five structural checks; ``d`` and ``p`` must share the arity."""
    if d.arity != p.arity:
        raise InvalidInputError(
            f"decomposition arity {d.arity} does not match partition arity {p.arity}"
        )
    n, r, s = d.arity, len(d.layers), p.level
    # Each variable's (layer, input) cell, and the cells each class meets.
    cell = {var: (t, inp) for t, layer in enumerate(d.layers) for var, inp in layer}
    cells = [{cell[v] for v in members} for members in p.classes]
    touching = Counter(t for here in cells for t in {t for t, _ in here})
    per_layer = _layer_classes(d)
    r1, r2 = per_layer.count(1), per_layer.count(2)
    return NcfSymmetryChecks(
        arity=n,
        s=s,
        r=r,
        r1=r1,
        r2=r2,
        classes_within_layers=all(len(here) == 1 for here in cells),
        classes_per_layer=all(touching[t] in (1, 2) for t in range(r)),
        class_count_rule=s == r1 + 2 * r2,
        layer_count_bounds=ceil(s / 2) <= r <= min(n - 1, s),
        symmetry_level_bounds=r <= s <= min(2 * r, n),
    )
