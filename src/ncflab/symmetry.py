"""Variable symmetry: equivalence classes, symmetry level, strong asymmetry.

Two variables are equivalent when swapping them leaves the truth table
unchanged.  The relation is an equivalence (the automorphisms of a function
form a group), and its classes partition the variables.  A function with
``s`` classes is *s-symmetric*; ``s <= n - 1`` makes it partially symmetric
and ``s = 1`` totally symmetric.  A function is *strongly asymmetric* when
the identity is its only variable permutation fixing the table.

The automorphism search backtracks over the images of ``x1, x2, ...`` and
maps a variable only to one with the same weight and the same pair weights
with the variables already mapped, so a function whose variables the
weights tell apart costs far less than n! table comparisons.  A function
whose weights tell nothing apart, such as a totally symmetric one, still
costs n!.  For nested canalizing functions strong asymmetry is equivalent
to being n-symmetric, which gives a fast path past that search above its
guard; the equivalence genuinely fails outside that class (see the
6-variable pentagon function in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil

from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
    _swap_bits,
    permutation_cycles,
    variable_mask,
)
from .ncf import LayerDecomposition, NcfClassification, _literals, decompose

#: The automorphism search prunes by variable weights, but a function they
#: cannot tell apart (a totally symmetric one) still costs n! permutations.
MAX_AUTOMORPHISM_ARITY = 8


@dataclass(frozen=True)
class SymmetryPartition:
    """The symmetric classes: disjoint, sorted, covering ``1..arity``."""

    arity: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        previous_min = 0
        for cls in self.classes:
            if not cls or list(cls) != sorted(cls):
                raise InvalidInputError(f"bad symmetry class {cls!r}")
            if cls[0] <= previous_min:
                raise InvalidInputError("classes must be sorted by smallest member")
            previous_min = cls[0]
            for i in cls:
                if not 1 <= i <= self.arity or i in seen:
                    raise InvalidInputError(f"classes do not partition 1..{self.arity}")
                seen.add(i)
        if len(seen) != self.arity:
            raise InvalidInputError(f"classes do not partition 1..{self.arity}")

    @property
    def level(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry summary of one function."""

    arity: int
    s: int
    partially_symmetric: bool
    totally_symmetric: bool
    strongly_asymmetric: bool
    nontrivial_automorphism: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.strongly_asymmetric and self.s != self.arity:
            raise NcflabError("report invariant violated: strong asymmetry needs s = n")

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
    f._check_var(i)
    f._check_var(j)
    i, j = sorted((i, j))
    mi, mj = variable_mask(f.arity, i), variable_mask(f.arity, j)
    return i == j or _swap_fixes(f.bits, mi, mj, (1 << (j - 1)) - (1 << (i - 1)))


def _swap_fixes(bits: int, mi: int, mj: int, delta: int) -> bool:
    """Whether swapping ``x_i`` and ``x_j`` (``i < j``, masks ``mi``, ``mj``) fixes
    ``bits``: the entries with ``x_i = 1, x_j = 0``, moved up by ``delta`` =
    ``2**(j-1) - 2**(i-1)``, must equal those with ``x_i = 0, x_j = 1``."""
    return (bits & mi & ~mj) << delta == bits & mj & ~mi


def partition(f: BooleanFunction) -> SymmetryPartition:
    """Symmetric classes of ``f``, each variable tested against class leaders.

    Symmetry of variables is an equivalence relation, so a variable joins a
    class as soon as it is equivalent to the class's first (smallest) member.
    The swap test runs on the raw table with the per-arity variable masks.
    """
    n, bits = f.arity, f.bits
    literals = _literals(n)
    classes: list[list[int]] = []
    for j, (_, mj) in enumerate(literals, 1):
        for members in classes:
            i = members[0]
            if _swap_fixes(bits, literals[i - 1][1], mj, (1 << (j - 1)) - (1 << (i - 1))):
                members.append(j)
                break
        else:
            classes.append([j])
    return SymmetryPartition(n, tuple(map(tuple, classes)))


def symmetry_level(f: BooleanFunction) -> int:
    """The number of symmetric classes (``s`` in "s-symmetric")."""
    return partition(f).level


def cycle_notation(sigma) -> str:
    """Disjoint-cycle string of a 1-based one-line permutation.

    Cycles start at their smallest member and are listed by smallest member;
    fixed points are omitted.  The identity renders as ``"()"``.
    """
    sigma = tuple(sigma)
    cycles = permutation_cycles(sigma, len(sigma))
    return "".join("(" + " ".join(map(str, cycle)) + ")" for cycle in cycles) or "()"


def _automorphisms(f: BooleanFunction):
    """Non-identity permutations fixing ``f``, in ``itertools.permutations`` order.

    An automorphism preserves the weight ``|f & x_i|`` of every variable and
    ``|f & x_i & x_k|`` of every pair.  The search backtracks over
    ``sigma(1), sigma(2), ...`` with images tried in increasing order.  For
    every unmapped variable it keeps the images that agree with both weights
    given the variables mapped so far, and it drops a partial map as soon as
    one of those sets is empty.  Every surviving permutation except the
    identity still makes the full table comparison.
    """
    n, bits = f.arity, f.bits
    if n < 2:
        return  # the identity is the only permutation
    literals = _literals(n)
    # Sets of variables are bitmasks in which bit c stands for x_c.
    ones: list[int] = []
    with_ones: dict[int, int] = {}
    # with_pair[j][w]: the variables x_c, c != j, with |f & x_c & x_j| = w;
    # later[j-1]: the pair weights of x_{j+1}, ..., x_n with x_j
    with_pair: list[dict[int, int]] = [{} for _ in range(n + 1)]
    later: list[list[int]] = []
    for j, (_, mj) in enumerate(literals, 1):
        high = bits & mj
        w = high.bit_count()
        ones.append(w)
        with_ones[w] = with_ones.get(w, 0) | 1 << j
        later.append([(high & mc).bit_count() for _, mc in literals[j:]])
        for c, w in enumerate(later[-1], j + 1):
            with_pair[j][w] = with_pair[j].get(w, 0) | 1 << c
            with_pair[c][w] = with_pair[c].get(w, 0) | 1 << j

    identity = tuple(range(1, n + 1))
    images: list[int] = []  # sigma(1), ..., sigma(d) at depth d
    # Stacks indexed by depth d: the images of x_{d+1} not tried yet, and the
    # images each of x_{d+2}, ..., x_n may still take.
    untried = [with_ones[ones[0]]]
    allowed = [[with_ones[w] for w in ones[1:]]]
    while untried:
        choices = untried[-1]
        if not choices:
            untried.pop()
            allowed.pop()
            if images:
                images.pop()
            continue
        low = choices & -choices
        untried[-1] = choices ^ low
        j = low.bit_length() - 1
        d = len(images)
        fits = with_pair[j].get
        if d == n - 2:  # x_n takes the one image left, if it fits
            image = allowed[-1][0] & fits(later[d][0], 0)
            if image:
                sigma = (*images, j, image.bit_length() - 1)
                if sigma != identity and f.permute_inputs(sigma).bits == bits:
                    yield sigma
            continue
        rest = [a & fits(w, 0) for a, w in zip(allowed[-1], later[d])]
        if 0 in rest:
            continue
        images.append(j)
        untried.append(rest[0])
        allowed.append(rest[1:])


def is_strongly_asymmetric(
    f: BooleanFunction, *, max_arity: int = MAX_AUTOMORPHISM_ARITY
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether only the identity permutation fixes ``f``; witness otherwise.

    Within the guard every non-identity permutation is tested; when several
    fix the table the reported witness is the automorphism whose
    cycle-notation string sorts first, which keeps the output deterministic
    and matches the cycle-string form used in reports.  Above the guard a
    nested canalizing input falls back to the equivalence with being
    n-symmetric (witnessed by a transposition inside a symmetric class);
    anything else is a guard error.
    """
    if f.arity <= max_arity:
        witness = min(_automorphisms(f), key=cycle_notation, default=None)
        return witness is None, witness
    strong, witness, _ = _ncf_symmetry(f, decompose(f), max_arity)
    return strong, witness


def _ncf_symmetry(
    f: BooleanFunction, classification: NcfClassification, max_arity: int
) -> tuple[bool, tuple[int, ...] | None, SymmetryPartition]:
    """Strong asymmetry, its witness and the classes above the automorphism guard.

    Only nested canalizing functions pass the guard: ``classification`` is
    ``decompose(f)``, taken from a caller that already has it.
    """
    if not classification.is_ncf:
        raise GuardExceededError("automorphism", f.arity, max_arity)
    classes = partition(f)
    n = classes.arity
    if classes.level == n:
        return True, None, classes
    witness_class = next(cls for cls in classes.classes if len(cls) >= 2)
    sigma = list(range(1, n + 1))
    a, b = witness_class[0], witness_class[1]
    sigma[a - 1], sigma[b - 1] = b, a
    return False, tuple(sigma), classes


def has_nontrivial_automorphism(f: BooleanFunction) -> bool:
    """Whether a non-identity permutation fixes ``f``: a transposition, tried
    first, or else the automorphism search.  Transposed tables are built by
    ``core._swap_bits``, the kernel of ``permute_inputs``, not ``partition``'s
    comparison, so ``verify`` still sets two kernels against each other."""
    n, bits = f.arity, f.bits
    if any(_swap_bits(bits, n, i, j) == bits for i, j in combinations(range(1, n + 1), 2)):
        return True
    return next(_automorphisms(f), None) is not None


def symmetry_report(
    f: BooleanFunction, *, max_arity: int = MAX_AUTOMORPHISM_ARITY
) -> tuple[SymmetryReport, SymmetryPartition]:
    """Full symmetry summary plus the underlying partition."""
    return _symmetry_report(f, max_arity, None)


def _symmetry_report(
    f: BooleanFunction, max_arity: int, classification: NcfClassification | None
) -> tuple[SymmetryReport, SymmetryPartition]:
    """:func:`symmetry_report`, reusing ``decompose(f)`` if the caller has it.

    Either way ``partition`` runs once, after the automorphism guard.
    """
    if f.arity <= max_arity:
        strong, witness = is_strongly_asymmetric(f, max_arity=max_arity)
        classes = partition(f)
    else:
        if classification is None:
            classification = decompose(f)
        strong, witness, classes = _ncf_symmetry(f, classification, max_arity)
    s = classes.level
    report = SymmetryReport(
        arity=f.arity,
        s=s,
        partially_symmetric=s <= f.arity - 1,
        totally_symmetric=s == 1,
        strongly_asymmetric=strong,
        nontrivial_automorphism=witness,
    )
    return report, classes


@dataclass(frozen=True)
class NcfSymmetryChecks:
    """Structural facts tying a decomposition to its symmetry partition.

    The five checks: every symmetric class sits inside one layer with one
    stored input; every layer holds one or two classes; the class count is
    ``r1 + 2*r2`` (layers with one, resp. two, distinct inputs); and the two
    bound chains ``ceil(s/2) <= r <= min(n-1, s)`` and
    ``r <= s <= min(2r, n)``.
    """

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

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "r": self.r,
            "r1": self.r1,
            "r2": self.r2,
            "classes_within_layers": self.classes_within_layers,
            "classes_per_layer": self.classes_per_layer,
            "class_count_rule": self.class_count_rule,
            "layer_count_bounds": self.layer_count_bounds,
            "symmetry_level_bounds": self.symmetry_level_bounds,
            "all_pass": self.all_pass,
        }


def _layer_classes(d: LayerDecomposition) -> list[int]:
    """Symmetric classes per layer of an NCF: its distinct stored inputs."""
    return [len({inp for _, inp in layer}) for layer in d.layers]


def ncf_symmetry_checks(
    d: LayerDecomposition, p: SymmetryPartition
) -> NcfSymmetryChecks:
    """Run the five structural checks; ``d`` and ``p`` must share the arity."""
    if d.arity != p.arity:
        raise InvalidInputError(
            f"decomposition arity {d.arity} does not match partition arity {p.arity}"
        )
    n = d.arity
    layer_of: dict[int, int] = {}
    input_of: dict[int, int] = {}
    for layer_index, layer in enumerate(d.layers):
        for var, inp in layer:
            layer_of[var] = layer_index
            input_of[var] = inp

    classes_within_layers = all(
        len({layer_of[v] for v in cls}) == 1 and len({input_of[v] for v in cls}) == 1
        for cls in p.classes
    )

    classes_touching: dict[int, set[int]] = {i: set() for i in range(len(d.layers))}
    for class_index, cls in enumerate(p.classes):
        for v in cls:
            classes_touching[layer_of[v]].add(class_index)
    classes_per_layer = all(
        len(touching) in (1, 2) for touching in classes_touching.values()
    )

    r = len(d.layers)
    per_layer = _layer_classes(d)
    r1, r2 = per_layer.count(1), per_layer.count(2)
    s = p.level
    class_count_rule = s == r1 + 2 * r2

    layer_count_bounds = ceil(s / 2) <= r <= min(n - 1, s)
    symmetry_level_bounds = r <= s <= min(2 * r, n)

    return NcfSymmetryChecks(
        arity=n,
        s=s,
        r=r,
        r1=r1,
        r2=r2,
        classes_within_layers=classes_within_layers,
        classes_per_layer=classes_per_layer,
        class_count_rule=class_count_rule,
        layer_count_bounds=layer_count_bounds,
        symmetry_level_bounds=symmetry_level_bounds,
    )
