"""Nested canalizing functions: detection, canonical decomposition, rebuild.

A function is nested canalizing when it can be written in the canonical
nested form

    f = M1*(M2*(...*(M_{r-1}*(M_r + 1) + 1)...) + 1) + b        (r >= 2)
    f = (M1 + 1) + b                                            (r = 1)

where every M_i is a product of factors ``(x + a)`` over a nonempty group of
variables (its *layer*), the layers partition the variables, the last layer
has at least two variables, and '+' is XOR.  The representation is unique,
so the ordered layers, the stored inputs ``a`` and the output bit ``b`` form
a canonical data structure for the function.

The stored input of a variable is the value that *zeroes* its factor: the
factor ``(x + a)`` vanishes exactly when ``x = a``.  The degenerate one-layer
reading keeps the innermost ``(M_r + 1)`` wrapper, so a bare product such as
``x1*x2*x3`` is stored with ``b = 1``.

The layer form alone decides the paper's results on one NCF, each held to
a table oracle.  A variable's influence depends only on its layer (Li,
Adeyeye, Murrugarra, Aguilar and Laubenbacher, TCS 2013): :func:`decompose`
reads its candidate off the influences and confirms it through
:func:`compose`'s kernel, building no table.  :func:`ncf_cert_formula`
gives ``(C0, C1)``, and the symmetric classes are the variables of one
layer with one input, one or two per layer (:func:`_layer_classes`).
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .core import BooleanFunction, InvalidInputError, _check_bit, _check_int, _check_items
from .core import _check_kind, _decimal, _literals, full_mask

LayerEntries = tuple[tuple[int, int], ...]


class NotNcfReason(enum.Enum):
    """Why a function failed nested-canalizing classification.

    ``NO_CANALIZING_VARIABLE`` names the first nested subfunction with no
    canalizing variable, which need not be ``f`` itself: ``x1*x2 + x1*x3``
    gets it although ``x1`` canalizes it.
    """

    NO_CANALIZING_VARIABLE = "no canalizing variable"
    INESSENTIAL_VARIABLE = "inessential variable"
    CONSTANT = "constant function"


class LayerDecomposition(namedtuple("LayerDecomposition", "arity layers b")):
    """The unique canonical form: ordered layers plus the output bit.

    ``layers[k]`` is a tuple of ``(variable, input)`` pairs sorted by
    variable index; layer 0 is outermost.  Validity is enforced on
    construction: layers are nonempty, their variable sets partition
    ``1..arity``, the last layer has size at least two, and all inputs and
    ``b`` are bits.  The arity and variables are plain ints; a bool bit is
    stored as 0 or 1, so the text form reads it back.
    """

    __slots__ = ()

    def __new__(cls, arity: int, layers: tuple[LayerEntries, ...], b: int):
        _check_bit(b, "output bit")
        layers = tuple(_check_items(layers, "layers"))
        if not layers:
            raise InvalidInputError("a decomposition needs at least one layer")
        arity, seen = _check_int(arity, "arity"), set()
        layers = tuple(_entries(layer, arity) for layer in layers)
        for layer in layers:
            if not layer:
                raise InvalidInputError("layers must be nonempty")
            previous = 0
            for var, _ in layer:
                if var <= previous:
                    raise InvalidInputError(
                        "layer entries must be strictly increasing by variable"
                    )
                if var in seen:
                    raise InvalidInputError(f"variable {var} appears in two layers")
                seen.add(var)
                previous = var
        if len(seen) != arity:
            raise InvalidInputError("layers must partition the full variable set")
        if len(layers[-1]) < 2:
            raise InvalidInputError("the last layer must contain at least two variables")
        return tuple.__new__(cls, (arity, layers, int(b)))

    @classmethod
    def _unchecked(cls, arity: int, layers: tuple[LayerEntries, ...], b: int):
        """Build without validation, for layers that are valid by construction."""
        return tuple.__new__(cls, (arity, layers, b))

    @classmethod
    def from_pairs(cls, arity: int, layers, b: int) -> "LayerDecomposition":
        """Build from any iterable of iterables of pairs, sorting each layer."""
        arity = _check_int(arity, "arity")
        layers = _check_items(layers, "layers")
        return cls(arity, tuple(tuple(sorted(_entries(layer, arity))) for layer in layers), b)

    def structure(self) -> tuple[int, ...]:
        """The layer structure ``<k1, ..., kr>`` (sizes of the layers)."""
        return tuple(len(layer) for layer in self.layers)


def _entries(layer, arity: int) -> LayerEntries:
    """A layer's ``(variable, input)`` pairs in its order, each checked, as ints."""
    pairs = []
    for entry in _check_items(layer, "layer"):
        try:
            var, inp = entry
        except (TypeError, ValueError):
            raise InvalidInputError(f"bad layer entry {entry!r}") from None
        _check_int(var, "variable index", 1, arity)
        pairs.append((var, int(_check_bit(inp, "canalizing input"))))
    return tuple(pairs)


def _check_decomposition(d: LayerDecomposition | None, arity: int) -> None:
    """Refuse a decomposition hint that is not None or one of ``arity`` variables."""
    if d is not None and not (isinstance(d, LayerDecomposition) and d.arity == arity):
        raise InvalidInputError(
            f"decomposition must be a LayerDecomposition of arity {arity}, got {d!r}"
        )


class NcfClassification(namedtuple(
    "NcfClassification", "is_ncf decomposition reason", defaults=(None, None)
)):
    """Outcome of :func:`decompose`: either a decomposition or a reason."""

    __slots__ = ()
    is_ncf: bool
    decomposition: LayerDecomposition | None
    reason: NotNcfReason | None


# The not-NCF outcomes of :func:`decompose`, built once.
_CONSTANT = NcfClassification(False, reason=NotNcfReason.CONSTANT)
_INESSENTIAL = NcfClassification(False, reason=NotNcfReason.INESSENTIAL_VARIABLE)
_NOT_CANALIZING = NcfClassification(False, reason=NotNcfReason.NO_CANALIZING_VARIABLE)


def canalizing_pairs(f: BooleanFunction) -> list[tuple[int, int, int]]:
    """All triples ``(i, a, out)`` with ``f`` restricted to ``x_i = a`` constant ``out``.

    The list is exhaustive and sorted by ``(i, a)``.  A constant function
    vacuously yields all ``2n`` triples (every restriction is constant), so
    callers should test :attr:`BooleanFunction.is_constant` first when that
    degenerate answer matters.
    """
    if f.arity < 1:
        raise InvalidInputError("canalizing pairs need at least one variable")
    bits = f.bits
    return [
        (i, a, int(bits & half == half))
        for i, halves in enumerate(_literals(f.arity), 1)
        for a, half in enumerate(halves)
        if bits & half in (0, half)
    ]


def decompose(f: BooleanFunction) -> NcfClassification:
    """Classify ``f`` and produce its unique canonical decomposition.

    One pass over the variables names the only candidate, which
    :func:`compose`'s kernel confirms on the raw table: no table is built.
    A variable's influence is the number of input pairs, differing only in
    it, on which ``f`` differs; zero means it is inessential, and the
    canonical form uses every variable.  The candidate's layers are the
    groups of equal influence, largest first.  The first layer's output is
    ``f``'s majority value and layer outputs alternate; a stored input is
    the half of its variable that holds more of its layer's output.  ``b``
    is the first layer's output, complemented in the one-layer case (whose
    reading carries an extra inner complement).

    Why this is exact: for a variable of layer ``t``, let ``K_t`` count the
    variables of layers ``1..t`` and ``q_t`` be the chance that the later
    layers give the opposite of layer ``t``'s output (1 for the last layer).
    Its influence is ``2**(n - K_t) * q_t``, and ``q_t = 1 - 2**-k * q_{t+1}``
    for a next layer of ``k`` variables, so ``1/2 < q_t < 1`` below the last
    layer, which has two or more variables.  Influence is thus equal within
    a layer and falls strictly across layers; ``f`` takes layer 1's output
    with chance ``1 - 2**-k_1 * q_1 > 1/2``; and where no earlier layer
    decides, the half off a stored input misses its layer's output with
    chance ``2**(1 - k_t) * q_t > 0``, the stored half never.  So every NCF's
    own form is its candidate.  The form is unique, so a candidate that does
    not compose back to ``f`` shows that ``f`` is not nested canalizing.
    """
    n = f.arity
    if n < 2:
        raise InvalidInputError("decomposition requires arity >= 2")
    bits = f.bits
    if bits == 0 or bits == full_mask(n):
        return _CONSTANT
    literals = _literals(n)
    ranked = []  # (-influence, variable, weight of its x_i = 1 half)
    span = 1  # 2**(i-1)
    for i, (low, high) in enumerate(literals, 1):
        upper = (bits & high) >> span
        flips = (upper ^ (bits & low)).bit_count()
        if not flips:
            return _INESSENTIAL
        ranked.append((-flips, i, upper.bit_count()))
        span <<= 1
    ranked.sort()
    if ranked[-1][0] != ranked[-2][0]:  # the last layer has two or more variables
        return _NOT_CANALIZING
    ones = bits.bit_count()
    first_out = flip = int(2 * ones > 1 << n)
    layers, previous = [], 0  # ranks are negative, so the first opens a layer
    for rank, i, w in ranked:
        if rank != previous:  # a new layer, whose output is the last one's complement
            previous, flip, layer = rank, flip ^ 1, []
            layers.append(layer)
        # 2 |f & x_i| > |f| exactly when the half x_i = 1 holds more ones.
        layer.append((i, (2 * w > ones) ^ flip))
    b = first_out ^ (len(layers) == 1)
    i, a = layers[0][0]
    half = literals[i - 1][a]
    # A cheap test first: the first layer must canalize f.
    if bits & half != (half if first_out else 0) or _nested_bits(n, layers, b) != bits:
        return _NOT_CANALIZING
    d = LayerDecomposition._unchecked(n, tuple(map(tuple, layers)), b)
    return tuple.__new__(NcfClassification, (True, d, None))


def compose(d: LayerDecomposition) -> BooleanFunction:
    """Rebuild the truth table from a decomposition (the nested reading), by the
    kernel that also confirms :func:`decompose`'s candidate on its raw bits."""
    return BooleanFunction(d.arity, _nested_bits(d.arity, d.layers, d.b))


def _nested_bits(n: int, layers, b: int) -> int:
    """The table bits of the nested reading of ``(variable, input)`` layers
    and ``b``.  In debug runs they are cross-checked against the expanded
    reading, the XOR of the prefix products M1, M1*M2, ..., M1*...*Mr
    (complemented once more in the one-layer case)."""
    full, literals = full_mask(n), _literals(n)
    masks = []
    for layer in layers:
        mask = full
        for var, inp in layer:
            mask &= literals[var - 1][inp ^ 1]  # the factor (x + a) is true where x != a
        masks.append(mask)
    value = masks[-1] ^ full
    for mask in reversed(masks[:-1]):
        value = (mask & value) ^ full
    if b ^ (len(masks) > 1):
        value ^= full
    if __debug__:
        prefix, acc = full, 0
        for mask in masks:
            prefix &= mask
            acc ^= prefix
        if b ^ (len(masks) == 1):
            acc ^= full
        assert acc == value, "nested and expanded readings disagree"
    return value


# ----------------------------------------------------------------------
# What the layer form decides
# ----------------------------------------------------------------------


def ncf_cert_formula(structure, b: int) -> tuple[int, int, int]:
    """``(C0, C1, C)`` of a nested canalizing function from its layer sizes.

    For the positive nested form (output bit absorbed), with layer sizes
    ``k1..kr``:

        r odd:  C0 = k2 + k4 + ... + k_{r-1} + 1,  C1 = k1 + k3 + ... + kr
        r even: C0 = k2 + k4 + ... + kr,           C1 = k1 + k3 + ... + k_{r-1} + 1

    so one layer gives ``(1, k1)``.  ``b`` swaps the pair exactly when it
    complements the positive form, ``b == (r > 1)`` (the one-layer reading
    carries an inner complement); relabelling or negating inputs never does.
    """
    k = tuple(_check_items(structure, "layer structure"))
    r = len(k)
    if r == 0 or any(type(size) is not int or size < 1 for size in k):
        raise InvalidInputError(f"bad layer structure {structure!r}")
    if k[-1] < 2:
        raise InvalidInputError("the last layer must have at least two variables")
    _check_bit(b, "output bit")
    odd, even = sum(k[0::2]), sum(k[1::2])
    c0, c1 = (even + 1, odd) if r % 2 else (even, odd + 1)
    if b == (r > 1):
        c0, c1 = c1, c0
    return c0, c1, max(c0, c1)


def _layer_classes(d: LayerDecomposition) -> list[int]:
    """Symmetric classes per layer of an NCF: its distinct stored inputs."""
    return [len({inp for _, inp in layer}) for layer in d.layers]


# ----------------------------------------------------------------------
# Text form: `b; [i:a, i:a | i:a | ...]`, layers separated by '|'
# ----------------------------------------------------------------------


def format_decomposition(d: LayerDecomposition) -> str:
    body = " | ".join(
        ", ".join(f"{var}:{inp}" for var, inp in layer) for layer in d.layers
    )
    return f"{d.b}; [{body}]"


def parse_decomposition(text: str) -> LayerDecomposition:
    """Parse the text form back into a decomposition (bit-exact round trip).

    The arity is implied: the layers must partition ``1..n`` where ``n`` is
    the number of entries.
    """
    head, sep, body = _check_kind(text, str, "decomposition text").partition(";")
    if not sep:
        raise InvalidInputError(f"expected 'b; [...]', got {text!r}")
    head = head.strip()
    if head not in ("0", "1"):
        raise InvalidInputError(f"output bit must be 0 or 1, got {head!r}")
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvalidInputError("layer list must be enclosed in [ ]")
    chunks = [[item.strip() for item in chunk.split(",")] for chunk in body[1:-1].split("|")]
    total = sum(map(len, chunks))
    layers = []
    for chunk in chunks:
        entries = []
        for item in chunk:
            var_text, sep, inp_text = item.partition(":")
            if not sep or not var_text.strip().isdecimal() or inp_text.strip() not in ("0", "1"):
                raise InvalidInputError(f"bad layer entry {item!r}")
            name, var = _decimal(var_text.strip(), total)  # any length, unlike int()
            if var > total:
                raise InvalidInputError(f"variable index {name} out of range 1..{total}")
            entries.append((var, int(inp_text)))
        layers.append(entries)
    return LayerDecomposition.from_pairs(total, layers, int(head))
