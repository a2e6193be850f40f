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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    BooleanFunction,
    InvalidInputError,
    NcflabError,
    full_mask,
    variable_mask,
)

LayerEntries = tuple[tuple[int, int], ...]


class NotNcfReason(enum.Enum):
    """Why a function failed nested-canalizing classification."""

    NO_CANALIZING_VARIABLE = "no canalizing variable"
    CONFLICTING_OUTPUTS = "conflicting canalized outputs"
    INESSENTIAL_VARIABLE = "inessential variable"
    CONSTANT = "constant function"


@dataclass(frozen=True)
class LayerDecomposition:
    """The unique canonical form: ordered layers plus the output bit.

    ``layers[k]`` is a tuple of ``(variable, input)`` pairs sorted by
    variable index; layer 0 is outermost.  Validity is enforced on
    construction: layers are nonempty, their variable sets partition
    ``1..arity``, the last layer has size at least two, and all inputs and
    ``b`` are bits.
    """

    arity: int
    layers: tuple[LayerEntries, ...]
    b: int

    def __post_init__(self):
        if self.b not in (0, 1):
            raise InvalidInputError(f"output bit must be 0 or 1, got {self.b!r}")
        if not self.layers:
            raise InvalidInputError("a decomposition needs at least one layer")
        seen: set[int] = set()
        for layer in self.layers:
            if not layer:
                raise InvalidInputError("layers must be nonempty")
            previous = 0
            for entry in layer:
                if len(entry) != 2:
                    raise InvalidInputError(f"bad layer entry {entry!r}")
                var, inp = entry
                if not 1 <= var <= self.arity:
                    raise InvalidInputError(
                        f"variable index {var} out of range 1..{self.arity}"
                    )
                if inp not in (0, 1):
                    raise InvalidInputError(f"canalizing input must be a bit: {inp!r}")
                if var <= previous:
                    raise InvalidInputError(
                        "layer entries must be strictly increasing by variable"
                    )
                if var in seen:
                    raise InvalidInputError(f"variable {var} appears in two layers")
                seen.add(var)
                previous = var
        if len(seen) != self.arity:
            raise InvalidInputError("layers must partition the full variable set")
        if len(self.layers[-1]) < 2:
            raise InvalidInputError("the last layer must contain at least two variables")

    @classmethod
    def from_pairs(cls, arity: int, layers, b: int) -> "LayerDecomposition":
        """Build from any iterable of iterables of pairs, sorting each layer."""
        normalized = tuple(
            tuple(sorted((int(v), int(a)) for v, a in layer)) for layer in layers
        )
        return cls(arity, normalized, b)

    def structure(self) -> tuple[int, ...]:
        """The layer structure ``<k1, ..., kr>`` (sizes of the layers)."""
        return tuple(len(layer) for layer in self.layers)


@dataclass(frozen=True)
class NcfClassification:
    """Outcome of :func:`decompose`: either a decomposition or a reason."""

    is_ncf: bool
    decomposition: LayerDecomposition | None = None
    reason: NotNcfReason | None = None


def canalizing_pairs(f: BooleanFunction) -> list[tuple[int, int, int]]:
    """All triples ``(i, a, out)`` with ``f`` restricted to ``x_i = a`` constant ``out``.

    The list is exhaustive and sorted by ``(i, a)``.  A constant function
    vacuously yields all ``2n`` triples (every restriction is constant), so
    callers should test :attr:`BooleanFunction.is_constant` first when that
    degenerate answer matters.
    """
    if f.arity < 1:
        raise InvalidInputError("canalizing pairs need at least one variable")
    return _canalizing_scan(f.bits, full_mask(f.arity), enumerate(_literals(f.arity), 1))


@lru_cache(maxsize=None)
def _literals(n: int) -> tuple[tuple[int, int], ...]:
    """``literals[i - 1][a]``: the mask of the entries with ``x_i = a``."""
    full = full_mask(n)
    return tuple((full ^ m, m) for m in (variable_mask(n, i) for i in range(1, n + 1)))


def _canalizing_scan(bits: int, live: int, literals) -> list:
    """Canalizing pairs of ``bits`` in ``live``, over the ``(i, halves)`` it leaves free."""
    pairs = []
    for i, halves in literals:
        for a, half in enumerate(halves):
            cube = live & half
            masked = bits & cube
            if masked == cube:
                pairs.append((i, a, 1))
            elif masked == 0:
                pairs.append((i, a, 0))
    return pairs


def decompose(f: BooleanFunction) -> NcfClassification:
    """Classify ``f`` and produce its unique canonical decomposition.

    The peel keeps the full table and the current subfunction's domain as
    a live subcube mask.  Each round scans only the variables not yet peeled
    (the live subcube fixes the others), collects every canalizing one into
    the next layer and shrinks the live subcube to their non-canalizing
    inputs, until the subfunction is constant.  The output bit is fixed by
    requiring the canonical reading to reproduce ``f``: it equals the first
    layer's canalized output when there are two or more layers, and its
    complement in the one-layer case (whose reading carries an extra inner
    complement).

    Functions with an inessential variable are rejected before peeling: the
    canonical form uses every variable, so such functions are not nested
    canalizing at their declared arity.
    """
    n = f.arity
    if n < 2:
        raise InvalidInputError("decomposition requires arity >= 2")
    bits, live = f.bits, full_mask(n)
    if bits == 0 or bits == live:
        return NcfClassification(False, reason=NotNcfReason.CONSTANT)
    literals = _literals(n)
    for span, (low, high) in enumerate(literals):
        if (bits & high) >> (1 << span) == bits & low:
            return NcfClassification(False, reason=NotNcfReason.INESSENTIAL_VARIABLE)

    layers: list[LayerEntries] = []
    first_out: int | None = None
    unpeeled = dict(enumerate(literals, 1))
    while bits & live not in (0, live):
        pairs = _canalizing_scan(bits, live, unpeeled.items())
        if not pairs:
            return NcfClassification(False, reason=NotNcfReason.NO_CANALIZING_VARIABLE)
        if len({out for _, _, out in pairs}) > 1:
            # Unreachable once inessential variables are ruled out (two
            # canalizing pairs on distinct variables force equal outputs,
            # and a doubly-canalizing variable leaves the rest inessential);
            # kept as a defensive classification.
            return NcfClassification(False, reason=NotNcfReason.CONFLICTING_OUTPUTS)
        if first_out is None:
            first_out = pairs[0][2]
        layers.append(tuple((i, a) for i, a, _ in pairs))
        for i, a, _ in pairs:
            live &= unpeeled.pop(i)[a ^ 1]

    if len(layers[-1]) < 2:
        raise NcflabError("internal error: peel produced a one-variable last layer")
    assert first_out is not None
    b = first_out if len(layers) >= 2 else first_out ^ 1
    result = LayerDecomposition(n, tuple(layers), b)
    if __debug__:
        assert compose(result) == f, "peel result failed to reproduce the input"
    return NcfClassification(True, decomposition=result)


def compose(d: LayerDecomposition) -> BooleanFunction:
    """Rebuild the truth table from a decomposition (the nested reading).

    In debug runs the result is cross-checked against the expanded reading,
    the XOR of the prefix products M1, M1*M2, ..., M1*...*Mr (complemented
    once more in the one-layer case).
    """
    n = d.arity
    full = full_mask(n)
    masks = [_layer_mask(n, layer) for layer in d.layers]
    r = len(masks)

    value = masks[-1] ^ full
    if r >= 2:
        value &= masks[-2]
        for j in range(r - 3, -1, -1):
            value = masks[j] & (value ^ full)
    if d.b:
        value ^= full
    nested = BooleanFunction(n, value)

    if __debug__:
        prefix = full
        acc = 0
        for mask in masks:
            prefix &= mask
            acc ^= prefix
        if (d.b ^ (1 if r == 1 else 0)):
            acc ^= full
        assert acc == nested.bits, "nested and expanded readings disagree"
    return nested


def _layer_mask(n: int, layer: LayerEntries) -> int:
    """Truth table of the layer's product of ``(x + a)`` factors."""
    full = mask = full_mask(n)
    for var, inp in layer:
        m = variable_mask(n, var)
        mask &= full ^ m if inp else m  # the factor (x + a) is true where x != a
    return mask


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
    head, sep, body = text.partition(";")
    if not sep:
        raise InvalidInputError(f"expected 'b; [...]', got {text!r}")
    head = head.strip()
    if head not in ("0", "1"):
        raise InvalidInputError(f"output bit must be 0 or 1, got {head!r}")
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvalidInputError("layer list must be enclosed in [ ]")
    layers = []
    total = 0
    for chunk in body[1:-1].split("|"):
        entries = []
        for item in chunk.split(","):
            item = item.strip()
            var_text, sep, inp_text = item.partition(":")
            if not sep or not var_text.strip().isdigit() or inp_text.strip() not in ("0", "1"):
                raise InvalidInputError(f"bad layer entry {item!r}")
            entries.append((int(var_text), int(inp_text)))
            total += 1
        layers.append(entries)
    return LayerDecomposition.from_pairs(total, layers, int(head))
