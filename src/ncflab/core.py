"""Truth-table representation of Boolean functions over GF(2).

A function of arity ``n`` is stored as a single ``2**n``-bit integer: bit
``w`` of the integer is the value of the function at the input word encoded
by ``w``.  The encoding is fixed once and for all: variable ``x_i`` (1-based)
lives in bit ``i - 1`` of the index, so ``x1`` is the least significant index
bit.  This makes variable restriction, input negation and variable swaps cheap
mask/shift operations on the table integer (the delta-swap :func:`_swap_bits`).

All values are immutable; every operation returns a new value.  The package's
records are ``collections.namedtuple`` subclasses with empty ``__slots__``:
assigning a field raises :class:`AttributeError`, and ``__new__`` validates.

One argument rule holds across the package, each kind checked by one
function here, and every refusal is :class:`InvalidInputError`.  A count,
index, guard limit or record arity is a plain ``int``: a bool, float,
string or None is refused (``_check_int``, ``_check_var``).  A table arity
lies in ``0..24`` (``_check_arity``, run before anything is sized by it): a
larger ``int`` gives ``arity N is above the table cap 24``, anything else
``arity must lie in 0..24, got X``.  A bit is 0 or 1, and a bool is taken
as one (``_check_bit``).  A text is a ``str``, and a record argument an
instance of its record type (``_check_kind``: ``<what> must be a <type>,
got <value>``).  A container that is not iterable (a word, offset, value
column, assignment, layer, class, monomial or term, or a list of them)
gives ``bad <what> <value>`` (``_check_items``); a non-permutation says so.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product

#: Hard cap on the arity of dense truth tables.  A table has 2**n bits, so
#: this bounds memory, not analysis cost; expensive analyses carry their own
#: much lower guards (see `complexity` and `symmetry`).
MAX_TABLE_ARITY = 24

Word = tuple[int, ...]

_HEX_RE = re.compile("[0-9A-Fa-f]*")
_BIT_DIGITS = bytes.maketrans(b"\0\1" b"01", b"01" b"\0\1")  # bits <-> base-2 digits


class NcflabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(NcflabError):
    """An argument violates a documented precondition."""


class ParseError(InvalidInputError):
    """Malformed input text. ``position`` is the 1-based column of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class GuardExceededError(NcflabError):
    """An analysis guard was exceeded; carries the guard's name.

    Guards protect against accidentally launching computations whose cost is
    exponential (or worse) in the arity.  Callers that know what they are
    doing can raise most of them; the count and verify guards are fixed.
    """

    def __init__(self, guard: str, arity: int, limit: int):
        super().__init__(
            f"guard '{guard}' exceeded: arity {arity} is above the limit {limit}"
        )
        self.guard = guard
        self.arity = arity
        self.limit = limit


@lru_cache(maxsize=None)
def full_mask(arity: int) -> int:
    """All-ones mask covering every entry of an ``arity``-variable table."""
    return (1 << (1 << arity)) - 1


def _one_indices(x: int) -> Iterator[int]:
    """Positions of the 1 bits of ``x >= 0``, in increasing order."""
    digits = bin(x)[:1:-1]  # least significant digit first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


@lru_cache(maxsize=None)
def variable_mask(arity: int, i: int) -> int:
    """Mask of the table entries whose index has ``x_i = 1``.

    This is also the truth table of the projection function ``x_i``.
    """
    span = 1 << (i - 1)
    block = ((1 << span) - 1) << span
    width = span << 1
    size = 1 << arity
    mask = block
    while width < size:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=None)
def _literals(n: int) -> tuple[tuple[int, int], ...]:
    """``literals[i - 1][a]``: the mask of the entries with ``x_i = a``."""
    full = full_mask(n)
    return tuple((full ^ m, m) for m in (variable_mask(n, i) for i in range(1, n + 1)))


def _decimal(digits: str, cap: int) -> tuple[str, int]:
    """A run of Unicode decimal digits as ASCII text without leading zeros,
    and its value, or ``cap + 1`` when the text is longer than ``cap``'s.

    Non-ASCII digits are converted one by one, and the value is read only
    from text no longer than ``cap``'s, so unlike ``int(digits)`` it takes
    runs of any length and never builds a number far beyond ``cap``.
    """
    if not digits.isascii():
        digits = "".join(str(int(d)) for d in digits)
    name = digits.lstrip("0") or "0"
    return name, int(name) if len(name) <= len(str(cap)) else cap + 1


def index_of(word: Sequence[int]) -> int:
    """Encode a word (a1, ..., an) as a table index."""
    idx = 0
    for p, bit in enumerate(_check_items(word, "word")):
        idx |= _check_bit(bit, "word entry") << p
    return idx


def word_at(index: int, arity: int) -> Word:
    """Decode a table index back into the word (a1, ..., an)."""
    _check_arity(arity)  # before _check_index builds 1 << arity
    _check_index(index, arity)
    return tuple((index >> p) & 1 for p in range(arity))


def words(arity: int) -> Iterator[Word]:
    """All words of the given arity, in table-index order (x1 varies fastest).

    The arity is capped like a table's: ``product`` allocates one slot per
    position before it yields anything.
    """
    _check_arity(arity)
    return (word[::-1] for word in product((0, 1), repeat=arity))


def _check_index(index: int, arity: int) -> None:
    if not (type(index) is int and 0 <= index < 1 << arity):  # the arity is checked
        raise InvalidInputError(f"table index {index!r} out of range for arity {arity!r}")


def _check_arity(arity: int) -> None:
    """The one check of a table arity: a plain ``int`` in ``0..MAX_TABLE_ARITY``."""
    if type(arity) is not int or not 0 <= arity <= MAX_TABLE_ARITY:
        if type(arity) is int and arity > MAX_TABLE_ARITY:
            raise InvalidInputError(f"arity {arity} is above the table cap {MAX_TABLE_ARITY}")
        raise InvalidInputError(f"arity must lie in 0..{MAX_TABLE_ARITY}, got {arity!r}")


def _check_int(value: int, name: str, low: int | None = None, high: int | None = None) -> int:
    if type(value) is not int:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if low is not None and not low <= value <= high:
        raise InvalidInputError(f"{name} {value} out of range {low}..{high}")
    return value


def _check_var(i: int, arity: int) -> int:
    if type(i) is not int or not 1 <= i <= arity:
        raise InvalidInputError(f"variable index {i!r} out of range 1..{arity}")
    return i


def _check_guard(guard: str, arity: int, limit: int) -> None:
    """Raise :class:`GuardExceededError` if ``arity`` is above ``limit``, a plain ``int``."""
    if arity > _check_int(limit, f"guard '{guard}' limit"):
        raise GuardExceededError(guard, arity, limit)


def _check_items(value, name: str) -> Iterator:
    """An iterator over ``value``; ``bad {name} {value!r}`` if it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidInputError(f"bad {name} {value!r}") from None


def _check_bit(value: int, name: str) -> int:
    """The one bit test: 0 or 1, a bool taken as one."""
    if not isinstance(value, int) or value not in (0, 1):
        raise InvalidInputError(f"{name} must be 0 or 1, got {value!r}")
    return value


def _check_kind(value, kind: type, name: str):
    """``value`` if it is a ``kind``, such as a text ``str`` or a record class."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


class BooleanFunction(namedtuple("BooleanFunction", "arity bits")):
    """An ``arity``-variable Boolean function as a packed truth table.

    ``bits`` holds the full table: bit ``w`` of ``bits`` is the function
    value at the word encoded by index ``w`` (``x_i`` = index bit ``i-1``).
    """

    __slots__ = ()

    def __new__(cls, arity: int, bits: int):
        self = tuple.__new__(cls, (arity, bits))
        self.__post_init__()  # a class attribute: bench/tracer.py wraps it to count tables
        return self

    def __post_init__(self):
        _check_arity(self.arity)
        if type(self.bits) is not int or not 0 <= self.bits <= full_mask(self.arity):
            raise InvalidInputError(
                f"table value out of range for arity {self.arity}"
            )

    def __repr__(self) -> str:
        return f"BooleanFunction.from_hex({self.to_hex()!r})"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "BooleanFunction":
        """Build from the value column listed in table-index order."""
        values = tuple(_check_items(values, "table values"))
        size = len(values)
        arity = size.bit_length() - 1
        if size < 1 or size != 1 << arity:
            raise InvalidInputError(f"table length {size} is not a power of two")
        # Checked whole in C; the loop runs only to name the first bad entry.
        ints = all(issubclass(kind, int) for kind in set(map(type, values)))
        try:
            digits = bytes(values) if ints else None
        except ValueError:  # an int below 0 or above 255
            digits = None
        if digits is None or digits.translate(None, b"\0\1"):
            for value in values:
                _check_bit(value, "table entry")
        return cls(arity, int(digits[::-1].translate(_BIT_DIGITS), 2))

    @classmethod
    def from_predicate(cls, arity, predicate) -> "BooleanFunction":
        """Build by evaluating ``predicate(word)`` over every word, in index order."""
        _check_arity(arity)  # before the first call to predicate
        return cls.from_values([1 if predicate(word) else 0 for word in words(arity)])

    @classmethod
    def constant(cls, arity: int, value: int) -> "BooleanFunction":
        _check_arity(arity)  # before full_mask builds the table
        return cls(arity, full_mask(arity) if _check_bit(value, "value") else 0)

    @classmethod
    def projection(cls, arity: int, i: int) -> "BooleanFunction":
        """The function ``x_i``."""
        _check_arity(arity)  # before variable_mask builds the table
        _check_var(i, arity)
        return cls(arity, variable_mask(arity, i))

    @classmethod
    def from_hex(cls, text: str) -> "BooleanFunction":
        """Parse the ``"n:HEX"`` truth-table format.

        HEX is the table integer in ASCII hexadecimal digits (bit ``j`` of
        the value is the function at index ``j``), zero-padded to
        ``ceil(2**n / 4)`` digits; the padding is required so the format is
        self-delimiting.
        """
        head, sep, payload = _check_kind(text, str, "table text").strip().partition(":")
        if not sep:
            raise InvalidInputError(f"expected 'n:HEX', got {text!r}")
        if not head.isdecimal():
            raise InvalidInputError(f"bad arity field in {text!r}")
        name, arity = _decimal(head, MAX_TABLE_ARITY)
        if arity > MAX_TABLE_ARITY:
            raise InvalidInputError(
                f"arity {name} is above the table cap {MAX_TABLE_ARITY}"
            )
        digits = _hex_digits(arity)
        if len(payload) != digits:
            raise InvalidInputError(
                f"expected {digits} hex digits for arity {arity}, got {len(payload)}"
            )
        if not _HEX_RE.fullmatch(payload):  # int() also takes signs, "_" and spaces
            raise InvalidInputError(f"bad hex digits in {text!r}")
        bits = int(payload, 16)
        if bits > full_mask(arity):
            raise InvalidInputError(f"table value out of range in {text!r}")
        return cls(arity, bits)

    def to_hex(self) -> str:
        return f"{self.arity}:{self.bits:0{_hex_digits(self.arity)}X}"

    # ------------------------------------------------------------------
    # Evaluation and inspection
    # ------------------------------------------------------------------

    def bit(self, index: int) -> int:
        """Value at a table index."""
        _check_index(index, self.arity)
        return (self.bits >> index) & 1

    def evaluate(self, word: Sequence[int]) -> int:
        """Value at a word; rejects words of the wrong length."""
        word = tuple(_check_items(word, "word"))
        if len(word) != self.arity:
            raise InvalidInputError(
                f"word length {len(word)} does not match arity {self.arity}"
            )
        return self.bit(index_of(word))

    def values(self) -> tuple[int, ...]:
        """The value column in table-index order: ``bits`` in base 2, reversed."""
        digits = f"{self.bits:0{1 << self.arity}b}".encode()
        return tuple(digits[::-1].translate(_BIT_DIGITS))

    @property
    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == full_mask(self.arity)

    def is_essential(self, i: int) -> bool:
        """Whether the function actually depends on ``x_i``."""
        return self.flip_input(i) != self

    def essential_variables(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.arity + 1) if self.is_essential(i))

    # ------------------------------------------------------------------
    # Restriction
    # ------------------------------------------------------------------

    def restrict(self, i: int, value: int) -> "BooleanFunction":
        """Fix ``x_i = value`` and drop the variable: the result has arity
        ``n - 1``, the other variables renumbered 1..n-1 in their order."""
        return self.restrict_many([(i, value)])

    def restrict_many(self, assignments: Sequence[tuple[int, int]]) -> "BooleanFunction":
        """Restrict several variables at once (indices refer to ``self``): highest
        index first, adjacent swaps carry each to the top, and one half stays."""
        pairs: dict[int, int] = {}
        for entry in _check_items(assignments, "assignments"):
            try:
                i, value = entry
            except (TypeError, ValueError):
                raise InvalidInputError(f"bad assignment {entry!r}") from None
            _check_var(i, self.arity)
            if i in pairs:
                raise InvalidInputError(f"variable {i} restricted twice")
            pairs[i] = value
        n, bits = self.arity, self.bits
        for i, value in sorted(pairs.items(), reverse=True):
            _check_bit(value, "value")
            for j in range(i, n):
                bits = _swap_bits(bits, n, j, j + 1)
            n -= 1
            bits = bits >> (value << n) & full_mask(n)
        return BooleanFunction(n, bits)

    # ------------------------------------------------------------------
    # Input/output transformations
    # ------------------------------------------------------------------

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.arity, self.bits ^ full_mask(self.arity))

    def flip_input(self, i: int) -> "BooleanFunction":
        """Replace ``x_i`` by ``x_i + 1``."""
        _check_var(i, self.arity)
        return self.negate_inputs([int(j == i) for j in range(1, self.arity + 1)])

    def negate_inputs(self, beta: Sequence[int]) -> "BooleanFunction":
        """Return ``g`` with ``g(x) = f(x xor beta)``: each flipped ``x_i``
        trades the halves ``x_i = 0`` and ``x_i = 1`` through the literal masks."""
        beta = tuple(_check_items(beta, "offset"))
        if len(beta) != self.arity:
            raise InvalidInputError(
                f"offset length {len(beta)} does not match arity {self.arity}"
            )
        bits = self.bits
        for p, ((low, high), flip) in enumerate(zip(_literals(self.arity), beta)):
            if _check_bit(flip, "offset entry"):
                bits = (bits & high) >> (1 << p) | (bits & low) << (1 << p)
        return BooleanFunction(self.arity, bits)

    def swap_inputs(self, i: int, j: int) -> "BooleanFunction":
        """Exchange the roles of ``x_i`` and ``x_j``."""
        _check_var(i, self.arity)
        _check_var(j, self.arity)
        if i == j:
            return self
        i, j = min(i, j), max(i, j)
        return BooleanFunction(self.arity, _swap_bits(self.bits, self.arity, i, j))

    def permute_inputs(self, sigma: Sequence[int]) -> "BooleanFunction":
        """Return ``g`` with ``g(x1, ..., xn) = f(x_sigma(1), ..., x_sigma(n))``.

        ``sigma`` is given in one-line notation, 1-based: ``sigma[i-1]`` is
        the image of ``i``.
        """
        sigma = _permutation(sigma, self.arity)
        return BooleanFunction(self.arity, _permute_bits(self.bits, self.arity, sigma))

    def transform(self, sigma: Sequence[int], beta: Sequence[int], c: int) -> "BooleanFunction":
        """Permute variables, negate inputs, then negate the output.

        Returns ``g`` with ``g(w) = f(sigma applied to (w xor beta)) xor c``,
        where "sigma applied to v" is the word whose i-th entry is
        ``v[sigma(i)]``.  The composition order is fixed: permute first, then
        negate inputs, then negate the output.
        """
        out = self.permute_inputs(sigma).negate_inputs(beta)
        return out.complement() if _check_bit(c, "output flip") else out


def permutation_cycles(sigma: Sequence[int], arity: int) -> list[list[int]]:
    """The nontrivial cycles of a 1-based one-line permutation of ``1..arity``.

    Each cycle starts at its smallest member and the cycles are listed by
    smallest member; fixed points are omitted.
    """
    sigma = _permutation(sigma, arity)
    seen = [False] * (arity + 1)
    cycles = []
    for start in range(1, arity + 1):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = sigma[i - 1]
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


def _permutation(sigma: Sequence[int], arity: int) -> tuple[int, ...]:
    """``sigma`` as a tuple, if it is a one-line permutation of ``1..arity``."""
    try:
        sigma = tuple(sigma)
        ints = set(map(type, sigma)) <= {int}  # checked before sorted compares the entries
    except TypeError:  # not iterable
        ints = False
    if not ints or len(sigma) != arity or sorted(sigma) != list(range(1, arity + 1)):
        raise InvalidInputError(f"{sigma!r} is not a permutation of 1..{arity}")
    return sigma


def _permute_bits(bits: int, arity: int, sigma: Sequence[int]) -> int:
    """``permute_inputs`` on a raw table, for a valid one-line ``sigma``: the
    cycle (c1 c2 ... ct), c1 its least member, is the swap chain (c1 c2),
    (c1 c3), ..., (c1 ct) applied in that order."""
    seen = 0  # bit i: x_i is a later member of a cycle already applied
    for c in range(1, arity + 1):
        i = sigma[c - 1]
        while i != c and not seen >> c & 1:
            bits = _swap_bits(bits, arity, c, i)
            seen |= 1 << i
            i = sigma[i - 1]
    return bits


def _swap_bits(bits: int, arity: int, i: int, j: int) -> int:
    """Exchange ``x_i`` and ``x_j`` (``i < j``) in a raw table integer."""
    literals = _literals(arity)
    (low_i, high_i), (low_j, high_j) = literals[i - 1], literals[j - 1]
    delta = (1 << (j - 1)) - (1 << (i - 1))
    up, down = bits & high_i & low_j, bits & high_j & low_i  # x_i = 1, x_j = 0 gains delta
    return (bits ^ up ^ down) | up << delta | down >> delta


@lru_cache(maxsize=None)
def _hex_digits(arity: int) -> int:
    return -(-(1 << arity) // 4)
