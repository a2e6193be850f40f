"""Algebraic normal form: XOR of AND-monomials over GF(2).

A polynomial is a set of monomials, each monomial a set of 1-based variable
indices; the empty monomial is the constant 1.  Because coefficients live in
GF(2), set semantics already encode XOR cancellation: a monomial is either
present or absent.

The text grammar (read by :meth:`AnfPolynomial.parse`):

    expression := term ('+' term)*
    term       := factor ('*' factor)*
    factor     := 'x'<digits> | '0' | '1' | '(' expression ')'

'+' is XOR, '*' is AND, whitespace is ignored, variables are 1-based.
Text is not expanded term by term: :func:`check_anf` checks it and
:func:`evaluate_anf` computes its truth table in one pass with an explicit
stack, so products of sums cost one table operation per token and nesting
depth is unbounded; the check reads the tokens with one ``findall``, and a
column only to raise.  The canonical ANF, with duplicate terms cancelled in
pairs, is read back off that table by the binary Moebius transform.

Canonical text lists the terms by descending degree, then by index list.
Two writers produce it.  :func:`anf_text`, the one ``analyze`` prints, is
dense: it reverses the variable order of a truth table's coefficient table,
so that among monomials of one degree a larger index comes first, scans the
coefficients once from the top into one bucket per degree, and writes each
term from two tables of partial products, so it sorts nothing.  The sparse
writer :func:`_monomial_text` sorts index lists and builds nothing per
variable of the arity, so :meth:`AnfPolynomial.format` takes any arity; the
tests hold the dense writer to it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, islice

from .core import (
    MAX_TABLE_ARITY,
    BooleanFunction,
    ParseError,
    _check_arity,
    _check_int,
    _check_items,
    _check_kind,
    _check_var,
    _decimal,
    _literals,
    _one_indices,
    _swap_bits,
    full_mask,
    variable_mask,
)

Monomial = frozenset[int]


class AnfPolynomial(namedtuple("AnfPolynomial", "arity monomials")):
    """Canonical ANF: ``arity`` plus the set of monomials present."""

    __slots__ = ()

    def __new__(cls, arity: int, monomials: frozenset[Monomial]):
        _check_int(arity, "arity")
        for monomial in _check_items(monomials, "monomials"):
            for i in _check_items(monomial, "monomial"):
                _check_var(i, arity)
        return tuple.__new__(cls, (arity, monomials))

    @classmethod
    def from_terms(cls, arity: int, terms) -> "AnfPolynomial":
        """Build from an iterable of index collections, cancelling duplicates."""
        _check_int(arity, "arity")
        acc: set[Monomial] = set()
        for term in _check_items(terms, "terms"):  # indices are checked before hashing
            acc ^= {frozenset([_check_var(i, arity) for i in _check_items(term, "term")])}
        return cls(arity, frozenset(acc))

    # ------------------------------------------------------------------
    # Conversion to and from truth tables
    # ------------------------------------------------------------------

    def to_function(self) -> BooleanFunction:
        """The truth table: each monomial sets its mask's digit among ``2**n``
        base-2 digits, and the self-inverse Moebius transform turns them into values."""
        _check_arity(self.arity)
        digits = bytearray(b"0" * (1 << self.arity))  # bit m is digit ~m, from the end
        for monomial in self.monomials:
            digits[~sum(1 << (i - 1) for i in monomial)] = ord("1")
        return BooleanFunction(self.arity, _moebius(self.arity, int(digits, 2)))

    @classmethod
    def from_function(cls, f: BooleanFunction) -> "AnfPolynomial":
        """Recover the unique ANF of a truth table from its Moebius coefficients."""
        n = f.arity
        monomials = frozenset(
            frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
            for mask in _one_indices(_moebius(n, f.bits))
        )
        return cls(n, monomials)

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------

    def format(self) -> str:
        """Canonical text, written by :func:`_monomial_text`."""
        return _monomial_text(self.monomials)

    @classmethod
    def parse(cls, text: str, arity: int | None) -> "AnfPolynomial":
        """Parse the grammar above into canonical ANF.

        Evaluates the text on a truth table of ``arity`` variables and reads
        the ANF back off it, so ``arity`` must be within the table cap:
        above it :class:`InvalidInputError` names the cap.  With ``arity``
        None it is read off the text, as :func:`check_anf` does.  Raises
        :class:`ParseError` (with a 1-based column) on syntax errors and on
        variable indices outside ``1..arity``.
        """
        return cls.from_function(evaluate_anf(*check_anf(text, arity)))


# ----------------------------------------------------------------------
# Truth table to text
# ----------------------------------------------------------------------


def _moebius(n: int, coeffs: int) -> int:
    """The ANF coefficients of an ``n``-variable table (binary Moebius
    transform): bit ``m`` is the coefficient of the monomial over the
    variables in mask ``m``.

    Step ``i`` XORs every entry with ``x_i = 0`` into its partner with
    ``x_i = 1``, one shift of the whole table.
    """
    for i in range(1, n + 1):
        coeffs ^= (coeffs << (1 << (i - 1))) & variable_mask(n, i)
    return coeffs


def anf_text(f: BooleanFunction) -> str:
    """The canonical ANF text of ``f``, read straight off its coefficients.

    After ``x_i`` and ``x_{n+1-i}`` trade places, bit ``n - i`` of a
    monomial's index stands for ``x_i``, so among indices of one degree the
    larger one has the smaller index list.  One scan of the coefficients
    from the top thus fills each degree's bucket in canonical order.  A
    term's text is the product over its high ``ceil(n/2)`` bits joined to
    the product over its low ``floor(n/2)`` bits.
    """
    n, low = f.arity, f.arity // 2
    coeffs = _moebius(n, f.bits)
    for i in range(1, low + 1):
        coeffs = _swap_bits(coeffs, n, i, n + 1 - i)
    names = [f"x{i}" for i in range(1, n + 1)]
    head, tail = _products(names[: n - low]), _products(names[n - low :])
    tail_alone = ["1", *tail[1:]]  # after an empty head
    tail_after = ["", *("*" + text for text in tail[1:])]
    low_mask = (1 << low) - 1
    buckets = [[] for _ in range(n + 1)]
    digits = bin(coeffs)
    top = len(digits) - 1  # the index of the digit at position p is top - p
    p = digits.find("1", 2)
    while p >= 0:
        idx = top - p
        high = idx >> low
        text = head[high] + (tail_after if high else tail_alone)[idx & low_mask]
        buckets[idx.bit_count()].append(text)
        p = digits.find("1", p + 1)
    return " + ".join(chain.from_iterable(reversed(buckets))) or "0"


def _products(names: list[str]) -> list[str]:
    """``products[m]``: the product text of ``names`` over mask ``m``, whose
    top bit stands for ``names[0]``; ``""`` for ``m = 0``."""
    products = [""]
    for name in reversed(names):
        products += [f"{name}*{text}" if text else name for text in products]
    return products


def _monomial_text(monomials) -> str:
    """Canonical text of the monomials given as sets of indices, by sorting:
    terms by descending degree, then by sorted index list; ``0`` for none."""
    keys = sorted((-len(monomial), sorted(monomial)) for monomial in monomials)
    terms = ("*".join(f"x{i}" for i in indices) or "1" for _, indices in keys)
    return " + ".join(terms) or "0"


# ----------------------------------------------------------------------
# Text to truth table: a check pass, then one evaluation pass
# ----------------------------------------------------------------------


# A variable with its decimal digits, or any other character but whitespace.
_TOKEN = re.compile(r"[xX]\d*|\S")


def check_anf(text: str, arity: int | None = None) -> tuple[int, list]:
    """Check ``text`` against the grammar; return its arity and the tokens
    for :func:`evaluate_anf` (a variable as its index, the rest as text).

    With ``arity`` None it is the largest variable index in the text, capped
    at :data:`MAX_TABLE_ARITY` so that a larger index is out of range.
    :class:`ParseError` names the 1-based column of the first bad character
    anywhere in the text, else of the first token that breaks the grammar or
    names a variable outside ``1..arity``.  One ``findall`` reads the token
    texts; a column is read, off ``finditer``, only to raise.
    """
    _check_kind(text, str, "ANF text")
    cap = MAX_TABLE_ARITY if arity is None else _check_int(arity, "arity")
    texts = _TOKEN.findall(text)
    program = []
    for k, token in enumerate(texts):
        if token in "+*()01":
            program.append(token)
        elif digits := token[1:]:
            program.append(_decimal(digits, cap)[1])
        elif token in "xX":
            raise ParseError("expected digits after 'x'", _column(text, k))
        else:
            raise ParseError(f"unexpected character {token!r}", _column(text, k))
    if arity is None:
        indices = (token for token in program if token.__class__ is int)
        arity = min(max(indices, default=0), MAX_TABLE_ARITY)
    depth = 0  # open parentheses
    operand = True  # whether a factor must come next
    for k, token in enumerate(program):
        if operand:
            if token.__class__ is int:
                if not 1 <= token <= arity:
                    name = _decimal(texts[k][1:], cap)[0]
                    raise ParseError(f"variable x{name} out of range 1..{arity}", _column(text, k))
                operand = False
            elif token in "+*)":
                raise ParseError(f"unexpected token {token!r}", _column(text, k))
            elif token == "(":
                depth += 1
            else:
                operand = False
        elif token in ("+", "*"):
            operand = True
        elif token == ")" and depth:
            depth -= 1
        else:  # a variable's token is its digits
            error = "expected ')'" if depth else f"unexpected token {texts[k][1:] or texts[k]!r}"
            raise ParseError(error, _column(text, k))
    if operand:
        raise ParseError("expected a factor, found end of input", len(text) + 1)
    if depth:
        raise ParseError("expected ')'", len(text) + 1)
    return arity, program


def _column(text: str, k: int) -> int:
    """The 1-based column of token ``k`` of ``text``."""
    return next(islice(_TOKEN.finditer(text), k, None)).start() + 1


def evaluate_anf(arity: int, program: list) -> BooleanFunction:
    """The truth table of tokens from :func:`check_anf`, in one pass.

    A variable is its projection mask, ``+`` is XOR, and factors side by side
    are ANDed, so ``*`` tokens may be left out.  Each open parenthesis pushes
    a frame ``(total, product)``: the XOR of the finished terms and the AND
    of the current term's factors so far.  Raises :class:`InvalidInputError`
    for an arity that is not an ``int`` in ``0..`` the table cap.
    """
    _check_arity(arity)
    ones = full_mask(arity)
    masks = [None, *(mask for _, mask in _literals(arity))]  # masks[i]: x_i's table
    frames = []
    total, product = 0, ones
    for token in program:
        if token.__class__ is int:
            product &= masks[token]
        elif token == "+":
            total, product = total ^ product, ones
        elif token == "(":
            frames.append((total, product))
            total, product = 0, ones
        elif token == ")":
            value = total ^ product
            total, product = frames.pop()
            product &= value
        elif token == "0":
            product = 0
    return BooleanFunction(arity, total ^ product)
