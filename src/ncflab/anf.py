"""Algebraic normal form: XOR of AND-monomials over GF(2).

A polynomial is a set of monomials, each monomial a set of 1-based variable
indices; the empty monomial is the constant 1.  Because coefficients live in
GF(2), set semantics already encode XOR cancellation: a monomial is either
present or absent.

The text grammar (parsed by :meth:`AnfPolynomial.parse`):

    expression := term ('+' term)*
    term       := factor ('*' factor)*
    factor     := 'x'<digits> | '0' | '1' | '(' expression ')'

'+' is XOR, '*' is AND, whitespace is ignored, variables are 1-based.
Parenthesized products of sums are expanded into canonical ANF, and
duplicate terms cancel in pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MAX_TABLE_ARITY,
    BooleanFunction,
    InvalidInputError,
    ParseError,
    _one_indices,
    full_mask,
    variable_mask,
)

Monomial = frozenset[int]


@dataclass(frozen=True)
class AnfPolynomial:
    """Canonical ANF: ``arity`` plus the set of monomials present."""

    arity: int
    monomials: frozenset[Monomial]

    def __post_init__(self):
        for monomial in self.monomials:
            for i in monomial:
                if not 1 <= i <= self.arity:
                    raise InvalidInputError(
                        f"variable index {i} out of range 1..{self.arity}"
                    )

    @classmethod
    def from_terms(cls, arity: int, terms) -> "AnfPolynomial":
        """Build from an iterable of index collections, cancelling duplicates."""
        acc: set[Monomial] = set()
        for term in terms:
            acc ^= {frozenset(term)}
        return cls(arity, frozenset(acc))

    # ------------------------------------------------------------------
    # Conversion to and from truth tables
    # ------------------------------------------------------------------

    def to_function(self) -> BooleanFunction:
        """Evaluate the polynomial into a truth table.

        Each monomial's truth table is the AND of its variables' projection
        masks; the polynomial is their XOR.
        """
        if self.arity > MAX_TABLE_ARITY:
            raise InvalidInputError(
                f"arity {self.arity} is above the table cap {MAX_TABLE_ARITY}"
            )
        bits = 0
        for monomial in self.monomials:
            term = full_mask(self.arity)
            for i in monomial:
                term &= variable_mask(self.arity, i)
            bits ^= term
        return BooleanFunction(self.arity, bits)

    @classmethod
    def from_function(cls, f: BooleanFunction) -> "AnfPolynomial":
        """Recover the unique ANF of a truth table (binary Moebius transform).

        Step ``i`` XORs every entry with ``x_i = 0`` into its partner with
        ``x_i = 1``, one shift of the whole table; bit ``m`` of the result
        is the coefficient of the monomial over the variables in ``m``.
        """
        n = f.arity
        coeffs = f.bits
        for i in range(1, n + 1):
            coeffs ^= (coeffs << (1 << (i - 1))) & variable_mask(n, i)
        monomials = frozenset(
            frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
            for mask in _one_indices(coeffs)
        )
        return cls(n, monomials)

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------

    def format(self) -> str:
        """Canonical text: terms by descending degree, then by index order."""
        if not self.monomials:
            return "0"
        ordered = sorted(self.monomials, key=lambda m: (-len(m), sorted(m)))
        parts = []
        for monomial in ordered:
            if monomial:
                parts.append("*".join(f"x{i}" for i in sorted(monomial)))
            else:
                parts.append("1")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str, arity: int) -> "AnfPolynomial":
        """Parse the grammar above into canonical ANF.

        Raises :class:`ParseError` (with a 1-based column) on syntax errors
        and on variable indices outside ``1..arity``.
        """
        tokens = _tokenize(text)
        parser = _Parser(tokens, arity, len(text))
        monomials = parser.expression()
        parser.expect_end()
        return cls(arity, frozenset(monomials))


# ----------------------------------------------------------------------
# Recursive-descent parser
# ----------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Yield (kind, payload, 1-based column) triples."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+*()01":
            tokens.append((ch, ch, pos + 1))
            pos += 1
            continue
        if ch in "xX":
            start = pos
            pos += 1
            digits = ""
            while pos < len(text) and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits:
                raise ParseError("expected digits after 'x'", start + 1)
            tokens.append(("var", digits, start + 1))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos + 1)
    return tokens


class _Parser:
    def __init__(self, tokens, arity, text_len):
        self.tokens = tokens
        self.arity = arity
        self.pos = 0
        self.end_column = text_len + 1

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        tok = self._peek()
        return tok[2] if tok else self.end_column

    def expression(self) -> set[Monomial]:
        poly = self.term()
        while (tok := self._peek()) and tok[0] == "+":
            self.pos += 1
            poly ^= self.term()
        return poly

    def term(self) -> set[Monomial]:
        poly = self.factor()
        while (tok := self._peek()) and tok[0] == "*":
            self.pos += 1
            poly = _multiply(poly, self.factor())
        return poly

    def factor(self) -> set[Monomial]:
        tok = self._peek()
        if tok is None:
            raise ParseError("expected a factor, found end of input", self.end_column)
        kind, payload, column = tok
        if kind == "0":
            self.pos += 1
            return set()
        if kind == "1":
            self.pos += 1
            return {frozenset()}
        if kind == "var":
            self.pos += 1
            index = int(payload)
            if not 1 <= index <= self.arity:
                raise ParseError(
                    f"variable x{index} out of range 1..{self.arity}", column
                )
            return {frozenset({index})}
        if kind == "(":
            self.pos += 1
            poly = self.expression()
            closing = self._peek()
            if closing is None or closing[0] != ")":
                raise ParseError("expected ')'", self._here())
            self.pos += 1
            return poly
        raise ParseError(f"unexpected token {payload!r}", column)

    def expect_end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _multiply(left: set[Monomial], right: set[Monomial]) -> set[Monomial]:
    """GF(2) product: union of index sets, XOR cancellation on collisions."""
    out: set[Monomial] = set()
    for a in left:
        for b in right:
            out ^= {a | b}
    return out
