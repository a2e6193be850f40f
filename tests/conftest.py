"""Shared test helpers: independent oracles and hypothesis strategies."""

import itertools
from math import comb

from hypothesis import strategies as st

from ncflab import BooleanFunction, ParseError, index_of
from ncflab.core import MAX_TABLE_ARITY, InvalidInputError, NcflabError, full_mask, word_at
from ncflab.ncf import (
    LayerDecomposition,
    LayerEntries,
    NcfClassification,
    NotNcfReason,
    canalizing_pairs,
    compose,
)


def reference_anf_value(monomials, word) -> int:
    """Word-level polynomial evaluation, independent of the mask machinery.

    ``monomials`` is an iterable of index collections; XOR of the products.
    """
    acc = 0
    for monomial in monomials:
        prod = 1
        for i in monomial:
            prod &= word[i - 1]
        acc ^= prod
    return acc


def reference_table(monomials, n) -> BooleanFunction:
    """Build a truth table by brute word-by-word evaluation."""
    values = [
        reference_anf_value(monomials, word_at(idx, n)) for idx in range(1 << n)
    ]
    return BooleanFunction.from_values(values)


def boolean_functions(min_arity=0, max_arity=8):
    return st.integers(min_arity, max_arity).flatmap(
        lambda n: st.builds(
            BooleanFunction, st.just(n), st.integers(0, full_mask(n))
        )
    )


def permutations_of(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def _permute_word(word, sigma):
    """The word ``v`` with ``v[i] = word[sigma(i)]`` (1-based one-line sigma)."""
    return tuple(word[image - 1] for image in sigma)


def fixes_word_by_word(f, sigma, table=None):
    """Whether the permutation ``sigma`` fixes ``f``, checked word by word.

    Independent of the table-level permutation machinery: every word is
    permuted as a tuple and both values are read off the table.  ``table``
    may hold the words of ``f``'s arity in index order.
    """
    table = table or [word_at(idx, f.arity) for idx in range(1 << f.arity)]
    return all(
        f.bit(index_of(_permute_word(word, sigma))) == f.bit(idx)
        for idx, word in enumerate(table)
    )


def reference_automorphisms(f):
    """Non-identity permutations fixing ``f``, in ``itertools.permutations``
    order, each checked word by word."""
    n = f.arity
    identity = tuple(range(1, n + 1))
    table = [word_at(idx, n) for idx in range(1 << n)]
    return [
        sigma
        for sigma in itertools.permutations(identity)
        if sigma != identity and fixes_word_by_word(f, sigma, table)
    ]


def reference_certificate(f, word):
    """``(size, positions)`` of the first certificate of ``f`` at ``word``.

    Sets of positions are tried in (cardinality, lexicographic) order; a set
    certifies ``word`` when every word of its subcube (the words that agree
    with ``word`` on the set) has the value ``f(word)``.  Evaluates the
    subcube word by word, independent of the whole-table sweep.
    """
    n = f.arity
    value = f.evaluate(word)
    for k in range(n + 1):
        for fixed in itertools.combinations(range(1, n + 1), k):
            free = [p for p in range(1, n + 1) if p not in fixed]
            subcube = (
                tuple(
                    bits[free.index(p)] if p in free else word[p - 1]
                    for p in range(1, n + 1)
                )
                for bits in itertools.product((0, 1), repeat=len(free))
            )
            if all(f.evaluate(v) == value for v in subcube):
                return k, fixed
    raise AssertionError("the full position set is always a certificate")


def constant_functions(max_arity=6):
    return st.builds(
        BooleanFunction.constant, st.integers(0, max_arity), st.integers(0, 1)
    )


@st.composite
def nested_canalizing_functions(draw, max_arity=6):
    """``f = b_1`` if ``x_{s1} = a_1``, else ``b_2`` if ``x_{s2} = a_2``, ...,
    else ``not b_n``: nested canalizing in every variable, by definition."""
    n = draw(st.integers(1, max_arity))
    order = draw(permutations_of(n))
    inputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))

    def value(word):
        for var, a, b in zip(order, inputs, outputs):
            if word[var - 1] == a:
                return b
        return 1 - outputs[-1]

    return BooleanFunction.from_predicate(n, value)


@st.composite
def flipped_nested_canalizing_functions(draw, max_arity=6):
    """A nested canalizing table with one entry flipped: a near miss."""
    f = draw(nested_canalizing_functions(max_arity))
    index = draw(st.integers(0, (1 << f.arity) - 1))
    return BooleanFunction(f.arity, f.bits ^ (1 << index))


def random_ncf(rng, n):
    """A random decomposition over ``n`` variables, with its composed table."""
    sizes = []
    while sum(sizes) < n:  # the last layer has at least two variables
        rest = n - sum(sizes)
        sizes.append(rng.choice([k for k in range(1, rest + 1) if rest - k != 1]))
    order = rng.sample(range(1, n + 1), n)
    layers, start = [], 0
    for k in sizes:
        chunk = sorted(order[start : start + k])
        layers.append(tuple((var, rng.randint(0, 1)) for var in chunk))
        start += k
    d = LayerDecomposition(n, tuple(layers), rng.randint(0, 1))
    return d, compose(d)


@st.composite
def planted_symmetric_functions(draw, max_arity=5):
    """Functions fixed by a drawn permutation: one random bit per word orbit."""
    n = draw(st.integers(1, max_arity))
    tau = draw(permutations_of(n))
    return planted_table(n, [tau], draw(st.integers(0, full_mask(n))))


def planted_table(n, generators, seed):
    """The table fixed by each permutation in ``generators`` (one-line,
    1-based) that takes bit ``m`` of ``seed`` on each orbit of words, ``m``
    being the orbit's smallest index."""
    values = [None] * (1 << n)
    for idx in range(1 << n):  # the first index of an orbit is its smallest
        if values[idx] is not None:
            continue
        orbit, todo = {idx}, [idx]
        while todo:
            word = word_at(todo.pop(), n)
            for sigma in generators:
                step = index_of(_permute_word(word, sigma))
                if step not in orbit:
                    orbit.add(step)
                    todo.append(step)
        for step in orbit:
            values[step] = (seed >> idx) & 1
    return BooleanFunction.from_values(values)


def reference_block_sensitivity(f):
    """Block sensitivity by packing sensitive blocks word by word.

    For each word, lists every block whose joint flip changes the output and
    packs pairwise-disjoint ones with memoized search over the remaining free
    positions.  Independent of the whole-table dynamic program.
    """
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


def reference_census(n):
    """The ``n``-variable NCFs counted by ``(layers r, symmetry level s)``.

    ``ways[m]`` counts layer sequences over ``m`` variables, inputs included;
    the outermost size-``k`` layer picks its variables in ``C(m, k)`` ways and
    adds one class (2 input assignments) or two (``2**k - 2``).  The last
    layer has ``k >= 2``, so ``ways[1]`` is empty; the output bit doubles each.
    Independent of the Stirling closed form; ``O(n**4)`` big-integer steps.
    """
    ways: list[dict[tuple[int, int], int]] = [{(0, 0): 1}, {}]
    for m in range(2, n + 1):
        here: dict[tuple[int, int], int] = {}
        for k in range(1, m + 1):
            weights = ((1, 2), (2, (1 << k) - 2)) if k >= 2 else ((1, 2),)
            chosen = comb(m, k)
            for (r, s), count in ways[m - k].items():
                for classes, weight in weights:
                    key = (r + 1, s + classes)
                    here[key] = here.get(key, 0) + chosen * weight * count
        ways.append(here)
    return {key: 2 * count for key, count in ways[n].items()}


def reference_anf_parse(text, arity):
    """Monomial set of ANF text by recursive descent, expanding every product.

    Raises :class:`ParseError` like ``AnfPolynomial.parse``.  With ``arity``
    None it is the largest variable index in the text, capped at
    ``MAX_TABLE_ARITY``.  Independent of the table evaluator; the set
    expansion is exponential in the number of parenthesized sums multiplied
    together, so keep inputs small.
    """
    tokens = _tokenize(text)
    if arity is None:
        indices = (int(payload) for kind, payload, _ in tokens if kind == "var")
        arity = min(max(indices, default=0), MAX_TABLE_ARITY)
    parser = _Parser(tokens, arity, len(text))
    monomials = parser.expression()
    parser.expect_end()
    return frozenset(monomials)


#: The alphabet of the parser's property test.  Digits are decimal only: the
#: reference tokenizer reads them with str.isdigit, so a superscript digit
#: would make it fail outside ParseError.
ANF_DIGITS = "0123456789\u0663\uff10\uff11\u07c1"
ANF_LEAVES = ["0", "1", "x1", "x2", "X3", "x4", "x01", "x\u0663", "x\uff12"]
ANF_PIECES = ["+", "*", "(", ")", "0", "1", " ", "x1", "x2", "X3", "?", "2"]


def random_anf_text(rng) -> str:
    """A seeded text from the property test's alphabet: a well-formed
    expression of up to 10 leaves, or up to 8 pieces run together."""
    if rng.random() < 0.5:
        return _random_well_formed(rng, rng.randint(1, 10))
    pieces = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            pieces.append(rng.choice(ANF_PIECES))
        elif kind == 1:
            pieces.append("x" + "".join(rng.choices(ANF_DIGITS, k=rng.randint(0, 4))))
        else:
            pieces.append(_random_well_formed(rng, rng.randint(1, 4)))
    return "".join(pieces)


def _random_well_formed(rng, leaves: int) -> str:
    if leaves == 1:
        text = rng.choice(ANF_LEAVES)
    else:
        left = rng.randint(1, leaves - 1)
        op = rng.choice([" + ", "*"])
        text = _random_well_formed(rng, left) + op + _random_well_formed(rng, leaves - left)
    return f"({text})" if rng.random() < 0.3 else text


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

    def expression(self) -> set[frozenset[int]]:
        poly = self.term()
        while (tok := self._peek()) and tok[0] == "+":
            self.pos += 1
            poly ^= self.term()
        return poly

    def term(self) -> set[frozenset[int]]:
        poly = self.factor()
        while (tok := self._peek()) and tok[0] == "*":
            self.pos += 1
            poly = _multiply(poly, self.factor())
        return poly

    def factor(self) -> set[frozenset[int]]:
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


def _multiply(left: set[frozenset[int]], right: set[frozenset[int]]) -> set[frozenset[int]]:
    """GF(2) product: union of index sets, XOR cancellation on collisions."""
    out: set[frozenset[int]] = set()
    for a in left:
        for b in right:
            out ^= {a | b}
    return out


def reference_decompose(f: BooleanFunction) -> NcfClassification:
    """:func:`ncflab.decompose` by peeling restricted subfunctions.

    The peel loop repeatedly collects every canalizing variable of the
    current subfunction into the next layer, then restricts those variables
    to their non-canalizing inputs and continues on the remainder, which is
    renumbered.  Independent of decompose's influence-rank guess; builds one
    table per restricted variable.
    """
    n = f.arity
    if n < 2:
        raise InvalidInputError("decomposition requires arity >= 2")
    if f.is_constant:
        return NcfClassification(False, reason=NotNcfReason.CONSTANT)
    for i in range(1, n + 1):
        if not f.is_essential(i):
            return NcfClassification(False, reason=NotNcfReason.INESSENTIAL_VARIABLE)

    layers: list[LayerEntries] = []
    first_out: int | None = None
    current = f
    remaining = list(range(1, n + 1))  # original index of each live position

    while not current.is_constant:
        pairs = canalizing_pairs(current)
        if not pairs:
            return NcfClassification(False, reason=NotNcfReason.NO_CANALIZING_VARIABLE)
        outs = {out for _, _, out in pairs}
        if len(outs) > 1:
            # Unreachable once inessential variables are ruled out: two
            # canalizing pairs on distinct variables force equal outputs,
            # and a doubly-canalizing variable leaves the rest inessential.
            raise NcflabError("internal error: peel found conflicting canalized outputs")
        if first_out is None:
            first_out = pairs[0][2]
        layers.append(tuple((remaining[i - 1], a) for i, a, _ in pairs))
        current = current.restrict_many([(i, a ^ 1) for i, a, _ in pairs])
        for i, _, _ in sorted(pairs, reverse=True):
            del remaining[i - 1]

    if len(layers[-1]) < 2:
        raise NcflabError("internal error: peel produced a one-variable last layer")
    assert first_out is not None
    b = first_out if len(layers) >= 2 else first_out ^ 1
    result = LayerDecomposition(n, tuple(layers), b)
    if __debug__:
        assert compose(result) == f, "peel result failed to reproduce the input"
    return NcfClassification(True, decomposition=result)


@st.composite
def planted_inessential_functions(draw, max_arity=7):
    """A random or nested canalizing table with one dummy variable inserted."""
    g = draw(
        st.one_of(
            boolean_functions(1, max_arity - 1),
            nested_canalizing_functions(max_arity - 1),
        )
    )
    k = draw(st.integers(0, g.arity))
    return BooleanFunction.from_predicate(
        g.arity + 1, lambda word: g.evaluate(word[:k] + word[k + 1 :])
    )
