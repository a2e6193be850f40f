"""Reference computations the benchmark checks ncflab's outputs against.

Nothing here imports ncflab.  Every result is derived from first principles
with plain word loops or small recurrences, so a defect in the program
cannot hide by also being present in its checker.

Words use ncflab's public table encoding: bit ``i - 1`` of a table index is
the value of ``x_i``, and bit ``w`` of a table integer is the function value
at index ``w``.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

_masks: dict[tuple[int, int], int] = {}


def var_mask(n: int, i: int) -> int:
    """Table entries whose index has ``x_i = 1`` (built word by word)."""
    key = (n, i)
    if key not in _masks:
        bit = 1 << (i - 1)
        _masks[key] = sum(1 << idx for idx in range(1 << n) if idx & bit)
    return _masks[key]


def full(n: int) -> int:
    return (1 << (1 << n)) - 1


def hex_spec(n: int, bits: int) -> str:
    """The ``n:HEX`` form: uppercase, zero-padded to ``ceil(2**n / 4)`` digits."""
    return f"{n}:{bits:0{-(-(1 << n) // 4)}X}"


# ----------------------------------------------------------------------
# Nested canalizing forms
# ----------------------------------------------------------------------
#
# A nested form is ``(layers, b)``: ``layers`` is a list of layers, outermost
# first, each a list of ``(variable, input)`` pairs; the factor
# ``(x_v + a)`` vanishes exactly when ``x_v = a``.  The reading is
#
#     f = M1*(M2*(...*(M_{r-1}*(M_r + 1) + 1)...) + 1) + b     (r >= 2)
#     f = (M1 + 1) + b                                          (r = 1)


def form_text(layers, b: int) -> str:
    """The nested form as polynomial text for ``ncflab analyze --anf``."""

    def product(layer):
        return "*".join(f"x{v}" if a == 0 else f"(x{v} + 1)" for v, a in layer)

    expr = f"{product(layers[-1])} + 1"
    if len(layers) == 1:
        return f"({expr}) + {b}"
    expr = f"{product(layers[-2])}*({expr})"
    for layer in reversed(layers[:-2]):
        expr = f"{product(layer)}*({expr} + 1)"
    return f"{expr} + {b}"


def nested_value(layers, b: int, index: int) -> int:
    """Evaluate the nested reading at one table index, innermost layer first."""
    live = [
        all(((index >> (v - 1)) & 1) != a for v, a in layer) for layer in layers
    ]
    value = 1 ^ live[-1]
    if len(layers) >= 2:
        value &= live[-2]
        for m in reversed(live[:-2]):
            value = m & (value ^ 1)
    return value ^ b


def nested_table(n: int, layers, b: int) -> int:
    bits = 0
    for index in range(1 << n):
        bits |= nested_value(layers, b, index) << index
    return bits


def canonical_text(layers, b: int) -> str:
    """ncflab's decomposition text: ``b; [v:a, ... | ...]``, layers sorted by variable."""
    body = " | ".join(
        ", ".join(f"{v}:{a}" for v, a in sorted(layer)) for layer in layers
    )
    return f"{b}; [{body}]"


def parse_canonical(text: str):
    """Inverse of :func:`canonical_text`."""
    head, _, body = text.partition(";")
    layers = [
        [tuple(int(part) for part in item.split(":")) for item in chunk.split(",")]
        for chunk in body.strip()[1:-1].split("|")
    ]
    return layers, int(head)


def ncf_certificate_pair(layers, b: int) -> tuple[int, int]:
    """``(C0, C1)`` of a nested form from the first-hit argument.

    A word is decided by the first layer holding a variable at its input
    (or by no layer at all).  To certify a word decided at layer ``j`` one
    fixes that variable plus every variable of earlier layers whose own
    first-hit value differs from the word's value; a word decided by no
    layer must fix every variable of each layer whose first-hit value
    differs.  ``C_v`` is the largest such cost among words of value ``v``.
    """
    miss = [(v, a ^ 1) for layer in layers for v, a in layer]

    def value_with(hit):
        index = 0
        for v, x in miss:
            index |= x << (v - 1)
        if hit is not None:
            v, a = hit
            index = (index & ~(1 << (v - 1))) | (a << (v - 1))
        return nested_value(layers, b, index)

    hit_values = [value_with(layer[0]) for layer in layers]
    best = [0, 0]
    for j, value in enumerate(hit_values):
        cost = 1 + sum(len(layers[i]) for i in range(j) if hit_values[i] != value)
        best[value] = max(best[value], cost)
    none_value = value_with(None)
    cost = sum(len(layer) for layer, v in zip(layers, hit_values) if v != none_value)
    best[none_value] = max(best[none_value], cost)
    return best[0], best[1]


def ncf_classes(layers) -> list[list[int]]:
    """Symmetric classes of a nested form: per layer, variables sharing an input."""
    classes = []
    for layer in layers:
        for a in (0, 1):
            group = sorted(v for v, x in layer if x == a)
            if group:
                classes.append(group)
    return sorted(classes)


# ----------------------------------------------------------------------
# Truth-table measures
# ----------------------------------------------------------------------


def anf_text(n: int, bits: int) -> str:
    """Canonical ANF text (ncflab's order: degree descending, then indices)."""
    for i in range(1, n + 1):
        bits ^= (bits & (full(n) ^ var_mask(n, i))) << (1 << (i - 1))
    monomials = [
        [i for i in range(1, n + 1) if (mask >> (i - 1)) & 1]
        for mask, ch in enumerate(reversed(bin(bits)[2:]))
        if ch == "1"
    ]
    if not monomials:
        return "0"
    monomials.sort(key=lambda m: (-len(m), m))
    return " + ".join("*".join(f"x{i}" for i in m) if m else "1" for m in monomials)


def sensitivity(n: int, bits: int) -> int:
    """Maximum number of output-changing single flips, by bit-sliced counters."""
    counters: list[int] = []
    for i in range(1, n + 1):
        span = 1 << (i - 1)
        hi = var_mask(n, i)
        flipped = ((bits & hi) >> span) | ((bits & (full(n) ^ hi)) << span)
        carry = bits ^ flipped
        k = 0
        while carry:
            if k == len(counters):
                counters.append(0)
            counters[k], carry = counters[k] ^ carry, counters[k] & carry
            k += 1
    for value in range(n, 0, -1):
        if value >> len(counters):
            continue
        words = full(n)
        for k, counter in enumerate(counters):
            words &= counter if (value >> k) & 1 else ~counter
        if words:
            return value
    return 0


def restriction_is_constant(n: int, bits: int, i: int, a: int) -> bool:
    cube = var_mask(n, i) if a else full(n) ^ var_mask(n, i)
    return bits & cube in (0, cube)


def is_essential(n: int, bits: int, i: int) -> bool:
    span = 1 << (i - 1)
    hi = var_mask(n, i)
    return (bits & hi) >> span != bits & (full(n) ^ hi)


def permuted_index(index: int, sigma) -> int:
    """Index of the word ``y`` with ``y_i = x_sigma(i)``."""
    out = 0
    for i, image in enumerate(sigma):
        out |= ((index >> (image - 1)) & 1) << i
    return out


def fixes(n: int, bits: int, sigma) -> bool:
    """Whether permuting the inputs by ``sigma`` (one-line, 1-based) fixes the table."""
    return all(
        ((bits >> idx) & 1) == ((bits >> permuted_index(idx, sigma)) & 1)
        for idx in range(1 << n)
    )


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    sigma = list(range(1, n + 1))
    sigma[i - 1], sigma[j - 1] = j, i
    return tuple(sigma)


def symmetry_classes(n: int, bits: int) -> list[list[int]]:
    """Classes of variables whose pairwise swap fixes the table."""
    classes: list[list[int]] = []
    placed: set[int] = set()
    for i in range(1, n + 1):
        if i in placed:
            continue
        group = [i] + [
            j
            for j in range(i + 1, n + 1)
            if j not in placed and fixes(n, bits, transposition(n, i, j))
        ]
        placed.update(group)
        classes.append(group)
    return classes


def cycle_string(sigma) -> str:
    """Disjoint cycles from the smallest member, fixed points omitted."""
    seen: set[int] = set()
    parts = []
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = sigma[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt - 1]
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """One-line permutation from a cycle string such as ``(1 2)(3 5 4)``."""
    sigma = list(range(1, n + 1))
    for chunk in text.strip("()").split(")("):
        cycle = [int(tok) for tok in chunk.split()]
        for k, v in enumerate(cycle):
            sigma[v - 1] = cycle[(k + 1) % len(cycle)]
    return tuple(sigma)


def automorphisms(n: int, bits: int) -> list[tuple[int, ...]]:
    """Every non-identity input permutation fixing the table (small ``n`` only)."""
    identity = tuple(range(1, n + 1))
    return [s for s in permutations(identity) if s != identity and fixes(n, bits, s)]


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------


def ncf_census(n: int) -> dict[tuple[int, int], int]:
    """Number of ``n``-variable NCFs by ``(layers r, symmetry level s)``.

    Recurrence on the outermost layer: a layer of size ``k`` is chosen in
    ``C(m, k)`` ways and contributes one symmetric class (its ``2`` constant
    input assignments) or two (the other ``2**k - 2``); the last layer has
    at least two variables; the output bit doubles everything.
    """
    tails: dict[int, dict[tuple[int, int], int]] = {}
    for m in range(2, n + 1):
        ways = {(1, 1): 2, (1, 2): (1 << m) - 2}
        for k in range(1, m - 1):
            for (r, s), w in tails[m - k].items():
                base = comb(m, k) * w
                ways[(r + 1, s + 1)] = ways.get((r + 1, s + 1), 0) + 2 * base
                if k >= 2:
                    key = (r + 1, s + 2)
                    ways[key] = ways.get(key, 0) + ((1 << k) - 2) * base
        tails[m] = ways
    return {key: 2 * w for key, w in tails[n].items()}


def ncf_counts(n: int) -> tuple[int, dict[int, int], dict[int, int]]:
    """The total and the counts by layers ``r`` and by symmetry level ``s``."""
    census = ncf_census(n)
    by_r = {r: sum(w for (rr, _), w in census.items() if rr == r) for r in range(1, n)}
    by_s = {s: sum(w for (_, ss), w in census.items() if ss == s) for s in range(1, n + 1)}
    return sum(census.values()), by_r, by_s


def count_rows(n: int) -> list[str]:
    """The CSV ``ncflab count n`` must print, from :func:`ncf_census`."""
    total, by_r, by_s = ncf_counts(n)
    rows = ["n,r_or_s,kind,value", f"{n},,total,{total}"]
    rows += [f"{n},{r},layers,{by_r[r]}" for r in range(1, n)]
    rows += [f"{n},{s},symmetry,{by_s[s]}" for s in range(1, n + 1)]
    rows.append(f"{n},{n},strongly_asymmetric,{by_s[n]}")
    rows.append(
        f"{n},{n - 1},strongly_asymmetric_max_layers,{ncf_census(n).get((n - 1, n), 0)}"
    )
    return rows
