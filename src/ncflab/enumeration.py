"""Exhaustive generation of nested canalizing functions and exact counts.

The unique canonical form makes generation trivial and duplicate-free: every
choice of layer structure, ordered variable partition, per-variable inputs
and output bit yields a distinct function.  Every count is read off one
census of the functions by layer count and symmetry level, each cell a
closed form in Stirling numbers.  The paper's closed forms are its oracles:

* total count: ``2**(n+1)`` times the sum of multinomials over layer
  structures;
* per-symmetry-level count ``N(n, s)``: a triple sum over layer structures
  and per-layer class contributions, with closed forms at the edges
  (``N(n, 1) = 4``; ``N(n, n) = n! * A(n-1)`` for the integer recurrence
  ``A(m) = 2*A(m-1) + A(m-2)``, ``A(0) = 0``, ``A(1) = 2``).

:func:`verify` holds the census to these forms, the generator and the
brute-force analyses and reports one pass/fail entry per identity.  With
two CPUs, no other thread and ``n >= 4`` it cuts the layer structures into
two runs of about half the functions each and forks a child for the later
run; the merged walk, and so the report, is the same as one walk in one
process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

from .core import GuardExceededError, InvalidInputError
from .complexity import cert_profile, ncf_cert_formula
from .ncf import LayerDecomposition, compose, decompose
from .symmetry import has_nontrivial_automorphism, symmetry_level

#: Exhaustive enumeration feeds downstream exponential analyses.
MAX_ENUMERATION_ARITY = 6
#: Counts are exact; this bounds their size (n = 200 takes well under 1 s).
MAX_COUNT_ARITY = 200
#: verify()'s formula-level oracles walk all 2**(n-1) compositions; they and
#: verify() refuse arities above this.
MAX_VERIFY_ARITY = 22
#: verify() runs the full generate-and-measure loop up to here.
MAX_VERIFY_EXHAUSTIVE_ARITY = 5
#: verify() checks every certificate up to here, a stride sample above.
_CERT_EXHAUSTIVE_MAX, _CERT_SAMPLE_TARGET = 4, 500


def _check_arity(n: int) -> None:
    if n < 2:
        raise InvalidInputError(f"need at least two variables, got {n}")


# ----------------------------------------------------------------------
# Layer structures and generation
# ----------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive parts, last >= 2."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(1, total - parts + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def layer_structures(n: int) -> Iterator[tuple[int, ...]]:
    """All layer structures of arity ``n``: lexicographic within each ``r``."""
    _check_arity(n)
    for r in range(1, n):
        yield from _compositions(n, r)


def _ordered_partitions(pool: tuple[int, ...], sizes: tuple[int, ...]):
    """Ordered set partitions of ``pool`` into blocks of the given sizes.

    Each block choice runs in colexicographic order, so the stream order is
    deterministic and reproducible.
    """
    if not sizes:
        yield ()
        return
    k = sizes[0]
    for block in sorted(itertools.combinations(pool, k), key=lambda c: c[::-1]):
        remaining = tuple(v for v in pool if v not in block)
        for rest in _ordered_partitions(remaining, sizes[1:]):
            yield (block,) + rest


def enumerate_ncfs(
    n: int, *, max_arity: int = MAX_ENUMERATION_ARITY, layer_count: int | None = None
) -> Iterator[LayerDecomposition]:
    """Every ``n``-variable nested canalizing function, exactly once.

    Stream order is fully deterministic: structures as in
    :func:`layer_structures`, variable partitions colexicographic, the
    ``2**n`` input assignments as a counter (bit ``i-1`` of the counter is
    the input of ``x_i``), and finally the output bit.  Uniqueness of the
    canonical form guarantees no two emitted decompositions compose to the
    same table.  ``layer_count`` restricts the stream to one layer count
    without walking the rest.  Items are valid by construction and skip
    :class:`LayerDecomposition`'s validation.
    """
    _check_arity(n)
    if n > max_arity:
        raise GuardExceededError("enumeration", n, max_arity)
    if layer_count is not None and not 1 <= layer_count <= n - 1:
        return
    for sizes in layer_structures(n):
        if layer_count is None or len(sizes) == layer_count:
            yield from _structure_stream(n, sizes)


def _structure_stream(n: int, sizes: tuple[int, ...]) -> Iterator[LayerDecomposition]:
    """The functions of one layer structure, in stream order."""
    for blocks in _ordered_partitions(tuple(range(1, n + 1)), sizes):
        for counter in range(1 << n):
            layers = tuple(
                tuple((v, (counter >> (v - 1)) & 1) for v in block) for block in blocks
            )
            for b in (0, 1):
                yield LayerDecomposition._unchecked(n, layers, b)


# ----------------------------------------------------------------------
# Counts: one census, with the paper's closed forms as its oracles
# ----------------------------------------------------------------------


def _multinomial(n: int, sizes: tuple[int, ...]) -> int:
    out = factorial(n)
    for size in sizes:
        out //= factorial(size)
    return out


def _stirling_rows(n: int) -> tuple[list[int], list[int]]:
    """Rows ``n - 1`` and ``n`` of Stirling numbers of the second kind, ``S(m, k)``."""
    below, row = [], [1]
    for m in range(1, n + 1):
        below, row = row, [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return below, row


def _census(n: int) -> dict[tuple[int, int], int]:
    """The ``n``-variable functions counted by ``(layers r, symmetry level s)``.

    Exponential generating functions over layer sequences with ``a = 2r - s``
    one-class layers, times 2 output bits, give for ``r <= s <= min(2r, n)``::

        2 * [C(r, a) 2**a s! S(n, s) - 2n C(r-1, a-1) 2**(a-1) (s-1)! S(n-1, s-1)]

    The second term (zero at ``a = 0``) drops sequences ending in one variable.
    """
    _check_arity(n)
    if n > MAX_COUNT_ARITY:
        raise GuardExceededError("count", n, MAX_COUNT_ARITY)
    below, row = _stirling_rows(n)
    census = {}
    for r in range(1, n):
        for s in range(r, min(2 * r, n) + 1):
            a = 2 * r - s
            sequences = comb(r, a) * factorial(s) * row[s]
            tail = n * comb(r - 1, a - 1) * factorial(s - 1) * below[s - 1] if a else 0
            census[r, s] = 2 * (sequences - tail) << a
    return census


def count_total(n: int) -> int:
    """Number of ``n``-variable nested canalizing functions (exact)."""
    return sum(_census(n).values())


def count_by_layers(n: int, r: int) -> int:
    """Number of ``n``-variable functions with exactly ``r`` layers."""
    _check_arity(n)
    if not 1 <= r <= n - 1:
        raise InvalidInputError(f"layer count {r} out of range 1..{n - 1}")
    return sum(count for (layers, _), count in _census(n).items() if layers == r)


def pell_like(m: int) -> int:
    """The integer sequence A(0)=0, A(1)=2, A(m) = 2*A(m-1) + A(m-2).

    Term ``m`` equals ``((1 + sqrt 2)**m - (1 - sqrt 2)**m) / sqrt 2``; the
    recurrence keeps everything in exact integers.
    """
    if m < 0:
        raise InvalidInputError(f"index must be nonnegative, got {m}")
    a, b = 0, 2
    for _ in range(m):
        a, b = b, 2 * b + a
    return a


def _t_assignment_sum(sizes: tuple[int, ...], s: int) -> int:
    """Sum over per-layer class counts ``t_i`` (1..min(2, k_i), summing to s)."""

    def rec(index: int, remaining: int) -> int:
        if index == len(sizes):
            return 1 if remaining == 0 else 0
        lo = len(sizes) - index  # at least one class per remaining layer
        hi = sum(min(2, k) for k in sizes[index:])
        if not lo <= remaining <= hi:
            return 0
        total = 0
        for t in range(1, min(2, sizes[index]) + 1):
            ways = 2 if t == 1 else (1 << sizes[index]) - 2  # t = 1: constant inputs
            total += ways * rec(index + 1, remaining - t)
        return total

    return rec(0, s)


def s_symmetric_triple_sum(n: int, s: int) -> int:
    """The paper's triple sum for the number of s-symmetric functions.

    Stated for ``2 <= s <= n - 1``; it also reproduces the edge closed forms
    (``s = 1`` and ``s = n``), which :func:`verify` checks rather than
    assumes.
    """
    _check_arity(n)
    if n > MAX_VERIFY_ARITY:
        raise GuardExceededError("verify", n, MAX_VERIFY_ARITY)
    if not 1 <= s <= n:
        raise InvalidInputError(f"symmetry level {s} out of range 1..{n}")
    total = 0
    for r in range(-(-s // 2), s + 1):
        if r > n - 1:
            break
        for sizes in _compositions(n, r):
            inner = _t_assignment_sum(sizes, s)
            if inner:
                total += _multinomial(n, sizes) * inner
    return 2 * total


def count_s_symmetric(n: int, s: int) -> int:
    """``N(n, s)``: the number of ``n``-variable s-symmetric functions."""
    _check_arity(n)
    if not 1 <= s <= n:
        raise InvalidInputError(f"symmetry level {s} out of range 1..{n}")
    return sum(count for (_, level), count in _census(n).items() if level == s)


def strongly_asymmetric_structure_sum(n: int) -> int:
    """``N(n, n)`` summed over its admissible structures directly.

    Strong asymmetry forces every layer size to 1 or 2 with the last equal
    to 2, each such layer having two input choices; cross-checks the
    recurrence form ``n! * pell_like(n - 1)``.
    """
    _check_arity(n)
    if n > MAX_VERIFY_ARITY:
        raise GuardExceededError("verify", n, MAX_VERIFY_ARITY)
    total = 0
    for r in range(-(-n // 2), n):
        for sizes in _compositions(n, r):
            if sizes[-1] != 2 or any(k > 2 for k in sizes):
                continue
            total += _multinomial(n, sizes) << r
    return 2 * total


def count_strongly_asym_max_layers(n: int) -> int:
    """Strongly asymmetric functions with the maximal ``n - 1`` layers."""
    _check_arity(n)
    return factorial(n) << (n - 1)


@dataclass(frozen=True)
class CountTable:
    """All counts for one arity, read off the census.

    :func:`verify` holds them to the paper's closed forms.
    """

    n: int
    total: int
    by_layers: dict[int, int]
    by_symmetry: dict[int, int]
    strongly_asymmetric: int
    strongly_asym_max_layers: int


def count_table(n: int) -> CountTable:
    """Every count for arity ``n``."""
    census = _census(n)
    by_layers = {r: 0 for r in range(1, n)}
    by_symmetry = {s: 0 for s in range(1, n + 1)}
    for (r, s), count in census.items():
        by_layers[r] += count
        by_symmetry[s] += count
    return CountTable(
        n=n,
        total=sum(census.values()),
        by_layers=by_layers,
        by_symmetry=by_symmetry,
        strongly_asymmetric=by_symmetry[n],
        strongly_asym_max_layers=count_strongly_asym_max_layers(n),
    )


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class VerificationReport:
    n: int
    functions_checked: int | None
    checks: dict[str, CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            name: {
                "pass": check.passed,
                "expected": check.expected,
                "actual": check.actual,
            }
            for name, check in sorted(self.checks.items())
        }


def _result(expected, actual, note: str = "") -> CheckResult:
    passed = expected == actual
    actual_text = str(actual)
    if not passed and note:
        actual_text = f"{actual} [{note}]"
    return CheckResult(passed, str(expected), actual_text)


def verify(
    n: int, *, exhaustive_max: int = MAX_VERIFY_EXHAUSTIVE_ARITY
) -> VerificationReport:
    """Cross-validate every counting identity, by generation where feasible.

    No formula-level identity compares the census with itself.
    Up to ``exhaustive_max`` variables the full stream is generated and
    measured: stream length and distinctness, per-layer and per-symmetry
    histograms, a brute-force strong-asymmetry census, decomposition round
    trips, and certificate formula versus brute force (exhaustive up to
    ``_CERT_EXHAUSTIVE_MAX``, deterministic stride sampling of at least
    ``_CERT_SAMPLE_TARGET`` functions above that).  Larger arities run the
    formula-level identities only, up to ``MAX_VERIFY_ARITY``.
    """
    if n > MAX_VERIFY_ARITY:
        raise GuardExceededError("verify", n, MAX_VERIFY_ARITY)
    table = count_table(n)
    total, by_layers, by_symmetry = table.total, table.by_layers, table.by_symmetry
    checks: dict[str, CheckResult] = {}

    oracle = (1 << (n + 1)) * sum(_multinomial(n, k) for k in layer_structures(n))
    checks["sum_by_layers_equals_total"] = _result(oracle, sum(by_layers.values()))
    checks["sum_by_symmetry_equals_total"] = _result(oracle, sum(by_symmetry.values()))
    checks["recurrence_matches_structure_sum"] = _result(
        factorial(n) * pell_like(n - 1), strongly_asymmetric_structure_sum(n)
    )
    checks["triple_sum_matches_edge_s_1"] = _result(4, s_symmetric_triple_sum(n, 1))
    checks["triple_sum_matches_edge_s_n"] = _result(
        by_symmetry[n], s_symmetric_triple_sum(n, n)
    )
    max_layer_count = count_strongly_asym_max_layers(n)
    if n >= 4:
        checks["strongly_asymmetric_exceeds_max_layer_count"] = CheckResult(
            by_symmetry[n] > max_layer_count,
            f"N(n,n) > {max_layer_count}",
            str(by_symmetry[n]),
        )
    else:
        checks["strongly_asymmetric_equals_max_layer_count"] = _result(
            max_layer_count, by_symmetry[n]
        )

    if n > exhaustive_max:
        return VerificationReport(n, None, checks)

    stride = 1 if n <= _CERT_EXHAUSTIVE_MAX else max(1, total // _CERT_SAMPLE_TARGET)
    walk = _split_walk(n, list(layer_structures(n)), stride)
    count, cert_checked, cert_failures = walk["count"], walk["cert_checked"], walk["cert"]

    checks["stream_length_equals_total"] = _result(total, count)
    checks["composed_tables_distinct"] = _result(total, len(walk["tables"]))
    checks["layer_histogram_matches_formula"] = _result(by_layers, walk["layers"])
    checks["symmetry_histogram_matches_formula"] = _result(by_symmetry, walk["levels"])
    checks["strongly_asymmetric_census"] = _result(by_symmetry[n], walk["strong"])
    checks["strong_asymmetry_iff_n_symmetric"] = _result([], walk["iff"], "counterexamples")
    checks["decompose_roundtrip"] = _result([], walk["roundtrip"], "counterexamples")
    checks["certificate_formula_vs_bruteforce"] = CheckResult(
        not cert_failures,
        f"0 mismatches in {cert_checked} functions",
        f"{len(cert_failures)} mismatches in {cert_checked} functions"
        + (f" (first: {cert_failures[0]})" if cert_failures else ""),
    )
    return VerificationReport(n, count, checks)


def _walk(n: int, structures: list[tuple[int, ...]], index: int, stride: int) -> dict:
    """verify's per-function checks over a run of layer structures.

    ``index`` is the stream index of the run's first function, so the
    certificate stride samples the same functions wherever the stream is
    cut.  The result holds only builtins, so :mod:`marshal` can carry it.
    """
    layers, levels = dict.fromkeys(range(1, n), 0), dict.fromkeys(range(1, n + 1), 0)
    tables, iff, roundtrip, cert = set(), [], [], []
    count = strong_census = cert_checked = 0
    for sizes in structures:
        for d in _structure_stream(n, sizes):
            f = compose(d)
            tables.add(f.bits)
            layers[len(d.layers)] += 1
            s = symmetry_level(f)
            levels[s] += 1

            strong = not has_nontrivial_automorphism(f)
            strong_census += strong
            if strong != (s == n) and len(iff) < 3:
                iff.append(f.to_hex())

            back = decompose(f)
            if not (back.is_ncf and back.decomposition == d) and len(roundtrip) < 3:
                roundtrip.append(f.to_hex())

            if (index + count) % stride == 0:
                cert_checked += 1
                profile = cert_profile(f)
                formula = ncf_cert_formula(d.structure(), d.b)
                if formula != (profile.c0, profile.c1, profile.c) and len(cert) < 3:
                    cert.append(f.to_hex())
            count += 1
    return dict(
        count=count, tables=tables, layers=layers, levels=levels, strong=strong_census,
        iff=iff, roundtrip=roundtrip, cert=cert, cert_checked=cert_checked,
    )


def _split_walk(n: int, structures: list[tuple[int, ...]], stride: int) -> dict:
    """:func:`_walk` over all structures, the later ones in a forked child.

    The child sends its walk through a pipe.  The parent reaps it on every
    path, and walks the child's run itself if the child failed.
    """
    import marshal
    import os
    import signal
    import sys

    # One walk here below n = 4, where a fork costs more (about 5 ms) than it
    # saves; without fork or a second CPU; and beside other threads, which a
    # forked child does not get and whose locks it may find held.
    threads = sys.modules["threading"].active_count() if "threading" in sys.modules else 1
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    if n < 4 or not hasattr(os, "fork") or len(affinity(0)) < 2 or threads > 1:
        return _walk(n, structures, 0, stride)
    ends = list(itertools.accumulate(_multinomial(n, k) << (n + 1) for k in structures))
    cut = min(range(len(ends)), key=lambda i: abs(2 * ends[i] - ends[-1])) + 1
    tail, start = structures[cut:], ends[cut - 1]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _walk(n, structures, 0, stride)
    if pid == 0:  # the child: send the later run's walk, and never return
        try:
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_walk(n, tail, start, stride)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            walk = _walk(n, structures[:cut], 0, stride)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    ok = os.waitstatus_to_exitcode(status) == 0  # then it sent its whole walk
    later = marshal.loads(data) if ok else _walk(n, tail, start, stride)
    for key, value in later.items():
        if isinstance(value, set):  # the smaller set goes into the larger in place
            small, walk[key] = sorted((walk[key], value), key=len)
            walk[key] |= small
        elif isinstance(value, dict):
            walk[key] = {k: v + value[k] for k, v in walk[key].items()}
        elif isinstance(value, list):
            walk[key] = (walk[key] + value)[:3]
        else:
            walk[key] += value
    return walk
