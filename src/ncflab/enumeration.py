"""Exhaustive generation of nested canalizing functions and exact counts.

The unique canonical form makes generation trivial and duplicate-free: every
choice of layer structure, ordered variable partition, per-variable inputs
and output bit yields a distinct function.  Every count is read off one
census of the functions by layer count and symmetry level, each cell a
closed form in Stirling numbers.  The paper's closed forms are its oracles:

* total count: ``2**(n+1)`` times the sum of multinomials over layer
  structures;
* per-symmetry-level count ``N(n, s)``: a sum over layer structures of
  multinomials times the coefficient of ``z**s`` in the product over layer
  sizes ``k`` of ``2z + (2**k - 2) z**2``, with closed forms at the edges
  (``N(n, 1) = 4``; ``N(n, n) = n! * A(n-1)`` for the integer recurrence
  ``A(m) = 2*A(m-1) + A(m-2)``, ``A(0) = 0``, ``A(1) = 2``).

:func:`verify` holds the census to these forms, the generator and the
brute-force analyses and reports one pass/fail entry per identity.  One
kernel, ``_check``, takes the ``2**(n+1)`` functions of one ordered variable
partition at a time, makes one pass per check over them, and folds them in
stream order into a record of builtins: a tally by kind, which counts every
mismatch, the composed tables, and the first three faults of each kind.
With two CPUs, no other thread and ``n >= 4`` it deals the partitions
alternately to itself and a forked child, and adds the child's record to
its own; both halves know each function's stream index, so the report is
the same as one walk in one process.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from math import comb, factorial, prod
from operator import itemgetter

from .core import InvalidInputError, _check_guard, _check_int
from .complexity import cert_profile
from .ncf import LayerDecomposition, compose, decompose, ncf_cert_formula
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
#: verify() checks every ``max(1, total // this)``-th certificate: all below 1,000.
_CERT_SAMPLE_TARGET = 500
#: The kinds of fault verify's walk records, in the order it reports them.
_FAULTS = ("iff", "roundtrip", "cert")


def _check_ncf_arity(n: int) -> None:
    _check_int(n, "arity")
    if n < 2:
        raise InvalidInputError(f"need at least two variables, got {n}")


# ----------------------------------------------------------------------
# Layer structures and generation
# ----------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total >= 2`` into ``parts`` positive parts, last >= 2,
    in lexicographic order: one per set of cut points below ``total - 1``."""
    for cuts in itertools.combinations(range(1, total - 1), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def layer_structures(n: int) -> Iterator[tuple[int, ...]]:
    """All layer structures of arity ``n``: lexicographic within each ``r``."""
    _check_ncf_arity(n)
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
    _check_ncf_arity(n)
    _check_guard("enumeration", n, max_arity)
    if layer_count is not None:
        _check_int(layer_count, "layer count")
        if not 1 <= layer_count <= n - 1:
            return
    for blocks in _partitions(n, layer_count):
        yield from _partition_stream(n, blocks)


def _partitions(n: int, layer_count: int | None = None):
    """The ordered variable partitions of the layer structures, in stream order."""
    pool = tuple(range(1, n + 1))
    for sizes in layer_structures(n):
        if layer_count is None or len(sizes) == layer_count:
            yield from _ordered_partitions(pool, sizes)


def _partition_stream(n: int, blocks) -> Iterator[LayerDecomposition]:
    """The ``2**(n+1)`` functions of one ordered variable partition, in stream order.

    The ``(v, bit)`` pairs are built once: a product over ``x_n .. x_1`` of
    their two pairs runs the counter in order, ``x_1`` fastest, and each
    block reads its layer off a setting with one ``itemgetter``.  A variable
    alone in its block contributes its one-pair layer directly, so every
    getter returns a layer tuple.  Memory stays ``O(n)``.
    """
    single = {block[0] for block in blocks if len(block) == 1}
    pools = [
        (((v, 0),), ((v, 1),)) if v in single else ((v, 0), (v, 1))
        for v in range(n, 0, -1)
    ]
    getters = [itemgetter(*(n - v for v in block)) for block in blocks]
    for setting in itertools.product(*pools):
        layers = tuple([get(setting) for get in getters])
        for b in (0, 1):
            yield LayerDecomposition._unchecked(n, layers, b)


# ----------------------------------------------------------------------
# Counts: one census, with the paper's closed forms as its oracles
# ----------------------------------------------------------------------


def _multinomial(n: int, sizes: tuple[int, ...]) -> int:
    return factorial(n) // prod(map(factorial, sizes))


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
    _check_ncf_arity(n)
    _check_guard("count", n, MAX_COUNT_ARITY)
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
    _check_ncf_arity(n)
    _check_int(r, "layer count", 1, n - 1)
    return sum(count for (layers, _), count in _census(n).items() if layers == r)


def pell_like(m: int) -> int:
    """The integer sequence A(0)=0, A(1)=2, A(m) = 2*A(m-1) + A(m-2).

    Term ``m`` equals ``((1 + sqrt 2)**m - (1 - sqrt 2)**m) / sqrt 2``; the
    recurrence keeps everything in exact integers.
    """
    _check_int(m, "index")
    if m < 0:
        raise InvalidInputError(f"index must be nonnegative, got {m}")
    a, b = 0, 2
    for _ in range(m):
        a, b = b, 2 * b + a
    return a


def _class_ways(sizes: tuple[int, ...]) -> list[int]:
    """Coefficients of the product over layer sizes ``k`` of ``2z + (2**k - 2) z**2``:
    entry ``s`` counts the layers' inputs that make ``s`` classes in all."""
    ways = [1]
    for k in sizes:
        ways = [2 * a + ((1 << k) - 2) * b for a, b in zip([0, *ways, 0], [0, 0, *ways])]
    return ways


def s_symmetric_triple_sum(n: int, s: int) -> int:
    """The paper's triple sum for the number of s-symmetric functions.

    Stated for ``2 <= s <= n - 1``; it also reproduces the edge closed forms
    (``s = 1`` and ``s = n``), which :func:`verify` checks rather than
    assumes.
    """
    _check_ncf_arity(n)
    _check_guard("verify", n, MAX_VERIFY_ARITY)
    _check_int(s, "symmetry level", 1, n)
    total = 0
    for r in range(-(-s // 2), min(s, n - 1) + 1):
        for sizes in _compositions(n, r):
            if sum(min(2, k) for k in sizes) >= s:
                total += _multinomial(n, sizes) * _class_ways(sizes)[s]
    return 2 * total


def count_s_symmetric(n: int, s: int) -> int:
    """``N(n, s)``: the number of ``n``-variable s-symmetric functions."""
    _check_ncf_arity(n)
    _check_int(s, "symmetry level", 1, n)
    return sum(count for (_, level), count in _census(n).items() if level == s)


def strongly_asymmetric_structure_sum(n: int) -> int:
    """``N(n, n)`` summed over its admissible structures directly.

    Strong asymmetry forces every layer size to 1 or 2 with the last equal
    to 2, each such layer having two input choices; cross-checks the
    recurrence form ``n! * pell_like(n - 1)``.
    """
    _check_ncf_arity(n)
    _check_guard("verify", n, MAX_VERIFY_ARITY)
    total = 0
    for r in range(-(-n // 2), n):
        for sizes in _compositions(n, r):
            if sizes[-1] != 2 or any(k > 2 for k in sizes):
                continue
            total += _multinomial(n, sizes) << r
    return 2 * total


def count_strongly_asym_max_layers(n: int) -> int:
    """Strongly asymmetric functions with the maximal ``n - 1`` layers."""
    _check_ncf_arity(n)
    _check_guard("count", n, MAX_COUNT_ARITY)
    return factorial(n) << (n - 1)


class CountTable(namedtuple(
    "CountTable", "n total by_layers by_symmetry strongly_asymmetric strongly_asym_max_layers"
)):
    """All counts for one arity, read off the census.

    :func:`verify` holds them to the paper's closed forms.
    """

    __slots__ = ()
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


class CheckResult(namedtuple("CheckResult", "passed expected actual")):
    __slots__ = ()
    passed: bool
    expected: str
    actual: str


class VerificationReport(namedtuple("VerificationReport", "n functions_checked checks")):
    __slots__ = ()
    n: int
    functions_checked: int | None
    checks: dict[str, CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            name: {"pass": check.passed, "expected": check.expected, "actual": check.actual}
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
    trips, and certificate formula versus brute force (every function when
    there are fewer than 1,000, else a deterministic stride sample of at least
    ``_CERT_SAMPLE_TARGET``).  Larger arities run the
    formula-level identities only, up to ``MAX_VERIFY_ARITY``.
    """
    _check_ncf_arity(n)
    _check_guard("verify", n, MAX_VERIFY_ARITY)
    _check_int(exhaustive_max, "exhaustive_max")
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
    max_layer_count = table.strongly_asym_max_layers
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

    stride = max(1, total // _CERT_SAMPLE_TARGET)
    tally, tables, faults = _split_walk(n, stride)
    tally, faults = Counter(tally), sorted(faults)
    iff, roundtrip, cert = ([t for _, k, t in faults if k == kind][:3] for kind in _FAULTS)
    cells = [(cell, c) for cell, c in tally.items() if type(cell) is tuple]
    layers = {r: sum(c for (k, _, _), c in cells if k == r) for r in by_layers}
    levels = {s: sum(c for (_, k, _), c in cells if k == s) for s in by_symmetry}
    count, strong = sum(c for _, c in cells), sum(c for (_, _, a), c in cells if a)

    checks["stream_length_equals_total"] = _result(total, count)
    checks["composed_tables_distinct"] = _result(total, len(set(tables)))
    checks["layer_histogram_matches_formula"] = _result(by_layers, layers)
    checks["symmetry_histogram_matches_formula"] = _result(by_symmetry, levels)
    checks["strongly_asymmetric_census"] = _result(by_symmetry[n], strong)
    checks["strong_asymmetry_iff_n_symmetric"] = _result([], iff, f"{tally['iff']} counterexamples")
    checks["decompose_roundtrip"] = _result([], roundtrip, f"{tally['roundtrip']} counterexamples")
    checks["certificate_formula_vs_bruteforce"] = CheckResult(
        not cert,
        f"0 mismatches in {tally['sampled']} functions",
        f"{tally['cert']} mismatches in {tally['sampled']} functions"
        + (f" (first: {', '.join(cert)})" if cert else ""),
    )
    return VerificationReport(n, count, checks)


def _check(record: tuple, stride: int, indices: Iterable[int], batch: list) -> None:
    """verify's checks on the stream items ``batch`` at stream ``indices``,
    folded into ``record``: a tally by kind (each function's cell ``(layers,
    level, strongly asymmetric)``, certificate samples at every ``stride``-th
    index, each fault), the composed tables, and ``(index, kind, hex)`` for
    the first three faults of each kind, in builtins that :mod:`marshal`
    carries.  One pass per check over the batch, then one fold in order."""
    tally, tables, faults = record
    fs = list(map(compose, batch))
    levels = list(map(symmetry_level, fs))
    asymmetric = [not found for found in map(has_nontrivial_automorphism, fs)]
    backs = list(map(decompose, fs))
    for index, d, f, s, strong, back in zip(indices, batch, fs, levels, asymmetric, backs):
        tables.append(f.bits)
        cell = (len(d.layers), s, strong)
        tally[cell] = tally.get(cell, 0) + 1
        kinds = ["iff"] if strong != (s == d.arity) else []
        if not (back.is_ncf and back.decomposition == d):
            kinds.append("roundtrip")
        if index % stride == 0:
            kinds.append("sampled")
            profile = cert_profile(f)
            if ncf_cert_formula(d.structure(), d.b) != (profile.c0, profile.c1, profile.c):
                kinds.append("cert")
        for kind in kinds:
            tally[kind] = count = tally.get(kind, 0) + 1
            if count <= 3 and kind in _FAULTS:
                faults.append((index, kind, f.to_hex()))


def _walk(n: int, stride: int, first: int = 0, step: int = 1) -> tuple:
    """:func:`_check`'s record of every ``step``-th ordered variable partition
    of the stream from partition ``first``, each one batch.  Partition ``k``
    holds the stream indices from ``k * 2**(n+1)``, so the certificate stride
    samples the same functions however the partitions are dealt."""
    record = ({}, [], [])
    for k, blocks in itertools.islice(enumerate(_partitions(n)), first, None, step):
        batch = list(_partition_stream(n, blocks))
        _check(record, stride, range(k * len(batch), (k + 1) * len(batch)), batch)
    return record


def _split_walk(n: int, stride: int) -> tuple:
    """:func:`_walk` over the whole stream, the odd partitions in a forked child.

    The child sends its walk through a pipe.  The parent reaps it on every
    path, and walks the child's partitions itself if the child failed.
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
        return _walk(n, stride)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _walk(n, stride)
    if pid == 0:  # the child: send the odd partitions' walk, and never return
        try:
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_walk(n, stride, 1, 2)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            walk = _walk(n, stride, 0, 2)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    ok = os.waitstatus_to_exitcode(status) == 0  # then it sent its whole walk
    odd = marshal.loads(data) if ok else _walk(n, stride, 1, 2)
    for mine, theirs in zip(walk, odd):  # add the tallies, join the lists
        if type(mine) is dict:
            mine.update({kind: mine.get(kind, 0) + c for kind, c in theirs.items()})
        else:
            mine += theirs
    return walk
