"""The four workloads: seeded inputs, batches of CLI invocations, output checks.

A batch is the fixed unit of work a workload repeats.  Batches hold a fixed
number of invocations per arity, so the median and the 90th percentile of
the invocation latency fall at fixed ranks of a batch instead of jumping
between arities from run to run.

Every invocation's stdout is checked against :mod:`oracle`, which shares no
code with ncflab.  A check returns the number of items the invocation
handled (functions analysed, NCFs checked, ``count`` commands) and raises
:class:`CheckFailed` on any disagreement.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

#: ``count-sweep`` runs ``ncflab count n`` for n = 2..COUNT_SWEEP_MAX.  Twelve
#: arities put the median between ``count 7`` and ``count 8`` and the 90th
#: percentile on ``count 12``.  A sweep takes about 0.6 s, so a run holds
#: dozens of batches and more than ten ``count 13`` calls beyond p90.
COUNT_SWEEP_MAX = 13
#: Invocations per batch, by arity.
NCF_WIDE_MIX = {9: 6, 10: 5, 11: 4, 12: 3}
SMALL_MIXED_MIX = {5: 4, 6: 4, 7: 3, 8: 2}
#: ``--block-sensitivity`` is passed up to this arity (ncflab's default guard).
BLOCK_SENSITIVITY_MAX = 6
#: The benchmark's own exhaustive automorphism search runs up to this arity.
ORACLE_AUTOMORPHISM_MAX = 5


class CheckFailed(Exception):
    """An invocation's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One ``ncflab`` invocation and the check on its stdout."""

    argv: tuple[str, ...]
    check: Callable[[str], int]


# ----------------------------------------------------------------------
# analyze: shared report checks
# ----------------------------------------------------------------------


def _check_report(report: dict, n: int, bits: int) -> None:
    """Facts every analyze report must satisfy, whatever the function."""
    expect(report["input"]["table"] == oracle.hex_spec(n, bits), "input.table")
    expect(report["input"]["anf"] == oracle.anf_text(n, bits), "input.anf")
    cx = report["complexity"]
    expect(cx["c"] == max(cx["c0"], cx["c1"]), "c != max(c0, c1)")
    expect(cx["s"] == oracle.sensitivity(n, bits), "sensitivity")
    expect(cx["s"] <= cx["c"], "s > c")
    if cx["bs"] is not None:
        expect(cx["s"] <= cx["bs"] <= cx["c"], "s <= bs <= c violated")
    expect(cx["witnesses"] == [], "unrequested witnesses")
    sym = report["symmetry"]
    s = len(sym["classes"])
    expect(sym["s"] == s, "symmetry.s != number of classes")
    expect(sym["partially_symmetric"] == (s <= n - 1), "partially_symmetric")
    expect(sym["totally_symmetric"] == (s == 1), "totally_symmetric")
    expect((sym["witness"] is None) == sym["strongly_asymmetric"], "witness presence")
    if sym["strongly_asymmetric"]:
        expect(s == n, "strongly asymmetric but s != n")


def _check_ncf_sections(report: dict, n: int, layers, b: int) -> None:
    """A nested form must come back as itself, with the closed-form measures."""
    expect(
        report["ncf"]
        == {
            "is_ncf": True,
            "reason": None,
            "decomposition": oracle.canonical_text(layers, b),
            "layer_structure": [len(layer) for layer in layers],
        },
        "ncf section",
    )
    c0, c1 = oracle.ncf_certificate_pair(layers, b)
    cx = report["complexity"]
    expect((cx["c0"], cx["c1"], cx["c"]) == (c0, c1, max(c0, c1)), "C0/C1")
    expect(cx["formula"] == {"c0": c0, "c1": c1, "c": max(c0, c1)}, "formula")
    expect(
        report["agreement"]
        == {
            "certificate_formula_matches_bruteforce": True,
            "sensitivity_equals_certificate": True,
        },
        "agreement",
    )


def _load(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {exc}") from None


# ----------------------------------------------------------------------
# analyze-ncf-wide
# ----------------------------------------------------------------------


def random_nested_form(rng: random.Random, n: int):
    """A uniformly random layer structure, variable order, inputs and output bit."""
    order = rng.sample(range(1, n + 1), n)
    layers = [[order[0]]]
    for pos in range(1, n):
        # A layer may start anywhere but in the last position: the last
        # layer needs two variables.
        if pos <= n - 2 and rng.random() < 0.5:
            layers.append([])
        layers[-1].append(order[pos])
    return [[(v, rng.getrandbits(1)) for v in layer] for layer in layers], rng.getrandbits(1)


def _ncf_op(n: int, layers, b: int) -> Op:
    def check(out: str) -> int:
        report = _load(out)
        bits = oracle.nested_table(n, layers, b)
        _check_report(report, n, bits)
        _check_ncf_sections(report, n, layers, b)
        classes = oracle.ncf_classes(layers)
        sym = report["symmetry"]
        expect(sym["classes"] == classes, "symmetry classes")
        expect(sym["strongly_asymmetric"] == (len(classes) == n), "strong asymmetry")
        if sym["witness"] is not None:
            # A permutation inside the classes fixes a nested form.
            class_of = {v: k for k, cls in enumerate(classes) for v in cls}
            sigma = oracle.parse_cycles(sym["witness"], n)
            expect(
                all(class_of[v] == class_of[sigma[v - 1]] for v in range(1, n + 1)),
                "witness leaves its classes",
            )
        return 1

    return Op(("analyze", "--anf", oracle.form_text(layers, b), "--json"), check)


def ncf_wide_batch(rng: random.Random) -> list[Op]:
    return [
        _ncf_op(n, *random_nested_form(rng, n))
        for n, count in NCF_WIDE_MIX.items()
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# analyze-small-mixed
# ----------------------------------------------------------------------


def planted_table(rng: random.Random, n: int):
    """A random table fixed by a random cycle on 2..n variables, and that cycle."""
    members = rng.sample(range(1, n + 1), rng.randint(2, n))
    sigma = list(range(1, n + 1))
    for k, v in enumerate(members):
        sigma[v - 1] = members[(k + 1) % len(members)]
    image = [oracle.permuted_index(idx, sigma) for idx in range(1 << n)]
    bits = 0
    seen = [False] * (1 << n)
    for idx in range(1 << n):
        if seen[idx]:
            continue
        value = rng.getrandbits(1)
        while not seen[idx]:
            seen[idx] = True
            bits |= value << idx
            idx = image[idx]
    return bits, tuple(sigma)


def _small_op(n: int, bits: int, planted) -> Op:
    argv = ("analyze", "--table", oracle.hex_spec(n, bits), "--json")
    if n <= BLOCK_SENSITIVITY_MAX:
        argv += ("--block-sensitivity",)

    def check(out: str) -> int:
        report = _load(out)
        _check_report(report, n, bits)
        cx = report["complexity"]
        expect((cx["bs"] is not None) == (n <= BLOCK_SENSITIVITY_MAX), "bs presence")
        ncf = report["ncf"]
        if ncf["is_ncf"]:
            layers, b = oracle.parse_canonical(ncf["decomposition"])
            expect(oracle.nested_table(n, layers, b) == bits, "decomposition")
            expect(ncf["layer_structure"] == [len(layer) for layer in layers], "structure")
            _check_ncf_sections(report, n, layers, b)
        else:
            _check_not_ncf(report, n, bits)
        sym = report["symmetry"]
        expect(sym["classes"] == oracle.symmetry_classes(n, bits), "symmetry classes")
        witness = sym["witness"]
        if witness is not None:
            sigma = oracle.parse_cycles(witness, n)
            expect(oracle.cycle_string(sigma) == witness, "witness is not canonical")
            expect(oracle.fixes(n, bits, sigma), "witness is not an automorphism")
        if planted is not None:
            # The reported witness is the automorphism whose cycle string
            # sorts first, so it cannot sort after the planted one.
            expect(witness is not None, "planted automorphism missed")
            expect(witness <= oracle.cycle_string(planted), "witness tie-break")
        if n <= ORACLE_AUTOMORPHISM_MAX:
            found = sorted(map(oracle.cycle_string, oracle.automorphisms(n, bits)))
            expect(witness == (found[0] if found else None), "automorphism search")
        return 1

    return Op(argv, check)


def _check_not_ncf(report: dict, n: int, bits: int) -> None:
    ncf = report["ncf"]
    expect(ncf["decomposition"] is None and ncf["layer_structure"] is None, "ncf section")
    expect(report["complexity"]["formula"] is None, "formula on a non-NCF")
    expect(
        report["agreement"]
        == {
            "certificate_formula_matches_bruteforce": None,
            "sensitivity_equals_certificate": None,
        },
        "agreement on a non-NCF",
    )
    constant = bits in (0, oracle.full(n))
    essential = all(oracle.is_essential(n, bits, i) for i in range(1, n + 1))
    canalizing = any(
        oracle.restriction_is_constant(n, bits, i, a)
        for i in range(1, n + 1)
        for a in (0, 1)
    )
    reason = ncf["reason"]
    expect((reason == "constant function") == constant, "constant reason")
    if not constant:
        expect((reason == "inessential variable") == (not essential), "inessential reason")
    if reason == "no canalizing variable":
        expect(essential, "no-canalizing reason on an inessential variable")
    if not constant and essential and not canalizing:
        expect(reason == "no canalizing variable", "missed no-canalizing reason")


def small_mixed_batch(rng: random.Random) -> list[Op]:
    ops = []
    for n, count in SMALL_MIXED_MIX.items():
        for _ in range(count):
            # Alternate across the whole batch: half uniform, half planted.
            if len(ops) % 2:
                ops.append(_small_op(n, *planted_table(rng, n)))
            else:
                ops.append(_small_op(n, rng.getrandbits(1 << n), None))
    return ops


# ----------------------------------------------------------------------
# verify-5 and count-sweep (fixed inputs; the seed does not change them)
# ----------------------------------------------------------------------


def _check_verify(out: str) -> int:
    report = _load(out)
    total, by_r, by_s = oracle.ncf_counts(5)
    failing = sorted(name for name, check in report.items() if not check["pass"])
    expect(not failing, f"verify checks failed: {failing}")
    expect(report["stream_length_equals_total"]["actual"] == str(total), "stream length")
    expect(report["composed_tables_distinct"]["actual"] == str(total), "distinct tables")
    expect(report["layer_histogram_matches_formula"]["actual"] == str(by_r), "layers")
    expect(report["symmetry_histogram_matches_formula"]["actual"] == str(by_s), "symmetry")
    expect(report["strongly_asymmetric_census"]["actual"] == str(by_s[5]), "census")
    # The stream length is VerificationReport.functions_checked.
    return total


def verify_batch(rng: random.Random) -> list[Op]:
    return [Op(("verify", "5"), _check_verify)]


def _count_op(n: int) -> Op:
    def check(out: str) -> int:
        expect(out.splitlines() == oracle.count_rows(n), f"count {n} rows")
        return 1

    return Op(("count", str(n)), check)


def count_batch(rng: random.Random) -> list[Op]:
    return [_count_op(n) for n in range(2, COUNT_SWEEP_MAX + 1)]


#: Workload name -> batch builder.  BENCHMARK.json and README.md say why each exists.
WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "analyze-ncf-wide": ncf_wide_batch,
    "analyze-small-mixed": small_mixed_batch,
    "verify-5": verify_batch,
    "count-sweep": count_batch,
}
