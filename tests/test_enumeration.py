"""Exhaustive generation and exact counting formulas."""

import itertools
import json
import os
import threading
import time
import types
import warnings
from math import factorial
from pathlib import Path

import pytest

from conftest import reference_census

import ncflab.enumeration
from ncflab import (
    GuardExceededError,
    InvalidInputError,
    LayerDecomposition,
    compose,
    count_by_layers,
    count_s_symmetric,
    count_strongly_asym_max_layers,
    count_table,
    count_total,
    enumerate_ncfs,
    layer_structures,
    pell_like,
    s_symmetric_triple_sum,
    strongly_asymmetric_structure_sum,
    verify,
)
from ncflab.cli import main


def test_layer_structures_listings():
    assert list(layer_structures(2)) == [(2,)]
    assert list(layer_structures(3)) == [(3,), (1, 2)]
    assert list(layer_structures(4)) == [(4,), (1, 3), (2, 2), (1, 1, 2)]
    with pytest.raises(InvalidInputError):
        list(layer_structures(1))


def test_layer_structures_are_valid_compositions():
    for n in range(2, 9):
        seen = set()
        for sizes in layer_structures(n):
            assert sum(sizes) == n
            assert all(k >= 1 for k in sizes[:-1])
            assert sizes[-1] >= 2
            assert sizes not in seen
            seen.add(sizes)


def test_stream_lengths_match_totals():
    assert count_total(2) == 8
    assert count_total(3) == 64
    assert count_total(4) == 736
    assert count_total(5) == 10624
    for n in (2, 3, 4):
        assert sum(1 for _ in enumerate_ncfs(n)) == count_total(n)


def test_stream_is_duplicate_free():
    for n in (2, 3, 4):
        tables = {compose(d).bits for d in enumerate_ncfs(n)}
        assert len(tables) == count_total(n)


def test_stream_items_pass_public_validation():
    # The stream skips LayerDecomposition's validation; the public
    # constructor must accept every item and build an equal object.
    for n in (2, 3, 4, 5):
        for d in enumerate_ncfs(n):
            assert LayerDecomposition(d.arity, d.layers, d.b) == d


def test_stream_is_deterministic():
    first = list(itertools.islice(enumerate_ncfs(4), 60))
    second = list(itertools.islice(enumerate_ncfs(4), 60))
    assert first == second


def test_enumeration_guard():
    with pytest.raises(GuardExceededError) as err:
        next(enumerate_ncfs(7))
    assert err.value.guard == "enumeration"
    with pytest.raises(InvalidInputError):
        next(enumerate_ncfs(1))


def test_count_by_layers_values():
    assert count_by_layers(4, 3) == 384 == factorial(4) * 2**4
    assert count_by_layers(3, 2) == 48 == factorial(3) * 2**3
    assert count_by_layers(2, 1) == 8
    for n in range(2, 10):
        assert count_by_layers(n, n - 1) == factorial(n) * 2**n
    with pytest.raises(InvalidInputError):
        count_by_layers(4, 4)
    with pytest.raises(InvalidInputError):
        count_by_layers(4, 0)


def test_count_sum_identities():
    # Each marginal of the census against the multinomial sum over layer
    # structures, which does not read the census.
    for n in range(2, 13):
        total = (1 << (n + 1)) * sum(
            ncflab.enumeration._multinomial(n, k) for k in layer_structures(n)
        )
        assert count_total(n) == total
        assert sum(count_by_layers(n, r) for r in range(1, n)) == total
        assert sum(count_s_symmetric(n, s) for s in range(1, n + 1)) == total


def test_count_s_symmetric_values():
    assert count_s_symmetric(2, 2) == 4
    assert count_s_symmetric(3, 3) == 24
    assert count_s_symmetric(4, 4) == 240
    assert count_s_symmetric(3, 2) == 36
    for n in range(2, 11):
        assert count_s_symmetric(n, 1) == 4
    with pytest.raises(InvalidInputError):
        count_s_symmetric(4, 5)
    with pytest.raises(InvalidInputError):
        count_s_symmetric(4, 0)


def test_pell_recurrence_and_closed_form_agree():
    assert [pell_like(m) for m in range(6)] == [0, 2, 4, 10, 24, 58]
    for n in range(2, 21):
        assert count_s_symmetric(n, n) == factorial(n) * pell_like(n - 1)
        assert count_s_symmetric(n, n) == strongly_asymmetric_structure_sum(n)


def test_triple_sum_reproduces_edges():
    for n in range(2, 13):
        assert s_symmetric_triple_sum(n, 1) == 4
        assert s_symmetric_triple_sum(n, n) == count_s_symmetric(n, n)


def test_strongly_asymmetric_exceeds_max_layer_count():
    assert count_strongly_asym_max_layers(2) == 4 == count_s_symmetric(2, 2)
    assert count_strongly_asym_max_layers(3) == 24 == count_s_symmetric(3, 3)
    assert count_strongly_asym_max_layers(4) == 192
    for n in range(4, 21):
        assert count_s_symmetric(n, n) > count_strongly_asym_max_layers(n)


def test_exact_arithmetic_at_larger_arity():
    # n = 20 overflows 64-bit arithmetic; everything must stay exact.
    total = count_total(20)
    assert total > 2**64
    assert total == sum(count_by_layers(20, r) for r in range(1, 20))


def test_count_table_consistency():
    table = count_table(4)
    assert table.total == 736
    assert table.by_layers == {1: 32, 2: 320, 3: 384}
    assert table.by_symmetry[4] == 240 == table.strongly_asymmetric
    assert table.strongly_asym_max_layers == 192


def test_verify_small():
    for n in (2, 3):
        report = verify(n)
        assert report.all_pass, report.checks
        assert report.functions_checked == count_total(n)


def test_verify_formulas_only_above_guard():
    report = verify(8)
    assert report.functions_checked is None
    assert report.all_pass
    assert "stream_length_equals_total" not in report.checks


def test_verify_json_shape():
    report = verify(2)
    data = report.to_json_dict()
    for entry in data.values():
        assert set(entry) == {"pass", "expected", "actual"}
        assert entry["pass"] is True


def reference_by_layers(n):
    """Per-layer counts as ``2**(n+1)`` times a sum of multinomials.

    A composition of ``n`` into ``r`` parts with the last at least 2 is a
    choice of ``r - 1`` cut points in ``1..n-2``; independent of the
    package's composition walk.
    """
    out = {}
    for r in range(1, n):
        total = 0
        for cuts in itertools.combinations(range(1, n - 1), r - 1):
            bounds = (0, *cuts, n)
            multinomial = factorial(n)
            for a, b in zip(bounds, bounds[1:]):
                multinomial //= factorial(b - a)
            total += multinomial
        out[r] = total << (n + 1)
    return out


def test_census_matches_triple_sum_at_every_level():
    for n in range(2, 13):
        for s in range(1, n + 1):
            assert count_s_symmetric(n, s) == s_symmetric_triple_sum(n, s), (n, s)


def test_census_per_layer_counts_match_composition_sum():
    for n in range(2, 17):
        expected = reference_by_layers(n)
        assert count_table(n).by_layers == expected, n
        assert count_total(n) == sum(expected.values())


def test_census_matches_layer_peeling_dp():
    for n in range(2, 41):
        assert ncflab.enumeration._census(n) == reference_census(n), n


def test_count_and_verify_guards_fire_before_any_work(monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("work ran above the guard")

    for name in ("_stirling_rows", "layer_structures", "count_table"):
        monkeypatch.setattr(ncflab.enumeration, name, work)
    for argv, guard in ((["count", "201"], "count"), (["verify", "23"], "verify")):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"guard '{guard}' exceeded" in captured.err
        assert "Traceback" not in captured.err


def test_composition_oracles_guarded_before_any_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("a composition walk ran above the guard")

    monkeypatch.setattr(ncflab.enumeration, "_compositions", work)
    for call in (
        lambda: s_symmetric_triple_sum(23, 23),
        lambda: strongly_asymmetric_structure_sum(23),
    ):
        with pytest.raises(GuardExceededError) as error:
            call()
        assert (error.value.guard, error.value.arity) == ("verify", 23)


def test_verify_5_matches_golden(capsys):
    # The file is ``ncflab verify 5`` as the restrict-based peel printed it.
    assert main(["verify", "5"]) == 0
    expected = (Path(__file__).parent / "data" / "verify_5.json").read_text()
    assert capsys.readouterr().out == expected


def _cpus(monkeypatch, count):
    """Make ``verify`` see ``count`` CPUs: 1 walks in-process, 2 splits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _verify_json(n, monkeypatch, cpus):
    """``verify(n)`` as ``ncflab verify`` prints it, and the forks it made."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with monkeypatch.context() as patch:
        _cpus(patch, cpus)
        patch.setattr(os, "fork", fork)
        report = verify(n)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return (report.functions_checked, text), len(forks)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
def test_split_verify_matches_in_process_walk(monkeypatch):
    for n in range(2, 6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            split, forks = _verify_json(n, monkeypatch, cpus=2)
        assert not caught, [str(w.message) for w in caught]
        assert forks == (n >= 4), n
        serial, forks = _verify_json(n, monkeypatch, cpus=1)
        assert forks == 0
        assert split == serial, n
        _no_child_left()


def test_verify_beside_another_thread_walks_in_process(monkeypatch):
    serial, _ = _verify_json(4, monkeypatch, cpus=1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        beside, forks = _verify_json(4, monkeypatch, cpus=2)
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert forks == 0
    assert beside == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
def test_split_verify_keeps_stream_order_of_faults(monkeypatch):
    # Roundtrip faults on stream items 5, 6000 and 9000, certificate faults
    # on the sampled item 6300 (stride 21) and the unsampled 6301: the first
    # lies in the parent's run, the others in the child's.
    stream = list(enumerate_ncfs(5))
    bad_roundtrip = {compose(stream[i]).bits for i in (5, 6000, 9000)}
    bad_cert = {compose(stream[i]).bits for i in (6300, 6301)}
    real_decompose = ncflab.enumeration.decompose
    real_cert_profile = ncflab.enumeration.cert_profile

    def decompose(f):
        if f.bits in bad_roundtrip:
            return types.SimpleNamespace(is_ncf=False)
        return real_decompose(f)

    def cert_profile(f):
        p = real_cert_profile(f)
        if f.bits in bad_cert:
            return types.SimpleNamespace(c0=p.c0 + 1, c1=p.c1, c=p.c)
        return p

    monkeypatch.setattr(ncflab.enumeration, "decompose", decompose)
    monkeypatch.setattr(ncflab.enumeration, "cert_profile", cert_profile)
    split, forks = _verify_json(5, monkeypatch, cpus=2)
    assert forks == 1
    serial, _ = _verify_json(5, monkeypatch, cpus=1)
    assert split == serial
    checks = json.loads(split[1])
    assert checks["decompose_roundtrip"]["actual"] == "{} [counterexamples]".format(
        [compose(stream[i]).to_hex() for i in (5, 6000, 9000)]
    )
    assert checks["certificate_formula_vs_bruteforce"]["actual"] == (
        f"1 mismatches in 506 functions (first: {compose(stream[6300]).to_hex()})"
    )
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
def test_split_verify_reaps_its_child_when_the_parent_raises(monkeypatch):
    parent = os.getpid()
    real_decompose = ncflab.enumeration.decompose

    def decompose(f):
        if os.getpid() == parent:
            raise RuntimeError("parent run fails")
        return real_decompose(f)

    monkeypatch.setattr(ncflab.enumeration, "decompose", decompose)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="parent run fails"):
        verify(5)
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
def test_split_verify_survives_a_dead_child(monkeypatch):
    serial, _ = _verify_json(5, monkeypatch, cpus=1)
    parent = os.getpid()
    real_decompose = ncflab.enumeration.decompose

    def decompose(f):
        if os.getpid() != parent:
            os._exit(1)
        return real_decompose(f)

    monkeypatch.setattr(ncflab.enumeration, "decompose", decompose)
    split, forks = _verify_json(5, monkeypatch, cpus=2)
    assert forks == 1
    assert split == serial
    _no_child_left()


def test_count_200_is_fast(capsys):
    start = time.perf_counter()
    assert main(["count", "200"]) == 0
    assert time.perf_counter() - start < 1.0
    rows = capsys.readouterr().out.splitlines()
    assert f"200,200,strongly_asymmetric,{factorial(200) * pell_like(199)}" in rows


def test_count_20_reads_only_the_census(monkeypatch, capsys):
    # The file is ``ncflab count 20`` as the composition-walking sums printed
    # it, in about 200 s; the census must reproduce it without them.
    def closed_form(*args, **kwargs):
        raise AssertionError("a closed-form walk ran")

    for name in (
        "s_symmetric_triple_sum",
        "strongly_asymmetric_structure_sum",
        "pell_like",
        "_compositions",
    ):
        monkeypatch.setattr(ncflab.enumeration, name, closed_form)
    expected = (Path(__file__).parent / "data" / "count_20.csv").read_text()
    rows = {
        (kind, key): int(value)
        for _, key, kind, value in (line.split(",") for line in expected.splitlines()[1:])
    }
    table = count_table(20)
    assert table.total == rows["total", ""]
    assert table.by_layers == {r: rows["layers", str(r)] for r in range(1, 20)}
    assert table.by_symmetry == {s: rows["symmetry", str(s)] for s in range(1, 21)}
    assert table.strongly_asymmetric == rows["strongly_asymmetric", "20"]
    assert main(["count", "20"]) == 0
    assert capsys.readouterr().out == expected


def test_count_40_strongly_asymmetric_row(capsys):
    assert main(["count", "40"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert f"40,40,strongly_asymmetric,{factorial(40) * pell_like(39)}" in rows
