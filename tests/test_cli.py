"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncflab.cli as cli
import ncflab.complexity
import ncflab.ncf
import ncflab.symmetry
from ncflab import (
    BooleanFunction,
    compose,
    enumerate_ncfs,
    format_decomposition,
    is_strongly_asymmetric,
    parse_decomposition,
    symmetry_level,
    symmetry_report,
)
from ncflab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cascade(capsys):
    code, out, _ = run(capsys, "analyze", "--anf", "x1*x2*x3 + x1*x2 + x3")
    assert code == 0
    assert "c0=2 c1=2 c=2 s=2" in out
    assert "structure=[1, 2]" in out
    assert "form=1; [3:1 | 1:0, 2:0]" in out


def test_analyze_parity(capsys):
    code, out, _ = run(capsys, "analyze", "--anf", "x1+x2")
    assert code == 0
    assert "ncf       no (no canalizing variable)" in out
    assert "c0=2 c1=2 c=2" in out


def test_analyze_table_input(capsys):
    code, out, _ = run(capsys, "analyze", "--table", "3:80")
    assert code == 0
    assert "c0=1 c1=3 c=3" in out
    assert "totally-symmetric" in out


def test_analyze_json_golden(capsys):
    code, out, _ = run(capsys, "analyze", "--anf", "x1*x2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "agreement": {
            "certificate_formula_matches_bruteforce": True,
            "sensitivity_equals_certificate": True,
        },
        "complexity": {
            "bs": None,
            "c": 2,
            "c0": 1,
            "c1": 2,
            "formula": {"c": 2, "c0": 1, "c1": 2},
            "s": 2,
            "witnesses": [],
        },
        "input": {"anf": "x1*x2", "table": "2:8"},
        "ncf": {
            "decomposition": "1; [1:0, 2:0]",
            "is_ncf": True,
            "layer_structure": [2],
            "reason": None,
        },
        "symmetry": {
            "classes": [[1, 2]],
            "partially_symmetric": True,
            "s": 1,
            "strongly_asymmetric": False,
            "totally_symmetric": True,
            "witness": "(1 2)",
        },
    }


def test_analyze_witness_flag(capsys):
    code, out, _ = run(
        capsys, "analyze", "--anf", "x1*x2*x3 + x1*x2 + x3", "--witnesses", "--json"
    )
    assert code == 0
    report = json.loads(out)
    witnesses = report["complexity"]["witnesses"]
    assert witnesses[0] == {"word": "000", "size": 2, "certificate": [1, 3]}
    assert len(witnesses) == 8


def test_analyze_witnesses_match_golden(capsys):
    # The file is ``analyze --file witness_specs.txt --witnesses`` as the
    # sweep over one freedom table per variable set printed it.
    data = Path(__file__).parent / "data"
    specs = str(data / "witness_specs.txt")
    code, out, _ = run(capsys, "analyze", "--file", specs, "--witnesses")
    assert code == 0
    assert out.encode() == (data / "analyze_witnesses.txt").read_bytes()


def test_analyze_symmetry_matches_golden(capsys):
    # The file is ``analyze --file symmetry_specs.txt --json`` as the search
    # that took the minimum cycle string over the whole group printed it.
    data = Path(__file__).parent / "data"
    specs = str(data / "symmetry_specs.txt")
    code, out, _ = run(capsys, "analyze", "--file", specs, "--json")
    assert code == 0
    assert out.encode() == (data / "analyze_symmetry.txt").read_bytes()


def test_analyze_block_sensitivity_matches_golden(capsys):
    # The file is ``analyze --file block_specs.txt --json --block-sensitivity``
    # as the profile that ran the block-sensitivity dynamic program on every
    # input printed it.
    data = Path(__file__).parent / "data"
    specs = str(data / "block_specs.txt")
    code, out, _ = run(capsys, "analyze", "--file", specs, "--json", "--block-sensitivity")
    assert code == 0
    assert out.encode() == (data / "analyze_block.txt").read_bytes()


def test_analyze_ncf_wide_matches_golden(capsys):
    # The file is ``analyze --file ncf_wide_specs.txt --json`` as the
    # walk that pruned only at full tables and the formatter that sorted
    # frozensets printed it.
    data = Path(__file__).parent / "data"
    specs = str(data / "ncf_wide_specs.txt")
    code, out, _ = run(capsys, "analyze", "--file", specs, "--json")
    assert code == 0
    assert out.encode() == (data / "analyze_ncf_wide.txt").read_bytes()


def test_closed_pipe_ends_without_traceback():
    # ``ncflab enumerate 5 | head -1``: the reader leaves after one line of
    # about 330 KB, more than a pipe buffers, so the write fails mid-stream.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncflab.cli", "enumerate", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"0; [1:0, 2:0, 3:0, 4:0, 5:0]\n"
    assert b"Traceback" not in err
    assert err == b""


def test_import_loads_no_dataclasses_typing_or_inspect():
    # -S: without site packages, which may import typing themselves.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ncflab, ncflab.cli;"
        " print(*sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(__file__).parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.split() == []
    # Nor does a command import on its first call, which would only move the cost.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


@pytest.mark.parametrize(
    "anf, max_n, above, raised",
    [
        # classes [1], [2..9], [10]
        (
            "x1*x2*x3*x4*x5*x6*x7*x8*x9*x10 + x1*x2*x3*x4*x5*x6*x7*x8*x9 + x1",
            "10",
            "(2 3)",
            "(2 3 4 5 6 7 8 9)",
        ),
        # classes [1, 2, 3], [4, 5], [6, 7, 8, 9]
        ("x1*x2*x3*(x4*x5*(x6*x7*x8*x9 + 1) + 1)", "9", "(1 2)", "(1 2 3)"),
    ],
)
def test_analyze_ncf_witness_above_and_below_the_guard(capsys, anf, max_n, above, raised):
    # Above the automorphism guard an NCF is witnessed by the transposition
    # of the first two members of its first class of two or more; with the
    # guard raised, the search reports the smallest cycle string instead.
    code, out, err = run(capsys, "analyze", "--anf", anf)
    assert code == 0, err
    assert f"witness={above}\n" in out
    code, out, err = run(capsys, "analyze", "--anf", anf, "--max-n", max_n)
    assert code == 0, err
    assert f"witness={raised}\n" in out


def test_analyze_strongly_asymmetric_ncf_above_the_guard(capsys):
    # Layers of one variable with alternating inputs and a last layer of two
    # with distinct inputs: every class is a singleton, so above the
    # automorphism guard the NCF is strongly asymmetric with no witness.
    f = compose(parse_decomposition("0; [1:1 | 2:0 | 3:1 | 4:0 | 5:1 | 6:0 | 7:1 | 8:0, 9:1]"))
    report, _ = symmetry_report(f)
    assert (report.arity, report.s) == (9, 9)
    assert report.strongly_asymmetric and report.nontrivial_automorphism is None
    assert is_strongly_asymmetric(f, max_arity=9) == (True, None)
    code, out, err = run(capsys, "analyze", "--table", f.to_hex())
    assert code == 0, err
    assert "[strongly-asymmetric]\n" in out
    assert "witness=" not in out


def test_analyze_batch_file(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("x1*x2\n# comment\n3:80\n")
    code, out, _ = run(capsys, "analyze", "--file", str(path), "--json")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 2
    assert json.loads(lines[1])["input"]["table"] == "3:80"


def test_analyze_file_errors_name_their_line(capsys, tmp_path):
    # Lines count from 1, blank and comment lines included.
    path = tmp_path / "specs.txt"
    path.write_text("# header\nx1*x2\n\n3:80\n  # note\nx1 +")
    code, out, err = run(capsys, "analyze", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 6: expected a factor, found end of input (column 5)\n"

    path.write_text("# header\nx1*x2\n\nx20\n3:80\n")
    code, out, err = run(capsys, "analyze", "--file", str(path), "--json")
    assert (code, out) == (3, "")
    assert err == (
        "error: line 4: guard 'certificate' exceeded: arity 20 is above the limit 14\n"
    )


def test_analyze_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "--anf", "x1 + + x2")
    assert code == 2
    assert out == ""
    assert "error:" in err

    code, _, _ = run(capsys, "analyze", "--table", "3:8")
    assert code == 2


@pytest.mark.parametrize(
    "flag, spec, message",
    [
        ("--table", "x1*x2", "expected 'n:HEX', got 'x1*x2'"),
        ("--anf", "2:8", "unexpected character '2' (column 1)"),
        ("--table", "3:G0", "bad hex digits in '3:G0'"),
    ],
)
def test_analyze_flag_takes_only_its_own_format(capsys, flag, spec, message):
    # --table reads only n:HEX and --anf only ANF text; --file guesses per line.
    code, out, err = run(capsys, "analyze", flag, spec)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_analyze_index_above_table_cap_exit_2(capsys):
    # x40 would need a 2^40-bit table; the parser rejects it first.
    code, out, err = run(capsys, "analyze", "--anf", "x1 + x40")
    assert code == 2
    assert out == ""
    assert "x40" in err and "column 6" in err

    code, _, err = run(capsys, "analyze", "--anf", "x30*x2")
    assert code == 2
    assert "column 1" in err


def test_analyze_long_product_guard_before_table(capsys, monkeypatch):
    # Expanding this product term by term gives 2^24 monomials.
    product = "*".join(f"(x{i}+1)" for i in range(1, 25))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--anf", product)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "certificate" in err

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the certificate guard")

    monkeypatch.setattr("ncflab.cli.evaluate_anf", no_table)
    code, _, err = run(capsys, "analyze", "--anf", "x20")
    assert code == 3
    assert "certificate" in err
    # A parse error wins over the guard.
    code, _, err = run(capsys, "analyze", "--anf", "x20 + (")
    assert code == 2
    assert "column 8" in err


def test_analyze_deep_nesting(capsys):
    code, out, err = run(capsys, "analyze", "--anf", "(" * 2000 + "x1" + ")" * 2000)
    assert code == 0, err
    assert out.startswith("input     anf=x1  table=1:2\n")
    code, out, err = run(capsys, "analyze", "--anf", "(" * 2000)
    assert code == 2 and out == ""
    assert "column 2001" in err


def test_analyze_digit_edge_cases_exit_2(capsys):
    cases = [
        ("--anf", "x\u00b2", "column 1"),  # a superscript is a digit, not a decimal
        ("--anf", "x" + "9" * 5000, "column 1"),  # past int()'s digit limit
        ("--table", "9" * 5000 + ":0", "table cap"),
    ]
    for flag, spec, named in cases:
        code, out, err = run(capsys, "analyze", flag, spec)
        assert code == 2 and out == "", spec[:8]
        assert err.startswith("error: ") and named in err
    # Other decimal digits still spell indices: x\u0663 is x3.
    code, out, _ = run(capsys, "analyze", "--anf", "x\u0663*x1")
    assert code == 0
    assert out.startswith("input     anf=x1*x3  table=3:A0\n")


def test_analyze_unreadable_file_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "analyze", "--file", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err

    binary = tmp_path / "latin1.txt"
    binary.write_bytes(b"x1*x2\n\xff\xfe\n")
    code, out, err = run(capsys, "analyze", "--file", str(binary))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(binary) in err


def test_analyze_empty_file_path_exit_2(capsys):
    # An empty path is a path that cannot be read, not a missing --file.
    for argv in (["--file="], ["--file", ""]):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read : "), argv


def test_analyze_guard_exit_3(capsys):
    # 15 variables exceeds the certificate guard
    hex_digits = (1 << 15) // 4
    spec = f"15:{'0' * hex_digits}"
    code, out, err = run(capsys, "analyze", "--table", spec)
    assert code == 3
    assert out == ""
    assert "certificate" in err


def test_analyze_automorphism_guard_before_certificates(capsys, monkeypatch):
    # 12 variables, not nested canalizing: within the certificate guard but
    # above the automorphism guard, so no certificate, symmetry class or
    # automorphism search may be computed.
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the automorphism guard")

    monkeypatch.setattr("ncflab.cli.cert_profile", no_analysis)
    monkeypatch.setattr("ncflab.symmetry._automorphisms", no_analysis)
    monkeypatch.setattr("ncflab.symmetry.partition", no_analysis)
    anf = " + ".join(f"x{i}" for i in range(1, 12)) + " + x12*x1"
    code, out, err = run(capsys, "analyze", "--anf", anf)
    assert code == 3
    assert out == ""
    assert "automorphism" in err


def test_analyze_block_guard_before_any_analysis(capsys, monkeypatch):
    # 9 variables, nested canalizing: within the certificate guard and past the
    # automorphism guard through the NCF fast path, above the block-sensitivity
    # guard, so the input must be refused before any work.
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the block-sensitivity guard")

    for name in ("decompose", "symmetry_report", "cert_profile"):
        monkeypatch.setattr(f"ncflab.cli.{name}", no_analysis)
    table = "9:8" + "0" * 127  # x1 x2 ... x9
    code, out, err = run(capsys, "analyze", "--table", table, "--block-sensitivity")
    assert code == 3
    assert out == ""
    assert "block sensitivity" in err


def test_analyze_ncf_above_guard_decomposes_and_partitions_once(capsys, monkeypatch):
    # 10 variables, nested canalizing: above the automorphism guard, so the
    # symmetry section comes from the decomposition and the partition, and
    # each is computed once.
    calls = Counter()
    loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "ncflab"]
    for original in (ncflab.ncf.decompose, ncflab.symmetry.partition):

        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in loaded:
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counted)
    anf = "x1*x2*x3*x4*x5*x6*x7*x8*x9*x10 + x1*x2*x3*x4*x5*x6*x7*x8*x9 + x1"
    code, out, err = run(capsys, "analyze", "--anf", anf)
    assert code == 0, err
    assert "ncf       yes" in out
    assert calls == {"decompose": 1, "partition": 1}


def _count_walks(monkeypatch):
    """A counter of the certificate walks run from now on."""
    calls = Counter()
    never_constant = ncflab.complexity._never_constant

    def counted(*args):
        calls["walk"] += 1
        return never_constant(*args)

    monkeypatch.setattr(ncflab.complexity, "_never_constant", counted)
    return calls


def test_analyze_reads_ncf_certificates_off_the_cover(capsys, monkeypatch):
    # An NCF's c0/c1 come from the table-checked cover: no walk runs.  It
    # runs for witnesses, for a non-NCF, and in public cert_profile, which
    # verify's certificate_formula_vs_bruteforce uses.
    calls = _count_walks(monkeypatch)
    ncf = "x1*x2*x3 + x1*x2 + x3"
    for argv, walks in (
        (("--anf", ncf, "--json"), 0),
        (("--anf", ncf, "--witnesses"), 1),
        (("--anf", "x1+x2", "--json"), 1),
    ):
        calls.clear()
        code, _, err = run(capsys, "analyze", *argv)
        assert code == 0, err
        assert calls["walk"] == walks, argv
    calls.clear()
    ncflab.cert_profile(BooleanFunction.from_hex("3:B0"))
    assert calls["walk"] == 1


def test_analyze_cover_path_prints_the_walk_path_bytes(capsys, monkeypatch):
    # At n = 16 the report read off the cover is the report built with
    # cert_profile's walk, byte for byte.
    f = compose(parse_decomposition(
        "1; [4:0 | 1:1, 9:0 | 2:1, 7:1, 12:0 | 3:0 | 5:1, 6:0, 8:1, 10:0, 11:1, "
        "13:0, 14:1, 15:0, 16:1]"
    ))
    argv = ("analyze", "--table", f.to_hex(), "--max-n", "16", "--json")
    calls = _count_walks(monkeypatch)
    code, cover, err = run(capsys, *argv)
    assert code == 0, err
    assert calls["walk"] == 0

    def walked(f, *, decomposition, **options):
        return ncflab.cert_profile(f, **options)

    monkeypatch.setattr(cli, "cert_profile", walked)
    code, walk, err = run(capsys, *argv)
    assert code == 0, err
    assert calls["walk"] == 1
    assert cover == walk
    assert json.loads(cover)["agreement"]["certificate_formula_matches_bruteforce"] is True


def test_enumerate_counts_and_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 8

    code, out, _ = run(capsys, "enumerate", "3", "--strongly-asymmetric")
    assert len(out.strip().splitlines()) == 24

    code, out, _ = run(capsys, "enumerate", "3", "--layers", "1")
    assert len(out.strip().splitlines()) == 16

    code, out, _ = run(capsys, "enumerate", "3", "--symmetry", "1")
    assert len(out.strip().splitlines()) == 4


def test_enumerate_symmetry_filters_match_bruteforce(capsys):
    # The filters read s off the decomposition; the reference composes each
    # table and partitions its variables.
    for n in range(2, 6):
        by_level = {s: [] for s in range(1, n + 1)}
        for d in enumerate_ncfs(n):
            by_level[symmetry_level(compose(d))].append(format_decomposition(d))
        for s, expected in by_level.items():
            code, out, _ = run(capsys, "enumerate", str(n), "--symmetry", str(s))
            assert code == 0
            assert out.splitlines() == expected, (n, s)
        code, out, _ = run(capsys, "enumerate", str(n), "--strongly-asymmetric")
        assert code == 0
        assert out.splitlines() == by_level[n], n


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "7")
    assert code == 3
    assert "enumeration" in err
    # explicit override lifts it
    code, out, _ = run(capsys, "enumerate", "7", "--max-n", "7", "--layers", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2**8


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r_or_s,kind,value"
    assert "4,,total,736" in lines
    assert "4,4,symmetry,240" in lines
    assert "4,3,layers,384" in lines
    assert "4,3,strongly_asymmetric_max_layers,192" in lines

    code, out, _ = run(capsys, "count", "3", "--kinds", "total")
    assert out.strip().splitlines() == ["n,r_or_s,kind,value", "3,,total,64"]

    code, _, _ = run(capsys, "count", "3", "--kinds", "bogus")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 0
    data = json.loads(out)
    assert all(entry["pass"] for entry in data.values())


def test_deterministic_output(capsys):
    first = run(capsys, "analyze", "--anf", "x1*x2*x3 + x1*x2 + x3", "--json")
    second = run(capsys, "analyze", "--anf", "x1*x2*x3 + x1*x2 + x3", "--json")
    assert first == second
    a = run(capsys, "enumerate", "3")
    b = run(capsys, "enumerate", "3")
    assert a == b



def _command_flags() -> list[str]:
    return sorted(
        {
            name
            for _, _, arguments in cli._COMMANDS.values()
            for name, *_ in arguments
            if name.startswith("--")
        }
    )


# Command names, help and end-of-options tokens, every flag of every
# command, abbreviated and ``--flag=value`` forms, and values of each kind,
# among them what the table parser leaves to argparse.
_argv_tokens = st.sampled_from(
    sorted(cli._COMMANDS)
    + ["foo", "-h", "--help", "--he", "--", "--an", "--str", "--kinds=total", "--x=v"]
    + ["--json=1", "--max-n=3", "--max-n=x", "--anf=", "-x1"]
    + _command_flags()
    + ["3", "-1", "abc", "x1*x2", "2:8", " 7", "\u0663", "+4", ""]
)
# Values each parser reads alike; the tokens above bring the ones argparse
# must answer.
_int_values = st.sampled_from(["0", "3", "12", " 7", "\u0663", "+4", "1_0"])
_text_values = st.sampled_from(["x1*x2", "2:8", "total", "", "a=b", "a b"])

_one_in_four = st.sampled_from([False, False, False, True])


def _table_argv(draw) -> list[str]:
    """A command with its positionals, exactly one of a one-of group and any
    other flags, in any order, each as ``--flag value`` or, one time in four,
    ``--flag=value``, which the table declines; and one time in four one more
    token or a repeated flag."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2]
    one_of = [row for row in arguments if row[1] == "one-of"]
    rows = [row for row in arguments if row[1] != "one-of"]
    chosen = [row for row in rows if not row[0].startswith("-") or draw(st.booleans())]
    if one_of:
        chosen.append(draw(st.sampled_from(one_of)))
    units = []
    for flag, kind, _, _ in chosen:
        if kind == "flag":
            units.append([flag])
            continue
        value = draw(_int_values if kind == "int" else _text_values)
        if not flag.startswith("-"):
            units.append([value])
        elif draw(_one_in_four):
            units.append([f"{flag}={value}"])
        else:
            units.append([flag, value])
    if draw(_one_in_four):
        units.append(draw(st.sampled_from(units) | _argv_tokens.map(lambda t: [t])))
    units = draw(st.permutations(units))
    return [name, *(token for unit in units for token in unit)]


@st.composite
def _argv(draw) -> list[str]:
    """Three times in four an argv built from the argument table, else a list
    of tokens, half the time after a command name."""
    if not draw(_one_in_four):
        return _table_argv(draw)
    head = draw(st.lists(st.sampled_from(sorted(cli._COMMANDS)), max_size=1))
    return head + draw(st.lists(_argv_tokens, max_size=6))


def _parse_outcome(parse, argv):
    """The fields ``parse(argv)`` returns but the full tree's ``command``,
    which no handler reads, or the code it exits with; and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {k: v for k, v in vars(parse(argv)).items() if k != "command"}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_command_parser_parses_as_the_full_tree(argv):
    full = _parse_outcome(lambda a: cli._build_parser().parse_args(a), list(argv))
    assert _parse_outcome(cli._parse, list(argv)) == full


# argv whose help, usage and error texts argparse writes.  The equivalence
# test above compares the full tree with itself wherever the table declines,
# so only this golden pins those texts.
_USAGE_ARGV = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["count", "x"],
    ["count", "3", "--ki", "total"],
    ["analyze", "--anf", "x1", "--table", "2:8"],
    ["analyze", "--json=1", "--anf", "x1"],
    ["analyze", "--max-n=x", "--anf", "x1"],
]


def test_usage_texts_match_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    blocks = []
    for argv in _USAGE_ARGV:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        command = shlex.join(["ncflab", *argv])
        blocks.append(f"$ {command}\n[exit {code}]\n[stdout]\n{out}[stderr]\n{err}")
    golden = Path(__file__).parent / "data" / "cli_usage.txt"
    assert "\n".join(blocks) == golden.read_text(encoding="utf-8")


def test_main_builds_no_parser_for_well_formed_commands(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):  # the first round keeps nothing for the second
        assert main(["count", "3"]) == 0
        assert main(["analyze", "--anf", "x1*x2 + x3", "--json"]) == 0
        assert built == []
    capsys.readouterr()
    assert main(["count", "3", "--kinds", "total"]) == 0
    assert built == []
    plain = capsys.readouterr()
    # An abbreviated flag and ``--flag=value`` each go to the full tree,
    # which reads them as ``--kinds total``.
    tree = ["ncflab", *(f"ncflab {name}" for name in cli._COMMANDS)]
    for argv in (["count", "3", "--ki", "total"], ["count", "3", "--kinds=total"]):
        built.clear()
        assert main(argv) == 0
        assert built == tree
        assert capsys.readouterr() == plain
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert built == tree
    assert "analyze" in capsys.readouterr().out


# Variable indices run past the table cap (24) so the parse-time cap is hit.
_anf_tokens = st.one_of(
    st.integers(0, 32).map(lambda i: f"x{i}"),
    st.sampled_from(["+", "*", "(", ")", " ", "0", "1", "x", "X", "x01", "^"]),
    # Decimal digits of other scripts, a superscript, and runs past the
    # 4,300 digits int() takes.
    st.sampled_from(["x\u0663", "x\uff11\uff12", "x\u00b2", "x1\u00b9"]),
    st.integers(1, 6000).map(lambda k: "x" + "9" * k),
    st.text(max_size=3),
)
_anf_text = st.one_of(
    st.lists(_anf_tokens, max_size=12).map("".join),
    # Deep nesting, balanced or not.
    st.tuples(st.integers(0, 2500), _anf_tokens, st.integers(0, 2500)).map(
        lambda t: "(" * t[0] + t[1] + ")" * t[2]
    ),
    # Long products of sums; those past 14 variables stop at the guard.
    st.integers(1, 30).map(lambda k: "*".join(f"(x{i}+1)" for i in range(1, k + 1))),
)
_table_text = st.one_of(
    st.integers(0, 6).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda bits: BooleanFunction(n, bits).to_hex()
        )
    ),
    st.from_regex(r"[0-9]{1,2}:[0-9A-Fa-f]{0,20}", fullmatch=True),
    st.text(max_size=12),
)


def _assert_clean_exit(argv):
    """``main(argv)`` ends in exit 0, 2 or 3 and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_anf_text)
def test_fuzz_analyze_anf(text):
    _assert_clean_exit(["analyze", f"--anf={text}"])


@settings(max_examples=60, deadline=None)
@given(_table_text)
def test_fuzz_analyze_table(text):
    _assert_clean_exit(["analyze", f"--table={text}"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_anf_text, _table_text, st.just("# note")), max_size=4))
def test_fuzz_analyze_batch_file(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "specs.txt")
        # Lone surrogates become invalid UTF-8: the unreadable-file path.
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write("\n".join(lines))
        _assert_clean_exit(["analyze", "--file", path])
