"""Command-line interface: outputs, exit codes, determinism."""

import json

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


def test_analyze_batch_file(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("x1*x2\n# comment\n3:80\n")
    code, out, _ = run(capsys, "analyze", "--file", str(path), "--json")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 2
    assert json.loads(lines[1])["input"]["table"] == "3:80"


def test_analyze_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "--anf", "x1 + + x2")
    assert code == 2
    assert out == ""
    assert "error:" in err

    code, _, _ = run(capsys, "analyze", "--table", "3:8")
    assert code == 2


def test_analyze_index_above_table_cap_exit_2(capsys):
    # x40 would need a 2^40-bit table; the parser rejects it first.
    code, out, err = run(capsys, "analyze", "--anf", "x1 + x40")
    assert code == 2
    assert out == ""
    assert "x40" in err and "column 6" in err

    code, _, err = run(capsys, "analyze", "--anf", "x30*x2")
    assert code == 2
    assert "column 1" in err


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
    # above the automorphism guard, so no certificate or symmetry class may
    # be computed.
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the automorphism guard")

    monkeypatch.setattr("ncflab.cli.cert_profile", no_analysis)
    monkeypatch.setattr("ncflab.symmetry.partition", no_analysis)
    anf = " + ".join(f"x{i}" for i in range(1, 12)) + " + x12*x1"
    code, out, err = run(capsys, "analyze", "--anf", anf)
    assert code == 3
    assert out == ""
    assert "automorphism" in err


def test_analyze_block_guard_before_any_analysis(capsys, monkeypatch):
    # 7 variables: within the certificate and automorphism guards, above the
    # block-sensitivity guard, so the input must be refused before any work.
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the block-sensitivity guard")

    for name in ("decompose", "symmetry_report", "cert_profile"):
        monkeypatch.setattr(f"ncflab.cli.{name}", no_analysis)
    table = "7:" + "0" * 31 + "1"  # x1 x2 ... x7
    code, out, err = run(capsys, "analyze", "--table", table, "--block-sensitivity")
    assert code == 3
    assert out == ""
    assert "block sensitivity" in err


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


def test_thread_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("NCFLAB_THREADS", "4")
    code, out, _ = run(capsys, "count", "2", "--kinds", "total")
    assert code == 0
    monkeypatch.setenv("NCFLAB_THREADS", "junk")
    code, out, err = run(capsys, "count", "2", "--kinds", "total")
    assert code == 0
    assert "NCFLAB_THREADS" in err
