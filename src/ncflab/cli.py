"""Command-line interface: analyze, enumerate, count, verify.

Exit codes: 0 success (and every verify check passed), 1 failed verify
checks or runtime faults (a reader that closes stdout early is one), 2
malformed input, 3 a guard was exceeded (the message names it; ``--max-n``
raises the analyze and enumerate guards only).

Output is deterministic: two runs with the same arguments produce identical
bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from .anf import anf_text, check_anf, evaluate_anf
from .complexity import (
    MAX_BLOCK_SENSITIVITY_ARITY,
    MAX_CERTIFICATE_ARITY,
    cert_profile,
    ncf_cert_formula,
)
from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
)
from .enumeration import MAX_ENUMERATION_ARITY, count_table, enumerate_ncfs, verify
from .ncf import decompose, format_decomposition
from .symmetry import MAX_AUTOMORPHISM_ARITY, _layer_classes, _symmetry_report

_TABLE_RE = re.compile(r"^\d+:[0-9A-Fa-f]+$")
#: Lines ``enumerate`` writes at a time.
_ENUMERATE_CHUNK = 4096
_COUNT_KINDS = "total,layers,symmetry,strongly-asymmetric,strongly-asymmetric-max-layers"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``ncflab enumerate 5 | head -1``).  As
        # Python's signal docs advise, point stdout at devnull so that the
        # flush at exit cannot fail again, and end as a runtime fault.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NcflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncflab",
        description=(
            "Analyze Boolean nested canalizing functions: decomposition, "
            "certificate complexity, sensitivity, symmetry, enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for one function")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--anf", help="polynomial text, e.g. 'x1*x2 + x3'")
    source.add_argument("--table", help="truth table as n:HEX")
    source.add_argument("--file", help="newline-delimited specs (batch mode)")
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.add_argument(
        "--witnesses", action="store_true", help="include per-word certificates"
    )
    analyze.add_argument(
        "--block-sensitivity",
        action="store_true",
        help="also compute block sensitivity (guarded)",
    )
    analyze.add_argument("--max-n", type=int, default=None, help="raise analysis guards")
    analyze.set_defaults(handler=_cmd_analyze)

    enumerate_ = sub.add_parser("enumerate", help="stream all functions of arity n")
    enumerate_.add_argument("n", type=int)
    enumerate_.add_argument("--layers", type=int, default=None, help="keep r layers only")
    enumerate_.add_argument(
        "--symmetry", type=int, default=None, help="keep s-symmetric only"
    )
    enumerate_.add_argument(
        "--strongly-asymmetric", action="store_true", help="keep strongly asymmetric only"
    )
    enumerate_.add_argument("--max-n", type=int, default=None, help="raise the guard")
    enumerate_.set_defaults(handler=_cmd_enumerate)

    count = sub.add_parser("count", help="exact counts as CSV")
    count.add_argument("n", type=int)
    count.add_argument(
        "--kinds",
        default=_COUNT_KINDS,
        help="comma-separated subset of the row kinds",
    )
    count.set_defaults(handler=_cmd_count)

    verify_ = sub.add_parser("verify", help="cross-validate formulas against generation")
    verify_.add_argument("n", type=int)
    verify_.set_defaults(handler=_cmd_verify)
    return parser


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _load_spec(spec: str, cert_guard: int) -> BooleanFunction:
    spec = spec.strip()
    if _TABLE_RE.match(spec):
        return BooleanFunction.from_hex(spec)
    arity, program = check_anf(spec)
    # Parse errors first, then the guard, then the table: no table is built
    # for text over the guard.
    if arity > cert_guard:
        raise GuardExceededError("certificate", arity, cert_guard)
    return evaluate_anf(arity, program)


def _raise_guard(default: int, override: int | None) -> int:
    return default if override is None else max(default, override)


def _analysis_report(f: BooleanFunction, args) -> dict:
    cert_guard = _raise_guard(MAX_CERTIFICATE_ARITY, args.max_n)
    block_guard = _raise_guard(MAX_BLOCK_SENSITIVITY_ARITY, args.max_n)
    perm_guard = _raise_guard(MAX_AUTOMORPHISM_ARITY, args.max_n)
    # Guards first: the certificate and block-sensitivity guards here, and
    # the automorphism guard, which needs to know whether f is an NCF, in
    # _symmetry_report before any certificate is computed.  The report
    # reuses this decomposition instead of decomposing f again.
    if f.arity > cert_guard:
        raise GuardExceededError("certificate", f.arity, cert_guard)
    if args.block_sensitivity and f.arity > block_guard:
        raise GuardExceededError("block sensitivity", f.arity, block_guard)

    classification = decompose(f) if f.arity >= 2 else None
    ncf_section = formula = None
    if classification is not None and classification.is_ncf:
        d = classification.decomposition
        ncf_section = {
            "is_ncf": True,
            "reason": None,
            "decomposition": format_decomposition(d),
            "layer_structure": list(d.structure()),
        }
        formula = ncf_cert_formula(d.structure(), d.b)
    elif classification is not None:
        ncf_section = {
            "is_ncf": False,
            "reason": classification.reason.value,
            "decomposition": None,
            "layer_structure": None,
        }

    report, classes = _symmetry_report(f, perm_guard, classification)
    profile = cert_profile(
        f,
        with_witnesses=args.witnesses,
        with_block_sensitivity=args.block_sensitivity,
        max_arity=cert_guard,
        block_max_arity=block_guard,
    )

    complexity_section = profile.to_json_dict()
    complexity_section["formula"] = (
        {"c0": formula[0], "c1": formula[1], "c": formula[2]} if formula else None
    )
    agreement = {
        "certificate_formula_matches_bruteforce": (
            formula == (profile.c0, profile.c1, profile.c) if formula else None
        ),
        "sensitivity_equals_certificate": (
            profile.sensitivity == profile.c if formula else None
        ),
    }
    return {
        "input": {"anf": anf_text(f), "table": f.to_hex()},
        "ncf": ncf_section,
        "complexity": complexity_section,
        "symmetry": report.to_json_dict(classes),
        "agreement": agreement,
    }


def _render_analysis_text(report: dict) -> list[str]:
    lines = [
        f"input     anf={report['input']['anf']}  table={report['input']['table']}",
    ]
    ncf = report["ncf"]
    if ncf is None:
        lines.append("ncf       not applicable (arity < 2)")
    elif ncf["is_ncf"]:
        lines.append(
            f"ncf       yes  structure={ncf['layer_structure']}  "
            f"form={ncf['decomposition']}"
        )
    else:
        lines.append(f"ncf       no ({ncf['reason']})")
    cx = report["complexity"]
    bs = cx["bs"] if cx["bs"] is not None else "-"
    lines.append(f"certs     c0={cx['c0']} c1={cx['c1']} c={cx['c']} s={cx['s']} bs={bs}")
    if cx["formula"]:
        fm = cx["formula"]
        lines.append(f"formula   c0={fm['c0']} c1={fm['c1']} c={fm['c']}")
    sym = report["symmetry"]
    flags = [
        flag
        for flag in ("totally-symmetric", "partially-symmetric", "strongly-asymmetric")
        if sym[flag.replace("-", "_")]
    ]
    witness = f"  witness={sym['witness']}" if sym["witness"] else ""
    lines.append(
        f"symmetry  s={sym['s']} classes={sym['classes']} "
        f"[{', '.join(flags) or 'none'}]{witness}"
    )
    lines.extend(
        f"witness   word={w['word']} size={w['size']} certificate={w['certificate']}"
        for w in cx["witnesses"]
    )
    return lines


def _cmd_analyze(args) -> int:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                specs = [
                    line.strip()
                    for line in handle
                    if line.strip() and not line.lstrip().startswith("#")
                ]
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise InvalidInputError(f"cannot read {args.file}: {reason}") from None
    else:
        specs = [args.anf if args.anf is not None else args.table]

    # Build every report before printing anything: no partial output on error.
    cert_guard = _raise_guard(MAX_CERTIFICATE_ARITY, args.max_n)
    out: list[str] = []
    for spec in specs:
        report = _analysis_report(_load_spec(spec, cert_guard), args)
        if args.json:
            out.append(json.dumps(report, sort_keys=True))
        else:
            out.extend(_render_analysis_text(report))
            out.append("")
    if out and not args.json and out[-1] == "":
        out.pop()
    print("\n".join(out))
    return 0


# ----------------------------------------------------------------------
# enumerate / count / verify
# ----------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    guard = _raise_guard(MAX_ENUMERATION_ARITY, args.max_n)
    # Levels asked for; on NCFs strong asymmetry is exactly n-symmetry.
    levels = {args.symmetry, args.n if args.strongly_asymmetric else None} - {None}
    lines = (
        format_decomposition(d)
        for d in enumerate_ncfs(args.n, max_arity=guard, layer_count=args.layers)
        if not levels or levels == {sum(_layer_classes(d))}
    )
    # Written in chunks as generated; a lone newline when nothing matches.
    # The guard fires on the first line asked for, before any output.
    chunk = list(itertools.islice(lines, _ENUMERATE_CHUNK))
    print("\n".join(chunk))
    while chunk := list(itertools.islice(lines, _ENUMERATE_CHUNK)):
        print("\n".join(chunk))
    return 0


def _cmd_count(args) -> int:
    kinds = {kind.strip() for kind in args.kinds.split(",") if kind.strip()}
    unknown = kinds - set(_COUNT_KINDS.split(","))
    if unknown:
        raise InvalidInputError(f"unknown count kinds: {sorted(unknown)}")
    table = count_table(args.n)
    rows = ["n,r_or_s,kind,value"]
    if "total" in kinds:
        rows.append(f"{table.n},,total,{table.total}")
    if "layers" in kinds:
        for r in sorted(table.by_layers):
            rows.append(f"{table.n},{r},layers,{table.by_layers[r]}")
    if "symmetry" in kinds:
        for s in sorted(table.by_symmetry):
            rows.append(f"{table.n},{s},symmetry,{table.by_symmetry[s]}")
    if "strongly-asymmetric" in kinds:
        rows.append(f"{table.n},{table.n},strongly_asymmetric,{table.strongly_asymmetric}")
    if "strongly-asymmetric-max-layers" in kinds:
        rows.append(
            f"{table.n},{table.n - 1},strongly_asymmetric_max_layers,"
            f"{table.strongly_asym_max_layers}"
        )
    print("\n".join(rows))
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.n)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
