"""Command-line interface: analyze, enumerate, count, verify.

Exit codes: 0 success (and every verify check passed), 1 failed verify
checks or runtime faults, 2 malformed input, 3 an analysis guard was
exceeded (the message names the guard; raise it with ``--max-n``).

Output is deterministic: two runs with the same arguments produce identical
bytes.  The ``NCFLAB_THREADS`` environment variable bounds the worker count;
the current implementation always runs on a single worker, which trivially
respects any bound while keeping the canonical stream order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .anf import AnfPolynomial
from .complexity import (
    MAX_BLOCK_SENSITIVITY_ARITY,
    MAX_CERTIFICATE_ARITY,
    cert_profile,
    ncf_cert_formula,
)
from .core import (
    MAX_TABLE_ARITY,
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
)
from .enumeration import count_table, enumerate_ncfs, verify
from .ncf import compose, decompose, format_decomposition
from .symmetry import MAX_AUTOMORPHISM_ARITY, symmetry_level, symmetry_report

_TABLE_RE = re.compile(r"^\d+:[0-9A-Fa-f]+$")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _ = _worker_limit()
    try:
        return args.handler(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, NcflabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _worker_limit() -> int:
    raw = os.environ.get("NCFLAB_THREADS")
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"warning: ignoring invalid NCFLAB_THREADS={raw!r}", file=sys.stderr)
        return 1


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

    count = sub.add_parser("count", help="closed-form counts as CSV")
    count.add_argument("n", type=int)
    count.add_argument(
        "--kinds",
        default="total,layers,symmetry,strongly-asymmetric,strongly-asymmetric-max-layers",
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


def _infer_arity(anf_text: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"[xX](\d+)", anf_text)]
    return max(indices, default=0)


def _load_spec(spec: str) -> BooleanFunction:
    spec = spec.strip()
    if _TABLE_RE.match(spec):
        return BooleanFunction.from_hex(spec)
    # Capping the arity makes an index above the table cap a parse error.
    arity = min(_infer_arity(spec), MAX_TABLE_ARITY)
    return AnfPolynomial.parse(spec, arity).to_function()


def _raise_guard(default: int, override: int | None) -> int:
    return default if override is None else max(default, override)


def _analysis_report(f: BooleanFunction, args) -> dict:
    cert_guard = _raise_guard(MAX_CERTIFICATE_ARITY, args.max_n)
    block_guard = _raise_guard(MAX_BLOCK_SENSITIVITY_ARITY, args.max_n)
    perm_guard = _raise_guard(MAX_AUTOMORPHISM_ARITY, args.max_n)
    # Guards first: the certificate and block-sensitivity guards here, and
    # the automorphism guard, which needs to know whether f is an NCF, in
    # symmetry_report before any certificate is computed.
    if f.arity > cert_guard:
        raise GuardExceededError("certificate", f.arity, cert_guard)
    if args.block_sensitivity and f.arity > block_guard:
        raise GuardExceededError("block sensitivity", f.arity, block_guard)

    if f.arity >= 2:
        classification = decompose(f)
    else:
        classification = None
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
        formula = None
    else:
        ncf_section = None
        formula = None

    report, classes = symmetry_report(f, max_arity=perm_guard)
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
        "input": {"anf": AnfPolynomial.from_function(f).format(), "table": f.to_hex()},
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
    flags = []
    if sym["totally_symmetric"]:
        flags.append("totally-symmetric")
    if sym["partially_symmetric"]:
        flags.append("partially-symmetric")
    if sym["strongly_asymmetric"]:
        flags.append("strongly-asymmetric")
    witness = f"  witness={sym['witness']}" if sym["witness"] else ""
    lines.append(
        f"symmetry  s={sym['s']} classes={sym['classes']} "
        f"[{', '.join(flags) or 'none'}]{witness}"
    )
    for witness_row in cx["witnesses"]:
        lines.append(
            f"witness   word={witness_row['word']} size={witness_row['size']} "
            f"certificate={witness_row['certificate']}"
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
    out: list[str] = []
    for spec in specs:
        report = _analysis_report(_load_spec(spec), args)
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
    from .enumeration import MAX_ENUMERATION_ARITY

    guard = _raise_guard(MAX_ENUMERATION_ARITY, args.max_n)
    lines = []
    for d in enumerate_ncfs(args.n, max_arity=guard, layer_count=args.layers):
        if args.symmetry is not None or args.strongly_asymmetric:
            s = symmetry_level(compose(d))
            if args.symmetry is not None and s != args.symmetry:
                continue
            # On this class, strong asymmetry is exactly n-symmetry.
            if args.strongly_asymmetric and s != args.n:
                continue
        lines.append(format_decomposition(d))
    print("\n".join(lines))
    return 0


def _cmd_count(args) -> int:
    kinds = {kind.strip() for kind in args.kinds.split(",") if kind.strip()}
    known = {
        "total",
        "layers",
        "symmetry",
        "strongly-asymmetric",
        "strongly-asymmetric-max-layers",
    }
    unknown = kinds - known
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
