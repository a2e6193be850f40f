"""Command-line interface: analyze, enumerate, count, verify.

Exit codes: 0 success (and every verify check passed), 1 failed verify
checks or runtime faults (a reader that closes stdout early is one), 2
malformed input, 3 a guard was exceeded (the message names it; ``--max-n``
raises the analyze and enumerate guards only).

Output is deterministic: two runs with the same arguments produce identical
bytes.

A well-formed command is read straight from ``_COMMANDS``, the one argument
table: exact flag names in any order, each as ``--flag value``, positionals
and ints through ``int()`` as argparse reads them.  That takes 8 and 4 us for
an ``analyze`` and a ``count`` argv.  Everything else (help, errors,
abbreviations, ``--flag=value``, no arguments, ``ncflab foo``) goes to the
full four-command argparse tree, declared from the same table, so every help
text and error reads as before; building and running it takes about 1 ms in
a warm process (2-vCPU Xeon, Python 3.11.7).  No parser is kept between
calls of ``main()`` or built at import: a one-shot process pays for what it
builds either way, so that would only hide the cost from in-process callers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from .anf import anf_text, check_anf, evaluate_anf
from .complexity import MAX_BLOCK_SENSITIVITY_ARITY, MAX_CERTIFICATE_ARITY, cert_profile
from .core import (
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    NcflabError,
    _check_guard,
)
from .enumeration import MAX_ENUMERATION_ARITY, count_table, enumerate_ncfs, verify
from .ncf import _layer_classes, decompose, format_decomposition, ncf_cert_formula
from .symmetry import MAX_AUTOMORPHISM_ARITY, symmetry_report

_TABLE_RE = re.compile(r"^\d+:[0-9A-Fa-f]+$")
#: Lines ``enumerate`` writes at a time.
_ENUMERATE_CHUNK = 4096
_COUNT_KINDS = "total,layers,symmetry,strongly-asymmetric,strongly-asymmetric-max-layers"


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` as ``ncflab`` parses it: from the argument table when it is a
    well-formed command, else by the full argparse tree."""
    args = _parse_table(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def _parse_table(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would return for ``argv``, read from the
    argument table, or None where argparse must answer: help, ``--``, an
    unknown, abbreviated or repeated flag, a ``--flag=value`` token (looked up
    whole, so unknown), a value or positional that starts with ``-``, a failed
    ``int()``, a wrong count of positionals, or not exactly one argument of a
    required one-of group."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    kinds = {name: kind for name, kind, _, _ in arguments}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        kind = kinds.get(token)
        if kind is None or token in given:
            return None
        if kind == "flag":
            value = True
        else:
            value = next(tokens, "-")  # none left: declined as a "-" value
            if value.startswith("-"):
                return None
        given[token] = value
    names = [name for name in kinds if not name.startswith("-")]
    one_of = [name for name, kind in kinds.items() if kind == "one-of"]
    if len(positionals) != len(names) or (one_of and len(given.keys() & one_of) != 1):
        return None
    given.update(zip(names, positionals))
    args = argparse.Namespace(handler=handler)
    for name, kind, default, _ in arguments:
        value = given.get(name, default)
        if kind == "int" and name in given:
            try:
                value = int(value)  # argparse's conversion
            except ValueError:
                return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def _build_parser() -> argparse.ArgumentParser:
    """The full four-command tree, declared from the argument table."""
    parser = argparse.ArgumentParser(
        prog="ncflab",
        description=(
            "Analyze Boolean nested canalizing functions: decomposition, "
            "certificate complexity, sensitivity, symmetry, enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        command.set_defaults(handler=handler)
        group = None
        for flag, kind, default, flag_help in arguments:
            container = command
            if kind == "one-of":
                if group is None:
                    group = command.add_mutually_exclusive_group(required=True)
                container = group
            container.add_argument(flag, default=default, help=flag_help, **_KINDS[kind])
    return parser


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _load_spec(spec: str, cert_guard: int, table: bool | None) -> BooleanFunction:
    """``spec`` as an ``n:HEX`` truth table (``table`` true), as ANF text
    (false), or as whichever it looks like (None: a ``--file`` line)."""
    spec = spec.strip()
    if table is None:
        table = bool(_TABLE_RE.match(spec))
    if table:
        return BooleanFunction.from_hex(spec)
    arity, program = check_anf(spec)
    # Parse errors first, then the guard, then the table: no table is built
    # for text over the guard.
    _check_guard("certificate", arity, cert_guard)
    return evaluate_anf(arity, program)


def _analysis_report(f: BooleanFunction, args, guards: tuple[int, int, int]) -> dict:
    cert_guard, block_guard, perm_guard = guards
    # The certificate guards before decompose; symmetry_report checks the
    # automorphism guard before any partition, and runs before cert_profile.
    # An NCF's decomposition lets symmetry_report pass it above that guard
    # and cert_profile read c0/c1 off the cover it proposes.
    _check_guard("certificate", f.arity, cert_guard)
    if args.block_sensitivity:
        _check_guard("block sensitivity", f.arity, block_guard)
    classification = decompose(f) if f.arity >= 2 else None
    d = classification.decomposition if classification is not None else None

    ncf_section = formula = None
    if classification is not None:
        ncf_section = {
            "is_ncf": classification.is_ncf,
            "reason": None if d else classification.reason.value,
            "decomposition": format_decomposition(d) if d else None,
            "layer_structure": list(d.structure()) if d else None,
        }
    if d is not None:
        formula = ncf_cert_formula(d.structure(), d.b)

    report, classes = symmetry_report(f, max_arity=perm_guard, decomposition=d)
    profile = cert_profile(
        f,
        with_witnesses=args.witnesses,
        with_block_sensitivity=args.block_sensitivity,
        max_arity=cert_guard,
        block_max_arity=block_guard,
        decomposition=d,
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
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                specs = [
                    (number, line.strip())
                    for number, line in enumerate(handle, 1)
                    if line.strip() and not line.lstrip().startswith("#")
                ]
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise InvalidInputError(f"cannot read {args.file}: {reason}") from None
    else:
        specs = [(None, args.anf if args.anf is not None else args.table)]
    table = None if args.file is not None else args.table is not None

    # Build every report before printing anything: no partial output on error.
    defaults = MAX_CERTIFICATE_ARITY, MAX_BLOCK_SENSITIVITY_ARITY, MAX_AUTOMORPHISM_ARITY
    guards = tuple(max(default, args.max_n or 0) for default in defaults)  # never lowered
    out: list[str] = []
    for number, spec in specs:
        try:
            report = _analysis_report(_load_spec(spec, guards[0], table), args, guards)
        except NcflabError as exc:
            if number is not None:  # a --file line
                exc.args = (f"line {number}: {exc}",)
            raise
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
    guard = max(MAX_ENUMERATION_ARITY, args.max_n or 0)
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


# ----------------------------------------------------------------------
# the argument table
# ----------------------------------------------------------------------

#: How ``_build_parser`` declares each kind of argument to argparse.  A
#: "one-of" argument is text in the command's required group: exactly one
#: of them must be given.
_KINDS = {"flag": {"action": "store_true"}, "text": {}, "int": {"type": int}, "one-of": {}}

#: Each command's help line in the full tree, its handler, and its arguments
#: in the order ``-h`` lists them, as (name, kind, default, help).  A name
#: without ``--`` is a positional.  ``_parse_table`` and ``_build_parser``
#: both read this table.
_COMMANDS = {
    "analyze": (
        "full report for one function",
        _cmd_analyze,
        (
            ("--anf", "one-of", None, "polynomial text, e.g. 'x1*x2 + x3'"),
            ("--table", "one-of", None, "truth table as n:HEX"),
            ("--file", "one-of", None, "newline-delimited specs (batch mode)"),
            ("--json", "flag", False, "emit JSON"),
            ("--witnesses", "flag", False, "include per-word certificates"),
            ("--block-sensitivity", "flag", False, "also compute block sensitivity (guarded)"),
            ("--max-n", "int", None, "raise analysis guards"),
        ),
    ),
    "enumerate": (
        "stream all functions of arity n",
        _cmd_enumerate,
        (
            ("n", "int", None, None),
            ("--layers", "int", None, "keep r layers only"),
            ("--symmetry", "int", None, "keep s-symmetric only"),
            ("--strongly-asymmetric", "flag", False, "keep strongly asymmetric only"),
            ("--max-n", "int", None, "raise the guard"),
        ),
    ),
    "count": (
        "exact counts as CSV",
        _cmd_count,
        (
            ("n", "int", None, None),
            ("--kinds", "text", _COUNT_KINDS, "comma-separated subset of the row kinds"),
        ),
    ),
    "verify": (
        "cross-validate formulas against generation",
        _cmd_verify,
        (("n", "int", None, None),),
    ),
}


if __name__ == "__main__":
    raise SystemExit(main())
