"""The frozen seed program as a differential oracle for the CLI.

``bench/yardstick/ncflab_seed`` is a byte-identical copy of the first
``src/ncflab``.  Both ``main(argv)`` run in this process on the same seeded
argv; stdout and the exit code must agree.  stderr is not compared: its
messages have changed on purpose since the seed.  The seed is only read:
it is imported without writing bytecode next to it.

Two differences are deliberate:

* the seed refuses ``--block-sensitivity`` above 6 variables (exit 3), and
  the program answers it up to 8;
* where the seed raises (``OverflowError`` on ANF texts that name a
  variable index of 64 or more, such as ``x34821``), the program ends in a
  typed error: exit 2 or 3, with nothing on stdout.

On an ANF text naming an index from 25 to 63 the seed builds masks of
``2**index`` bits, up to ``2**60`` bytes, before its table cap of 24 refuses
the text, so it is not run there, and the program must end in a typed error
as above.
"""

import contextlib
import importlib
import io
import random
import sys
from pathlib import Path

from conftest import planted_table, random_anf_text, random_ncf

import ncflab.cli
from ncflab import BooleanFunction

YARDSTICK = Path(__file__).resolve().parents[1] / "bench" / "yardstick"
SEED_BLOCK_SENSITIVITY_ARITY = 6
SEED_TABLE_ARITY = 24


def seed_cli():
    """The seed's ``cli`` module."""
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(YARDSTICK))
    try:
        return importlib.import_module("ncflab_seed.cli")
    finally:
        sys.path.remove(str(YARDSTICK))
        sys.dont_write_bytecode = dont_write_bytecode


def seeded_argv(seed: int) -> list[tuple[int, list[str]]]:
    """``(arity, argv)`` pairs: ``verify 2..4``, ``count 2..11``, ``enumerate
    2..4``, ``analyze --table`` on 150 random tables at n = 1..6, five
    random NCFs at each n = 2..7 and ten n = 7 tables, half of them uniform
    and half ``planted_table`` tables fixed by a random cycle, each with
    random output flags, and ``analyze --anf`` on 100 random texts, half of
    them with ``--json`` (arity 0: the text names it)."""
    rng = random.Random(seed)
    runs = [(n, ["verify", str(n)]) for n in range(2, 5)]
    runs += [(n, ["count", str(n)]) for n in range(2, 12)]
    runs += [(n, ["enumerate", str(n)]) for n in range(2, 5)]
    arities = rng.choices(range(1, 7), k=150)
    tables = [BooleanFunction(n, rng.getrandbits(1 << n)) for n in arities]
    tables += [random_ncf(rng, n)[1] for n in range(2, 8) for _ in range(5)]
    for k in range(10):  # n = 7 beyond NCFs: odd k fixed by a random cycle
        bits = rng.getrandbits(1 << 7)
        if k % 2:
            cycle, sigma = rng.sample(range(1, 8), rng.randint(2, 7)), list(range(1, 8))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                sigma[a - 1] = b
            tables.append(planted_table(7, [tuple(sigma)], bits))
        else:
            tables.append(BooleanFunction(7, bits))
    for f in tables:
        flags = ("--json", "--witnesses", "--block-sensitivity")
        flags = [flag for flag in flags if rng.random() < 0.5]
        runs.append((f.arity, ["analyze", "--table", f.to_hex(), *flags]))
    for _ in range(100):
        flags = ["--json"] if rng.random() < 0.5 else []
        runs.append((0, ["analyze", "--anf", random_anf_text(rng), *flags]))
    return runs


def _run(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _run_seed(main, argv: list[str]) -> tuple[int, str] | None:
    """``_run`` on the seed's ``main``, or None where the seed raises."""
    try:
        return _run(main, argv)
    except Exception:
        return None


def seed_differences(seed: int) -> list[str]:
    """The argv of ``seeded_argv(seed)`` on which the program and the seed
    differ in stdout or exit code, beyond the deliberate differences."""
    frozen = seed_cli()
    differences = []
    for n, argv in seeded_argv(seed):
        ours = _run(ncflab.cli.main, argv)
        if argv[1] == "--anf" and SEED_TABLE_ARITY < frozen._infer_arity(argv[2]) < 64:
            theirs = None
        else:
            theirs = _run_seed(frozen.main, argv)
        if theirs is None:
            if ours[0] not in (2, 3) or ours[1]:
                differences.append(" ".join(argv))
        elif "--block-sensitivity" in argv and n > SEED_BLOCK_SENSITIVITY_ARITY:
            if ours[0] != 0 or theirs != (3, ""):
                differences.append(" ".join(argv))
        elif ours != theirs:
            differences.append(" ".join(argv))
    return differences


def test_cli_matches_the_frozen_seed():
    assert seed_differences(1600) == []
