"""Benchmark for ncflab: four workloads through the public CLI entry, in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop calls ``ncflab.cli.main(argv)`` with one
thread: each invocation starts after the previous one and its checks end.
Every invocation begins with ncflab's function caches cleared, so it pays
what a fresh ``ncflab`` command pays.  Batches (see ``workloads.py``) repeat
until ``--seconds`` have passed; batch ``k`` draws its inputs from
``(workload, seed, k)``.  Each invocation's time is scaled by the host's
speed while it ran, as a phase probe measures it: a fixed computation
through the yardstick, a frozen copy of the seed program (see
:class:`PhaseMeter`).  After the timed phase a canary batch with fixed
inputs runs, and its stdout digests must match those the seed program
produced (``expected_digests.json``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs batch 0
twice untraced, then twice under :class:`tracer.Tracer`, and prints the
per-layer metrics; all four passes must print identical bytes and the two
traced passes identical counts.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
the machine record and a readable report.  Runs without ncflab's sources in
``src/`` exit with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
#: Fresh interpreters timed for ``setup_s``, each for the program and the yardstick.
SETUP_REPEATS = 15
IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import ncflab.cli"
IMPORT_YARDSTICK = "import sys; sys.path.insert(0, 'bench/yardstick'); import ncflab_seed.cli"
#: The phase probe is the yardstick's ``cert_profile`` of this table.  It
#: runs before and after every timed invocation and every
#: ``PROBE_INTERVAL_S`` during one.
PROBE_TABLE = "6:386FC9760246EA0E"
PROBE_INTERVAL_S = 0.05
#: The yardstick's median probe and import times in a quiet stretch on the
#: baseline machine.  Scaled timings are in these units: what the program
#: would take there and then.
NOMINAL_PROBE_S = 0.0009
NOMINAL_IMPORT_S = 0.11
#: At most this many failure messages are printed to stderr.
MAX_REPORTED_FAILURES = 5

#: Traced functions and the figures ``--trace 1`` reports for each.  Other
#: functions stay unwrapped, so their time counts as their caller's (the
#: per-word helpers ``bit`` and ``variable_mask`` in particular).
TRACED = {
    "core.permute_inputs": ("calls", "self_s"),
    "core.swap_inputs": ("calls", "self_s"),
    "core.restrict": ("calls", "self_s"),
    "anf.parse": ("calls", "self_s"),
    "anf.to_function": ("calls", "self_s"),
    "anf.from_function": ("calls", "self_s"),
    "ncf.canalizing_pairs": ("calls",),
    "ncf.decompose": ("calls", "self_s"),
    "ncf.compose": ("calls", "self_s"),
    "complexity.cert_profile": ("calls", "self_s"),
    "complexity.block_sensitivity": ("calls", "self_s"),
    "symmetry.equivalent": ("calls",),
    "symmetry.partition": ("calls", "self_s"),
    "symmetry.cycle_notation": ("calls",),
    "symmetry.is_strongly_asymmetric": ("calls", "self_s"),
    "symmetry.has_nontrivial_automorphism": ("calls", "self_s"),
    "enumeration.enumerate_ncfs": ("items", "self_s"),
    "enumeration.verify": ("self_s",),
    "enumeration.count_table": ("self_s",),
    "enumeration.count_total": ("self_s",),
    "enumeration.count_by_layers": ("self_s",),
    "enumeration.count_s_symmetric": ("self_s",),
    "enumeration.s_symmetric_triple_sum": ("self_s",),
    "enumeration.strongly_asymmetric_structure_sum": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
_UNITS = {"calls": "count", "items": "count", "self_s": "s"}
LAYERS = ("core", "anf", "ncf", "complexity", "symmetry", "enumeration", "cli")


class PhaseMeter:
    """Samples the host's speed while invocations run.

    The host's speed shifts from one second to the next (the same call can
    take 17 ms or 30 ms), so each invocation is scaled by probes taken
    during it.  A probe is a fixed computation through the yardstick,
    ``bench/yardstick``: ncflab's own kind of work, in code no change to
    ``src/`` touches.  Inside :meth:`running`, a timer signal takes a probe
    every :data:`PROBE_INTERVAL_S`; :meth:`around` also takes one just
    before and just after its call.
    """

    def __init__(self):
        sys.path.insert(0, str(BENCH / "yardstick"))
        from ncflab_seed import complexity, core

        table = core.BooleanFunction.from_hex(PROBE_TABLE)
        self._probe = lambda: complexity.cert_profile(table)
        self.samples: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        start = time.perf_counter()
        self._probe()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def around(self, call):
        """``call()``, whose first item is its seconds, with those seconds
        less the probes taken during it; and the mean probe time from just
        before it to just after it."""
        self.sample()
        first = len(self.samples) - 1
        seconds, *rest = call()
        seconds -= sum(self.samples[first + 1 :])
        self.sample()
        return (seconds, *rest), statistics.fmean(self.samples[first:])


class Session:
    """Runs ops through ``ncflab.cli.main`` and tallies outcomes."""

    def __init__(self, cli, caches, expected: dict[str, str]):
        self.cli = cli
        self.caches = caches
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, ops, meter=None) -> tuple[list[float], list[float], int, bytes]:
        """Run a batch; return per-op seconds, probe times, items handled and all stdout.

        With a :class:`PhaseMeter`, each op's seconds leave out the probes
        taken during it, and its probe time is the mean of those and of the
        probes just before and after it.  Without one the probe times are
        empty.
        """
        times, probes, items, chunks = [], [], 0, []
        for op in ops:
            if meter:
                (seconds, code, text, err), probe_s = meter.around(
                    lambda: invoke(self.cli, self.caches, op.argv)
                )
                probes.append(probe_s)
            else:
                seconds, code, text, err = invoke(self.cli, self.caches, op.argv)
            times.append(seconds)
            chunks.append(text.encode())
            items += self._check(op, code, text, err)
        return times, probes, items, b"".join(chunks)

    def _check(self, op, code, text: str, err: str) -> int:
        self.attempted += 1
        key = " ".join(op.argv)
        if code != 0:
            problem = f"exit {code}: {err.strip()[:200]}"
        elif self.expected.get(key, _sha256(text.encode())) != _sha256(text.encode()):
            problem = "stdout differs from the seed program's"
        else:
            try:
                return op.check(text)
            except Exception as exc:  # output of an unexpected shape fails too
                problem = f"{type(exc).__name__}: {exc}"
        self.failures.append(f"{key[:120]}: {problem}")
        return 0

    def verdict(self, ok: bool, what: str) -> None:
        """Count a whole-run check as one more attempted operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def invoke(cli, caches, argv) -> tuple[float, object, str, str]:
    """One ``cli.main(argv)`` call with fresh caches: seconds, exit code, stdout, stderr."""
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed op
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _function_caches(package: str) -> list:
    """Every ``functools`` cache in a package's modules, cleared before each op."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != package:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def measure_setup() -> float:
    """Median import time of ``ncflab.cli`` in a fresh interpreter, scaled.

    Imports of the program and of the yardstick alternate; the program's
    median over the yardstick's, times :data:`NOMINAL_IMPORT_S`.
    """
    commands = [[sys.executable, "-I", "-c", code] for code in (IMPORT_PROGRAM, IMPORT_YARDSTICK)]
    for command in commands:
        subprocess.run(command, cwd=ROOT, check=True)  # writes bytecode caches
    samples: list[list[float]] = [[], []]
    for _ in range(SETUP_REPEATS):
        for command, times in zip(commands, samples):
            start = time.perf_counter()
            subprocess.run(command, cwd=ROOT, check=True)
            times.append(time.perf_counter() - start)
    program, yardstick = map(statistics.median, samples)
    return program / yardstick * NOMINAL_IMPORT_S


def _batch_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def timed_run(args, session: Session, make_batch) -> dict:
    """Time whole batches until ``--seconds`` have passed.

    Each invocation's time is multiplied by ``NOMINAL_PROBE_S / probe
    time``, the probe time :meth:`PhaseMeter.around` gives for it, so the
    speed the shared host has at that moment cancels.  A batch's wall time
    is the sum of its scaled invocations.
    """
    setup_s = measure_setup()
    meter = PhaseMeter()
    walls, raw_walls, items, digest, peak_rss_mb = [], [], 0, None, None
    by_argv: dict[tuple[str, ...], list[float]] = {}
    with meter.running():
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            ops = make_batch(_batch_rng(args.workload, args.seed, len(walls)))
            times, probes, n_items, out = session.run(ops, meter)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digest = digest or _sha256(out)
            scaled = [t * NOMINAL_PROBE_S / probe_s for t, probe_s in zip(times, probes)]
            raw_walls.append(sum(times))
            walls.append(sum(scaled))
            for op, t in zip(ops, scaled):
                by_argv.setdefault(op.argv, []).append(t)
            items += n_items
    # Repeats of one argv (every batch of count-sweep and verify-5) do the
    # same work, so each counts with the median of its repeats.
    pooled = [statistics.median(ts) for ts in by_argv.values() for _ in ts]
    p90 = _p90(pooled)
    beyond = sum(t > p90 for t in pooled)
    print(
        f"report  batches={len(walls)} invocations={len(pooled)} beyond_p90={beyond}"
        f"{'' if beyond >= 10 else ' (p90 under-sampled)'} "
        f"raw_median_batch_s={statistics.median(raw_walls):.4f} "
        f"median_probe_s={statistics.median(meter.samples):.6f} "
        f"batch0_stdout_sha256={digest}"
    )
    wall_s = statistics.median(walls)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall_s, "s"),
        "items_per_s": _metric(items / len(walls) / wall_s, "1/s"),
        "op_p50_ms": _metric(statistics.median(pooled) * 1e3, "ms"),
        "op_p90_ms": _metric(p90 * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def traced_run(args, session: Session, make_batch) -> dict:
    ops = make_batch(_batch_rng(args.workload, args.seed, 0))
    # The first untraced pass warms the interpreter; the second is the base
    # of the overhead ratio.
    passes = [session.run(ops), session.run(ops)]
    tracers = []
    for _ in range(2):
        tracer = Tracer(TRACED)
        tracer.install()
        try:
            passes.append(session.run(ops))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    session.verdict(len({out for *_, out in passes}) == 1, "traced stdout differs from untraced")
    stdout_bytes = len(passes[0][-1])
    overhead = sum(passes[2][0]) / sum(passes[1][0])
    first, second = (_layer_metrics(t, stdout_bytes, overhead) for t in tracers)
    session.verdict(
        all(first[k] == second[k] for k in first if first[k]["unit"] != "s"),
        "two traced runs gave different counts",
    )
    for name, metric in first.items():
        print(f"layer   {name} = {metric['value']} {metric['unit']}")
    return first


def _layer_metrics(t: Tracer, stdout_bytes: int, overhead: float) -> dict:
    m = {"core.tables_built": _metric(t.tables_built, "count")}
    for key, figures in TRACED.items():
        for figure in figures:
            m[f"{key}.{figure}"] = _metric(getattr(t, figure)[key], _UNITS[figure])
    equivalent = t.calls["symmetry.equivalent"]
    m["symmetry.equivalent.hit_ratio"] = _metric(
        t.hits["symmetry.equivalent"] / equivalent if equivalent else 0.0, "ratio"
    )
    permutes = t.calls["core.permute_inputs"]
    m["symmetry.automorphism_hit_ratio"] = _metric(
        t.hits["core.permute_inputs"] / permutes if permutes else 0.0, "ratio"
    )
    m["cli.stdout_bytes"] = _metric(stdout_bytes, "bytes")
    for layer in LAYERS:
        m[f"{layer}.errors"] = _metric(t.errors[layer], "count")
    m["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncflab" / "cli.py").is_file():
        print(f"error: no ncflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from ncflab import cli

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    expected = json.loads((BENCH / "expected_digests.json").read_text(encoding="utf-8"))
    session = Session(cli, _function_caches("ncflab"), expected)
    make_batch = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    metrics = run(args, session, make_batch)
    canary = make_batch(random.Random(f"{args.workload}/canary"))
    batch0 = make_batch(_batch_rng(args.workload, args.seed, 0))
    if [op.argv for op in canary] != [op.argv for op in batch0]:
        session.run(canary)  # inputs that depend on the seed get a fixed check too

    print(f"report  error_rate={session.failed}/{session.attempted}")
    for failure in session.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED  {failure}", file=sys.stderr)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
