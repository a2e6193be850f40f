"""Run the benchmark over several seeds and write one result record.

Usage (from the root of a checkout):

    python3 bench/collect.py --label seed --runs 10 [--workloads a,b] [--seconds 20]

For each workload it makes ``--runs`` untimed-trace runs with seeds
``1..runs`` and one ``--trace 1`` run with seed 1, one process at a time,
and writes ``bench/results/<label>.json``: the machine record, every run's
result line, and per metric the median and the quartile spread (distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0].removeprefix("machine "))
    return machine, json.loads(lines[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "spread": (q3 - q1) / median,
            "min": min(values),
            "max": max(values),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    record = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            machine, result = run_once(workload, seed, args.seconds, 0)
            record.setdefault("machine", {k: v for k, v in machine.items() if k != "loadavg"})
            runs.append({"seed": seed, "loadavg": machine["loadavg"], **result})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        _, traced = run_once(workload, 1, args.seconds, 1)
        record["workloads"][workload] = {
            "summary": summarize(runs),
            "runs": runs,
            "trace": traced,
        }
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
