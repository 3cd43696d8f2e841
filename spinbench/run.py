#!/usr/bin/env python3
"""Builds and runs the spinscope benchmark harness for one workload.

    python3 spinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a spinscope checkout. It builds the harness (and the
library sources under src/) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, runs one workload, prints the harness's human-readable output, a
table of every metric with its unit, and as the last line of stdout one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics; the harness's other figures are printed above that line only.

Exit status is 0 when the run completed and its output checks passed, and
non-zero otherwise (a failed check still prints the result line, with
"correct": false). The harness checks the run against itself; this script
checks the output the harness reports against expected.tsv, the committed
reference outputs. `--write-expected SEEDS` (e.g. 0-15) regenerates it.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep_v4", "spin_accuracy")
EXPECTED = BENCH_DIR / "expected.tsv"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"spinbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "scanner" / "campaign.cpp").is_file():
        fail(f"no spinscope sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "spinbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "spinbench"


def declared_metrics(trace):
    """BENCHMARK.json's metric names and units for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(build_dir() / "work")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    report = None
    if lines and lines[-1].startswith("{"):
        report = json.loads(lines.pop())
    for line in lines:
        print(line)
    if report is None:
        fail(f"harness exited with {proc.returncode} and no report")
    return report, proc.returncode


def check_expected(report, workload, seed):
    """Failures of the reported outputs against expected.tsv's rows for this
    workload and seed; seeds without rows pass."""
    failures = []
    for line in EXPECTED.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        row_workload, row_seed, key, value = line.split("\t")
        if row_workload != workload or row_seed != str(seed):
            continue
        got = report["outputs"].get(key, "missing")
        if got != value:
            failures.append(f"{key} = {got} != committed {value}")
    return failures


def write_expected(binary, seeds):
    rows = ["# workload\tseed\tkey\tvalue  (python3 spinbench/run.py --write-expected "
            f"{seeds})"]
    first, _, last = seeds.partition("-")
    for seed in range(int(first), int(last or first) + 1):
        for workload in WORKLOADS:
            proc = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                                   "--reference-only", "--work", str(build_dir() / "work")],
                                  capture_output=True, text=True, check=True)
            rows.extend(proc.stdout.splitlines())
            print(rows[-1].split("\t")[:3], file=sys.stderr)
    EXPECTED.write_text("\n".join(rows) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", metavar="SEEDS")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    binary = build()
    if args.write_expected:
        write_expected(binary, args.write_expected)
        return 0
    if args.workload is None:
        fail("--workload is required")

    report, code = run_harness(binary, args)
    failures = check_expected(report, args.workload, args.seed)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if failures:
        # A failed output check counts every domain as failed.
        report["correct"] = False
        report["failed"] = report["attempted"]
        if "failed_share" in report["metrics"]:
            report["metrics"]["failed_share"]["value"] = 1.0
    metrics = report["metrics"]
    print(f"\n{'metric':40} {'value':>18}  unit")
    for name, m in metrics.items():
        mark = "" if name in declared else "   (not in BENCHMARK.json)"
        print(f"{name:40} {m['value']:18.6g}  {m['unit']}{mark}")
    missing = [n for n, unit in declared.items()
               if n not in metrics or metrics[n]["unit"] != unit]
    if missing:
        fail(f"harness did not report {', '.join(missing)} with the declared units")
    print(f"counts: {json.dumps(report['counts'], sort_keys=True)}")

    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: metrics[n] for n in declared},
    }
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
