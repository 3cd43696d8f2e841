#!/usr/bin/env python3
"""Tests of the spinscope benchmark itself.

    python3 spinbench/test_spinbench.py

Runs the harness through run.py at the benchmark's own sizes, with a short
--seconds so that each run makes one repetition (or one ledger pair). The
whole file takes a few minutes. It builds the harness first, like a
benchmark run does.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"
SEED = 3  # has rows in expected.tsv, so the committed outputs are checked

# Public calls the traced run must wrap in a span, per workload. netsim, quic,
# bytes and telemetry have no call of their own: their figures are counters
# of the campaign's registry and of the alloc interposer.
LAYER_SPANS = {
    "sweep_v4": {"web.materialize", "scanner.campaign_run", "scanner.scan_chunk",
                 "scanner.scan_domain.dead", "scanner.scan_domain.live",
                 "qlog.to_jsonl", "qlog.parse_jsonl", "core.assess_connection",
                 "core.replay_idealized", "core.replay_constrained",
                 "analysis.adoption_add", "analysis.accuracy_add", "analysis.replay_add"},
    "spin_accuracy": {"web.materialize", "scanner.scan_domain.live", "qlog.to_jsonl",
                      "qlog.parse_jsonl", "core.assess_connection",
                      "core.replay_idealized", "core.replay_constrained",
                      "analysis.accuracy_add", "analysis.replay_add"},
}


def args(workload, trace, seed):
    return ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--seconds", SECONDS]


def parse(stdout):
    lines = stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return lines, result


def human_metrics(lines):
    """The metric table run.py prints: name -> (value, unit)."""
    start = next(i for i, line in enumerate(lines) if line.startswith("metric "))
    table = {}
    for line in lines[start + 1:]:
        if line.startswith("counts: "):
            break
        name, value, unit = line.split()[:3]
        table[name] = (float(value), unit)
    return table


def counts(lines):
    line = next(line for line in lines if line.startswith("counts: "))
    return json.loads(line[len("counts: "):])


class SpinbenchTest(unittest.TestCase):
    """Each (workload, trace, seed, repeat) runs once and is shared by the tests."""

    _runs = {}

    @classmethod
    def setUpClass(cls):
        run.build()

    @classmethod
    def bench(cls, workload, trace, seed=SEED, repeat=0):
        """(exit code, stdout lines, result line, span names of a traced run)."""
        key = (workload, trace, seed, repeat)
        if key not in cls._runs:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                                   *args(workload, trace, seed)],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            lines, result = parse(proc.stdout)
            spans = set()
            if trace:
                path = run.build_dir() / "work" / f"spans-{workload}.tsv"
                spans = {line.split("\t")[2] for line in path.read_text().splitlines()
                         if not line.startswith("#")}
            cls._runs[key] = (proc.returncode, lines, result, spans)
        return cls._runs[key]

    def test_every_metric_printed_with_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result, _ = self.bench(workload, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()}, declared)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertGreater(metric["value"], 0)
                    for name, (_, unit) in human_metrics(lines).items():
                        self.assertTrue(unit, f"{name} printed without a unit")

    def test_corrupted_digest_fails_check_and_raises_failed_share(self):
        with tempfile.TemporaryDirectory() as tmp:
            expected = Path(tmp) / "expected.tsv"
            expected.write_text(f"sweep_v4\t{SEED}\tdigest\t0123456789abcdef\n")
            stdout = io.StringIO()
            with mock.patch.object(run, "EXPECTED", expected), \
                    mock.patch.object(sys, "argv", ["run.py", *args("sweep_v4", 0, SEED)]), \
                    contextlib.redirect_stdout(stdout):
                code = run.main()
        lines, result = parse(stdout.getvalue())
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(human_metrics(lines)["failed_share"][0], 1.0)
        self.assertTrue(any(line.startswith("CHECK FAILED: digest") for line in lines))

    def test_traced_run_emits_a_span_for_every_layer(self):
        for workload, wanted in LAYER_SPANS.items():
            with self.subTest(workload=workload):
                code, lines, _, spans = self.bench(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertLessEqual(wanted, spans)

    def test_counts_repeat_and_shape_holds_on_a_second_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.bench(workload, 0)[1]
                again = self.bench(workload, 0, repeat=1)[1]
                other = self.bench(workload, 0, seed=SEED + 1)[1]
                self.assertEqual(counts(first), counts(again))
                shares = [human_metrics(lines)["scanner.live_attempt_share"][0]
                          for lines in (first, other)]
                if workload == "spin_accuracy":
                    self.assertEqual(shares, [1.0, 1.0])
                else:
                    for share in shares:
                        self.assertGreater(share, 0.05)
                        self.assertLess(share, 0.30)


if __name__ == "__main__":
    unittest.main()
