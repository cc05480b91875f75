#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny planted graph.

    python3 perfbench/smoke_test.py

Runs the unlisted `smoke-planted` workload three times and checks that
- a timed run passes its output checks and emits every end-to-end
  metric of BENCHMARK.json, each with its unit;
- a traced run does the same for every per-layer metric;
- a run whose collected assignments are deliberately corrupted fails
  its output check.
Exits non-zero on the first failed expectation.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(*extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "smoke-planted",
           "--seed", "0", "--seconds", "2", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def expect(cond, what):
    if not cond:
        sys.exit(f"smoke test FAILED: {what}")
    print(f"ok: {what}")


def expect_metrics(result, declared, kind):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{kind} metrics and units match BENCHMARK.json")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"every {kind} value is a number")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    timed = run("--trace", "0")
    expect(timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1,
           "timed run passes its output checks")
    expect_metrics(timed, bench["end_to_end"], "end-to-end")

    traced = run("--trace", "1")
    expect(traced["correct"] and traced["failed"] == 0, "traced run passes its output checks")
    expect_metrics(traced, bench["per_layer"], "per-layer")

    corrupted = run("--trace", "0", "--corrupt", "1")
    expect(not corrupted["correct"] and corrupted["failed"] >= 1,
           "a corrupted assignment fails the output check")


if __name__ == "__main__":
    main()
