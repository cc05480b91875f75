#!/usr/bin/env python3
"""Run one workload of the sofa benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark on first use (see build.py), runs
the workload in one JVM on local[nproc], and prints the JVM's report
line followed, as the last line, by the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, printing no result, if the build or the run fails.
Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def git_sha(root):
    if not (root / ".git").exists():
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="corrupt one collected assignment (self-test of the output check)")
    args = ap.parse_args()

    root = build.repo_root()
    classes, src_sha = build.build(root)
    work = build.build_dir(root) / "perfbench" / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    cmd = [
        build.java(), "-Xms3g", "-Xmx3g", "-Xss8m", "-XX:-UsePerfData",
        f"-Djava.io.tmpdir={work / 'tmp'}",
        f"-Dlog4j2.configurationFile={root / 'perfbench' / 'log4j2.properties'}",
        "-cp", f"{classes}{os.pathsep}{build.spark_jars() / '*'}",
        "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--corrupt", str(args.corrupt), "--cores", str(cores), "--work-dir", str(work),
        "--git-sha", git_sha(root), "--src-sha256", src_sha,
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: malformed result line {lines[-1]!r}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
