#!/usr/bin/env python3
"""Record one trajectory point of the sofa benchmark.

    python3 perfbench/record.py --label <name> [--seeds 1-10] [--workloads a,b]

Runs every workload of BENCHMARK.json once per seed with tracing off,
then once traced with the first seed, and writes
perfbench/trajectory/<label>.json: per workload, each run's end-to-end
metrics, their median and quartile spread (IQR / median, as
statistics.quantiles(values, n=4) gives the quartiles), the traced
per-layer metrics, and the run metadata. Progress goes to stderr.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    report = json.loads(lines[-2])["perfbench_report"]
    report.pop("spans", None)
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {time.time() - t0:.1f} s wall, "
          f"correct={result['correct']}", file=sys.stderr)
    return {"seed": seed, "wall_s": round(time.time() - t0, 1), "result": result, "report": report}


def summary(runs, declared):
    out = {}
    for m in declared:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": m["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["iqr_over_median"] = (q3 - q1) / med if med else None
            if "bound" in m:
                entry["bound"] = m["bound"]
        out[m["name"]] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    point = {"label": args.label, "recorded": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
             "machine": platform.processor() or platform.machine(), "workloads": {}}
    for name in names:
        timed = [run(bench, name, s, 0) for s in seeds(args.seeds)]
        traced = run(bench, name, seeds(args.seeds)[0], 1)
        point["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in timed + [traced]),
            "end_to_end": summary(timed, bench["end_to_end"]),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "meta": timed[0]["report"],
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"]} for r in timed + [traced]],
        }
    dest = ROOT / "perfbench" / "trajectory" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(point, indent=1) + "\n")
    print(dest)


if __name__ == "__main__":
    main()
