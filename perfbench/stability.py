#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and summarise the spread.

Run from the repository root, for example:

    python3 perfbench/stability.py --workloads grid-few --seeds 0-4
    python3 perfbench/stability.py --seeds 0-9 --out perfbench/baseline/end_to_end.json
    python3 perfbench/stability.py --seeds 3,3,1001 --trace 1

Each run is a fresh process, one after another. For every metric the
summary gives the median, the quartiles of ``statistics.quantiles(n=4)``
and the spread (q3 - q1) / median, which is compared with the metric's
bound in BENCHMARK.json. The tool exits 1 if any run is incorrect, if a
spread exceeds its bound, or if the deterministic counts differ between
traced runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import DETERMINISTIC_COUNTS

HERE = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; its result, with the process's wall time added."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = perf_counter() - t0
    for line in lines[:-1]:
        if line.strip().startswith(("FAIL", "absent hook")):
            print(f"    {line.strip()}")
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,1001")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summary as JSON here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    ok = True
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"  {workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"wall {result['wall_s']:.1f}s " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                           if args.trace == 0 or k in DETERMINISTIC_COUNTS),
                  flush=True)
            ok &= result["correct"] and result["failed"] == 0
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
        if args.trace:
            for seed in set(seeds):
                counts = {json.dumps({k: r["metrics"][k]["value"] for k in DETERMINISTIC_COUNTS})
                          for r in runs if r["seed"] == seed}
                if len(counts) > 1:
                    print(f"  {workload} seed {seed}: counts differ between runs: {counts}")
                    ok = False
        print(f"{workload}: {len(runs)} runs")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = f" bound {bound}" + (" OVER BOUND" if s["spread"] > bound else
                                            " over bound/3" if s["spread"] > bound / 3 else "")
                if s["spread"] > bound:
                    ok = False
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<36} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
                  f"q3 {s['q3']:<12.5g} spread {spread}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
