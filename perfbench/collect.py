"""Run the benchmark over several seeds and summarize its spread.

From the root of a checkout:

    python3 perfbench/collect.py --out perfbench/baseline.json

For each workload (all of BENCHMARK.json's, or those given with
``--workload``) it makes ten untraced runs with seeds 1 to 10 and two
traced runs with seed 1, each as
``python3 perfbench/run.py ... --seconds <run_seconds>``, the run
length BENCHMARK.json fixes.  For every
end-to-end metric it prints the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound, marking a
spread above a third of the bound.  It checks that the metric names
match BENCHMARK.json and that the traced counts repeat exactly between
the traced runs.  With ``--out`` it writes all of this, with the
reference-loop timings, nproc, Python and numpy versions and the git
commit, as JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, meta line) of one run.py invocation."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta "))
    return json.loads(lines[-1]), meta


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    summary: dict = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, reference = [], []
        for seed in range(1, RUNS + 1):
            result, meta = run_once(workload, seed, seconds, trace=0)
            results.append(result)
            reference.append(meta["reference_loop_median_s"])
        traced = [run_once(workload, 1, seconds, trace=1)[0] for _ in range(TRACE_RUNS)]

        entry: dict = {
            "attempted": sum(r["attempted"] for r in results + traced),
            "failed": sum(r["failed"] for r in results + traced),
            "reference_loop_s": summarize(reference),
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{workload}: {RUNS} runs, {entry['failed']}/{entry['attempted']} commands failed")
        ok &= entry["failed"] == 0
        for names, runs, kind in ((end_to_end, results, "end_to_end"), (per_layer, traced, "per_layer")):
            for run in runs:
                if set(run["metrics"]) != set(names):
                    print(f"  {kind} metric names differ from BENCHMARK.json: "
                          f"{sorted(set(run['metrics']) ^ set(names))}")
                    ok = False
        for name, metric in end_to_end.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < metric["bound"] / 3
            print(f"  {name:<14} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']}){'' if steady else '  ABOVE BOUND/3'}")
        for name, metric in per_layer.items() if traced else ():
            values = [r["metrics"][name]["value"] for r in traced]
            if metric["unit"] in ("count", "bytes") and len(set(values)) > 1:
                print(f"  {name} differs between traced runs: {values}")
                ok = False
            entry["per_layer"][name] = {"median": statistics.median(values), "unit": metric["unit"]}
        summary["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
