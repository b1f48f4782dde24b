"""Steadiness check: run each workload repeatedly with the same code and
report every end-to-end metric's median, quartiles and spread against the
bounds in BENCHMARK.json.

    python3 bench/steady.py --runs 10 --seed 1
    python3 bench/steady.py --runs 5 --seed 2 --workload elim_growth

Spread is (q3 - q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4). Every run uses the same seed; pass
another --seed for another input. Runs go one at a time, cycling through the
workloads so that slow drift of the machine reaches each workload alike.
The exit status is 1 when a run fails, reports an incorrect output, or a
spread exceeds its bound.
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


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The JSON result of one run, and the environment it recorded."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: those in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    chosen = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in chosen}
    ok = True
    for i in range(args.runs):
        for w in chosen:
            res, env = run_once(w, args.seed, spec["run_seconds"])
            results[w].append(res)
            if i == 0 and w == chosen[0]:
                print("env " + json.dumps({k: v for k, v in env.items() if k not in ("workload", "seed")}))
            if not res["correct"] or res["failed"]:
                ok = False
            print(f"run {i + 1}/{args.runs} {w} seed {args.seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)

    summary = {}
    print(f"\n{'workload':<16} {'metric':<13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in chosen:
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            status = "steady" if spread < bound / 3 else "ok" if spread <= bound else "OVER"
            ok = ok and spread <= bound
            summary.setdefault(w, {})[name] = {"median": med, "q1": q1, "q3": q3,
                                               "spread": spread, "bound": bound, "values": values}
            print(f"{w:<16} {name:<13} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} "
                  f"{spread:>7.3f} {bound:>6.2f}  {status}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
