"""Run alternating sets of the benchmark on one commit and report its own noise.

    python3 perfbench/drift.py --sets 10 [--seed 100]

Set i runs every workload of BENCHMARK.json once, for its run_seconds, with
seed SEED + i, in forward order on even sets and reverse order on odd ones.
For each end-to-end metric of each workload it prints the median and
quartiles over all sets, the spread (q3 - q1) / median, and the drift between
the two halves: the median of the odd sets over the median of the even sets,
minus one. Both are to be compared with the metric's bound in BENCHMARK.json.
Raw values go to .perfbench/drift-<time>.json. Run from the root of a genset
checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    if args.sets < 2:
        parser.error("--sets must be at least 2, one per half")

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.sets):
        for w in names if i % 2 == 0 else names[::-1]:
            result = run_once(w, args.seed + i, seconds)
            result["set"] = i
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"set {i} {w}: {values} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)

    out = HERE.parent / ".perfbench" / f"drift-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"sets": args.sets, "seconds": seconds, "runs": runs}, indent=1))

    print(f"{'workload':15} {'metric':13} {'median':>9} {'q1':>9} {'q3':>9} {'spread':>7} {'drift':>7} {'bound':>6}")
    for w, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = [r["metrics"][name]["value"] for r in results]
            even = [r["metrics"][name]["value"] for r in results if r["set"] % 2 == 0]
            odd = [r["metrics"][name]["value"] for r in results if r["set"] % 2 == 1]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            drift = statistics.median(odd) / statistics.median(even) - 1
            print(f"{w:15} {name:13} {med:9.4g} {q1:9.4g} {q3:9.4g} {(q3 - q1) / med:7.3f} "
                  f"{drift:+7.3f} {metric['bound']:6.2f}")
        print(f"{w:15} failed share per run: {sorted(shares)}")
    print(f"raw values: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
