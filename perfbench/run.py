"""Benchmark for genset: fresh-process CLI invocations in a closed loop.

    python3 perfbench/run.py --workload check-wide --seed 1 --seconds 35 --trace 0

Run from the root of a genset checkout. One client runs one `genset`
invocation at a time, each in a fresh interpreter, as users run it, and reads
its wall time and rusage through os.wait4. A run repeats whole rounds of the
workload's invocations for about --seconds, so every run attempts the same
operations in the same proportions.

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
set-up processes that import genset and write the input files), wall_s
(median over rounds of the round's summed invocation wall time) and
peak_rss_mib (largest peak RSS of any invocation). A run does the number of
whole rounds that brings its length nearest to --seconds, and at least one.

--trace 1 reports the per-layer metrics: each round runs once untraced, for
rusage, and once with every invocation under perfbench/tracer.py. The last
line of standard output is a JSON object with correct, attempted, failed and
metrics. `--workload all` runs every workload and prints one such line each.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # no invocation may outlast this point of the run


@dataclass
class Child:
    wall: float
    rusage: os.struct_rusage
    status: int
    stdout: str
    stderr: str


def run_child(cmd: list[str], cwd: Path, env: dict, timeout: float) -> Child:
    """Run one process to its end and return its wall time (from here) and rusage."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, wait_status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(wall, rusage, proc.returncode, out_path.read_text(), err_path.read_text())


class Runner:
    def __init__(self, workload: str, seed: int, root: Path, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = self.failed = self.wrong = 0
        self.errors: list[str] = []

    def child(self, cmd: list[str]) -> Child:
        return run_child(cmd, self.work, self.env, self.deadline - time.monotonic())

    def setup(self, trace_out: Path | None = None) -> Child:
        cmd = [sys.executable, str(HERE / "inputs.py"), self.workload, str(self.seed), str(self.work)]
        done = self.child(cmd + ([str(trace_out)] if trace_out else []))
        if done.status != 0:
            raise SystemExit(f"set-up failed with status {done.status}:\n{done.stderr}")
        return done

    def invoke(self, op: workloads.Op, trace_out: Path | None = None) -> tuple[Child, dict]:
        """One operation; counts it as failed on a wrong exit status or a wrong output.

        Exit statuses 0 and 1 are verdicts (holds / does not hold), so a
        status 0 or 1 other than the expected one, or a record that fails its
        check, is a wrong answer. A kill, a timeout or a status of 2 or more
        (usage error, budget exhausted) is a failure without an answer.
        """
        cli = ["--no-meta", *op.argv]
        if trace_out is None:
            cmd = [sys.executable, "-m", "genset", *cli]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), "--", *cli]
        done = self.child(cmd)
        self.attempted += 1
        try:
            counts = op.check(done.stdout)
            if done.status != op.status:
                raise workloads.Mismatch(f"exit status {done.status}, expected {op.status}")
            return done, counts
        except Exception as exc:  # a malformed record must count as one failed operation
            self.failed += 1
            self.wrong += done.status in (0, 1)
            self.errors.append(f"{op.label}: exit {done.status}: {exc} {done.stderr[-400:]}")
            return done, {}


def whole_rounds(seconds: float, one_round: Callable[[], None]) -> None:
    """Run rounds while one more brings the run's length nearer to `seconds`; at least one.

    Stopping at the first round that ends past `seconds` would let a workload
    whose round is just under `seconds` run for twice as long as the others.
    """
    start, rounds = time.monotonic(), 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return


def end_to_end(runner: Runner, ops: list[workloads.Op], seconds: float, rng: random.Random) -> dict:
    """A set-up runs before every invocation, so that its samples spread over the run as the walls do."""
    setups, walls, peak_kib = [], [], 0

    def one_round() -> None:
        nonlocal peak_kib
        rng.shuffle(ops)
        round_wall = 0.0
        for op in ops:
            setups.append(runner.setup().wall)
            done, _ = runner.invoke(op)
            round_wall += done.wall
            peak_kib = max(peak_kib, done.rusage.ru_maxrss)
        walls.append(round_wall)

    whole_rounds(seconds, one_round)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def traced_round(runner: Runner, ops: list[workloads.Op]) -> dict:
    """Per-layer figures of one round: each operation untraced, for rusage, then traced, for spans."""
    m: dict[str, float] = defaultdict(float)
    spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
    trace_out = runner.work / ".trace.json"
    untraced_wall = traced_wall = 0.0
    for op in ops:  # untraced, then traced right after, so that both see the same machine load
        done, _ = runner.invoke(op)
        op_wall = done.wall
        ru = done.rusage
        m["process.user_s"] += ru.ru_utime
        m["process.sys_s"] += ru.ru_stime
        m["process.minor_faults"] += ru.ru_minflt
        if op.argv[0] == "check":
            m["generate.minor_faults"] += ru.ru_minflt
            m["generate.sys_s"] += ru.ru_stime
        trace_out.unlink(missing_ok=True)
        done, counts = runner.invoke(op, trace_out)
        if not trace_out.exists():  # died before writing its spans: left out of both overhead sums
            continue
        trace = json.loads(trace_out.read_text())
        untraced_wall += op_wall
        traced_wall += done.wall - trace["layer_pass_s"]
        for name, row in trace["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], row)]
        for name, value in [*counts.items(), *trace["counters"].items()]:
            m[name] += value
        for j, (seconds, covered) in trace["layers"].items():
            m[f"generate.dp_layer{j}_s"] += seconds
            m[f"generate.covered_layer{j}"] += covered

    m["cli.invocations"] = spans["cli.main"][0]
    m["cli.self_s"] = spans["cli.main"][2]
    m["families.parse_family_s"] = spans["families.parse_family"][1]
    for name in ("reachable_layers", "decompose", "is_k_base"):
        m[f"generate.{name}_s"] = spans[f"generate.{name}"][1]
    m["generate.reachable_layers_calls"] = spans["generate.reachable_layers"][0]
    search_s = m["search.min_generator_size_s"] = spans["search.min_generator_size"][1]
    m["search.us_per_node"] = 1e6 * search_s / m["search.nodes"] if m["search.nodes"] else 0.0
    m["search.dp_calls"], m["search.dp_s"] = spans["search.reachable_layers"][:2]
    m["search.dp_share"] = m["search.dp_s"] / search_s if search_s else 0.0
    for name in ("disjointness_graph", "degeneracy_order", "count_cliques"):
        m[f"graphs.{name}_s"] = spans[f"graphs.{name}"][1]
    counted = m["graphs.cliques_counted"]
    m["graphs.cliques_per_s"] = counted / m["graphs.count_cliques_s"] if counted else 0.0
    for name in ("coverage_inequality_check", "count_disjoint_tuples", "union_bound_check",
                 "small_union_probability", "lemma4_bound"):
        m[f"bounds.{name}_s"] = spans[f"bounds.{name}"][1]
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced_wall if untraced_wall else 0.0
    return m


def per_layer(runner: Runner, ops: list[workloads.Op], seconds: float, rng: random.Random) -> dict:
    """Median over traced rounds of every per-layer metric; 0 where the workload skips the layer."""
    setup_trace = runner.work / ".setup-trace.json"
    runner.setup(setup_trace)
    format_s = json.loads(setup_trace.read_text())["spans"].get("families.format_family", [0, 0.0])[1]
    rounds = []

    def one_round() -> None:
        rng.shuffle(ops)
        rounds.append(traced_round(runner, ops))

    whole_rounds(seconds, one_round)
    for r in rounds:
        r["families.format_family_s"] = format_s  # from the run's one traced set-up
    return {
        entry["name"]: (statistics.median(r.get(entry["name"], 0) for r in rounds), entry["unit"])
        for entry in load_spec()["per_layer"]
    }


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / ".perfbench" / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, root, work)
        runner.setup()  # untimed: fills the page cache and writes bytecode, as an installed copy has it
        workloads.verify_inputs(workload, seed, str(work))
        ops = workloads.WORKLOADS[workload](seed)
        rng = random.Random(seed)
        measure = per_layer if trace else end_to_end
        metrics = measure(runner, ops, seconds, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.errors:
        print(f"{workload}: FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(f"{workload}: attempted {runner.attempted}, failed {runner.failed}")
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "genset" / "__init__.py").is_file():
        print("perfbench: run from the root of a genset checkout (src/genset not found)", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), root)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
