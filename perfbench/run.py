#!/usr/bin/env python3
"""Cold-process benchmark of the blockhh command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root.  Each invocation of the workload's list is a
fresh ``python -m blockhh.cli`` child, started only after the previous one has
ended (a closed loop with one client), because blockhh is a batch tool and a
warm process would hide its module-level caches.  Every child's exit code and
stdout sha256 are checked against goldens recorded from the seed commit.

The run repeats the invocation list while the ``--seconds`` budget lasts,
with three launches of a trivial setup invocation before each round.  ``--trace 0``
reports wall_s (sum over the list of each invocation's median wall time),
setup_s (median wall time of the setup launches), each child's time scaled
to a fixed machine speed by a reference loop timed around it, and
peak_rss_mb (highest child max-RSS, from the child's own rusage).  The
unscaled times are printed on a comment line.  ``--trace 1`` then makes one
traced round through ``trace_child.py`` and reports the per-layer metrics of
BENCHMARK.json.  The last stdout line is the JSON result; a wrong output makes
``correct`` false and the exit code 1.  No machine setting is touched: no CPU
pinning, no cache dropping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
# A child still running this long after the run began is killed, so the run
# ends inside the three-minute limit and reports the child as failed.
RUN_DEADLINE_S = 165.0
# The speed of a shared host changes from second to second, at times by half
# or more, and no machine setting may be touched to stop it.  So a fixed pure-Python loop
# (reference_loop) is timed in this process around every launch, and each
# child's time is scaled by REFERENCE_S / (the loop's time around it): the
# scaled times read as seconds on a machine where the loop takes REFERENCE_S.
REFERENCE_S = 0.02
SETUP_PER_ROUND = 3


@dataclass
class Child:
    invocation: str
    wall_s: float
    rss_mb: float
    exit_code: int
    sha256: str
    nbytes: int
    reference_s: float = 0.0  # the reference loop's time around this child

    def scaled_s(self) -> float:
        """Wall time at the speed where the reference loop takes REFERENCE_S."""
        return self.wall_s * REFERENCE_S / self.reference_s


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def kill_session(pid: int) -> None:
    """Kill a launcher and the child it started; they share a session."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(invocation: str, timeout_s: float | None = None,
           traced_to: Path | None = None, index: int = 0) -> Child:
    """Run one CLI invocation in a fresh interpreter; time it and hash its stdout.

    The child is started by ``spawn.py``, which times it and reads its
    rusage, so that its max-RSS does not include this process's memory.
    """
    if traced_to is None:
        cmd = [sys.executable, "-m", "blockhh.cli", *invocation.split()]
    else:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(traced_to), str(index), "--"]
        cmd += invocation.split()
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(report_w), "--", *cmd],
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), pass_fds=(report_w,),
            start_new_session=True)
    finally:
        os.close(report_w)
    timer = threading.Timer(timeout_s, kill_session, (proc.pid,)) if timeout_s else None
    if timer:
        timer.start()
    try:
        digest = hashlib.sha256()
        nbytes = 0
        with proc.stdout:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
                nbytes += len(chunk)
        proc.wait()
        with open(report_r, "rb") as report:
            fields = report.read().split()
    finally:
        if timer:
            timer.cancel()
    if len(fields) != 3:  # the launcher was killed or failed
        return Child(invocation, 0.0, 0.0, proc.returncode or -1, digest.hexdigest(), nbytes)
    wall, rss_kb, exit_code = float(fields[0]), int(fields[1]), int(fields[2])
    return Child(invocation, wall, rss_kb / 1024, exit_code, digest.hexdigest(), nbytes)


class Runner:
    """Launches children one at a time and checks each against its golden.

    The reference loop runs before the first launch and after every launch;
    each child gets the mean of the loop times just before and just after it.
    """

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reference_before = reference_loop()

    def launch(self, invocation: str, traced_to: Path | None = None, index: int = 0) -> Child:
        remaining = max(1.0, RUN_DEADLINE_S - (perf_counter() - self.started))
        child = launch(invocation, remaining, traced_to, index)
        after = reference_loop()
        child.reference_s = (self.reference_before + after) / 2
        self.reference_before = after
        self.check(child)
        return child

    def check(self, child: Child) -> None:
        self.attempted += 1
        golden = self.goldens.get(child.invocation)
        if golden is None:
            problem = "no golden recorded"
        elif child.exit_code != golden["exit_code"]:
            problem = "exit code %d, golden %d" % (child.exit_code, golden["exit_code"])
        elif child.sha256 != golden["sha256"]:
            problem = "stdout sha256 %s, golden %s" % (child.sha256, golden["sha256"])
        else:
            return
        self.failed += 1
        print("perfbench: WRONG OUTPUT for %r: %s" % (child.invocation, problem), file=sys.stderr)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of the work blockhh does: big-integer
    partition counts and tuple building, in this interpreter."""
    start = perf_counter()
    counts = [1] + [0] * 600
    for k in range(1, 601):
        for m in range(k, 601):
            counts[m] += counts[m - k]
    parts = [()]
    for _ in range(7):
        parts = [q + (k,) for q in parts for k in range(1, 4) if not q or k <= q[-1]] + parts
    assert counts[-1] == 458004788008144308553622 and len(parts) == 1696
    return perf_counter() - start


def run_rounds(runner: Runner, invocations: list[str], seconds: float) -> tuple[list, list]:
    """Repeat the list while the next round is expected to end inside the budget; at least once.

    SETUP_PER_ROUND setup launches precede every round, so setup_s samples the
    same stretch of machine time as the workload instead of one moment at the
    start, with enough samples even when rounds are few.
    """
    start = perf_counter()
    rounds, setup = [], []
    while True:
        setup += [runner.launch(workloads.SETUP) for _ in range(SETUP_PER_ROUND)]
        rounds.append([runner.launch(inv) for inv in invocations])
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, setup


def wall_of(rounds: list[list[Child]], time=lambda child: child.wall_s) -> float:
    """Sum over the invocation list of each invocation's median time."""
    return sum(statistics.median(time(r[i]) for r in rounds) for i in range(len(rounds[0])))


def end_to_end(runner: Runner, invocations: list[str], seconds: float) -> tuple[dict, int]:
    rounds, setup = run_rounds(runner, invocations, seconds)
    print("# unscaled: wall_s=%.6g setup_s=%.6g reference_loop_s=%.6g"
          % (wall_of(rounds), statistics.median(c.wall_s for c in setup),
             statistics.median(c.reference_s for c in setup + sum(rounds, []))))
    values = {
        "wall_s": wall_of(rounds, Child.scaled_s),
        "setup_s": statistics.median(c.scaled_s() for c in setup),
        "peak_rss_mb": max(c.rss_mb for r in rounds for c in r),
    }
    return values, len(rounds)


def layer_metrics(runner: Runner, invocations: list[str], seconds: float) -> tuple[dict, int]:
    rounds, _ = run_rounds(runner, invocations, seconds)
    OUT.mkdir(exist_ok=True)
    traced, docs = [], []
    for index, inv in enumerate(invocations):
        path = OUT / ("spans-%d.json" % index)
        path.unlink(missing_ok=True)
        traced.append(runner.launch(inv, traced_to=path, index=index))
        docs.append(json.loads(path.read_text()))
    values = aggregate_spans(docs)
    values["cli.output_bytes"] = sum(c.nbytes for c in traced)
    values["trace_overhead_frac"] = (sum(c.scaled_s() for c in traced)
                                     / wall_of(rounds, Child.scaled_s) - 1)
    return values, len(rounds) + 1


def aggregate_spans(docs: list[dict]) -> dict:
    """Per-layer counts and self times from the span files of one traced round.

    Self time is a span's duration minus the durations of its direct children;
    calls are single-threaded, so children never overlap.
    """
    calls, items, distinct = Counter(), Counter(), Counter()
    self_s = defaultdict(float)
    core_partitions = blocks_found = classes = 0
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent, _, n) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[index]
            if n is None:
                continue
            items[name] += n
            caller = spans[parent][0] if parent >= 0 else None
            if name == "blocks.blocks_of":
                blocks_found += n
            elif caller == "blocks.blocks_of":
                core_partitions += n
            elif caller == "oracle.hh1_group_oracle":
                classes += n
        distinct.update(doc["distinct"])
    values = {"blocks.core_yield": blocks_found / core_partitions if core_partitions else 0.0,
              "oracle.classes": classes}
    for name in calls:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = self_s[name]
        values[name + ".items"] = items[name]
        values[name + ".distinct_frac"] = distinct[name] / calls[name]
    return values


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order; a layer never called reads 0."""
    return {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]} for s in specs}


def machine() -> str:
    return "python=%s nproc=%d" % (platform.python_version(), len(os.sched_getaffinity(0)))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(json.loads(GOLDENS.read_text()))
    if runner.launch(workloads.SETUP).exit_code != 0:  # warm-up: bytecode cache, file cache
        raise SystemExit("perfbench: the blockhh CLI does not run from %s" % ROOT)
    invocations = workloads.draw(name, seed, smoke)
    if trace:
        values, rounds = layer_metrics(runner, invocations, seconds)
        metrics = select(values, spec["per_layer"])
    else:
        values, rounds = end_to_end(runner, invocations, seconds)
        metrics = select(values, spec["end_to_end"])
    print("# workload=%s seed=%d seconds=%g trace=%d smoke=%d %s rounds=%d invocations=%d"
          % (name, seed, seconds, trace, smoke, machine(), rounds, len(invocations)))
    for metric, m in metrics.items():
        print("%-40s %14.6g %s" % (metric, m["value"], m["unit"]))
    print("fail_frac %d/%d" % (runner.failed, runner.attempted))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "blockhh" / "cli.py").is_file():
        print("perfbench: no blockhh sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("# summary: seed=%d %s" % (args.seed, machine()))
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print("%-10s %-40s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
