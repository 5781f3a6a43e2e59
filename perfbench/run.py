"""Benchmark of the `tourney` CLI: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload exact-census --seed 1 --seconds 25 --trace 0

A run makes the workload's inputs, then repeats a pass over the workload's
CLI commands (`tourney.cli.main`, in-process, stdout captured) until
--seconds have gone by, then checks every output of every pass against
figures the benchmark computes itself (see oracle.py).  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median over SETUP_ROUNDS fresh interpreters, each importing
               tourney and making and writing the workload's inputs;
  wall_s       median wall time of one pass;
  peak_rss_mb  peak resident memory of this process, which runs the passes
               and nothing else heavy before the checks.
--trace 1 reports the per-layer metrics: it makes the inputs in-process
under the tracer, then repeats rounds of an untraced pass and a span-timed
pass, and ends with one pass under `tracemalloc`; a layer metric is the
median over rounds of (traced set-up + one traced pass).
The spans go to .perfbench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import spans
import workloads
from oracle import CheckFailed

ROOT = workloads.ROOT
SETUP_ROUNDS = 5
RATES = {"quads_per_s": 1.0, "arcs_per_s": 1.0, "samples_per_s": 1.0, "mb_per_s": 1e-6}
RUN_LEVEL = ("process.cpu_s", "trace.overhead_s")   # per run, not per round


def invoke(cli, argv) -> tuple:
    """(exit code or error text, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes of one workload and checks their outputs afterwards."""

    def __init__(self, cli, workload: str, seed: int, sizes, work: Path):
        self.cli, self.workload, self.seed, self.sizes, self.work = cli, workload, seed, sizes, work
        self.ref = workloads.References()
        self.pending = []            # (ops, outputs) of passes not yet checked
        self.passes = 0
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def run_pass(self, tracer=None) -> tuple:
        """(wall seconds, CPU seconds) of one pass over the workload's commands."""
        out = self.work / f"pass-{self.passes}"
        out.mkdir()
        self.passes += 1
        ops = workloads.operations(self.workload, self.seed, self.sizes, self.work, out, self.ref)
        outputs = []
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("bench.pass") if tracer else nullcontext():
            for op in ops:
                outputs.append(invoke(self.cli, op.argv))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.pending.append((ops, outputs))
        return wall, cpu

    def check_all(self) -> None:
        for ops, outputs in self.pending:
            for op, (rc, stdout, stderr) in zip(ops, outputs):
                self.attempted += 1
                if rc != 0:
                    self.failed += 1
                    self.notes.append(f"{op.name}: exit {rc}: {stderr.strip()[-300:]}")
                    continue
                try:
                    op.check(stdout)
                except (CheckFailed, LookupError, TypeError, ValueError, AttributeError) as exc:
                    self.failed += 1
                    self.wrong += 1
                    self.notes.append(f"{op.name}: wrong output: {type(exc).__name__}: {exc}")
        self.pending = []


def timed_setup(runner: Runner) -> float:
    """Seconds for a fresh interpreter to import tourney and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
           "--workload", runner.workload, "--seed", str(runner.seed), "--out", str(runner.work)]
    if runner.sizes == workloads.TINY:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def untraced(args, runner: Runner) -> dict:
    """End-to-end metrics.  The first set-up round makes the inputs; the
    others are spread over the passes, so that the median set-up sees the
    same spells of host load as the median pass.  Only passes count
    towards --seconds."""
    setups = [timed_setup(runner)]
    walls = []
    every = 1
    while not walls or sum(walls) < args.seconds:
        walls.append(runner.run_pass()[0])
        if len(walls) == 1:
            every = max(1, round(args.seconds / walls[0] / SETUP_ROUNDS))
        if len(setups) < SETUP_ROUNDS and len(walls) % every == 0:
            setups.append(timed_setup(runner))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_ROUNDS:
        setups.append(timed_setup(runner))
    _say(f"{args.workload}: {len(walls)} passes, wall {[round(w, 3) for w in walls]}, "
         f"setup {[round(s, 3) for s in setups]}")
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_mb}


def traced(args, runner: Runner, package) -> dict:
    """Per-layer metrics.  Times come from span-only passes, each after an
    untraced pass; peak memory from one more pass under `tracemalloc`, whose
    cost would distort the times."""
    tracer = spans.Tracer()

    def under_trace(fn, memory: bool) -> tuple:
        """(result, spans) of fn run with the tracer installed."""
        tracer.install(package)
        if memory:
            tracemalloc.start()
        try:
            return fn(), tracer.spans
        finally:
            tracemalloc.stop()
            tracer.uninstall()
            tracer.spans = []

    def setup():
        with tracer.span("bench.setup"):
            workloads.make_inputs(args.workload, args.seed, runner.sizes, runner.work)

    setup_time = under_trace(setup, False)[1]
    setup_mem = under_trace(setup, True)[1]
    plain, cpus, traced_walls, rounds = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        wall, cpu = runner.run_pass()
        plain.append(wall)
        cpus.append(cpu)
        (wall, _), pass_time = under_trace(lambda: runner.run_pass(tracer), False)
        traced_walls.append(wall)
        rounds.append(pass_time)
    pass_mem = under_trace(lambda: runner.run_pass(tracer), True)[1]
    mems = spans.layers(setup_mem, pass_mem)
    per_round = []
    for pass_time in rounds:
        times = spans.layers(setup_time, pass_time)
        roots = sum(s.end - s.start for s in setup_time + pass_time if s.parent < 0)
        if abs(sum(lay.self_s for lay in times.values()) - roots) > 1e-6:
            raise RuntimeError("layer self times do not add up to the traced round")
        per_round.append({name: round_metric(mems if name.endswith(".peak_mb") else times, name)
                          for name in args.per_layer if name not in RUN_LEVEL})
    metrics = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    _write_spans(args, {"setup": {"time": [asdict(s) for s in setup_time],
                                  "memory": [asdict(s) for s in setup_mem]},
                        "passes": {"time": [[asdict(s) for s in r] for r in rounds],
                                   "memory": [asdict(s) for s in pass_mem]}})
    _say(f"{args.workload}: {len(per_round)} traced rounds, untraced "
         f"{[round(w, 3) for w in plain]}, traced {[round(w, 3) for w in traced_walls]}")
    return metrics


def round_metric(lays: dict, name: str) -> float:
    """One per-layer metric of one traced round (set-up plus one pass)."""
    if name == "trace.round_s":
        return sum(lay.self_s for lay in lays.values())
    if name == "bench.self_s":
        return lays["bench.setup"].self_s + lays["bench.pass"].self_s
    layer, field = name.rsplit(".", 1)
    lay = lays.get(layer, spans.Layer())
    if field == "self_s":
        return lay.self_s
    if field == "peak_mb":
        return lay.peak_bytes / 2 ** 20
    if field == "calls":
        return lay.calls
    return lay.work * RATES[field] / lay.total_s if lay.total_s else 0.0


def _write_spans(args, spans_out: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(spans_out))


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tourney" / "__init__.py").is_file():
        _say(f"error: no tourney sources under {ROOT / 'src'}; run from a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.per_layer = [m["name"] for m in spec["per_layer"]]
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("TOURNEY_THREADS", None)        # one thread, as the baselines assume
    import tourney
    import tourney.cli as cli

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli, args.workload, args.seed, workloads.FULL, work)
        if args.trace:
            metrics = traced(args, runner, tourney)
        else:
            metrics = untraced(args, runner)
        runner.check_all()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in runner.notes[:20]:
        _say(note)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
