"""Outside-in benchmark of the chowliu CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/` as
users run it, one fresh `python -m chowliu.cli` process per command and one
command at a time.  The workload seed selects the generated inputs (see
workloads.py) and every output is checked against its pinned reference.

--trace 0 measures the end-to-end metrics with tracing off: passes of the
workload's commands, each after one set-up measurement, until S seconds have
gone, reporting the mean times over the passes and the median set-up time.
--trace 1 reports the per-layer metrics: it alternates untraced and traced
in-process passes of the same commands, each in a fresh tracer.py process,
until S seconds have gone.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the details: environment, input
digests, per-command times and any failures.  Reports and the spans of the
last traced pass are written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import TRACED, COMPUTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_PASSES = 3
MIN_SETUPS = 7
COMMAND_TIMEOUT_S = 150.0


def metric_names() -> tuple:
    """End-to-end and per-layer metric names, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHOWLIU_SEED", None)  # it would override the experiment and calibrate seeds
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


class Spawned:
    """One child process, timed from spawn to exit, with its rusage."""

    def __init__(self, argv: list, env: dict, stdout: Path, stderr: Path):
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        lock, done = threading.Lock(), []
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

        def kill():
            with lock:
                if not done:
                    os.kill(pid, 9)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            with lock:
                done.append(True)
            timer.cancel()
        self.wall_s = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        self.user_s, self.sys_s = usage.ru_utime, usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux


def setup_once(env: dict, logdir: Path) -> float:
    """Wall time of a fresh interpreter that only imports chowliu.cli."""
    p = Spawned([sys.executable, "-c", "import chowliu.cli"], env, logdir / "setup.out", logdir / "setup.err")
    if p.code != 0:
        raise SystemExit(f"importing chowliu.cli failed:\n{(logdir / 'setup.err').read_text()}")
    return p.wall_s


def cli_pass(w: workloads.Workload, pinned: dict | None, env: dict, outdir: Path, logdir: Path) -> dict:
    """Run every command of the workload once as its own process and, unless
    `pinned` is None, check its outputs.  `failures` holds one message list
    per failed command."""
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.iterdir():
        stale.unlink()
    result = {"walls": {}, "user_s": 0.0, "sys_s": 0.0, "rss_mb": 0.0, "failures": []}
    for command in w.commands:
        stderr = logdir / f"{command.label}.stderr"
        p = Spawned([sys.executable, "-m", "chowliu.cli", *w.argv(command, outdir)], env,
                    outdir / f"{command.label}.stdout", stderr)
        result["walls"][command.label] = p.wall_s
        result["user_s"] += p.user_s
        result["sys_s"] += p.sys_s
        result["rss_mb"] = max(result["rss_mb"], p.rss_mb)
        if p.code != 0:
            tail = stderr.read_text().strip().splitlines()[-1:] or [""]
            result["failures"].append([f"{command.label}: exit code {p.code}: {tail[0]}"])
        elif pinned is not None:
            problems = workloads.check_command(w, pinned, command, outdir)
            if problems:
                result["failures"].append(problems)
    result["wall_s"] = sum(result["walls"].values())
    return result


def _another_pass(start: float, seconds: float, walls: list, minimum: int) -> bool:
    """Whether a further pass fits in the run: at least `minimum` passes, then
    only passes that are expected to end by `seconds` after `start`."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def untraced_run(w, pinned, env, seconds, run_dir) -> tuple:
    """Passes until `seconds` have gone, each after one set-up measurement, so
    that set-up and passes sample the same stretch of time.  An unmeasured
    start first writes the bytecode caches, as users have them."""
    start = time.perf_counter()
    setup_once(env, run_dir)
    setups, passes, walls = [], [], []
    while _another_pass(start, seconds, walls, MIN_PASSES):
        setups.append(setup_once(env, run_dir))
        passes.append(cli_pass(w, pinned, env, run_dir / "out", run_dir))
        walls.append(passes[-1]["wall_s"])
    while len(setups) < MIN_SETUPS:
        setups.append(setup_once(env, run_dir))
    # Times are means over the passes: on a shared host the throughput for
    # the same work swings between two levels, so the median of a dozen
    # passes jumps between them while the mean over the run stays steady.
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "learn_s": (statistics.fmean(p["walls"][workloads.LEARN] for p in passes), "s"),
        "cpu_s": (statistics.fmean(p["user_s"] + p["sys_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    details = {
        "passes": len(passes),
        "setups": len(setups),
        "pass_wall_s": walls,
        "setup_s": setups,
        "command_wall_s": {c.label: [p["walls"][c.label] for p in passes] for c in w.commands},
    }
    failures = [f for p in passes for f in p["failures"]]
    return metrics, details, len(passes) * len(w.commands), failures


def _tree_outputs(outdir: Path) -> dict:
    return {p.name: workloads.sha256_file(p) for p in sorted(outdir.iterdir())}


def tracer_pass(w, pinned, env, run_dir, trace: bool) -> dict:
    """One pass of the workload's commands in-process, in a fresh tracer.py process."""
    kind = "traced" if trace else "untraced"
    outdir = run_dir / kind
    spec = {
        "src": str(SRC),
        "commands": [[c.label, list(c.argv)] for c in w.commands],
        "out": str(outdir),
        "trace": trace,
        "run_id": f"{w.name}-v{w.variant}-{os.getpid()}",
        "result_out": str(run_dir / "tracer.json"),
        "spans_out": str(WORK / f"spans-{w.name}.jsonl"),
    }
    (run_dir / "tracer-spec.json").write_text(json.dumps(spec))
    p = Spawned([sys.executable, str(HERE / "tracer.py"), str(run_dir / "tracer-spec.json")], env,
                run_dir / "tracer.out", run_dir / "tracer.err")
    if p.code != 0:
        raise SystemExit(f"tracer failed with exit code {p.code}:\n{(run_dir / 'tracer.err').read_text()}")
    result = json.loads((run_dir / "tracer.json").read_text())
    result["problems"] = [[f"in-process {kind} {command.label}: exit code {code}"] if code != 0
                          else workloads.check_command(w, pinned, command, outdir)
                          for command, code in zip(w.commands, result["codes"])]
    return result


def traced_run(w, pinned, env, seconds, run_dir) -> tuple:
    """One CLI pass for the processes' rusage, then untraced and traced
    in-process passes in turn until `seconds` have gone."""
    start = time.perf_counter()
    cli = cli_pass(w, pinned, env, run_dir / "out", run_dir)
    plain, traced, failures, walls = [], [], list(cli["failures"]), []
    while _another_pass(start, seconds, walls, 1):
        pair_start = time.perf_counter()
        plain.append(tracer_pass(w, pinned, env, run_dir, trace=False))
        traced.append(tracer_pass(w, pinned, env, run_dir, trace=True))
        walls.append(time.perf_counter() - pair_start)
        untraced_out, traced_out = _tree_outputs(run_dir / "untraced"), _tree_outputs(run_dir / "traced")
        for i, command in enumerate(w.commands):
            differing = [name for name in (*command.outputs, f"{command.label}.stdout")
                         if traced_out.get(name) != untraced_out.get(name)]
            traced_problems = traced[-1]["problems"][i] + (
                [f"traced {command.label}: {', '.join(differing)} differ from the untraced run"] if differing else [])
            failures += [problems for problems in (plain[-1]["problems"][i], traced_problems) if problems]

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name in TRACED:
        for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            metrics[f"{name}.{field}"] = (med(t["stats"].get(name, {}).get(field, 0) for t in traced), unit)
    for name, (field, _) in COMPUTED.items():
        key = f"{name}.{field}"
        metrics[key] = (med(t["computed"].get(key, 0) for t in traced), f"{field}-computed")
    plain_wall = med(sum(p["walls"]) for p in plain)
    traced_wall = med(sum(t["walls"]) for t in traced)
    metrics["process.user_s"] = (cli["user_s"], "s")
    metrics["process.sys_s"] = (cli["sys_s"], "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    metrics["trace.coverage"] = (med(sum(c for _, c in t["coverage"]) / sum(d for d, _ in t["coverage"])
                                     for t in traced), "ratio")
    last = traced[-1]
    drivers = {"cli.main", "harness.run_experiment", "citest.calibrate"}

    def largest(totals: dict) -> list:
        return sorted(((name, t) for name, t in totals.items() if name not in drivers), key=lambda item: -item[1])[:5]

    details = {
        "passes": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "coverage_by_command": {c.label: covered / duration
                                for c, (duration, covered) in zip(w.commands, last["coverage"])},
        "largest_subtrees": largest({name: s["total_s"] for name, s in last["stats"].items()}),
        "largest_subtrees_by_command": {c.label: largest(totals)
                                        for c, totals in zip(w.commands, last["totals_by_command"])},
        "spans": str((WORK / f"spans-{w.name}.jsonl").relative_to(ROOT)),
    }
    return metrics, details, len(w.commands) * (1 + 2 * len(traced)), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "chowliu" / "cli.py").is_file():
        print(f"error: no chowliu sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_names()
    pinned = workloads.load_pinned()
    env_info = environment()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        w = workloads.prepare(args.workload, args.seed, args.scale, run_dir / "in")
        want_inputs = workloads.pinned_entry(pinned, w)["inputs"]
        if w.inputs != want_inputs:
            print(f"error: generated inputs differ from the pinned ones: {w.inputs} != {want_inputs}",
                  file=sys.stderr)
            return 3
        env = child_env()
        run = traced_run if args.trace else untraced_run
        metrics, details, attempted, failures = run(w, pinned, env, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = per_layer if args.trace else end_to_end
    if set(metrics) != set(names):
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    details.update({"workload": w.name, "variant": w.variant, "scale": w.scale, "inputs": w.inputs,
                    "environment": env_info, "failures": failures[:20]})
    report = WORK / f"report-{w.name}-trace{args.trace}.json"
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    report.write_text(json.dumps({"details": details, "result": result}, indent=1))
    for problems in failures[:20]:
        print("FAILED " + "; ".join(problems), file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
