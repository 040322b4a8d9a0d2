"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a source checkout; it takes about a minute.  It checks:

1. every workload, traced and untraced, prints a result line with exactly the
   metric names of BENCHMARK.json, every end-to-end value above zero, calls
   to exactly the traced functions the workload should reach, and no failed
   command;
2. the correctness gate rejects a corrupted copy of every output, and accepts
   an experiment CSV whose excess columns moved by less than its tolerance;
3. in a directory that holds only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

SEED = 5

# The traced functions each workload calls; every other traced function must
# show zero calls there, which checks that the wrappers reach every namespace
# and that each workload bypasses what it should.
CALLED = {
    "mi-oracle": {"cli.main", "estimation.read_binary", "estimation.empirical_counts",
                  "estimation.learn_parameters", "structure.mi_matrix", "structure.max_weight_spanning_tree",
                  "info.mutual_information", "harness.run_experiment", "seeding.derive_seed",
                  "model.exact_mi_matrix", "model.pair_marginal", "model.node_marginals", "model.sample"},
    "csv-citest": {"cli.main", "model.sample", "estimation.write_csv", "estimation.read_csv",
                   "estimation.empirical_counts", "estimation.learn_parameters", "structure.mi_matrix",
                   "structure.max_weight_spanning_tree", "info.mutual_information", "citest.calibrate",
                   "seeding.derive_seed", "model.sample_dense", "info.conditional_mi"},
}


def check_result_lines() -> None:
    end_to_end, per_layer = run.metric_names()
    for name in workloads.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False)
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert list(result["metrics"]) == names, f"{name} trace {trace}: {sorted(result['metrics'])}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
            if trace == 0:
                zero = [m for m, v in result["metrics"].items() if not v["value"] > 0]
                assert not zero, f"{name}: end-to-end metrics not above zero: {zero}"
            else:
                called = {m[: -len(".calls")] for m, v in result["metrics"].items()
                          if m.endswith(".calls") and v["value"] > 0}
                assert called == CALLED[name], f"{name}: called {sorted(called ^ CALLED[name])} unexpectedly"
            print(f"ok   {name} trace {trace}: {result['attempted']} commands")


def _corruptions(path):
    """(description, corrupting function, whether the gate must reject it)."""
    if path.name == "experiment.csv":
        def bump(column: str, delta: float):
            def corrupt(text: str) -> str:
                lines = text.splitlines()
                header = lines[0].split(",")
                cells = lines[1].split(",")
                index = header.index(column)
                cells[index] = repr(float(cells[index]) + delta)
                return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
            return corrupt
        return [
            ("success_rate changed", bump("success_rate", 0.5), True),
            ("mean_excess moved by 1e-9", bump("mean_excess", 1e-9), True),
            ("p95_excess moved by 1e-14", bump("p95_excess", 1e-14), False),
            ("row dropped", lambda text: "\n".join(text.splitlines()[:-1]) + "\n", True),
        ]
    return [
        ("last byte changed", lambda text: text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1], True),
        ("empty", lambda text: "", True),
    ]


def check_gate() -> None:
    pinned = workloads.load_pinned()
    env = run.child_env()
    work = run.WORK / "smoke-gate"
    for name in workloads.WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        w = workloads.prepare(name, SEED, "tiny", work / "in")
        outdir = work / "out"
        result = run.cli_pass(w, pinned, env, outdir, work)
        assert not result["failures"], (name, result["failures"])
        for command in w.commands:
            for output in command.outputs:
                path = outdir / output
                original = path.read_text()
                for description, corrupt, rejected in _corruptions(path):
                    path.write_text(corrupt(original))
                    problems = workloads.check_command(w, pinned, command, outdir)
                    assert bool(problems) == rejected, f"{name} {output} {description}: {problems}"
                    print(f"ok   {name} {output} {description}: "
                          f"{'rejected' if rejected else 'accepted'}")
                path.write_text(original)
    shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", workloads.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    check_result_lines()
    check_gate()
    check_bare_directory()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
