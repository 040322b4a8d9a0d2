"""One in-process pass of CLI commands, started by run.py as its own process.

    python3 perfbench/tracer.py SPEC.json

SPEC names the source directory, the commands (argv lists with an `{out}`
placeholder), the output directory, whether to trace, and where to write the
result and the spans.  The commands run one after another through
`chowliu.cli.main(argv)`.  A traced pass wraps every function in TRACED.  The
wrapper is rebound under the same name in every `chowliu.*` namespace that
holds the function: several modules import functions by name, and rebinding
only the defining module would miss their calls.  Spans are kept in memory
and written at the end, one JSON object per line.  Each pass runs in a fresh
process, so untraced and traced passes start from the same heap state that a
CLI user has.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

# The layers' public functions, as "<module>.<function>" under chowliu.
TRACED = (
    "cli.main",
    "estimation.read_csv",
    "estimation.write_csv",
    "estimation.read_binary",
    "estimation.empirical_counts",
    "estimation.learn_parameters",
    "structure.mi_matrix",
    "structure.max_weight_spanning_tree",
    "info.mutual_information",
    "info.conditional_mi",
    "model.sample",
    "model.sample_dense",
    "model.exact_mi_matrix",
    "model.pair_marginal",
    "model.node_marginals",
    "citest.calibrate",
    "harness.run_experiment",
    "seeding.derive_seed",
)

ROOT_SPAN = "cli.main"


# Work counts computed from a call's arguments after the call returns, outside
# its span: bytes from file sizes, pairs from the number of variables.
COMPUTED = {
    "estimation.read_csv": ("bytes", lambda args, kwargs: os.path.getsize(args[0])),
    "estimation.write_csv": ("bytes", lambda args, kwargs: os.path.getsize(args[1])),
    "estimation.read_binary": ("bytes", lambda args, kwargs: os.path.getsize(args[0])),
    "structure.mi_matrix": ("pairs", lambda args, kwargs: args[0].n_variables * (args[0].n_variables - 1) // 2),
}


class Recorder:
    """Spans of one traced pass: (name, start, end, parent index) tuples and
    the computed work counts per function."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.computed = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if computed is not None:
                key = f"{name}.{computed[0]}"
                self.computed[key] = self.computed.get(key, 0) + computed[1](args, kwargs)
            return result

        return traced


def _install(recorder: Recorder) -> list:
    """Rebind every traced function in every chowliu namespace; return the
    (module, attribute, original) triples that undo it."""
    wrappers = {}
    for dotted in TRACED:
        module, attr = dotted.rsplit(".", 1)
        original = getattr(importlib.import_module(f"chowliu.{module}"), attr)
        wrappers[id(original)] = (original, recorder.wrap(dotted, original))
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "chowliu" or name.startswith("chowliu.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def _uninstall(undo: list) -> None:
    for module, attr, original in undo:
        setattr(module, attr, original)


def _run_command(main, argv: list, stdout_path: Path) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program under test is a failed command
            traceback.print_exc()
            code = 1
    stdout_path.write_text(out.getvalue())
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code


def _run_pass(cli, commands: list, outdir: Path, recorder: Recorder | None) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.iterdir():
        stale.unlink()
    undo = _install(recorder) if recorder is not None else []
    walls, codes = [], []
    try:
        for label, argv in commands:
            argv = [a.format(out=outdir) for a in argv]
            start = time.perf_counter()
            codes.append(_run_command(cli.main, argv, outdir / f"{label}.stdout"))
            walls.append(time.perf_counter() - start)
    finally:
        _uninstall(undo)
    return {"walls": walls, "codes": codes}


def summarize(spans: list) -> tuple:
    """Per-function calls, self time and total time; per root span the share
    of its duration that its child spans cover; and per root span the total
    time of each function under it.

    Self time is a span's duration minus the part of it that its child spans
    cover.  Total time counts only the outermost span of a name, so nested
    calls of one function are not counted twice."""
    children = [[] for _ in spans]
    roots = []  # a parent's span precedes its children's
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
        roots.append(roots[parent] if parent >= 0 else index)
    stats, coverage, by_root = {}, [], {}
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for child in children[index]:  # children start in increasing order
            c_start, c_end = max(spans[child][1], reach), min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
            totals = by_root.setdefault(roots[index], {})
            totals[name] = totals.get(name, 0.0) + (end - start)
        if name == ROOT_SPAN and parent < 0:
            coverage.append((end - start, covered))
    return stats, coverage, [by_root[index] for index in sorted(by_root) if spans[index][0] == ROOT_SPAN]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("chowliu.cli")
    commands = spec["commands"]
    recorder = Recorder() if spec["trace"] else None
    result = _run_pass(cli, commands, Path(spec["out"]), recorder)
    if recorder is not None:
        result["stats"], result["coverage"], result["totals_by_command"] = summarize(recorder.spans)
        result["computed"] = recorder.computed
        with open(spec["spans_out"], "w") as fh:
            command, roots = None, 0
            for index, (name, start, end, parent) in enumerate(recorder.spans):
                if parent < 0:  # each root span starts the next command
                    command, roots = f"{spec['run_id']}/{roots}-{commands[roots][0]}", roots + 1
                fh.write(json.dumps({"command": command, "index": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
    Path(spec["result_out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
