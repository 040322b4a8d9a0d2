"""Write pinned.json: the digests of every input variant and of the outputs the
program gives on it at the current commit.

    python3 perfbench/pin.py

Run from the root of a source checkout.  Re-pinning is only right when an
output change is intended; the benchmark otherwise treats any difference from
these references as a failed command.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    pinned = {}
    work = run.WORK / "pin"
    env = run.child_env()
    for scale in workloads.SCALES:
        for name in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                shutil.rmtree(work, ignore_errors=True)
                w = workloads.prepare(name, variant, scale, work / "in")
                result = run.cli_pass(w, None, env, work / "out", work)
                if result["failures"]:
                    print(f"{scale} {name} variant {variant}: {result['failures']}", file=sys.stderr)
                    return 1
                outputs = {out: workloads.describe_output(work / "out" / out)
                           for command in w.commands for out in command.outputs}
                pinned.setdefault(scale, {}).setdefault(name, {})[str(variant)] = {
                    "inputs": w.inputs, "outputs": outputs}
                print(f"{scale} {name} variant {variant}: {result['walls']}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    workloads.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
