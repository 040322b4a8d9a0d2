"""Command-line interface.

Subcommands: sample, learn, citest, experiment, verify-facts, calibrate.
Results go to stdout or to --out files; progress and timing go to stderr so
that outputs stay byte-identical for identical inputs and seeds.  The seed of
`experiment` comes from its config file, and that of `calibrate` from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import citest as citest_mod
from .estimation import (
    SampleFormatError,
    learn_parameters,
    read_binary,
    read_csv,
    write_binary,
    write_csv,
)
from .harness import ExperimentConfig, _csv_text, run_experiment, write_rows_csv
from .hardinstances import verify_nonrealizable_facts, verify_realizable_facts
from .model import (
    _float,
    _json_document,
    root_at,
    sample,
    tree_model_from_json,
    tree_model_to_json,
    undirected_tree_from_json,
    undirected_tree_to_json,
)
from .structure import chow_liu_structure, learn_tree_distribution

__all__ = ["main", "cmd_sample", "cmd_learn", "cmd_citest", "cmd_experiment", "cmd_verify", "cmd_calibrate"]


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _is_binary(path) -> bool:
    return str(path).endswith(".bin")


def _check_k(k: int | None) -> None:
    if k is not None and not 2 <= k <= 256:
        raise ValueError(f"--k must be an alphabet size from 2 to 256, got {k}")


def _check_grid(grid) -> None:
    for value in grid or ():
        if not 0 < value < math.inf:  # nan fails both
            raise ValueError(f"--grid values must be positive and finite, got {value}")


def _read_samples(path: str, k: int | None):
    _check_k(k)
    return read_binary(path, k) if _is_binary(path) else read_csv(path, k)


def cmd_sample(model_path: str, count: int, seed: int, out_path: str) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    start = time.perf_counter()
    with open(model_path) as fh:
        m = tree_model_from_json(fh.read())
    s = sample(m, count, seed)
    if _is_binary(out_path):
        write_binary(s, out_path)
    else:
        write_csv(s, out_path)
    _log(f"sampled N={count} n={m.n} k={m.k} -> {out_path} ({time.perf_counter() - start:.3f}s)")
    return 0


def cmd_learn(samples_path: str, mode: str, tree_path: str | None = None,
              out_path: str | None = None, k: int | None = None) -> int:
    if mode == "params" and tree_path is None:
        raise ValueError("--tree is required with --mode params")
    start = time.perf_counter()
    s = _read_samples(samples_path, k)
    _log(f"read N={s.n_samples} n={s.n_variables} k={s.alphabet.size} from {samples_path}")
    if mode == "structure":
        payload = undirected_tree_to_json(chow_liu_structure(s))
    elif mode == "params":
        with open(tree_path) as fh:
            skeleton = undirected_tree_from_json(fh.read())
        payload = tree_model_to_json(learn_parameters(s, root_at(skeleton, 0)))
    elif mode == "full":
        payload = tree_model_to_json(learn_tree_distribution(s))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if out_path is None:
        print(payload)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(payload + "\n")
    _log(f"learn mode={mode} done ({time.perf_counter() - start:.3f}s)")
    return 0


def cmd_citest(samples_path: str, epsilon: float, delta: float, k: int | None = None,
               config_path: str | None = None) -> int:
    s = _read_samples(samples_path, k)
    text = "{}"
    if config_path is not None:
        with open(config_path) as fh:
            text = fh.read()
    c_sample, c_decision = _json_document(
        text, "tester config", {"c_sample": (_float, citest_mod.DEFAULT_C_SAMPLE), "c_decision": (_float, 0.5)}
    )
    cfg = citest_mod.TesterConfig(epsilon, delta, s.alphabet.size, c_sample, c_decision)
    if s.n_variables == 3:
        verdict = citest_mod.test_conditional_independence(s, cfg)
        kind = "conditional"
        recommended = citest_mod.required_samples_cmi(cfg)
    elif s.n_variables == 2:
        verdict = citest_mod.test_independence(s, cfg)
        kind = "unconditional"
        recommended = citest_mod.required_samples_mi(cfg)
    else:
        raise ValueError(f"citest expects 2 or 3 columns, got {s.n_variables}")
    print(json.dumps({"kind": kind, **dataclasses.asdict(verdict), "recommended_samples": recommended,
                      **dataclasses.asdict(cfg)}))
    if verdict.n_samples < recommended:
        _log(f"warning: N={verdict.n_samples} is below the recommended {recommended} for these parameters")
    return 0


def cmd_experiment(config_path: str, out_path: str | None = None) -> int:
    with open(config_path) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    start = time.perf_counter()
    rows = run_experiment(cfg)
    for row in rows:
        _log(f"row n={row.n} k={row.k} epsilon={row.epsilon} N={row.n_samples} ({row.seconds:.3f}s)")
    _log(f"experiment kind={cfg.kind} cells={len(cfg.grid)} trials={cfg.trials} "
         f"seed={cfg.seed} ({time.perf_counter() - start:.3f}s)")
    if out_path is None:
        print(_csv_text(rows), end="")
    else:
        write_rows_csv(rows, out_path)
        _log(f"wrote {out_path}")
    return 0


def cmd_verify(regime: str, epsilon: float) -> int:
    if regime == "nonrealizable":
        facts = verify_nonrealizable_facts(epsilon)
    elif regime == "realizable":
        facts = verify_realizable_facts(epsilon)
    else:
        raise SystemExit(f"unknown regime {regime!r}")
    doc = dataclasses.asdict(facts)
    checks = [value for name, value in doc.items() if name.endswith("_ok")]
    doc["pass"] = all(checks)
    print(json.dumps(doc))
    if not doc["pass"]:
        failed = [name for name, value in doc.items() if name.endswith("_ok") and not value]
        _log(f"verify-facts failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_calibrate(epsilon: float, delta: float, k: int, trials: int, seed: int,
                  out_path: str | None = None, grid=None) -> int:
    _check_k(k)
    _check_grid(grid)
    base = citest_mod.TesterConfig(epsilon=epsilon, delta=delta, k=k)
    try:
        tuned = citest_mod.calibrate(base, trials=trials, seed=seed, grid=grid)
    except citest_mod.CalibrationError as err:
        _log(f"calibration failed: {err}")
        for candidate, rates in err.diagnostics.items():
            _log(f"  c_sample={candidate}: " + ", ".join(f"{n}={r:.3f}" for n, r in rates.items()))
        return 1
    payload = json.dumps({
        **dataclasses.asdict(tuned),
        "required_samples_cmi": citest_mod.required_samples_cmi(tuned),
        "required_samples_mi": citest_mod.required_samples_mi(tuned),
    })
    print(payload)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(payload + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chowliu", description="Tree-structured distribution learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw samples from a tree model JSON file")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn", help="learn structure and/or parameters from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--mode", choices=("structure", "params", "full"), required=True)
    p.add_argument("--tree", default=None, help="skeleton JSON (required for --mode params)")
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=None, help="alphabet size (default: inferred)")

    p = sub.add_parser("citest", help="(conditional) independence test on a 2- or 3-column sample set")
    p.add_argument("--samples", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON with c_sample / c_decision overrides")

    p = sub.add_parser("experiment", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p = sub.add_parser("verify-facts", help="exact hard-instance fact checks")
    p.add_argument("--regime", choices=("realizable", "nonrealizable"), required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("calibrate", help="calibrate the tester's sample-size constant")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--out", default=None)
    p.add_argument("--grid", type=float, nargs="*", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            return cmd_sample(args.model, args.count, args.seed, args.out)
        if args.command == "learn":
            return cmd_learn(args.samples, args.mode, args.tree, args.out, args.k)
        if args.command == "citest":
            return cmd_citest(args.samples, args.epsilon, args.delta, args.k, args.config)
        if args.command == "experiment":
            return cmd_experiment(args.config, args.out)
        if args.command == "verify-facts":
            return cmd_verify(args.regime, args.epsilon)
        if args.command == "calibrate":
            return cmd_calibrate(args.epsilon, args.delta, args.k, args.trials, args.seed,
                                 args.out, args.grid)
    except SampleFormatError as err:
        _log(f"error: {err}")
        return 2
    except (OSError, ValueError) as err:
        _log(f"error: {err}")
        return 1
    except MemoryError as err:  # numpy names the allocation it could not make
        _log(f"error: out of memory: {err}" if str(err) else "error: out of memory")
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
