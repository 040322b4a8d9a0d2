"""Command-line interface.

Subcommands: sample, learn, citest, experiment, verify-facts, calibrate.
`main` is the one entry: the parser is the one place that knows the flags
and their defaults, and each subcommand's handler reads the parsed arguments.
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
from .harness import ExperimentConfig, _csv_text, _max_samples, run_experiment, write_rows_csv
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

__all__ = ["main"]


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


def _sample(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    start = time.perf_counter()
    with open(args.model) as fh:
        m = tree_model_from_json(fh.read())
    most = _max_samples(m.n)
    if not 0 <= args.count <= most:
        raise ValueError(f"--count must be from 0 to {most} for a model of {m.n} variables, got {args.count}")
    s = sample(m, args.count, args.seed)
    if _is_binary(args.out):
        write_binary(s, args.out)
    else:
        write_csv(s, args.out)
    _log(f"sampled N={args.count} n={m.n} k={m.k} -> {args.out} ({time.perf_counter() - start:.3f}s)")
    return 0


def _learn(args: argparse.Namespace) -> int:
    if args.mode == "params" and args.tree is None:
        raise ValueError("--tree is required with --mode params")
    start = time.perf_counter()
    s = _read_samples(args.samples, args.k)
    _log(f"read N={s.n_samples} n={s.n_variables} k={s.alphabet.size} from {args.samples}")
    if args.mode == "structure":
        payload = undirected_tree_to_json(chow_liu_structure(s))
    elif args.mode == "params":
        with open(args.tree) as fh:
            skeleton = undirected_tree_from_json(fh.read())
        payload = tree_model_to_json(learn_parameters(s, root_at(skeleton, 0)))
    else:
        payload = tree_model_to_json(learn_tree_distribution(s))
    if args.out is None:
        print(payload)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload + "\n")
    _log(f"learn mode={args.mode} done ({time.perf_counter() - start:.3f}s)")
    return 0


def _citest(args: argparse.Namespace) -> int:
    s = _read_samples(args.samples, args.k)
    text = "{}"
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    c_sample, c_decision = _json_document(
        text, "tester config", {"c_sample": (_float, citest_mod.DEFAULT_C_SAMPLE), "c_decision": (_float, 0.5)}
    )
    cfg = citest_mod.TesterConfig(args.epsilon, args.delta, s.alphabet.size, c_sample, c_decision)
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


def _experiment(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    start = time.perf_counter()
    rows = run_experiment(cfg)
    for row in rows:
        _log(f"row n={row.n} k={row.k} epsilon={row.epsilon} N={row.n_samples} ({row.seconds:.3f}s)")
    _log(f"experiment kind={cfg.kind} cells={len(cfg.grid)} trials={cfg.trials} "
         f"seed={cfg.seed} ({time.perf_counter() - start:.3f}s)")
    if args.out is None:
        print(_csv_text(rows), end="")
    else:
        write_rows_csv(rows, args.out)
        _log(f"wrote {args.out}")
    return 0


def _verify(args: argparse.Namespace) -> int:
    verify = verify_realizable_facts if args.regime == "realizable" else verify_nonrealizable_facts
    doc = dataclasses.asdict(verify(args.epsilon))
    checks = [value for name, value in doc.items() if name.endswith("_ok")]
    doc["pass"] = all(checks)
    print(json.dumps(doc))
    if not doc["pass"]:
        failed = [name for name, value in doc.items() if name.endswith("_ok") and not value]
        _log(f"verify-facts failed: {', '.join(failed)}")
        return 1
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    _check_k(args.k)
    _check_grid(args.grid)
    base = citest_mod.TesterConfig(epsilon=args.epsilon, delta=args.delta, k=args.k)
    try:
        tuned = citest_mod.calibrate(base, trials=args.trials, seed=args.seed, grid=args.grid)
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
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each flag's help is its Meaning cell in the README's flag tables."""
    parser = argparse.ArgumentParser(prog="chowliu", description="Tree-structured distribution learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw samples from a tree model JSON file")
    p.set_defaults(run=_sample)
    p.add_argument("--model", required=True, help="tree model JSON file to draw from")
    p.add_argument("--count", type=int, required=True, help="number of samples N")
    p.add_argument("--seed", type=int, required=True, help="seed, a non-negative integer")
    p.add_argument("--out", required=True, help="sample file to write")

    p = sub.add_parser("learn", help="learn structure and/or parameters from samples")
    p.set_defaults(run=_learn)
    p.add_argument("--samples", required=True, help="sample file to learn from")
    p.add_argument("--mode", choices=("structure", "params", "full"), required=True,
                   help="structure, params or full")
    p.add_argument("--tree", default=None, help="skeleton JSON file; required with --mode params")
    p.add_argument("--out", default=None, help="JSON file to write; without it, stdout")
    p.add_argument("--k", type=int, default=None,
                   help="alphabet size from 2 to 256; without it, inferred from the file")

    p = sub.add_parser("citest", help="(conditional) independence test on a 2- or 3-column sample set")
    p.set_defaults(run=_citest)
    p.add_argument("--samples", required=True, help="sample file of 2 or 3 columns")
    p.add_argument("--epsilon", type=float, required=True, help="distance parameter, positive and finite")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--k", type=int, default=None,
                   help="alphabet size from 2 to 256; without it, inferred from the file")
    p.add_argument("--config", default=None,
                   help="tester-config JSON with c_sample (default 0.1875) and c_decision (default 0.5)")

    p = sub.add_parser("experiment", help="run an experiment grid from a JSON config")
    p.set_defaults(run=_experiment)
    p.add_argument("--config", required=True, help="experiment config JSON (see File formats in the README)")
    p.add_argument("--out", default=None, help="CSV file to write; without it, stdout")

    p = sub.add_parser("verify-facts", help="exact hard-instance fact checks")
    p.set_defaults(run=_verify)
    p.add_argument("--regime", choices=("realizable", "nonrealizable"), required=True,
                   help="realizable or nonrealizable")
    p.add_argument("--epsilon", type=float, required=True,
                   help="the family's epsilon: at least 1e-13 and below 1 for realizable, "
                        "at least 1e-6 and below 0.25 for nonrealizable")

    p = sub.add_parser("calibrate", help="calibrate the tester's sample-size constant")
    p.set_defaults(run=_calibrate)
    p.add_argument("--epsilon", type=float, required=True, help="distance parameter, positive and finite")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--k", type=int, required=True, help="alphabet size from 2 to 256")
    p.add_argument("--trials", type=int, default=200, help="trials per candidate and family member, at least 100")
    p.add_argument("--seed", type=int, default=20260814, help="master seed of the trials")
    p.add_argument("--out", default=None, help="JSON file to write as well as stdout")
    p.add_argument("--grid", type=float, nargs="*", default=None,
                   help="c_sample candidates, tried in the order given; without it, the ascending default grid "
                        "(see Calibrated constants in the README)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SampleFormatError as err:
        _log(f"error: {err}")
        return 2
    except (OSError, ValueError) as err:
        _log(f"error: {err}")
        return 1
    except MemoryError as err:  # numpy names the allocation it could not make
        _log(f"error: out of memory: {err}" if str(err) else "error: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
