"""Command-line front end.

Subcommands: gen-synth, train, eval, transform-matrix, grad-check,
ablation.  Every command is deterministic given its full flag set, numpy,
BLAS library and BLAS thread count; report files contain no timing or other
volatile content, so reruns under the same four are byte-identical (elapsed
time goes to stdout).  The thread count alone can move a report's last digit
(201-node gen-synth graph, seed 42, T=16, density 0.05, 100 dct epochs:
test_mae ...4221 under OPENBLAS_NUM_THREADS=1, ...422 under 2).

Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from typing import get_type_hints

import numpy as np

from .data import PATTERNS, SynthSpec, generate_synthetic, parse_dataset, serialize_dataset
from .training import (
    FIELD_CHOICES,
    TRANSFORM_CHOICES,
    TrainConfig,
    evaluate,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .transforms import TRANSFORM_KINDS, build_transform


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_report(path, pairs, tables=()):
    """Key/value lines plus optional CSV tables, all deterministic."""
    lines = [f"{key} = {_fmt(value)}" for key, value in pairs]
    for title, header, rows in tables:
        lines += ["", f"# {title}", ",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Record fields whose flag is not --<field-name>, and the choices of the fields that have a fixed set.
_FLAG_NAMES = {"learning_rate": "--lr", "adjacency_mode": "--adjacency", "n_layers": "--layers",
               "n": "--nodes", "t": "--slots"}
_CHOICES = {**FIELD_CHOICES, "pattern": PATTERNS}


def _add_config_flags(p, record, names=None):
    """A flag for each field of ``record`` (``TrainConfig`` or ``SynthSpec``)
    in ``names`` (every field if None), taking the field's type, default and
    choices; a field without a default is a required flag."""
    hints = get_type_hints(record)
    for f in fields(record):
        if names is None or f.name in names:
            flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            required = f.default is MISSING
            p.add_argument(flag, dest=f.name, type=hints[f.name], required=required,
                           default=None if required else f.default, choices=_CHOICES.get(f.name))


def _config_from_args(args, record):
    """The ``record`` of the fields ``args`` holds, its defaults for the rest."""
    names = {f.name for f in fields(record)}
    return record(**{k: v for k, v in vars(args).items() if k in names})


def cmd_gen_synth(args) -> int:
    ds = generate_synthetic(_config_from_args(args, SynthSpec))
    serialize_dataset(ds, args.out)
    print(f"wrote {len(ds.t)} observations to {args.out}")
    return 0


def _require_file_path(path) -> None:
    """Raise the OSError that writing a file at ``path`` would raise, when
    ``path`` is a directory, its parent directory is missing, or ``os.access``
    finds that parent or an existing file there not writable; creates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    if not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _require_distinct(args, pairs) -> None:
    """Raise ValueError when the flags of an (output, other) pair like ``("report", "data")`` name one file."""
    for out, other in pairs:
        if os.path.realpath(getattr(args, out)) == os.path.realpath(getattr(args, other)):
            raise ValueError(f"--{out} and --{other} name the same file ({getattr(args, out)})")


def cmd_train(args) -> int:
    _require_distinct(args, (("report", "data"), ("checkpoint", "data"), ("checkpoint", "report")))
    config = _config_from_args(args, TrainConfig)
    ds = parse_dataset(args.data)
    # Fail on an unwritable checkpoint or report path before the first epoch;
    # neither is written until training has succeeded.
    for path in (args.checkpoint, args.report):
        _require_file_path(path)
    started = time.perf_counter()
    try:
        model, history, metrics = train(ds, config)
    except ValueError as exc:  # the split of too few observations
        raise ValueError(f"{args.data}: {exc}") from exc
    train_s = time.perf_counter() - started
    save_checkpoint(args.checkpoint, model)
    pairs = [("command", "train"), ("data", args.data)]
    pairs += sorted(asdict(config).items())
    pairs += [("epochs_run", len(history))]
    pairs += sorted(metrics.items())
    _write_report(args.report, pairs, tables=[("history", tuple(history[0]), [tuple(h.values()) for h in history])])
    ms_per_epoch = 1000.0 * train_s / len(history)
    print(
        f"trained {len(history)} epochs in {train_s:.2f}s ({ms_per_epoch:.1f} ms/epoch); "
        f"test MAE {metrics['test_mae']:.5f}"
    )
    return 0


def cmd_eval(args) -> int:
    _require_distinct(args, (("report", "data"), ("report", "checkpoint")))
    model = load_checkpoint(args.checkpoint)
    ds = parse_dataset(args.data)
    try:
        metrics = evaluate(model, ds)
    except ValueError as exc:
        raise ValueError(f"checkpoint {args.checkpoint}, data {args.data}: {exc}") from exc
    pairs = [("command", "eval"), ("data", args.data)]
    pairs += sorted(asdict(model.config).items())
    pairs += sorted(metrics.items())
    _write_report(args.report, pairs)
    print(f"test MAE {metrics['test_mae']:.5f} RMSE {metrics['test_rmse']:.5f}")
    return 0


def cmd_transform_matrix(args) -> int:
    tm = build_transform(args.kind, args.size)
    parts = {"_real": tm.m.real, "_imag": tm.m.imag} if tm.is_complex else {"": tm.m}
    paths = {f"{args.out}{suffix}.csv": m for suffix, m in parts.items()}
    for path, m in paths.items():
        np.savetxt(path, m, delimiter=",")
    print("wrote " + " and ".join(paths))
    return 0


def cmd_grad_check(args) -> int:
    if args.embedding_dim < 1:
        raise ValueError(f"--features must be >= 1, got {args.embedding_dim}")
    config = _config_from_args(args, TrainConfig)
    # What fails after the config is about the synthetic graph that --nodes and --slots size.
    try:
        spec = SynthSpec(n=args.nodes, t=args.slots, density=0.9, noise=0.05, seed=config.seed)
        report = grad_check(generate_synthetic(spec), replace(config, split_seed=config.seed))
    except ValueError as exc:
        raise ValueError(f"--nodes {args.nodes} --slots {args.slots}: {exc}") from exc
    for key in sorted(report["per_group"]):
        print(f"{key}: max relative error {report['per_group'][key]:.3e}")
    print(f"max relative error: {report['max_relative_error']:.3e}")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def cmd_ablation(args) -> int:
    _require_distinct(args, (("out", "data"),))
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    base = _config_from_args(args, TrainConfig)
    ds = parse_dataset(args.data)
    _require_file_path(args.out)  # before the first training; written once all have succeeded
    rows = []
    for scheme in TRANSFORM_CHOICES:
        try:
            metrics = [train(ds, replace(base, transform=scheme, seed=s, split_seed=s))[2] for s in range(args.seeds)]
        except ValueError as exc:  # the split of too few observations
            raise ValueError(f"{args.data}: {exc}") from exc
        maes, rmses = [m["test_mae"] for m in metrics], [m["test_rmse"] for m in metrics]
        rows.append([scheme, float(np.mean(maes)), float(np.std(maes)), float(np.mean(rmses)), float(np.std(rmses))])
    identity = rows[TRANSFORM_CHOICES.index("identity")][1]
    for row in rows:
        row.append(float((identity - row[1]) / identity))
    pairs = [("command", "ablation"), ("data", args.data), ("seeds", args.seeds)]
    _write_report(
        args.out,
        pairs,
        tables=[
            (
                "ablation",
                ("scheme", "mae_mean", "mae_std", "rmse_mean", "rmse_std", "improvement_vs_identity"),
                rows,
            )
        ],
    )
    for row in rows:
        print(f"{row[0]:>9}: MAE {row[1]:.5f} +/- {row[2]:.5f}  RMSE {row[3]:.5f} +/- {row[4]:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubalgcn",
        description="Dynamic-graph convolution via the tensor M-product: "
        "synthetic data, training, evaluation, and transform ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dynamic-graph dataset")
    _add_config_flags(p, SynthSpec)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + report")
    p.add_argument("--data", required=True)
    _add_config_flags(p, TrainConfig)
    p.add_argument("--checkpoint", default="model.npz")
    p.add_argument("--report", default="report.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default="eval_report.txt")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform-matrix", help="dump a transform matrix as CSV")
    p.add_argument("--kind", choices=TRANSFORM_KINDS, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default="transform")
    p.set_defaults(func=cmd_transform_matrix)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--transform", choices=TRANSFORM_CHOICES, default="dft")
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--features", dest="embedding_dim", metavar="FEATURES", type=int, default=3)
    p.add_argument("--slots", type=int, default=4)
    _add_config_flags(p, TrainConfig, ("seed", "n_layers", "activation", "adjacency_mode"))
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("ablation", help="train all schemes across seeds, emit a table")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=5)
    _add_config_flags(p, TrainConfig, ("embedding_dim", "learning_rate", "kappa", "max_epochs", "patience"))
    p.add_argument("--out", default="ablation.txt")
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, IndexError, MemoryError) as exc:  # OSError names its path
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
