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
from dataclasses import asdict, fields, replace

import numpy as np

from .data import PATTERNS, SynthSpec, generate_synthetic, parse_dataset, serialize_dataset, split_dataset
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
    lines = []
    for key, value in pairs:
        lines.append(f"{key} = {_fmt(value)}")
    for title, header, rows in tables:
        lines.append("")
        lines.append(f"# {title}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Config flags named otherwise than their TrainConfig field; the rest are --<field-name>.
_FLAG_NAMES = {"learning_rate": "--lr", "adjacency_mode": "--adjacency", "n_layers": "--layers"}


def _add_config_flags(p, names=None):
    """A flag for each TrainConfig field in ``names`` (every field if None),
    taking the field's default, its default's type and its choices."""
    for f in fields(TrainConfig):
        if names is None or f.name in names:
            flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default, choices=FIELD_CHOICES.get(f.name))


def _config_from_args(args) -> TrainConfig:
    """The TrainConfig of the config fields ``args`` holds, defaults for the rest."""
    names = {f.name for f in fields(TrainConfig)}
    return TrainConfig(**{k: v for k, v in vars(args).items() if k in names})


def cmd_gen_synth(args) -> int:
    for flag, value, least in (("--nodes", args.nodes, 2), ("--slots", args.slots, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    spec = SynthSpec(
        n=args.nodes,
        t=args.slots,
        density=args.density,
        pattern=args.pattern,
        noise=args.noise,
        seed=args.seed,
    )
    ds = generate_synthetic(spec)
    serialize_dataset(ds, args.out)
    print(f"wrote {len(ds.t)} observations to {args.out}")
    return 0


def _require_file_path(path) -> None:
    """Raise the OSError that writing a file at ``path`` would raise, when
    ``path`` is a directory or its parent directory is missing; creates nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def _require_distinct(args, pairs) -> None:
    """Raise ValueError when the flags of an (output, other) pair like ``("report", "data")`` name one file."""
    for out, other in pairs:
        if os.path.realpath(getattr(args, out)) == os.path.realpath(getattr(args, other)):
            raise ValueError(f"--{out} and --{other} name the same file ({getattr(args, out)})")


def _split(ds, seed: int, path):
    """``split_dataset`` of the dataset read from ``path``, naming that file when it fails."""
    try:
        return split_dataset(ds, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_train(args) -> int:
    _require_distinct(args, (("report", "data"), ("checkpoint", "data"), ("checkpoint", "report")))
    config = _config_from_args(args)
    ds = _split(parse_dataset(args.data), config.split_seed, args.data)
    # Fail on an unwritable checkpoint or report path before the first epoch.
    # The checkpoint is only checked: an earlier file there stays until the
    # new one replaces it.
    _require_file_path(args.checkpoint)
    open(args.report, "w", encoding="utf-8").close()
    started = time.perf_counter()
    params, history, metrics = train(ds, config)
    train_s = time.perf_counter() - started
    save_checkpoint(args.checkpoint, params, config, extra={"data": str(args.data), "data_sha256": ds.digest()})
    pairs = [("command", "train"), ("data", args.data)]
    pairs += sorted(asdict(config).items())
    pairs += [("epochs_run", len(history))]
    pairs += sorted(metrics.items())
    history_rows = [
        (h["epoch"], h["train_loss"], h["train_mae"], h["val_mae"]) for h in history
    ]
    _write_report(
        args.report,
        pairs,
        tables=[("history", ("epoch", "train_loss", "train_mae", "val_mae"), history_rows)],
    )
    ms_per_epoch = 1000.0 * train_s / len(history)
    print(
        f"trained {len(history)} epochs in {train_s:.2f}s ({ms_per_epoch:.1f} ms/epoch); "
        f"test MAE {metrics['test_mae']:.5f}"
    )
    return 0


def cmd_eval(args) -> int:
    _require_distinct(args, (("report", "data"), ("report", "checkpoint")))
    params, config, extra = load_checkpoint(args.checkpoint)
    ds = parse_dataset(args.data)
    sizes = (("nodes", params["e"].shape[0], ds.n_nodes), ("time slots", params["u"].shape[0], ds.n_slots))
    for what, trained, have in sizes:
        if trained != have:
            raise ValueError(
                f"checkpoint {args.checkpoint} was trained on {trained} {what}, dataset has {have} ({args.data})"
            )
    # Re-splitting other rows with the checkpoint's split seed would score
    # training rows as test rows.  Checkpoints without a digest predate it.
    digest = extra.get("data_sha256")
    if digest is not None and digest != ds.digest():
        raise ValueError(
            f"checkpoint {args.checkpoint} was not trained on the rows of {args.data} "
            "in their file order (dataset SHA-256 differs)"
        )
    metrics = evaluate(params, _split(ds, config.split_seed, args.data), config)
    pairs = [("command", "eval"), ("data", args.data)]
    pairs += sorted(asdict(config).items())
    pairs += sorted(metrics.items())
    _write_report(args.report, pairs)
    print(f"test MAE {metrics['test_mae']:.5f} RMSE {metrics['test_rmse']:.5f}")
    return 0


def cmd_transform_matrix(args) -> int:
    tm = build_transform(args.kind, args.size)
    if tm.is_complex:
        real_path = f"{args.out}_real.csv"
        imag_path = f"{args.out}_imag.csv"
        np.savetxt(real_path, tm.m.real, delimiter=",")
        np.savetxt(imag_path, tm.m.imag, delimiter=",")
        print(f"wrote {real_path} and {imag_path}")
    else:
        path = f"{args.out}.csv"
        np.savetxt(path, tm.m, delimiter=",")
        print(f"wrote {path}")
    return 0


def cmd_grad_check(args) -> int:
    if args.embedding_dim < 1:
        raise ValueError(f"--features must be >= 1, got {args.embedding_dim}")
    config = _config_from_args(args)
    # What fails after the config is about the synthetic graph that --nodes and --slots size.
    try:
        spec = SynthSpec(n=args.nodes, t=args.slots, density=0.9, noise=0.05, seed=config.seed)
        report = grad_check(split_dataset(generate_synthetic(spec), seed=config.seed), config)
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
    base = _config_from_args(args)
    configs = {
        scheme: [replace(base, transform=scheme, seed=seed, split_seed=seed) for seed in range(args.seeds)]
        for scheme in TRANSFORM_CHOICES
    }
    ds_base = parse_dataset(args.data)
    splits = [_split(ds_base, seed, args.data) for seed in range(args.seeds)]
    # Fail on an unwritable report path before the first training.
    open(args.out, "w", encoding="utf-8").close()
    rows = []
    means = {}
    for scheme, runs in configs.items():
        metrics = [train(splits[config.split_seed], config)[2] for config in runs]
        maes = [m["test_mae"] for m in metrics]
        rmses = [m["test_rmse"] for m in metrics]
        means[scheme] = float(np.mean(maes))
        rows.append(
            [
                scheme,
                float(np.mean(maes)),
                float(np.std(maes)),
                float(np.mean(rmses)),
                float(np.std(rmses)),
            ]
        )
    for row in rows:
        improvement = (means["identity"] - row[1]) / means["identity"]
        row.append(float(improvement))
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
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--pattern", choices=PATTERNS, default="mixed")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + report")
    p.add_argument("--data", required=True)
    _add_config_flags(p)
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
    _add_config_flags(p, ("seed", "n_layers", "activation", "adjacency_mode"))
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("ablation", help="train all schemes across seeds, emit a table")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=5)
    _add_config_flags(p, ("embedding_dim", "learning_rate", "kappa", "max_epochs", "patience"))
    p.add_argument("--out", default="ablation.txt")
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, IndexError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
