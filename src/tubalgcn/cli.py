"""Command-line front end.

Subcommands: gen-synth, train, eval, transform-matrix, grad-check,
ablation.  Every command is deterministic given its full flag set; report
files contain no timing or other volatile content, so reruns are
byte-identical (elapsed time goes to stdout).

Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

import numpy as np

from .data import SynthSpec, generate_synthetic, parse_dataset, serialize_dataset, split_dataset
from .training import (
    TrainConfig,
    build_aux,
    evaluate,
    grad_check,
    load_checkpoint,
    model_from_named,
    save_checkpoint,
    train,
)
from .transforms import build_transform

SCHEMES = ("identity", "dft", "dct", "haar", "ensemble")


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


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        embedding_dim=args.embedding_dim,
        learning_rate=args.lr,
        kappa=args.kappa,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        activation=args.activation,
        adjacency_mode=args.adjacency,
        transform=args.transform,
        n_layers=args.layers,
        split_seed=args.split_seed,
    )


def _add_train_flags(p):
    p.add_argument("--transform", choices=SCHEMES, default="ensemble")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--embedding-dim", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--activation", choices=("sigmoid", "relu", "identity"), default="sigmoid")
    p.add_argument("--adjacency", choices=("sym_normalized", "raw_self_loops"), default="sym_normalized")
    p.add_argument("--layers", type=int, default=1)


def cmd_gen_synth(args) -> int:
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


def _train_once(ds, config):
    ds = split_dataset(ds, seed=config.split_seed)
    aux = build_aux(ds, config)
    model, history = train(aux, ds, config)
    metrics = evaluate(model, aux, ds, config)
    return ds, model, history, metrics


def cmd_train(args) -> int:
    config = _config_from_args(args)
    ds = parse_dataset(args.data)
    started = time.perf_counter()
    ds, model, history, metrics = _train_once(ds, config)
    elapsed = time.perf_counter() - started
    save_checkpoint(args.checkpoint, model, config, extra={"data": str(args.data)})
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
    print(f"trained {len(history)} epochs in {elapsed:.2f}s; test MAE {metrics['test_mae']:.5f}")
    return 0


def cmd_eval(args) -> int:
    named, config, _ = load_checkpoint(args.checkpoint)
    ds = parse_dataset(args.data)
    model = model_from_named(named, config)
    if model.e.shape[0] != ds.n_nodes:
        print(
            f"error: checkpoint was trained on {model.e.shape[0]} nodes, "
            f"dataset has {ds.n_nodes}",
            file=sys.stderr,
        )
        return 1
    ds = split_dataset(ds, seed=config.split_seed)
    aux = build_aux(ds, config)
    metrics = evaluate(model, aux, ds, config)
    pairs = [("command", "eval"), ("data", args.data)]
    pairs += sorted(asdict(config).items())
    pairs += sorted(metrics.items())
    _write_report(args.report, pairs)
    print(f"test MAE {metrics['test_mae']:.5f} RMSE {metrics['test_rmse']:.5f}")
    return 0


def cmd_transform_matrix(args) -> int:
    try:
        tm = build_transform(args.kind, args.size)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if tm.is_complex:
        real_path = f"{args.out}_real.csv"
        imag_path = f"{args.out}_imag.csv"
        np.savetxt(real_path, tm.m.real, delimiter=",")
        np.savetxt(imag_path, tm.m.imag, delimiter=",")
        print(f"wrote {real_path} and {imag_path}")
    else:
        path = f"{args.out}.csv"
        np.savetxt(path, tm.m.real if np.iscomplexobj(tm.m) else tm.m, delimiter=",")
        print(f"wrote {path}")
    return 0


def cmd_grad_check(args) -> int:
    report = grad_check(
        seed=args.seed,
        n=args.nodes,
        f=args.features,
        t=args.slots,
        transform=args.transform,
    )
    for key in sorted(report["per_group"]):
        print(f"{key}: max relative error {report['per_group'][key]:.3e}")
    print(f"max relative error: {report['max_relative_error']:.3e}")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def cmd_ablation(args) -> int:
    ds_base = parse_dataset(args.data)
    seeds = list(range(args.seeds))
    rows = []
    means = {}
    for scheme in SCHEMES:
        maes, rmses = [], []
        for seed in seeds:
            config = TrainConfig(
                embedding_dim=args.embedding_dim,
                learning_rate=args.lr,
                kappa=args.kappa,
                max_epochs=args.max_epochs,
                patience=args.patience,
                seed=seed,
                transform=scheme,
                split_seed=seed,
            )
            _, _, _, metrics = _train_once(ds_base, config)
            maes.append(metrics["test_mae"])
            rmses.append(metrics["test_rmse"])
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
    p.add_argument("--pattern", choices=("periodic", "trend", "mixed"), default="mixed")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + report")
    p.add_argument("--data", required=True)
    _add_train_flags(p)
    p.add_argument("--checkpoint", default="model.npz")
    p.add_argument("--report", default="report.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default="eval_report.txt")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform-matrix", help="dump a transform matrix as CSV")
    p.add_argument("--kind", choices=("identity", "dft", "dct", "haar"), required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default="transform")
    p.set_defaults(func=cmd_transform_matrix)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--transform", choices=SCHEMES, default="dft")
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--slots", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("ablation", help="train all schemes across seeds, emit a table")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--embedding-dim", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--out", default="ablation.txt")
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, FileNotFoundError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
