"""End-to-end benchmark of the ``tubalgcn`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload crit7 --seed 0 --seconds 55 --trace 0

For the workload it writes one seeded synthetic graph as a TSV, then repeats
rounds for about ``--seconds`` seconds.  A round runs, for every scheme, the
set-up a user waits for (``parse_dataset``, ``split_dataset``, ``build_aux``,
called directly), then ``tubalgcn train`` with a fixed epoch budget and
``tubalgcn eval`` on its checkpoint, both in-process through
``tubalgcn.cli.main``.  One client issues the next command when the previous
one returns (a closed loop).  Generation and TSV writing are not timed.

Every command's output is checked: exit code 0, ``epochs_run`` equal to the
budget, test MAE equal to the reference in ``perfbench/spec.json``, a
byte-identical train report on every rerun, and the eval report agreeing with
the train report.  With ``--trace 0`` the end-to-end metrics are the medians
over rounds.  With ``--trace 1`` untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds (see ``tracer.py``) and
``trace.overhead_pct`` compares the two.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
workload shape, every round, every check) goes to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``; ``compare.py``
diffs two directories of such records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"
WORKLOAD_NAMES = ("crit7", "wide-sparse")
SPLIT_SEED = 0
TRAIN_SEED = 0


def _blas_threads(nproc: int) -> int:
    """BLAS threads: the caller's setting, capped at the core count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), nproc)
    return nproc


def prepare(root: Path):
    """Import tubalgcn from ``root/src`` with capped BLAS threads.

    Returns (BLAS threads, core count), or (None, None) after printing an
    error when ``root`` holds no source tree.  Call before importing numpy.
    """
    if not (root / "src" / "tubalgcn" / "__init__.py").is_file():
        print("error: run from the repository root; src/tubalgcn not found", file=sys.stderr)
        return None, None
    nproc = os.cpu_count() or 1
    threads = _blas_threads(nproc)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["OMP_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(root / "src"))
    return threads, nproc


def _read_report(path) -> dict:
    pairs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            break
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


class Bench:
    """One workload on one seed: the data, the rounds and their checks."""

    def __init__(self, workload, seed: int, work: Path, spec: dict):
        from tubalgcn import cli, data, training
        from workloads import SCHEMES, generate, shape, write_tsv

        self.cli, self.data, self.training = cli, data, training
        self.w = workload
        self.schemes = SCHEMES
        self.seed = seed
        self.work = work
        self.spec = spec
        self.tsv = str(work / "graph.tsv")
        columns = generate(workload, seed)
        write_tsv(self.tsv, workload, columns)
        split = data.split_dataset(data.parse_dataset(self.tsv), seed=SPLIT_SEED)
        self.shape = shape(workload, seed, columns, split.train_idx)
        self.attempted = 0
        self.failures = []  # every failure message, for the log
        self.failed_commands = set()  # ids of commands with at least one failure
        self.reports = {}  # scheme -> bytes of the first train report
        self.test_mae = {}  # scheme -> test MAE of the first train report
        self.recorder = None  # a tracer.SpanRecorder while a traced round runs
        self.commands = []  # command id -> (kind, scheme)

    def _fail(self, what: str):
        """Record a failure of the command started last."""
        self.failures.append(what)
        self.failed_commands.add(len(self.commands) - 1)

    def _start(self, kind: str, scheme: str):
        self.attempted += 1
        self.commands.append((kind, scheme))
        if self.recorder is not None:
            self.recorder.command = len(self.commands) - 1

    def _setup(self, scheme: str) -> float:
        """Time what a user waits for before epoch 1."""
        self._start("setup", scheme)
        config = self.training.TrainConfig(
            transform=scheme, seed=TRAIN_SEED, split_seed=SPLIT_SEED,
            max_epochs=self.w.epochs, patience=self.w.epochs,
        )
        started = perf_counter()
        try:
            ds = self.data.split_dataset(self.data.parse_dataset(self.tsv), seed=SPLIT_SEED)
            aux = self.training.build_aux(ds, config)
        except Exception:  # a failed set-up is counted, not fatal
            self._fail(f"setup {scheme}: {traceback.format_exc()}")
            return perf_counter() - started
        elapsed = perf_counter() - started
        del ds, aux
        return elapsed

    def _command(self, kind: str, scheme: str, argv: list):
        """Run one CLI command in-process; returns (seconds, exit code)."""
        self._start(kind, scheme)
        out = io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crashing command is counted, not fatal
            out.write(traceback.format_exc())
            code = -1
        elapsed = perf_counter() - started
        if code != 0:
            self._fail(f"{kind} {scheme}: exit code {code}: {out.getvalue().strip()}")
        return elapsed, code

    def _check_train(self, scheme: str, report_path: Path):
        raw = report_path.read_bytes()
        pairs = _read_report(report_path)
        if pairs.get("epochs_run") != str(self.w.epochs):
            self._fail(f"train {scheme}: epochs_run {pairs.get('epochs_run')} != {self.w.epochs}")
        if scheme not in self.reports:
            self.reports[scheme] = raw
            try:
                self.test_mae[scheme] = float(pairs["test_mae"])
            except (KeyError, ValueError):
                self._fail(f"train {scheme}: report has no test_mae")
                return
            self._check_reference(scheme, self.test_mae[scheme])
        elif raw != self.reports[scheme]:
            self._fail(f"train {scheme}: report differs from the first run of the same command")

    def _check_reference(self, scheme: str, mae: float):
        refs = self.spec["references"]["test_mae"].get(self.w.name, {})
        rtol = self.spec["references"]["rtol"]
        ref = refs.get(str(self.seed), {}).get(scheme)
        if ref is not None:
            if not abs(mae - ref) <= rtol * abs(ref):
                self._fail(f"train {scheme}: test MAE {mae!r} != reference {ref!r} (rtol {rtol})")
            return
        # No reference for this seed: the MAE must lie in the band that the
        # recorded seeds span, widened by the stated factor.
        known = [r[scheme] for r in refs.values() if scheme in r]
        widen = self.spec["references"]["band_widen"]
        lo, hi = min(known, default=0.0) / widen, max(known, default=float("inf")) * widen
        if not (lo <= mae <= hi):
            self._fail(f"train {scheme}: test MAE {mae!r} outside [{lo:.5f}, {hi:.5f}]")

    def _check_eval(self, scheme: str, report_path: Path):
        got = float(_read_report(report_path).get("test_mae", "nan"))
        want = self.test_mae.get(scheme)
        if want is None or not abs(got - want) <= 1e-9 * abs(want):
            self._fail(f"eval {scheme}: test MAE {got!r} != train report {want!r}")

    def round(self) -> dict:
        """One round over every scheme; returns its end-to-end timings."""
        epochs = str(self.w.epochs)
        values = {"setup_s": 0.0, "eval_s": 0.0}
        for scheme in self.schemes:
            values["setup_s"] += self._setup(scheme)
            ckpt = self.work / f"{scheme}.npz"
            report = self.work / f"{scheme}-train.txt"
            report.unlink(missing_ok=True)
            elapsed, code = self._command("train", scheme, [
                "train", "--data", self.tsv, "--transform", scheme,
                "--seed", str(TRAIN_SEED), "--split-seed", str(SPLIT_SEED),
                "--max-epochs", epochs, "--patience", epochs,
                "--checkpoint", str(ckpt), "--report", str(report),
            ])
            values[f"train_s.{scheme}"] = elapsed
            if code == 0:
                self._check_train(scheme, report)
            eval_report = self.work / f"{scheme}-eval.txt"
            eval_report.unlink(missing_ok=True)
            elapsed, code = self._command("eval", scheme, [
                "eval", "--checkpoint", str(ckpt), "--data", self.tsv, "--report", str(eval_report),
            ])
            values["eval_s"] += elapsed
            if code == 0:
                self._check_eval(scheme, eval_report)
        return values


def _environment(threads: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def _medians(rounds: list) -> dict:
    keys = rounds[0].keys()
    return {k: statistics.median(r[k] for r in rounds) for k in keys}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Repeat rounds for about ``seconds``.

    Returns the end-to-end values of the untraced and traced rounds, the
    per-layer metrics and spans of each traced round, and the span names
    the tracer could not find.
    """
    from tracer import SpanRecorder, layer_metrics

    runs = {"untraced": [], "traced": [], "layers": [], "spans": [], "missing": []}
    started = perf_counter()
    durations = []
    while True:
        # Untraced and traced rounds alternate as U T T U U T ..., so that a
        # slow first round or a drift in machine speed biases neither side.
        traced = trace and len(durations) % 4 in (1, 2)
        if traced:
            bench.recorder = SpanRecorder()
            runs["missing"] = bench.recorder.install()
        t0 = perf_counter()
        try:
            values = bench.round()
        finally:
            if traced:
                bench.recorder.uninstall()
        durations.append(perf_counter() - t0)
        if traced:
            runs["traced"].append(values)
            runs["layers"].append(layer_metrics(bench.recorder, bench.commands, bench.schemes, runs["missing"]))
            runs["spans"].append(bench.recorder.dump())
            bench.recorder = None
        else:
            runs["untraced"].append(values)
        # Two rounds at least, so that every train command is rerun once.
        enough = len(durations) >= 2 and (not trace or runs["traced"])
        if enough and perf_counter() - started + statistics.mean(durations) / 2 > seconds:
            return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench", help="work and results directory (relative)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    threads, nproc = prepare(root)
    if threads is None:
        return 2

    from workloads import WORKLOADS

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = root / args.out
    work = out / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, spec)
        runs = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced, traced = runs["untraced"], runs["traced"]
    failed = len(bench.failed_commands)
    e2e = _medians(untraced)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if bench.test_mae:  # absent, and reported missing, when every train failed
        e2e["test_mae"] = statistics.fmean(bench.test_mae.values())
    error_rate = failed / bench.attempted
    if args.trace:
        layers = _medians(runs["layers"])
        base = statistics.median(sum(r.values()) for r in untraced)
        with_spans = statistics.median(sum(r.values()) for r in traced)
        layers["trace.overhead_pct"] = 100.0 * (with_spans / base - 1.0)
        reported = {k: v for k, v in layers.items() if k in units}
    else:
        layers = {}
        reported = {k: v for k, v in e2e.items() if k in units}
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    absent = sorted(set(expected) - set(reported))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(threads, nproc),
        "shape": bench.shape,
        "attempted": bench.attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": bench.failures,
        "test_mae": bench.test_mae,
        "rounds": untraced,
        "traced_rounds": traced,
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_rounds": runs["layers"],
        "missing_metrics": absent,
        "missing_spans": runs["missing"],
    }
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        spans = {"commands": bench.commands, "rounds": runs["spans"]}
        (results / f"{name}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds; shape {json.dumps(bench.shape)}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for metric in absent:
        print(f"missing metric {metric}")
    print(f"error_rate = {error_rate!r} ratio ({failed} of {bench.attempted} commands)")
    for key, value in reported.items():
        print(f"{key} = {value!r} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
