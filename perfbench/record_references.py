"""Record the reference test MAEs that ``run.py`` checks train reports against.

    python3 perfbench/record_references.py --seeds 0 19

Run from the repository root, on a commit whose numerics are trusted.  For
each workload and seed it runs one benchmark round (every scheme, the same
flags as ``run.py``) and writes each scheme's test MAE into
``perfbench/spec.json`` under ``references.test_mae``.  A change that alters
the numerics on purpose re-records them and says so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if run.prepare(root)[0] is None:
        return 2
    from workloads import WORKLOADS

    spec = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
    table = spec["references"]["test_mae"]
    unchecked = {**spec, "references": {**spec["references"], "test_mae": {}}}
    work = root / ".perfbench" / "work" / "references"
    status = 0
    for name in run.WORKLOAD_NAMES:
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                bench = run.Bench(WORKLOADS[name], seed, work, unchecked)
                bench.round()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failures:
                print(f"{name} seed {seed}: not recorded: {bench.failures}", file=sys.stderr)
                status = 1
                continue
            table.setdefault(name, {})[str(seed)] = bench.test_mae
            print(f"{name} seed {seed}: {bench.test_mae}", flush=True)
            # Written after every seed, so that an interrupted run keeps its work.
            run.SPEC_PATH.write_text(json.dumps(spec, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
