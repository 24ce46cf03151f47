"""Time two trees of the package on one workload's ops in one process.

    python3 tools/ab_inprocess.py --baseline REV_OR_DIR --workload curves --seed 1 \\
        [--ops N] [--best 3] [--rounds 3]

The baseline is a git revision, whose ``src/`` is exported with ``git
archive`` into a temporary directory, or a directory that holds the
``bracketdec`` package; the change is this repository's ``src/``.  Both
load ``bench/workloads.py`` of this repository, read-only, so both run the
same benchmark code: the baseline first, then, after ``bracketdec*``,
``workloads`` and ``tracing`` are purged from ``sys.modules``, the change.
Only the in-process workloads (targets, curves, rational) can be run.

Each round runs ops 0 .. N-1 (N defaults to the whole input pool), each op
``--best`` times per tree, the trees alternating and the tree that goes
first alternating from op to op, and sums each tree's best time per op.
The one JSON line printed gives, per round, the change's summed time over
the baseline's, their median and range, and the number of ops whose
canonical output text differs between the trees, with the first few such
ops.  The exit status is 1 when any op's output differs, so a run checks
the whole pool's outputs, and 0 otherwise.  A run of the working tree
against a copy of itself (an A/A run) shows the ratio that noise alone gives.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("targets", "curves", "rational")
_PATH = list(sys.path)


def load(src: Path, workload: str, seed: int):
    """The workload built on the package in src, after purging any other tree."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("bracketdec", "workloads", "tracing"):
            del sys.modules[name]
    sys.path[:] = [str(src), str(ROOT / "bench"), *_PATH]
    import workloads

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # set-up parses repeated-root curves
        return workloads.make(workload, seed, ROOT)


def timed(w, i: int) -> tuple:
    """(seconds, canonical output text) of op i."""
    t0 = time.perf_counter()
    try:
        out = w.run(i)
    except Exception as exc:  # an op that raises has a canonical text too
        out = exc
    elapsed = time.perf_counter() - t0
    return elapsed, w.canonical(i, out)


def compare(trees: list, ops: int, best: int, rounds: int) -> dict:
    ratios, sums, differing = [], [], set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(rounds):
            total = [0.0, 0.0]
            for i in range(ops):
                times = [[], []]
                texts = [None, None]
                for k in range(2 * best):
                    side = (k + i) % 2
                    t, texts[side] = timed(trees[side], i)
                    times[side].append(t)
                if texts[0] != texts[1]:
                    differing.add(i)
                total[0] += min(times[0])
                total[1] += min(times[1])
            gc.collect()
            sums.append(total)
            ratios.append(total[1] / total[0])
    return {"ratios": [round(x, 4) for x in ratios],
            "median": round(statistics.median(ratios), 4),
            "range": [round(min(ratios), 4), round(max(ratios), 4)],
            "baseline_s": [round(s[0], 4) for s in sums],
            "change_s": [round(s[1], 4) for s in sums],
            "differing_ops": len(differing), "first_differing": sorted(differing)[:5]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="git revision, or directory holding the bracketdec package")
    ap.add_argument("--workload", required=True, choices=IN_PROCESS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=None, help="ops per round (default: the pool)")
    ap.add_argument("--best", type=int, default=3, help="runs per op and tree, best kept")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.baseline)
        if not base.is_dir():
            data = subprocess.run(["git", "archive", "--format=tar", args.baseline, "src"],
                                  cwd=ROOT, check=True, capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(data)) as tar:
                tar.extractall(tmp)
            base = Path(tmp) / "src"
        trees = [load(base.resolve(), args.workload, args.seed),
                 load(ROOT / "src", args.workload, args.seed)]
        ops = len(trees[0].inputs) if args.ops is None else args.ops
        result = compare(trees, ops, args.best, args.rounds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops,
                      "best": args.best, "baseline": args.baseline, **result}))
    return 1 if result["differing_ops"] else 0


if __name__ == "__main__":
    sys.exit(main())
