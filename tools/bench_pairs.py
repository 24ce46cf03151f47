"""Alternating parent/change benchmark pairs, summarized in the BENCH_<n>.json shape.

    python3 tools/bench_pairs.py --parent REV --out BENCH_6.json \\
        --runs curves:1-10,21 --runs targets:1-5 --traced curves:1 --about "..."

The parent side is ``src/`` and ``bench/`` of revision REV, exported with
``git archive``; the change side is a copy of the same two directories of
the working tree.  Each side lives in its own directory under
``.bench_build/``, and every run is ``<BENCHMARK.json command> --workload W
--seed S --seconds <run_seconds> --trace T`` started in that directory as a
subprocess, so both sides run identical benchmark code only if bench/ is
the same on both.  For the seeds of a
--runs workload, one pair is one parent run and one change run of a seed,
and the side that runs first alternates from pair to pair; a seed appears
once per workload.  A --traced workload:seed gets one --trace 1 run per
side.

The output file keeps every raw run (command, return code, record and
result lines) and is rewritten after each run; when it already exists, runs
it holds are not repeated, so an interrupted session resumes.  Its summary
gives, per workload and end-to-end metric of BENCHMARK.json, q1/median/q3
per side, the change's median relative to the parent's and whether that is
worse than the metric's bound; then ops_per_s pair wins, whether the
median gap exceeds the parent's interquartile range, timed_ops per side,
whether every pair's output digests are equal and whether every run was
correct.  Next to those, peak_rss_mb is read against timed_ops: each
side's least-squares MB per 1,000 timed ops, and the peak_rss_mb change
that the change in median timed_ops alone predicts at the parent's slope,
beside the observed change, so memory the harness keeps per timed op is
told apart from memory the package uses.  Traced runs are summarized as
each per-layer metric per side.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "bench")


def parse_spec(text: str) -> tuple:
    """'curves:1-10,21' -> ('curves', [1, 2, ..., 10, 21])."""
    name, _, seeds = text.partition(":")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    if not name or not out:
        raise argparse.ArgumentTypeError(f"expected workload:seeds, got {text!r}")
    return name, out


def export(rev: str | None, dest: Path) -> None:
    """src/ and bench/ of a revision (git archive), or of the working tree if rev is None."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        for tree in TREES:
            shutil.copytree(ROOT / tree, dest / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        return
    data = subprocess.run(["git", "archive", "--format=tar", rev, *TREES], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run_one(command: list, side_dir: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(args, cwd=side_dir, capture_output=True, text=True)
    record = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            if "record" in doc:
                record = doc["record"]
            elif "metrics" in doc:
                result = doc
    return {"command": " ".join(args), "returncode": proc.returncode,
            "record": record, "result": result,
            "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def _value(run: dict, metric: str):
    result = run.get("result") or {}
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def rss_against_timed_ops(sides: dict) -> dict:
    """peak_rss_mb against timed_ops for the runs of each side; see the module docstring."""
    points = {s: [(r["record"]["timed_ops"] / 1000, v) for r in rs
                  if r.get("record") and (v := _value(r, "peak_rss_mb")) is not None]
              for s, rs in sides.items()}
    out: dict = {}
    for s, pts in points.items():
        xs = [x for x, _ in pts]
        fit = (statistics.linear_regression(xs, [y for _, y in pts]).slope
               if len(set(xs)) > 1 else None)
        out[s] = {"mb_per_1k_timed_ops": fit}
    slope = out["parent"]["mb_per_1k_timed_ops"]
    if slope is not None and points["change"]:
        ops, rss = ({s: statistics.median(p[k] for p in pts) for s, pts in points.items()}
                    for k in (0, 1))
        predicted = slope * (ops["change"] - ops["parent"])
        out["predicted_change_mb"] = predicted
        out["predicted_change"] = predicted / rss["parent"]
        out["observed_change"] = (rss["change"] - rss["parent"]) / rss["parent"]
    return out


def summarize_workload(runs: list, end_to_end: list) -> dict:
    """Summary of one workload's --trace 0 runs; see the module docstring."""
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    out: dict = {}
    worse = []
    for spec in end_to_end:
        name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
        vals = {s: [v for v in (_value(r, name) for r in rs) if v is not None]
                for s, rs in sides.items()}
        if not vals["parent"] or not vals["change"]:
            continue
        q = {s: quartiles(v) for s, v in vals.items()}
        base = q["parent"]["median"]
        rel = (q["change"]["median"] - base) / base if base else 0.0
        beyond = (rel if lower else -rel) > bound
        if beyond:
            worse.append(name)
        out[name] = {"parent": q["parent"], "change": q["change"],
                     "change_vs_parent": rel, "worse_beyond_bound": beyond}
    pairs = {}
    for r in runs:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    complete = [p for p in pairs.values() if len(p) == 2]
    wins = sum(1 for p in complete
               if (_value(p["change"], "ops_per_s") or 0) > (_value(p["parent"], "ops_per_s") or 0))
    out["ops_per_s_pair_wins"] = f"{wins}/{len(complete)}"
    if "ops_per_s" in out:
        ops = out["ops_per_s"]
        gap = ops["change"]["median"] - ops["parent"]["median"]
        out["ops_per_s_gap_exceeds_parent_iqr"] = gap > ops["parent"]["q3"] - ops["parent"]["q1"]
    out["timed_ops"] = {s: quartiles([r["record"]["timed_ops"] for r in rs])
                        for s, rs in sides.items()
                        if rs and all(r.get("record") for r in rs)}
    out["peak_rss_mb_against_timed_ops"] = rss_against_timed_ops(sides)
    out["digests_equal_per_pair"] = all(
        (p["parent"].get("record") or {}).get("digest") is not None
        and p["parent"]["record"]["digest"] == (p["change"].get("record") or {}).get("digest")
        for p in complete)
    out["all_correct"] = all(r["returncode"] == 0 and (r.get("result") or {}).get("correct")
                             for r in runs)
    out["metrics_worse_beyond_bound"] = worse
    return out


def summarize_traced(runs: list) -> dict:
    """Per-layer metric -> {parent, change} over the --trace 1 runs of one workload."""
    out: dict = {}
    for r in runs:
        for name, entry in ((r.get("result") or {}).get("metrics") or {}).items():
            out.setdefault(name, {})[r["side"]] = entry["value"]
    return out


def summarize(doc: dict, end_to_end: list) -> dict:
    summary: dict = {}
    for name in dict.fromkeys(r["workload"] for r in doc["runs"]):
        summary[name] = summarize_workload([r for r in doc["runs"] if r["workload"] == name],
                                           end_to_end)
    for name in dict.fromkeys(r["workload"] for r in doc["traced_runs"]):
        summary.setdefault(name, {})["traced"] = summarize_traced(
            [r for r in doc["traced_runs"] if r["workload"] == name])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=parse_spec, action="append", default=[],
                        metavar="WORKLOAD:SEEDS", help="e.g. curves:1-10,21")
    parser.add_argument("--traced", type=parse_spec, action="append", default=[],
                        metavar="WORKLOAD:SEEDS", help="one --trace 1 run per side and seed")
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    dirs = {"parent": ROOT / ".bench_build" / "parent", "change": ROOT / ".bench_build" / "change"}
    export(args.parent, dirs["parent"])
    export(None, dirs["change"])

    doc = {"about": "", "summary": {}, "runs": [], "traced_runs": []}
    if args.out.exists():
        doc.update(json.loads(args.out.read_text()))
    doc["about"] = args.about or doc["about"]
    done = {(r["side"], r["workload"], r["seed"], r["trace"])
            for r in doc["runs"] + doc["traced_runs"]}

    def save():
        doc["summary"] = summarize(doc, bench["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    plan = []
    for workload, seeds in args.runs:
        for pair, seed in enumerate(seeds):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            plan += [(side, workload, seed, pair, 0) for side in sides]
    for workload, seeds in args.traced:
        plan += [(side, workload, seed, 0, 1) for seed in seeds for side in ("parent", "change")]
    for side, workload, seed, pair, trace in plan:
        if (side, workload, seed, trace) in done:
            continue
        run = dict(side=side, workload=workload, seed=seed, pair=pair, trace=trace,
                   **run_one(bench["command"], dirs[side], workload, seed, seconds, trace))
        (doc["traced_runs"] if trace else doc["runs"]).append(run)
        print(f"{side:6s} {workload:8s} seed {seed:3d} trace {trace}: "
              f"exit {run['returncode']}", file=sys.stderr, flush=True)
        save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
