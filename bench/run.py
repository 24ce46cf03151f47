"""bracketdec benchmark: one workload per run, closed loop, single process.

    python3 bench/run.py --workload targets --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): targets, curves, rational, cli.  The run sets
up the workload from the seed and runs ops one after another, each checked
right after it returns, outside the timed region.  It prints as its last
stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  The ops run in PASSES
passes: the first for a 1/PASSES share of --seconds (and at least MIN_OPS
ops), the others repeat its ops.  An op's latency is its best over all its
runs, scaled to reference speed by the gauge of gauge.py; latency
percentiles and ops_per_s come from those per-op bests.  setup_s is the
median of set-up times of fresh processes started between the passes,
each timed from the start of its main() to its first op being ready.
The line before the result is a record with the run's stamps (Python
version, cores, commit, source digest, seed, hash seed, load average),
sample counts, raw set-up times and the output digest.  The digest covers
the canonical outputs of the first ops; a child process with another
PYTHONHASHSEED recomputes it, and a mismatch counts as a failed op.

With --trace 1 the ops run once under the span tracer of tracing.py, then
again untraced, and the metrics are the per-layer ones plus
trace_overhead_ratio.  End-to-end numbers come only from --trace 0 runs.

The run and every process it starts are pinned to one core, so that the
gauge reads the core the ops run on.  The benchmark imports bracketdec from
the src/ directory next to it and exits with status 2, printing no result,
when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100
GAUGE_EVERY_S = 0.25
PASSES = 3
SETUP_REPEATS = 2  # per gap between passes, so PASSES + 1 gaps
FLOOR_REPEATS = 5


def _import_package() -> str | None:
    """Import bracketdec from SRC; an error message if that is impossible."""
    if not (SRC / "bracketdec" / "__init__.py").is_file():
        return f"no bracketdec sources under {SRC}"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import bracketdec
    if Path(bracketdec.__file__).resolve().parent != SRC / "bracketdec":
        return f"imported bracketdec from {bracketdec.__file__}, not from {SRC}"
    return None


def _child(args: list, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            **kwargs)


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up of a fresh process: (raw seconds, seconds at reference speed).

    The child times itself from the start of main() to its first op being
    ready, then reads the speed gauge.  Interpreter start-up is left out:
    it is no work of the benchmark's and the noisiest part of a process
    start (the traced cli run reports it as cli.interp_s).
    """
    proc = _child(["--workload", workload, "--seed", str(seed), "--setup-only"])
    with proc:
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {err.strip()[-500:]}")
    elapsed, reading = (float(x) for x in out.split())
    return elapsed, elapsed * gauge.REF_KERNEL_S / reading


def replay_digest(workload: str, seed: int) -> str:
    """Output digest of the first ops, recomputed in a process with another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(1 + seed % 4_000_000_000))
    proc = _child(["--workload", workload, "--seed", str(seed), "--digest-only"], env=env)
    with proc:
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"digest child failed: {err.strip()[-500:]}")
    return out.strip().splitlines()[-1]


def run_ops(run, seconds: float, count: int | None = None, after=None,
            speed: gauge.Gauge | None = None) -> tuple:
    """Closed loop of ops; returns (latencies at reference speed, scale factors).

    Runs until the ops' own time reaches `seconds` and at least MIN_OPS
    ops are done, or exactly `count` ops if given.  `after(i, out)` sees
    each output outside the timed region; outputs are then dropped, so the
    heap, and with it the garbage collector's work, does not grow with the
    run's length.  The speed gauge is read before the first op, after every
    GAUGE_EVERY_S seconds of ops and after the last, outside the timed
    region; each latency is scaled by the readings around it.
    """
    speed = speed or gauge.Gauge()
    raw, between = [], []
    busy = since_read = 0.0
    gc.collect()
    speed.read()
    i = 0
    while count is None or i < count:
        if since_read >= GAUGE_EVERY_S:
            speed.read()
            since_read = 0.0
        t0 = time.perf_counter()
        try:
            out = run(i)
        except Exception as exc:  # an op that raises is checked, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        between.append(len(speed.readings) - 1)
        busy += elapsed
        since_read += elapsed
        if after is not None:
            after(i, out)
        del out
        i += 1
        if count is None and busy >= seconds and i >= MIN_OPS:
            break
    speed.read()
    scale = [speed.factor(r) for r in between]
    return [t * f for t, f in zip(raw, scale)], scale


def best_of_passes(w, seconds: float, after, between, speed: gauge.Gauge) -> list:
    """Each distinct op's best latency over all its runs, in op order.

    The first pass runs for a 1/PASSES share of `seconds` (and MIN_OPS
    ops); the other passes repeat exactly its ops.  Ops whose inputs repeat
    (period ``w.pool``) are one distinct op.  On a shared machine, single
    timings of one op vary by tens of percent over seconds while its
    minimum over runs spread across the run stays within a few percent.
    `between()` runs before, between and after the passes.
    """
    best: dict = {}

    def keep(lat):
        for i, t in enumerate(lat):
            key = i % w.pool if w.pool else i
            best[key] = min(t, best.get(key, t))

    between()
    first, _ = run_ops(w.run, seconds / PASSES, after=after, speed=speed)
    keep(first)
    for _ in range(PASSES - 1):
        between()
        keep(run_ops(w.run, 0, count=len(first), after=after, speed=speed)[0])
    between()
    return [best[k] for k in sorted(best)]


def digest(canons, n: int) -> str:
    h = hashlib.sha256()
    for c in canons[:n]:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bracketdec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamps(args, load_1m: float) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": args.nproc, "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "src_sha256": _src_sha256(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
            "loadavg_1m": load_1m}


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(args, w, load_1m: float) -> tuple:
    import workloads
    # set-up is timed in fresh processes at several points of the run
    setup_samples, setup_raw = [], []
    speed = gauge.Gauge()

    def measure_setups():
        for _ in range(SETUP_REPEATS):
            raw, scaled = measure_setup(args.workload, args.seed)
            setup_raw.append(raw)
            setup_samples.append(scaled)

    checker = workloads.Checker(w)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lat = best_of_passes(w, args.seconds, after=checker, between=measure_setups,
                             speed=speed)
    ops = len(lat)
    failed = checker.failed
    run_digest = digest(checker.canons, w.digest_ops)
    replayed = replay_digest(args.workload, args.seed)
    attempted = checker.calls + 1  # the digest replay is one more checked op
    if replayed != run_digest:
        failed += 1
        checker.reasons.append("digest differs in a process with another hash seed")
    rss_kib = checker.rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops / sum(lat), "1/s"),
        "op_ms_p50": (1000 * statistics.median(lat), "ms"),
        "op_ms_p90": (1000 * _quantile(lat, 0.90), "ms"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
        "out_terms_per_op": (checker.terms / checker.calls, "terms"),
        "out_coeff_bits_max": (checker.bits, "bits"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    record = dict(stamps(args, load_1m), timed_ops=checker.calls, passes=PASSES,
                  distinct_ops=ops, latency_samples=len(lat), setup_raw_s=setup_raw,
                  gauge_reads=len(speed.readings),
                  gauge_best_s_median=statistics.median(speed.readings),
                  fail_ratio=failed / attempted, digest=run_digest,
                  digest_ops=min(w.digest_ops, ops), replay_digest=replayed,
                  warnings=len(caught), failures=checker.reasons)
    return attempted, failed, metrics, record


def _floor(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def traced(args, w, load_1m: float) -> tuple:
    import tracing
    import workloads
    tracer = tracing.Tracer()
    checker = workloads.Checker(w)

    def after(i, out):
        # the harness's own checks call recombine and bracket: keep them out
        tracer.enabled = False
        checker(i, out)
        tracer.enabled = True
        tracer.op = i + 1

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracing.Installed(tracer):
            tracer.op = 0
            lat, scale = run_ops(w.run_inprocess, args.seconds, after=after)
        tracer.enabled = False
        warned = sum(1 for m in caught if issubclass(m.category, UserWarning)
                     and "repeated root" in str(m.message))
        plain, _ = run_ops(w.run_inprocess, 0, count=len(lat))
    ops = len(lat)
    metrics = tracing.layer_metrics(tracer, ops, checker.pairs, warned, op_scale=scale)
    metrics["trace_overhead_ratio"] = (sum(lat) / sum(plain), "ratio")
    interp = imp = 0.0
    if w.name == "cli":
        interp = _floor("pass")
        imp = _floor("import bracketdec.cli") - interp
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp, "s")
    record = dict(stamps(args, load_1m), ops=ops, spans=len(tracer.spans),
                  digest=digest(checker.canons, w.digest_ops),
                  warnings=warned, failures=checker.reasons)
    return ops, checker.failed, metrics, record


def main(argv=None) -> int:
    started = time.perf_counter()
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("targets", "curves", "rational", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes of the child processes
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.nproc = len(os.sched_getaffinity(0))
    # one core for the run and the processes it starts, so the speed gauge
    # reads the core the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    problem = _import_package()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    import workloads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated-root denominators warn by design
        w = workloads.make(args.workload, args.seed, ROOT)
    if args.setup_only:
        elapsed = time.perf_counter() - started
        print(elapsed, gauge.Gauge().read())
        return 0
    if args.digest_only:
        canons = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_ops(w.run, 0, count=w.digest_ops,
                    after=lambda i, out: canons.append(w.canonical(i, out)))
        print(digest(canons, w.digest_ops))
        return 0

    attempted, failed, metrics, record = (traced if args.trace else end_to_end)(args, w, load_1m)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
