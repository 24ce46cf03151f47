import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p90", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _run(side, seed, ops, p90, rss, digest="d", timed_ops=100, correct=True, trace=0):
    metrics = {"ops_per_s": ops, "op_ms_p90": p90, "peak_rss_mb": rss}
    return {"side": side, "workload": "curves", "seed": seed, "pair": seed, "trace": trace,
            "returncode": 0,
            "record": {"digest": digest, "timed_ops": timed_ops},
            "result": {"correct": correct,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}}


def test_parse_spec():
    assert bench_pairs.parse_spec("curves:1-3,21") == ("curves", [1, 2, 3, 21])
    assert bench_pairs.parse_spec("cli:4") == ("cli", [4])


def test_summary_of_canned_runs():
    runs = []
    for seed, (p_ops, c_ops) in enumerate([(100, 150), (110, 140), (90, 95), (120, 110)], 1):
        runs.append(_run("parent", seed, p_ops, 8.0, 30.0, timed_ops=1000))
        runs.append(_run("change", seed, c_ops, 4.0, 34.0, timed_ops=1400))
    s = bench_pairs.summarize_workload(runs, END_TO_END)
    ops = s["ops_per_s"]
    # inclusive quartiles of (90, 100, 110, 120) and of (95, 110, 140, 150)
    assert ops["parent"] == {"q1": 97.5, "median": 105, "q3": 112.5}
    assert ops["change"] == {"q1": 106.25, "median": 125, "q3": 142.5}
    assert ops["change_vs_parent"] == pytest.approx(20 / 105)
    assert not ops["worse_beyond_bound"]
    assert s["ops_per_s_pair_wins"] == "3/4"
    # the median gap, 20, exceeds the parent's interquartile range, 15
    assert s["ops_per_s_gap_exceeds_parent_iqr"]
    assert s["op_ms_p90"]["change_vs_parent"] == pytest.approx(-0.5)
    # memory rose 13%, past its 10% bound; lower-is-better metrics fall to win
    assert s["peak_rss_mb"]["worse_beyond_bound"]
    assert s["metrics_worse_beyond_bound"] == ["peak_rss_mb"]
    assert s["timed_ops"]["change"]["median"] == 1400
    assert s["digests_equal_per_pair"] and s["all_correct"]


def test_summary_reads_memory_against_timed_ops():
    # both sides keep 0.7 MB per 1,000 timed ops; the change runs twice the
    # parent's median timed ops, which alone predicts 1.4 MB of its 1.5 MB rise
    runs = []
    for seed, (p_ops, c_ops) in enumerate([(1000, 3000), (2000, 4000), (3000, 5000)], 1):
        runs.append(_run("parent", seed, 100, 8.0, 29.3 + 0.7 * p_ops / 1000, timed_ops=p_ops))
        runs.append(_run("change", seed, 200, 4.0, 29.4 + 0.7 * c_ops / 1000, timed_ops=c_ops))
    s = bench_pairs.summarize_workload(runs, END_TO_END)["peak_rss_mb_against_timed_ops"]
    assert s["parent"]["mb_per_1k_timed_ops"] == pytest.approx(0.7)
    assert s["change"]["mb_per_1k_timed_ops"] == pytest.approx(0.7)
    assert s["predicted_change_mb"] == pytest.approx(1.4)
    assert s["predicted_change"] == pytest.approx(1.4 / 30.7)
    assert s["observed_change"] == pytest.approx(1.5 / 30.7)
    # one timed-ops count per side fits no slope, and predicts nothing
    s = bench_pairs.summarize_workload(runs[:2], END_TO_END)["peak_rss_mb_against_timed_ops"]
    assert s == {"parent": {"mb_per_1k_timed_ops": None},
                 "change": {"mb_per_1k_timed_ops": None}}


def test_summary_flags_digest_and_failures():
    runs = [_run("parent", 1, 100, 8.0, 30.0), _run("change", 1, 60, 8.0, 30.0, digest="e"),
            _run("parent", 2, 100, 8.0, 30.0), _run("change", 2, 100, 8.0, 30.0, correct=False)]
    s = bench_pairs.summarize_workload(runs, END_TO_END)
    assert not s["digests_equal_per_pair"]
    assert not s["all_correct"]
    # a median of 80 against 100 is a 20% loss, inside the 25% bound
    assert not s["ops_per_s"]["worse_beyond_bound"]
    assert s["ops_per_s_pair_wins"] == "0/2"


def test_summary_of_traced_runs():
    doc = {"runs": [], "traced_runs": [_run("parent", 1, 1.0, 2.0, 3.0, trace=1),
                                        _run("change", 1, 1.5, 2.0, 3.0, trace=1)]}
    s = bench_pairs.summarize(doc, END_TO_END)
    assert s["curves"]["traced"]["ops_per_s"] == {"parent": 1.0, "change": 1.5}
