"""Tests of the benchmark itself: generators, tracer, and the run contract.

Run with `python -m pytest bench/tests` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bracketdec as bd
import run
import tracing
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def _inputs(w) -> list:
    """A plain-text description of a workload's generated inputs."""
    if isinstance(w, workloads.Targets):
        return [(k, str(t)) for k, t in w.inputs]
    if isinstance(w, workloads.Curves):
        return list(w.inputs)
    if isinstance(w, workloads.Rational):
        return [(str(line.denominator), str(item) if j % 2 == 0 else
                 (workloads._canon(item[0]), item[1]))
                for j, (line, item) in enumerate(w.inputs)]
    return [(c.argv, c.exit_code, c.verification, c.error) for c in w.cases]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = _inputs(workloads.make(name, 7, ROOT))
        b = _inputs(workloads.make(name, 7, ROOT))
        c = _inputs(workloads.make(name, 8, ROOT))
    assert a == b
    assert a != c


def test_digest_is_the_same_under_another_hash_seed():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "rational",
                              "--seed", "3", "--digest-only"],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


# -- self time -------------------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],      # overlaps a: covered once
        ["c", 5.0, 6.0, 0, 0],
        ["a.child", 1.5, 2.5, 1, 0],
        ["late", 9.5, 12.0, 0, 0],  # clipped to the parent's end
        ["other", 20.0, 21.0, -1, 1],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10 - (3 + 1 + 0.5), 1.0, 2.0, 1.0, 1.0, 2.5, 1.0])


def test_tracer_spans_and_counts_at_layer_boundaries():
    tracer = tracing.Tracer()
    original = bd.divide_multivariate
    with tracing.Installed(tracer):
        assert bd.divide_multivariate is not original
        tracer.op = 4
        bd.divide_multivariate(bd.parse_poly("x^2 + y"), [bd.parse_poly("x")])
    assert bd.divide_multivariate is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["poly.parse", "poly.parse", "poly.divide", tracing.COUNT_SPAN]
    assert all(s[tracing.OP] == 4 for s in tracer.spans)
    # quotient x and remainder y: two division steps
    assert tracer.counts["poly.divide.steps"] == 2
    assert tracer.counts["poly.divide.calls"] == 1


def test_buchberger_steps_match_the_step_budget():
    eq = bd.parse_poly("x^4 + y^4 - 3")
    gens = [eq, bd.partial_derivative(eq, "x"), bd.partial_derivative(eq, "y")]
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        bd.buchberger(gens)
    steps = tracer.counts["groebner.buchberger.steps"]
    reduced = tracer.counts["groebner.buchberger.spairs_reduced"]
    assert steps > 0 and 0 < reduced
    assert 0 <= tracer.counts["groebner.buchberger.spairs_to_zero"] <= reduced
    bd.buchberger(gens, max_steps=steps)
    with pytest.raises(bd.StepBudgetExceeded):
        bd.buchberger(gens, max_steps=steps - 1)


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    curve = bd.AffineLine()
    with tracing.Installed(tracer):
        tracer.enabled = False
        bd.recombine(bd.single_bracket_line(curve.reduce(bd.Poly.variable("x"))))
    assert tracer.spans == [] and not tracer.counts


# -- sympy as an independent oracle ----------------------------------------------

sympy = pytest.importorskip("sympy")
X, Y, Z = sympy.symbols("x y z")


def _sym(poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * X**m[0] * Y**m[1] * Z**m[2]
                for m, c in poly.terms), sympy.Integer(0))


def _text(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z})


def _recombination(pairs, tau):
    """sum of a tau(b) - b tau(a), tau = (P, Q, R) acting as P d/dx + Q d/dy + R d/dz."""
    def apply(f):
        return sum(c * sympy.diff(f, v) for c, v in zip(tau, (X, Y, Z)))
    return sum((a * apply(b) - b * apply(a) for a, b in pairs), sympy.Integer(0))


def _in_ideal(expr, ideal) -> bool:
    expr = sympy.expand(expr)
    if expr == 0:
        return True
    return sympy.groebner(ideal, Z, Y, X, order="lex", domain="QQ").contains(expr)


def _make(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return workloads.make(name, 3, ROOT)


def _run_sample(w, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(count):
            try:
                yield i, w.run_inprocess(i)
            except bd.NotSmooth as exc:
                yield i, exc


def test_targets_recombine_modulo_the_curve_ideal_under_sympy():
    w = _make("targets")
    ideals = []
    for h in workloads.HYPERELLIPTIC_H:
        F = _text(f"y^2 - ({h})")
        ideals.append(([F], (sympy.diff(F, Y), -sympy.diff(F, X), 0)))
    gens, tau = workloads.TWISTED_CUBIC
    ideals.append(([_text(g) for g in gens], tuple(_text(t) for t in tau)))
    for h in workloads.EMBEDDED_H:
        F = _text(f"y^2 - ({h})")
        ideals.append(([F, Z], (sympy.diff(F, Y), -sympy.diff(F, X), 0)))
    for i, decomp in _run_sample(w, 24):
        k, target = w.inputs[i]
        ideal, tau = ideals[k]
        pairs = [(_sym(u.coeff.poly), _sym(v.coeff.poly)) for u, v in decomp.pairs]
        assert _in_ideal(_recombination(pairs, tau) - _sym(target.poly), ideal)


def test_curves_smoothness_matches_sympy_groebner():
    w = _make("curves")
    assert w.inputs[0][0] == workloads.ROADMAP_CURVE
    kinds = set()
    for i, out in _run_sample(w, 17):
        text, smooth, lift = w.inputs[i]
        F = _text(text)
        basis = sympy.groebner([F, sympy.diff(F, X), sympy.diff(F, Y)], X, Y, order="grevlex")
        accepted = not isinstance(out, bd.NotSmooth)
        assert (list(basis.exprs) == [1]) == accepted == smooth, text
        kinds.add(accepted)
        if accepted:
            _, target, decomp = out
            pairs = [(_sym(u.coeff.poly), _sym(v.coeff.poly)) for u, v in decomp.pairs]
            tau = (sympy.diff(F, Y), -sympy.diff(F, X), 0)
            assert _in_ideal(_recombination(pairs, tau) - _text(lift), [F])
    assert kinds == {True, False}


def test_rational_outputs_recombine_under_sympy():
    w = _make("rational")
    for i, out in _run_sample(w, 24):
        line, item = w.inputs[i]
        pairs = [(_text(str(u)), _text(str(v))) for u, v in out.pairs]
        if i % 2 == 0:
            target = _text(str(item))
        else:
            decomp, k = item
            f = _sym(line.denominator)
            line_pairs = [(_sym(u.coeff.poly), _sym(v.coeff.poly)) for u, v in decomp.pairs]
            target = _recombination(line_pairs, (1, 0, 0)) / f**(2 * k)
        assert sympy.cancel(_recombination(pairs, (1, 0, 0)) - target) == 0


def test_cli_outputs_recombine_under_sympy():
    w = _make("cli")
    taus = {"line": (1, 0, 0), "minus": (1, 0, 0), "minus_repeated": (1, 0, 0),
            "space": (1, 2 * X, 3 * X**2)}
    ideals = {"space": [Y - X**2, Z - X**3]}
    for key in ("plane", "plane5"):
        F = _text(workloads.CLI_CURVES[key][0][len("plane "):])
        taus[key] = (sympy.diff(F, Y), -sympy.diff(F, X), 0)
        ideals[key] = [F]
    checked = 0
    for i, (code, stdout, _, _) in _run_sample(w, 32):
        case = w.cases[i]
        assert code == case.exit_code
        if case.command != "decompose":
            continue
        doc = json.loads(stdout)
        pairs = [(_text(a), _text(b)) for a, b in doc["decomposition"]]
        diff = _recombination(pairs, taus[case.curve]) - _text(case.target)
        if case.curve in ideals:
            assert _in_ideal(diff, ideals[case.curve])
        else:
            assert sympy.cancel(diff) == 0
        checked += 1
    assert checked >= 4


# -- the run contract ------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "rational",
                          "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stderr == ""
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "targets", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
