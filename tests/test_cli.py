import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracketdec.cli import main
from bracketdec.poly import MAX_PARSE_COST

_BASE = [sys.executable, "-m", "bracketdec.cli"]


def run_cli(*args):
    proc = subprocess.run(_BASE + list(args), capture_output=True, text=True)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc, proc.stderr


def test_import_loads_neither_dataclasses_nor_typing():
    # each command is a new process, and inspect, which dataclasses imports,
    # and typing are the largest modules the package could do without; -S
    # keeps site from importing typing on its own
    import bracketdec

    code = ("import sys, bracketdec.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(bracketdec.__file__).parent.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("command", ["check", "decompose", "localize", "verify"])
def test_help_says_which_commands_read_trace_and_order(command):
    # only decompose and localize print a trace, and only a plane or space
    # curve has reductions for --order to order
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(out.getvalue().split())
    assert "--order {lex,grlex} monomial order for the reductions of a plane or space curve" \
        in text
    traced = "--trace include construction intermediates in the output"
    ignored = "--trace accepted and ignored: only decompose and localize print a trace"
    assert (traced in text, ignored in text) == ((True, False) if command in
                                                 ("decompose", "localize") else (False, True))


def test_check_plane_ok():
    code, doc, err = run_cli("check", "--curve", "plane y^2 - x^3 - x")
    assert code == 0 and doc["status"] == "ok"
    assert doc["curve"] == {"variant": "plane", "equation": "y^2 - x^3 - x",
                            "tau": ["2*y", "3*x^2 + 1"]}
    cert = doc["certificates"]["smoothness"]
    assert cert["target"] == "1" and len(cert["cofactors"]) == 3
    assert err.startswith("ok:")


def test_check_space_ok():
    code, doc, _ = run_cli("check", "--curve",
                           "space y - x^2; z - x^3 tau 1, 2x, 3x^2")
    assert code == 0
    assert doc["certificates"]["preserves_ideal"] is True
    assert doc["certificates"]["unit"]["target"] == "1"


def test_check_not_smooth_exits_3():
    code, doc, err = run_cli("check", "--curve", "plane y^2 - x^3")
    assert code == 3
    assert doc["status"] == "error" and doc["error"]["code"] == "not_smooth"
    assert err.startswith("error [not_smooth]")


def test_parse_error_exits_2():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - (", "--target", "1")
    assert code == 2 and doc["error"]["code"] == "parse_error"
    code, doc, _ = run_cli("check", "--curve", "circle x^2 + y^2 - 1")
    assert code == 2


def test_deep_nesting_exits_2():
    target = "(" * 3000 + "x" + ")" * 3000
    code, doc, err = run_cli("decompose", "--curve=line", f"--target={target}")
    assert code == 2 and doc["error"]["code"] == "parse_error"
    assert "Traceback" not in err


def test_step_budget_exits_4():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - x^7 - x - 1",
                           "--target", "x^4 + y", "--max-steps", "5")
    assert code == 4 and doc["error"]["code"] == "step_budget_exceeded"


def test_negative_max_steps_exits_2():
    # rejected before the curve is parsed, so on every curve, even a bad one
    for curve in ("line", "line minus x", "plane y^2 - x^3 - x",
                  "space y - x^2; z - x^3 tau 1, 2x, 3x^2", "banana"):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["decompose", "--curve", curve, "--target", "x", "--max-steps", "-5"])
        doc = json.loads(out.getvalue())
        assert code == 2 and doc["error"]["code"] == "invalid_input"
        assert "--max-steps" in doc["error"]["message"]


def test_parse_products_bounded_exits_4():
    # the step budget does not reach parsing; the parser's own cost bound
    # stops (x+1)^3000 long before it expands
    proc = subprocess.run(_BASE + ["decompose", "--curve", "line",
                                   "--target", "(x+1)^3000", "--max-steps", "10"],
                          capture_output=True, text=True, timeout=20)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert doc["error"]["message"].startswith("parse phase")
    assert f"more than {MAX_PARSE_COST} coefficient word" in doc["error"]["message"]
    assert "Traceback" not in proc.stderr


def test_parse_coefficient_bits_bounded_exits_4():
    # 3^200000000 is one term, so only the coefficient words of the cost stop it
    proc = subprocess.run(_BASE + ["decompose", "--curve", "line",
                                   "--target", "3^200000000", "--max-steps", "10"],
                          capture_output=True, text=True, timeout=20)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert doc["error"]["message"].startswith("parse phase")
    assert f"more than {MAX_PARSE_COST} coefficient word" in doc["error"]["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("curve, target, steps", [
    # the normal form of y^9999999 modulo y^2 - x^3 - x takes millions of steps
    ("plane y^2 - x^3 - x", "y^9999999", "5000"),
    # the lowest-terms check divides x^9999999 by x + 1, a step per quotient term
    ("line minus x + 1", "x^9999999 / (x + 1)", "100"),
    # parsing: about 79,000 term pairs of about 48,000-bit coefficients
    ("line", "(3^30000*(x+1)^280)*(3^30000*(y+1)^280)", "10"),
])
def test_curve_reduction_bounded_exits_4(curve, target, steps):
    proc = subprocess.run(_BASE + ["decompose", "--curve", curve,
                                   "--target", target, "--max-steps", steps],
                          capture_output=True, text=True, timeout=20)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert "Traceback" not in proc.stderr


def test_element_denominator_parse_bounded_exits_4():
    # parsing 1 / x^1000000 divides the denominator by x a million times
    proc = subprocess.run(_BASE + ["decompose", "--curve", "line minus x",
                                   "--target", "1 / x^1000000", "--max-steps", "10"],
                          capture_output=True, text=True, timeout=20)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert "Traceback" not in proc.stderr


def test_repeated_root_check_of_long_denominator_finishes():
    # the squarefree check runs Euclid on f and f'; without monic remainders
    # the coefficients of this degree-120 f grow until it takes minutes
    rng = random.Random(1)
    f = " + ".join(f"{rng.randint(1, 9)} x^{i}" for i in range(121))
    proc = subprocess.run(_BASE + ["check", "--curve", f"line minus {f}", "--max-steps", "10"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and json.loads(proc.stdout)["curve"]["variant"] == "line_minus"


def test_repeated_root_euclid_is_bounded_exits_4():
    # a repeated root defeats the check modulo P, and Euclid over Q on this
    # f took 12.5 s; its divisions now spend the step budget
    rng = random.Random(1)
    f = " + ".join(f"{rng.randint(1, 9)} x^{i}" for i in range(299))
    start = time.perf_counter()
    proc = subprocess.run(_BASE + ["check", "--curve", f"line minus ({f}) (x - 1)^2",
                                   "--max-steps", "10"],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 2
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert "Traceback" not in proc.stderr


def _localize_exit(pairs: str):
    """(exit code, error code, seconds) of localize on line minus x with k = 120000."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["localize", "--curve", "line minus x", "--pairs", pairs,
                     "--k", "120000", "--max-steps", "10"])
    return code, json.loads(out.getvalue())["error"]["code"], time.perf_counter() - start


def test_localize_budgets_target_before_localizing():
    # the target x^119999 / x^240000 runs out of 10 steps
    code, error, _ = _localize_exit("x^120000, 1")
    assert (code, error) == (4, "step_budget_exceeded")


def test_localize_budgets_pairs_of_a_zero_target():
    # the bracket and the target are zero, so only the pairs' lowest-terms
    # reductions, x^120000 / x^120000, can spend the budget
    code, error, seconds = _localize_exit("x^120000, x^120000")
    assert (code, error) == (4, "step_budget_exceeded")
    assert seconds < 2


def test_sparse_denominator_exits_4_at_once():
    # a one-term f is divided out in one pass, charged one step per power of
    # x before the quotient is built
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["decompose", "--curve", "line minus x", "--target", "1 / x^9999999999999"])
    assert (code, json.loads(out.getvalue())["error"]["code"]) == (4, "step_budget_exceeded")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("target", ["9" * 5000, "x / " + "9" * 5000, "x^" + "9" * 5000],
                         ids=["coefficient", "denominator", "exponent"])
def test_overlong_literal_is_parse_error(target):
    code, doc, err = run_cli("decompose", "--curve", "line", "--target", target)
    assert code == 2 and doc["error"]["code"] == "parse_error"
    assert "longer than" in doc["error"]["message"]


def test_non_decimal_digit_is_parse_error():
    code, doc, err = run_cli("decompose", "--curve", "line", "--target", "x²")
    assert code == 2 and doc["error"]["code"] == "parse_error"
    assert doc["error"]["message"] == "unexpected character '²' in polynomial text"


def test_decompose_plane():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - x^3 - x",
                           "--target", "1")
    assert code == 0
    assert doc["length"] <= 2 and doc["verification"] is True
    assert doc["target"] == "1"
    assert all(len(pair) == 2 for pair in doc["decomposition"])


def test_decompose_line_and_space():
    code, doc, _ = run_cli("decompose", "--curve", "line", "--target", "x^2")
    assert code == 0 and doc["length"] == 1 and doc["verification"] is True
    code, doc, _ = run_cli("decompose", "--curve",
                           "space y - x^2; z - x^3 tau 1, 2x, 3x^2",
                           "--target", "x")
    assert code == 0 and doc["length"] == 1
    assert doc["decomposition"] == [["1", "1/2*x^2"]]


def test_decompose_localized_line():
    code, doc, _ = run_cli("decompose", "--curve", "line minus x",
                           "--target", "1 / x^2")
    assert code == 0 and doc["length"] == 1 and doc["verification"] is True
    assert doc["target"] == "(1) / (x)^2"


def test_decompose_trace():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - x^3 - x",
                           "--target", "x + 1", "--trace")
    assert code == 0
    assert doc["trace"]["method"] == "plane"
    assert "membership_cofactors" in doc["trace"]


def test_decompose_grlex():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - x^3 - x",
                           "--target", "x^2 + 1", "--order", "grlex")
    assert code == 0 and doc["verification"] is True


def test_decompose_output_feeds_verify():
    code, doc, _ = run_cli("decompose", "--curve", "plane y^2 - x^3 - x",
                           "--target", "x^3 + 2x + 1")
    assert code == 0
    pairs = "; ".join(f"{a}, {b}" for a, b in doc["decomposition"])
    code2, doc2, _ = run_cli("verify", "--curve", "plane y^2 - x^3 - x",
                             "--target", "x^3 + 2x + 1", "--pairs", pairs)
    assert code2 == 0 and doc2["verification"] is True


def test_verify_rejects_wrong_pairs():
    code, doc, err = run_cli("verify", "--curve", "line", "--target", "x",
                             "--pairs", "x, 1")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["error"]["code"] == "verification_failed"
    assert doc["verification"] is False


def test_verify_line_example():
    code, doc, _ = run_cli("verify", "--curve", "line", "--target", "x",
                           "--pairs", "-1/2x^2, 1")
    assert code == 0 and doc["verification"] is True


def test_localize_command():
    code, doc, _ = run_cli("localize", "--curve", "line minus x",
                           "--pairs", "-x, 1", "--k", "1")
    assert code == 0
    assert doc["k"] == 1 and doc["length"] == 1
    assert doc["decomposition"] == [["-1", "(1) / (x)"]]
    assert doc["verification"] is True
    assert doc["target"] == "(1) / (x)^2"


def test_localize_requires_localized_curve():
    code, doc, _ = run_cli("localize", "--curve", "line", "--pairs", "-x, 1",
                           "--k", "1")
    assert code == 3 and doc["error"]["code"] == "validation_error"


def test_localized_element_parse_error():
    code, doc, _ = run_cli("verify", "--curve", "line minus x", "--target",
                           "1 / (x + 1)", "--pairs", "1, 1")
    assert code == 2 and doc["error"]["code"] == "parse_error"


def test_json_output_deterministic():
    args = ("decompose", "--curve", "plane y^2 - x^5 - x", "--target", "x*y + 3")
    first = subprocess.run(_BASE + list(args), capture_output=True, text=True)
    second = subprocess.run(_BASE + list(args), capture_output=True, text=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["verification"] is True


def test_json_output_independent_of_hash_seed():
    cases = (("decompose", "--curve", "plane y^2 - x^5 - x", "--target", "x^3*y + x*y + 3"),
             ("decompose", "--curve", "space y^2 - x^3 - x; z tau 2y, 3x^2 + 1, 0",
              "--target", "x^2*y + z + 1"))
    for args in cases:
        outs = [subprocess.run(_BASE + list(args), capture_output=True, text=True,
                               env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "1")]
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["verification"] is True


def test_output_too_long_to_print_exits_4():
    # 3^40000 parses within the parse bounds, but its 19,085 digits exceed
    # the interpreter's int-to-text limit when the result is printed
    proc = subprocess.run(_BASE + ["decompose", "--curve", "line", "--target", "3^40000"],
                          capture_output=True, text=True, timeout=20)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 4 and doc["error"]["code"] == "step_budget_exceeded"
    assert doc["error"]["message"].startswith("output phase")
    assert str(sys.get_int_max_str_digits()) in doc["error"]["message"]
    assert "Traceback" not in proc.stderr


def test_long_coefficients_print_unchanged():
    code, doc, _ = run_cli("decompose", "--curve", "line", "--target", "3^1000")
    assert code == 0 and doc["verification"] is True
    assert doc["target"] == str(3**1000)
    assert doc["decomposition"] == [["1", f"{3**1000}*x"]]


def test_localize_large_k_finishes():
    # recombination starts from zero; adding zero must not raise f to the
    # exponent 2k of the other summand
    for curve, k in (("line minus x - 1", "100000"), ("line minus x^2 - 1", "1000000000")):
        proc = subprocess.run(_BASE + ["localize", "--curve", curve, "--pairs", "x, 1",
                                       "--k", k],
                              capture_output=True, text=True, timeout=20)
        doc = json.loads(proc.stdout)
        assert proc.returncode == 0 and doc["verification"] is True
        assert doc["target"] == f"(-1) / ({curve[len('line minus '):]})^{2 * int(k)}"


_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading: str, lang: str) -> str:
    """Body of the first ```lang block after a heading line of README.md."""
    text = _README.read_text()
    start = text.index(f"```{lang}\n", text.index(f"\n{heading}\n")) + len(lang) + 4
    return text[start:text.index("```", start)]


def test_readme_examples_run():
    lines = [line for line in _readme_block("## CLI", "sh").splitlines()
             if line.startswith("bracketdec ")]
    assert lines
    for line in lines:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(shlex.split(line)[1:])
        doc = json.loads(out.getvalue())
        assert code == 0, line
        if "verification" in doc:
            assert doc["verification"] is True, line
    with redirect_stdout(io.StringIO()):
        exec(_readme_block("## Library quickstart", "python"), {})


# -- property: every input ends in a JSON document and a documented exit code --

# raw characters, and token runs that parse more often than raw characters do
_TEXT = st.one_of(
    st.text(alphabet="0123456789xyz+-*/^(),; ", max_size=30),
    st.lists(st.sampled_from(["x", "y", "z", "1", "2", "3", "^2", "^3", "+", "-", "*",
                              "/", "(", ")", ",", ";", " "]),
             max_size=30).map("".join).filter(lambda t: len(t) <= 30),
)
_CURVE = st.one_of(
    _TEXT,
    # valid curves, so that targets and pairs get past curve parsing
    st.sampled_from(["line", "line minus x^2 - 1", "plane y^2 - x^3 - x",
                     "space y - x^2; z - x^3 tau 1, 2x, 3x^2"]),
    st.tuples(st.sampled_from(["line", "line minus ", "plane "]), _TEXT).map("".join),
    st.tuples(_TEXT, _TEXT).map(lambda t: f"space {t[0]} tau {t[1]}"),
)


def _cli_args(command, curve, target, pairs, k, max_steps):
    args = [command, f"--curve={curve}", f"--max-steps={max_steps}"]
    if command in ("decompose", "verify"):
        args.append(f"--target={target}")
    if command in ("localize", "verify"):
        args.append(f"--pairs={pairs}")
    if command == "localize":
        args.append(f"--k={k}")
    return args


@settings(max_examples=200, deadline=None, derandomize=True)
# argparse reads an option value of exactly "--" as an empty list
@example(command="check", curve="--", target="", pairs="", k=0, max_steps=0)
@example(command="verify", curve="line", target="--", pairs="--", k=0, max_steps=0)
@given(command=st.sampled_from(["check", "decompose", "localize", "verify"]),
       curve=_CURVE, target=_TEXT, pairs=_TEXT, k=st.integers(0, 3),
       max_steps=st.integers(0, 5000))
def test_cli_main_random_text(command, curve, target, pairs, k, max_steps):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(_cli_args(command, curve, target, pairs, k, max_steps))
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3, 4)
    assert doc["status"] in ("ok", "error") and doc["command"] == command
    assert (code == 0) == (doc["status"] == "ok")
