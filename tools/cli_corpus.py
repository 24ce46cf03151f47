"""Record what the CLI prints on a fixed corpus of argument lists.

    python3 tools/cli_corpus.py --src src --out corpus.jsonl

Imports ``bracketdec`` from ``--src`` and calls ``cli.main`` in-process on
each case, writing one JSON line per case: argv, exit code, stdout, stderr
and the warnings raised (category and message; a printed warning would name
the source path, which differs between trees).  An argparse exit is
recorded as its exit code, not raised.  Run it on two trees, say the
``src/`` of a ``git archive`` of the parent and the working tree, and
``cmp`` the two files to check that a change kept the CLI's output.

The cases, in order:
- the ``bracketdec`` lines of the README's CLI block;
- the ``cli`` benchmark workload cases of seeds 1 and 3 (``bench/workloads.py``,
  imported read-only);
- one or more inputs per error code and exit code, over-long integer
  literals among them, then cases for one-term powers, signs, rational
  cancellation, one-term localization denominators, and each path of the localized line's
  lowest-terms reduction at its smallest budget;
- every ``decompose`` and ``localize`` case of the lists above again with
  ``--trace``;
- 400 argument lists drawn from ``random.Random(13)``.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each commented with what it exercises; together they reach exit codes 0-4
# and every JSON error code the CLI can print
ERROR_CASES = [
    ["check", "--curve", "plane y^2 - x^3"],                         # not_smooth
    ["check", "--curve", "line minus y"],                            # bad_variables
    ["decompose", "--curve", "line", "--target", "x*y"],             # bad_variables
    ["decompose", "--curve", "line minus x", "--target", "y / x"],   # bad_variables
    ["check", "--curve", "plane y^2 - z"],                           # bad_variables
    ["decompose", "--curve", "plane y^2 - x^3 - x", "--target", "z"],  # bad_variables
    ["check", "--curve", "space y - x^2; z - x^3 tau 1, 0, 0"],      # does_not_preserve_ideal
    ["check", "--curve", "space y; z tau x, 0, 0"],                  # unit_certificate_absent
    ["check", "--curve", "space y - x^2; z - x^3 tau 0, 0, 0"],      # zero_tau
    ["check", "--curve", "line minus 3"],                            # validation_error
    ["localize", "--curve", "line", "--pairs", "x, 1", "--k", "1"],  # validation_error
    ["decompose", "--curve", "line", "--target", "x^"],              # parse_error
    ["decompose", "--curve", "line", "--target", "x²"],              # non-decimal digit
    # literals past the interpreter's 4,300-digit limit for int(): parse_error
    ["decompose", "--curve", "line", "--target", "9" * 5000 + " x"],  # coefficient
    ["decompose", "--curve", "line", "--target", "x + 1/" + "9" * 5000],  # denominator
    ["decompose", "--curve", "line", "--target", "x^" + "9" * 5000],  # exponent
    ["decompose", "--curve", "line minus x", "--target", "1 / y"],   # parse_error
    ["decompose", "--curve", "line minus x", "--target", "x / 2x"],  # a number after '/'
    ["decompose", "--curve", "line minus x + 1", "--target", "(x+1) / 2(x+1)^2"],
    ["verify", "--curve", "line", "--target", "x", "--pairs", "x"],  # parse_error
    ["decompose", "--curve", "banana", "--target", "x"],             # parse_error
    ["check", "--curve", "plane y^2 - x^3 - x", "--max-steps", "1"],  # step_budget_exceeded
    ["decompose", "--curve", "line", "--target", "(x+1)^3000"],      # parse bound
    ["decompose", "--curve", "line", "--target",                    # a gcd per output term
     "(2/3)^30000*(" + " + ".join(f"{i + 2} x^{i}" for i in range(1000)) + ")"],
    # one-term powers other than of a +-1 monomial, squared through the kernel
    *(["decompose", "--curve", "line", "--target", target]
      for target in ("3^200000000", "(2/3 x)^1000000", "(18446744073709551616/3)^65000",
                     "(2/3)^30000 x", "(2/3 x)^7")),
    ["decompose", "--curve", "line", "--target", "x", "--max-steps", "-5"],  # invalid_input
    ["check", "--curve", "plane y^2 - x^3 - x", "--max-steps", "-5"],
    ["decompose", "--curve", "line minus x", "--target", "1 / x^1000", "--max-steps", "10"],
    ["localize", "--curve", "line minus x", "--pairs", "x^30, 1", "--k", "30",
     "--max-steps", "10"],                                          # step_budget_exceeded
    ["localize", "--curve", "line minus x", "--pairs", "x^120000, x^120000", "--k", "120000",
     "--max-steps", "10"],                                          # zero target, costly pairs
    ["localize", "--curve", "line minus x", "--pairs", "x, 1", "--k", "-1"],  # invalid_input
    ["check", "--curve", "--"],                                      # invalid_input
    ["verify", "--curve", "line", "--target", "x", "--pairs", "1, x"],  # verification_failed
    ["verify", "--curve", "plane y^2 - x^3 - x", "--target", "1", "--pairs", "x, y"],
    ["check", "--curve", "line minus (x - 1)^2"],                    # repeated-root warning
    ["decompose", "--curve", "line minus x^2 - 1", "--target", "x / (x^2 - 1)^3",
     "--order", "grlex"],
    ["decompose", "--curve", "space y - x^2; z - x^3 tau 1, 2x, 3x^2", "--target", "x z"],
    ["decompose", "--curve", "plane y^2 - x^5 + x", "--target", "0"],
    ["frobnicate"],                                                  # argparse exit 2
    ["decompose", "--curve", "line"],                                # argparse exit 2
    ["localize", "--curve", "line minus x", "--pairs", "x, 1", "--k", "one"],
    # the trial divisions by f, rejected modulo P = 2^61 - 1 or run exactly
    ["decompose", "--curve", "line minus 2x^2 + 3", "--target", "(x^3 + 1/2) / (2x^2 + 3)^3"],
    ["localize", "--curve", "line minus x^2 + 1", "--pairs", "x^40 + 1, x^3", "--k", "2",
     "--max-steps", "10"],                                          # sparse pair
    ["decompose", "--curve", "line minus x - 1/2305843009213693951",  # P divides a denominator
     "--target", "(x^2 + 1) / (x - 1/2305843009213693951)^2"],
    ["decompose", "--curve", "line minus 2305843009213693951 x^2 - 1",  # P divides lc(f)
     "--target", "x / (2305843009213693951 x^2 - 1)^2"],
    ["check", "--curve", "line minus " + " + ".join(                # dense degree 120
        f"{rng.randint(1, 9)} x^{i}" for rng in [random.Random(1)] for i in range(121))],
    ["check", "--curve", "line minus (" + " + ".join(              # a repeated root: Euclid
        f"{rng.randint(1, 9)} x^{i}" for rng in [random.Random(1)] for i in range(299))
     + ") (x - 1)^2", "--max-steps", "10"],                         # over Q spends the budget
    # a one-term f, divided out in one pass
    ["decompose", "--curve", "line minus x", "--target", "1 / x^9999999999999"],  # budget
    ["decompose", "--curve", "line minus 2x", "--target", "1 / x^50"],
    # Fractions in the division loop: a basis with a Fraction tail, and a
    # non-monic f through the trial divisions and the repeated-root gcd
    # (all_cases runs each decompose again with --trace)
    ["decompose", "--curve", "plane 2y^2 - x^3 - x", "--target", "x*y + 1/3"],
    ["decompose", "--curve", "plane 2y^2 - x^3 - x", "--target", "x*y + 1/3",
     "--order", "grlex"],
    ["check", "--curve", "line minus 3x^2 - 1"],
    ["decompose", "--curve", "line minus 3x^2 - 1", "--target", "x / (3x^2 - 1)^2"],
    # signs through the one signed sum: unary signs, a sign after a binary
    # one, negated groups, and a long flat sum whose repeated monomials merge
    # and cancel, led by a minus
    ["decompose", "--curve", "line", "--target=--x"],
    ["decompose", "--curve", "plane y^2 - x^3 - x", "--target", "x - -y"],
    ["decompose", "--curve", "plane y^2 - x^3 - x", "--target", "-(x - y) - (y - x)"],
    ["decompose", "--curve", "plane y^2 - x^3 - x", "--target", "-(x - y) - (y - 2x)"],
    ["decompose", "--curve", "line", "--target", " ".join(
        f"{'-+'[i % 2]} {(7 * i) % 13 + 1} x^{i % 39}" for i in range(2000))],
    ["decompose", "--curve", "line", "--target", "1/3 x - 1/3 x + 1/2"],  # cancellation
    ["verify", "--curve", "line", "--target", "1/3 x - 1/3 x + 1/2",
     "--pairs", "1, 1/2 x - 1/3 x + 1/3 x"],
    # a one-term f with a coefficient, divided out in one pass
    ["decompose", "--curve", "line minus 2x^3", "--target", "1 / x^6"],
    ["decompose", "--curve", "line minus 2x^3", "--target", "(x + 1) / (4x^6)"],
    ["localize", "--curve", "line minus 2/3 x^2", "--pairs", "x^5, 3x", "--k", "2"],
    # a sign before any factor
    ["decompose", "--curve", "plane y^2 - x^3 - x", "--target", "x * -y"],
    ["decompose", "--curve", "line", "--target", "x*-1/2"],
    ["decompose", "--curve", "line", "--target", "-x^2"],
    ["decompose", "--curve", "line", "--target", "(-x)^2"],
    ["decompose", "--curve", "line", "--target", "2 -x"],
    ["decompose", "--curve", "line", "--target", "-" * 1000 + "x"],
]

# each path of the localized line's lowest-terms reduction, with the smallest
# --max-steps that succeeds: a one-term f, the degree check, the reject modulo
# P, an exact trial (p is sparse), and the exact trials that read an element's
# denominator.  Each runs at that budget and at one below it.
_BUDGET_EDGES = [
    (["decompose", "--curve", "line minus x", "--target", "(x^5 + 3) / x^3"], 4),
    (["decompose", "--curve", "line minus x^3 + 1", "--target", "x^2 / (x^3 + 1)"], 4),
    (["decompose", "--curve", "line minus x^2 + 1", "--target", "(x^3 + 2) / (x^2 + 1)^3"], 9),
    (["decompose", "--curve", "line minus x + 1", "--target", "(x^30 + 2) / (x + 1)"], 37),
    (["decompose", "--curve", "line minus x^2 + 1", "--target", "1 / (x^2 + 1)^5"], 15),
]
ERROR_CASES += [argv + ["--max-steps", str(n)]
                for argv, steps in _BUDGET_EDGES for n in (steps, steps - 1)]

_CURVES = ["line", "line minus x^2 - 1", "line minus (x - 1)^2*(x + 2)", "line minus x",
           "plane y^2 - x^3 - x", "plane y^2 - x^5 + x", "plane y^2 - x^3",
           "space y - x^2; z - x^3 tau 1, 2x, 3x^2"]
_ATOMS = ["x", "y", "z", "1", "2", "3", "1/2", "^2", "^3", "+", "-", "*", "/", "(", ")",
          ",", ";", " ", "²", "·", "−", "--"]


def readme_cases() -> list:
    text = (ROOT / "README.md").read_text()
    start = text.index("```sh\n", text.index("\n## CLI\n")) + len("```sh\n")
    block = text[start:text.index("```", start)]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("bracketdec ")]


def workload_cases() -> list:
    sys.path.insert(1, str(ROOT / "bench"))
    from workloads import Cli

    with warnings.catch_warnings():
        # the workload's set-up parses a repeated-root curve
        warnings.simplefilter("ignore")
        return [case.argv for seed in (1, 3) for case in Cli(seed, ROOT).cases]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_ATOMS) for _ in range(rng.randint(0, 12)))


def random_cases(count: int = 400, seed: int = 13) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        command = rng.choice(["check", "decompose", "localize", "verify"])
        curve = rng.choice(_CURVES) if rng.random() < 0.7 else rng.choice(
            ["line minus ", "plane ", "space "]) + _text(rng)
        argv = [command, f"--curve={curve}"]
        if command in ("decompose", "verify"):
            argv.append(f"--target={_text(rng)}")
        if command in ("localize", "verify"):
            argv.append(f"--pairs={_text(rng)}, {_text(rng)}")
        if command == "localize":
            argv.append(f"--k={rng.randint(-1, 3)}")
        if rng.random() < 0.5:
            argv.append(f"--max-steps={rng.choice([0, 1, 5, 50, 5000])}")
        if rng.random() < 0.3:
            argv.append("--order=grlex")
        if rng.random() < 0.3:
            argv.append("--trace")
        out.append(argv)
    return out


def all_cases() -> list:
    listed = readme_cases() + workload_cases() + ERROR_CASES
    traced = [argv + ["--trace"] for argv in listed if argv[0] in ("decompose", "localize")]
    return listed + traced + random_cases()


def run_case(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path,
                    help="directory that holds the bracketdec package")
    ap.add_argument("--out", required=True, type=Path, help="JSON-lines file to write")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from bracketdec.cli import main as cli_main

    cases = all_cases()
    with args.out.open("w") as fh:
        for case in cases:
            fh.write(json.dumps(run_case(cli_main, case)) + "\n")
    print(f"{len(cases)} cases written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
