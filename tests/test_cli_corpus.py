import importlib.util
import json
from pathlib import Path

from bracketdec import cli, errors

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", _PATH)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


def test_argparse_exit_is_recorded():
    row = cli_corpus.run_case(cli.main, ["frobnicate"])
    assert row["exit"] == 2 and row["stdout"] == ""
    assert row["stderr"].startswith("usage: bracketdec")


def test_corpus_covers_every_exit_and_error_code():
    cases = cli_corpus.all_cases()
    exits, codes = set(), set()
    for argv in cases:
        row = cli_corpus.run_case(cli.main, argv)
        exits.add(row["exit"])
        if row["stdout"]:
            codes.add(json.loads(row["stdout"]).get("error", {}).get("code"))
    assert exits == {0, 1, 2, 3, 4}
    # curve_mismatch and certificate_failure cannot be reached from the CLI:
    # it builds the curve of every decomposition it asks for
    declared = {cls.code for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.BracketDecError)}
    reachable = declared - {"curve_mismatch", "certificate_failure"}
    assert codes >= reachable | {"invalid_input", "verification_failed", None}


def test_budget_edges_are_the_smallest_budgets():
    # each path of the lowest-terms reduction, and a plane run whose calls
    # each fit in far less, succeeds at its listed budget for the whole run
    # and runs out one step below it
    for argv, steps in cli_corpus._BUDGET_EDGES:
        exits = [cli_corpus.run_case(cli.main, argv + ["--max-steps", str(n)])["exit"]
                 for n in (steps, steps - 1)]
        assert exits == [0, 4], argv
