"""The package names that the benchmark harness in bench/ relies on still exist.

bench/tests is not part of the default test run, so a renamed or deleted
function would otherwise only show up when a traced benchmark run fails.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import bracketdec

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracing", _BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_bench_references_resolve():
    for _, modname, attr, _ in tracing.FUNCTIONS:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"
    for _, modname, clsname, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert attr in cls.__dict__, f"{clsname}.{attr}"
    names = set()
    for path in _BENCH.glob("*.py"):
        names.update(re.findall(r"\bbd\.(\w+)", path.read_text()))
    assert names, "bench/ no longer refers to bracketdec as bd"
    missing = sorted(n for n in names if not hasattr(bracketdec, n))
    assert not missing, f"bench/ uses names bracketdec lacks: {missing}"


def test_public_names_unique_and_resolve():
    # a stale __all__ entry would break `from bracketdec import *`
    assert len(bracketdec.__all__) == len(set(bracketdec.__all__))
    missing = sorted(n for n in bracketdec.__all__ if not hasattr(bracketdec, n))
    assert not missing, f"__all__ names bracketdec lacks: {missing}"
    namespace = {}
    exec("from bracketdec import *", namespace)
    assert set(bracketdec.__all__) <= set(namespace)
