"""How Poly stores its terms and coefficients is known to poly.py alone,
and so is every charge to a step budget, which one class counts and raises.

The other modules build and read polynomials through poly's public names,
its one scalar rule and its division and product entry points, so a change
of the storage format touches poly.py only, and they hand a StepBudget to
those entry points without spending it.  These checks read the package
sources with ast.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bracketdec"

# the helpers that take or give integer numerators over a common denominator
_FORMAT_HELPERS = {"_products", "_poly_over", "_division_heads", "_divide"}


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_only_poly_and_decompose_import_fractions():
    importers = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"):
                importers.add(name)
    assert "poly.py" in importers <= {"poly.py", "decompose.py"}


@pytest.mark.parametrize("name", sorted(set(_trees()) - {"poly.py"}))
def test_no_other_module_reaches_into_the_format(name):
    for node in ast.walk(_trees()[name]):
        if isinstance(node, ast.ImportFrom):
            assert not {a.name for a in node.names} & _FORMAT_HELPERS, ast.unparse(node)
        elif isinstance(node, ast.Attribute):
            # Poly._raw wraps terms unchecked; module attributes reach the helpers
            assert node.attr not in _FORMAT_HELPERS | {"_raw"}, ast.unparse(node)


@pytest.mark.parametrize("name", sorted(set(_trees()) - {"poly.py"}))
def test_no_other_module_reads_terms_or_spends_steps(name):
    for node in ast.walk(_trees()[name]):
        if isinstance(node, ast.Attribute):
            assert node.attr not in {"terms", "spend", "remaining"}, ast.unparse(node)


def _budget_raise_sites(tree) -> set:
    """Qualified names of the functions that raise StepBudgetExceeded."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "StepBudgetExceeded":
                    sites.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return sites


@pytest.mark.parametrize("name", sorted(_trees()))
def test_no_floating_point(name):
    # README: there is no floating point anywhere.  From math only the
    # unbounded sentinel inf and the exact lcm and gcd are taken
    for node in ast.walk(_trees()[name]):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), ast.unparse(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert "math" not in {a.name for a in node.names}, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            assert {a.name for a in node.names} <= {"inf", "lcm", "gcd"}, ast.unparse(node)


def test_one_class_counts_every_bound():
    # every counted bound, the parser's included, is a StepBudget; the
    # output guard counts nothing, it reports the interpreter's digit limit
    sites = {(name, site) for name, tree in _trees().items()
             for site in _budget_raise_sites(tree)}
    assert sites == {("poly.py", "StepBudget.spend"), ("poly.py", "format_number")}
