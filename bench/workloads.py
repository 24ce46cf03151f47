"""The four benchmark workloads, generated from a seed.

Every workload is a single-process closed loop: op i is sent only after op
i - 1 has returned.  Inputs come from ``random.Random(f"<name>:<seed>")``,
so one seed gives the same inputs in every process, whatever the hash
seed.  Set-up (the constructor) generates and parses all inputs and builds
the workload's fixed curves; ``run(i)`` is the timed op; ``check(i, out)``
verifies its output outside the timed region.

Inputs repeat with period ``pool`` (``None``: never within a run), so an
output whose input was already checked is checked by exact comparison of
its canonical text with the first one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass

import bracketdec as bd
from bracketdec import cli
from tracing import coeff_bits

# The five hyperelliptic plane curves of the acceptance corpus.
HYPERELLIPTIC_H = ("x^3 + x", "x^3 - x + 1", "x^5 + x + 1", "x^5 - x", "x^7 + x + 1")
TWISTED_CUBIC = ("y - x^2", "z - x^3"), ("1", "2*x", "3*x^2")
EMBEDDED_H = ("x^3 + x", "x^5 + x + 1")
ROADMAP_CURVE = "x^6 + y^6 + 2*x^3*y + x + y + 1"


@dataclass
class Checked:
    """Verdict on one op's output, and the output's size."""

    ok: bool
    why: str = ""
    pairs: int = 0
    terms: int = 0
    bits: int = 0


# -- text generation -------------------------------------------------------------


def _signed(c: int, body: str = "", first: bool = False) -> str:
    mag = str(abs(c)) if not body else (body if abs(c) == 1 else f"{abs(c)}*{body}")
    if first:
        return ("-" if c < 0 else "") + mag
    return (" - " if c < 0 else " + ") + mag


def _mono(variables, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)


def poly_text(rng: random.Random, variables, degree: int, terms: int = 6) -> str:
    """Random integer polynomial with one term of exactly the given degree."""
    out = ""
    for t in range(terms):
        d = degree if t == 0 else rng.randint(0, degree)
        exps = [0] * len(variables)
        for _ in range(d):
            exps[rng.randrange(len(variables))] += 1
        c = rng.choice((-1, 1)) * rng.randint(1, 9)
        out += _signed(c, _mono(variables, exps), first=not out)
    return out


def _linear(var_text: str, root: int) -> str:
    return f"({var_text}{_signed(-root)})" if root else f"({var_text})"


def _roots(rng: random.Random, n: int) -> list:
    """n distinct roots of magnitudes 1..n with random signs.

    Root sizes set coefficient growth and with it the cost of an op, so
    they are the same for every seed; only the signs vary.
    """
    return [rng.choice((-1, 1)) * m for m in range(1, n + 1)]


def _product(rng: random.Random, n: int, var_text: str = "x") -> str:
    """Product of n distinct linear factors: a squarefree polynomial."""
    return "*".join(_linear(var_text, r) for r in _roots(rng, n))


def _measure(decomp) -> tuple:
    """(pairs, total terms, largest coefficient bit length) of a decomposition."""
    terms = bits = 0
    for pair in decomp.pairs:
        for field in pair:
            elem = field.coeff
            poly = elem.poly if isinstance(elem, bd.RingElem) else elem.numerator
            terms += len(poly.terms)
            bits = max(bits, coeff_bits(poly))
    return len(decomp.pairs), terms, bits


def _canon(decomp) -> str:
    return ";".join(f"[{u},{v}]" for u, v in decomp.pairs)


def _decomp_check(decomp, target, bound: int) -> Checked:
    if decomp.length > bound:
        return Checked(False, f"length {decomp.length} over bound {bound}")
    if bd.recombine(decomp).coeff != target:
        return Checked(False, "recombination differs from the target")
    return Checked(True, "", *_measure(decomp))


def _error_canon(out) -> str:
    return f"error:{type(out).__name__}"


class Workload:
    """A seeded set of inputs and the op run on each; see the module docstring."""

    name = ""
    pool = None
    digest_ops = 100  # ops whose outputs the run's digest covers

    def run(self, i: int):
        raise NotImplementedError

    def run_inprocess(self, i: int):
        """The op as run under the tracer; the same op unless overridden."""
        return self.run(i)

    def canonical(self, i: int, out) -> str:
        """Exact text of an output, for digests and for repeated inputs."""
        return _error_canon(out) if isinstance(out, Exception) else _canon(out)

    def check(self, i: int, out) -> Checked:
        raise NotImplementedError

    def child_rss_kib(self, out) -> int:
        """Peak memory of a child process the op ran; 0 for in-process ops."""
        return 0


class Checker:
    """Checks each output; a repeated input's output must equal the first exactly."""

    def __init__(self, w):
        self.w = w
        self.first: dict = {}
        self.canons: list = []
        self.failed = 0
        self.reasons: list = []
        self.pairs = self.terms = self.bits = 0
        self.rss_kib = 0
        self.calls = 0

    def __call__(self, i: int, out) -> None:
        w = self.w
        self.calls += 1
        canon = w.canonical(i, out)
        self.canons.append(canon)
        key = i % w.pool if w.pool else i
        if key in self.first:
            c0, verdict = self.first[key]
            if canon != c0:
                verdict = Checked(False, f"output differs from that of op {key}")
        else:
            verdict = w.check(i, out)
            self.first[key] = (canon, verdict)
        if not verdict.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {i}: {verdict.why}")
                if isinstance(out, Exception):
                    traceback.print_exception(out, file=sys.stderr)
        self.pairs += verdict.pairs
        self.terms += verdict.terms
        self.bits = max(self.bits, verdict.bits)
        if not isinstance(out, Exception):
            self.rss_kib = max(self.rss_kib, w.child_rss_kib(out))


# -- targets ---------------------------------------------------------------------


def fixed_curves() -> list:
    """The acceptance corpus: (curve, variables, bracket bound, decomposer name).

    Decomposers are looked up by name at call time, so a tracer that
    rebinds the package's functions sees the calls.
    """
    P = bd.parse_poly
    curves = []
    for h in HYPERELLIPTIC_H:
        curves.append((bd.make_plane_curve(P(f"y^2 - ({h})")), ("x", "y"), 2,
                       "two_bracket_plane"))
    gens, tau = TWISTED_CUBIC
    curves.append((bd.make_space_curve([P(g) for g in gens], [P(t) for t in tau]),
                   ("x", "y", "z"), 3, "three_bracket_space"))
    for h in EMBEDDED_H:
        eq = P(f"y^2 - ({h})")
        tau = [bd.partial_derivative(eq, "y"), -bd.partial_derivative(eq, "x"), bd.Poly.zero()]
        curves.append((bd.make_space_curve([eq, P("z")], tau), ("x", "y", "z"), 3,
                       "three_bracket_space"))
    return curves


class Targets(Workload):
    """Random targets of lift degree 4, 8 and 12 on the fixed acceptance curves."""

    name = "targets"
    DEGREES = (4, 8, 12)
    pool = 576

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.curves = fixed_curves()
        for curve, *_ in self.curves:
            curve.decomposition_basis()
        self.inputs = []
        for j in range(self.pool):
            k = j % len(self.curves)
            degree = self.DEGREES[(j // len(self.curves)) % len(self.DEGREES)]
            curve, variables, _, _ = self.curves[k]
            target = curve.zero()
            while target.is_zero():
                target = curve.reduce(bd.parse_poly(poly_text(rng, variables, degree)))
            self.inputs.append((k, target))

    def run(self, i):
        k, target = self.inputs[i % self.pool]
        curve, _, _, decomposer = self.curves[k]
        return getattr(bd, decomposer)(curve, target)

    def check(self, i, out):
        if isinstance(out, Exception):
            return Checked(False, f"unexpected {out!r}")
        k, target = self.inputs[i % self.pool]
        return _decomp_check(out, target, self.curves[k][2])


# -- curves ----------------------------------------------------------------------


def _curve_families():
    """Plane curve generators of degree 4 to 6 whose smoothness is known.

    Smooth ones are y^2 or y^3 minus a squarefree h(x), Fermat curves, and
    their images under the plane automorphisms x -> x + c y and
    y -> y + p(x), which preserve smoothness.  Singular ones have every
    term of degree at least two in (x - a, y - b), so (a, b) is singular.

    Degrees and shears, which set most of an op's cost, cycle with the
    stratum s; the seed picks signs and constants.  So every seed gives
    the same mix of costs, and runs with different seeds compare.
    """
    shears = (-2, -1, 1, 2)

    def hyper(rng, s):
        return f"y^2 - {_product(rng, 4 + s % 3)}", True

    def fermat_shear(rng, s):
        n, a = 4 + s % 3, shears[s % 4]
        return f"x^{n} + (y{_signed(a, 'x')})^{n} - {rng.randint(1, 5)}", True

    def hyper_shear(rng, s):
        shear = f"x{_signed(shears[s % 4], 'y')}"
        return f"y^2 - {_product(rng, 4 + s % 2, shear)}", True

    def node(rng, s):
        a, b = rng.choice((-2, 2)), rng.choice((-1, 1))
        return (f"{_linear('y', b)}^2 - {_linear('x', a)}^2*"
                f"{_product(rng, 2 + s % 3)}"), False

    def hyper_tri(rng, s):
        p, q = shears[s % 4], rng.randint(-3, 3)
        lift = f"y{_signed(p, 'x^2')}" + (_signed(q, "x") if q else "")
        return f"({lift})^2 - {_product(rng, 4 + s % 2)}", True

    def superelliptic(rng, s):
        return f"y^3 - {_product(rng, 4 + s % 2)}", True

    def cusp(rng, s):
        a, b = _linear("x", rng.choice((-2, 2))), _linear("y", rng.choice((-1, 1)))
        return (f"{b}^3 + {a}^2*{b} + {a}^{4 + s % 3}"
                f" + {rng.randint(1, 5)}*{a}^2"), False

    def fermat(rng, s):
        n = 4 + s % 3
        return f"x^{n} + y^{n} - {rng.randint(1, 5)}", True

    return (hyper, fermat_shear, hyper_shear, node, hyper_tri, superelliptic, cusp, fermat)


class Curves(Workload):
    """One distinct plane curve per op, parsed from text: certificates, basis, one target."""

    name = "curves"
    POOL = 800
    digest_ops = 24

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        families = _curve_families()
        self.inputs = []
        for j in range(self.POOL):
            if j == 0:
                text, smooth = ROADMAP_CURVE, True
            else:
                text, smooth = families[j % len(families)](rng, j // len(families))
            self.inputs.append((text, smooth, poly_text(rng, ("x", "y"), 4, terms=4)))

    def run(self, i):
        text, _, lift = self.inputs[i % self.POOL]
        curve = bd.make_plane_curve(bd.parse_poly(text))
        curve.decomposition_basis()
        target = curve.reduce(bd.parse_poly(lift))
        return curve, target, bd.two_bracket_plane(curve, target)

    def canonical(self, i, out):
        if isinstance(out, Exception):
            return _error_canon(out)
        curve, _, decomp = out
        cofactors = ",".join(str(c) for c in curve.smooth_cert.cofactors)
        return f"{cofactors}|{_canon(decomp)}"

    def check(self, i, out):
        text, smooth, _ = self.inputs[i % self.POOL]
        if not smooth:
            if isinstance(out, bd.NotSmooth):
                return Checked(True)
            return Checked(False, f"{text}: expected NotSmooth, got {out!r}")
        if isinstance(out, Exception):
            return Checked(False, f"{text}: unexpected {out!r}")
        curve, target, decomp = out
        cert = curve.smooth_cert
        equation = curve.equation
        if equation != bd.parse_poly(text):
            return Checked(False, f"{text}: curve built for another equation")
        jacobian = (equation, bd.partial_derivative(equation, "x"),
                    bd.partial_derivative(equation, "y"))
        total = bd.Poly.zero()
        for c, g in zip(cert.cofactors, jacobian):
            total = total + c * g
        if total != bd.Poly.one():
            return Checked(False, f"{text}: bad smoothness certificate")
        return _decomp_check(decomp, target, 2)


# -- rational --------------------------------------------------------------------


def _denominators(rng: random.Random) -> list:
    """Twelve denominators of degree 1 to 4, five of them with a repeated root."""
    a, b = (_linear("x", r) for r in _roots(rng, 2))
    c, d = rng.sample((2, 3), 2)
    return [_product(rng, 1), _product(rng, 2), _product(rng, 3), _product(rng, 4),
            f"x^2 + {c}", f"(x^2 + {c})*{a}", f"(x^2 + {c})*(x^2 + {d})",
            f"{a}^2", f"{a}^3", f"{a}^2*{b}", f"{a}^2*{b}^2", f"{a}*{b}*(x^2 + {d})"]


class Rational(Workload):
    """rational_decompose and localize_decomp on the line minus V(f).

    Even ops decompose n / f^m, odd ops localize a one-pair line
    decomposition by f^k.  The denominator, the degrees and the exponents
    cycle with the op's stratum t; the seed picks signs and coefficients.
    """

    name = "rational"
    pool = 1008

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.lines = [bd.LocalizedLine(bd.parse_poly(f)) for f in _denominators(rng)]
        affine = bd.AffineLine()
        self.inputs = []
        for j in range(self.pool):
            t = j // 2
            line = self.lines[t % len(self.lines)]
            if j % 2 == 0:
                num = bd.parse_poly(poly_text(rng, ("x",), t % 7, terms=5))
                self.inputs.append((line, line.elem(num, t % 9)))
            else:
                u, v = (affine.reduce(bd.parse_poly(poly_text(rng, ("x",), d, terms=3)))
                        for d in (t % 5, (t + 2) % 5))
                decomp = bd.BracketDecomp(affine, ((bd.VField(u), bd.VField(v)),))
                self.inputs.append((line, (decomp, 1 + t % 4)))

    def run(self, i):
        line, item = self.inputs[i % self.pool]
        if i % 2 == 0:
            return bd.rational_decompose(line.denominator, item)
        decomp, k = item
        return bd.localize_decomp(decomp, line.denominator, k)

    def check(self, i, out):
        if isinstance(out, Exception):
            return Checked(False, f"unexpected {out!r}")
        line, item = self.inputs[i % self.pool]
        if out.curve != line:
            return Checked(False, "output lives on another curve")
        if i % 2 == 0:
            return _decomp_check(out, item, 1)
        decomp, k = item
        target = line.elem(bd.recombine(decomp).coeff.poly, 2 * k)
        return _decomp_check(out, target, decomp.length)


# -- cli -------------------------------------------------------------------------

CLI_CURVES = {
    "line": ("line", 1),
    "minus": ("line minus x^2 - 1", 1),
    "minus_repeated": ("line minus (x - 1)^2*(x + 2)", 1),
    "plane": ("plane y^2 - x^3 - x", 2),
    "plane5": ("plane y^2 - x^5 + x", 2),
    "space": ("space y - x^2; z - x^3 tau 1, 2x, 3x^2", 3),
}
SINGULAR_CURVES = ("plane y^2 - x^3", "plane y^2 - x^2 - x^3")


@dataclass
class CliCase:
    """One CLI invocation and the outcome it must have."""

    command: str
    curve: str  # a key of CLI_CURVES, or the text of a singular curve
    exit_code: int
    target: str | None = None
    pairs: str | None = None
    k: int | None = None
    verification: bool | None = None
    error: str = ""

    @property
    def argv(self) -> list:
        # --opt=value, since a value may start with a minus sign
        text = CLI_CURVES[self.curve][0] if self.curve in CLI_CURVES else self.curve
        argv = [self.command, f"--curve={text}"]
        for opt in ("target", "pairs", "k"):
            if getattr(self, opt) is not None:
                argv.append(f"--{opt}={getattr(self, opt)}")
        return argv


def _pairs_text(decomp) -> str:
    return "; ".join(f"{u}, {v}" for u, v in decomp.pairs)


class Cli(Workload):
    """One `python -m bracketdec.cli` process per op, on small inputs."""

    name = "cli"
    pool = 128
    digest_ops = 12

    def __init__(self, seed: int, root):
        rng = random.Random(f"{self.name}:{seed}")
        paths = (str(root / "src"), os.environ.get("PYTHONPATH"))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.root = root
        self.curves = {key: bd.parse_curve(text) for key, (text, _) in CLI_CURVES.items()}
        self.cases = [self._case(j, rng) for j in range(self.pool)]

    def _case(self, j: int, rng: random.Random) -> CliCase:
        """Case j: check, singular check, decompose (twice), verify, wrong verify, localize."""
        kind = j % 8

        def small(variables):
            return poly_text(rng, variables, 1 + (j // 8) % 3, terms=3)

        keys = sorted(CLI_CURVES)
        s = j // 8
        if kind == 0:
            return CliCase("check", keys[s % len(keys)], 0)
        if kind == 1:
            return CliCase("check", SINGULAR_CURVES[s % 2], 3, error="not_smooth")
        if kind in (2, 3, 7):
            key = keys[(3 * s + kind) % len(keys)]
            variables = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}[CLI_CURVES[key][1]]
            target = small(variables)
            if key.startswith("minus"):
                f = self.curves[key].denominator
                target = f"({target}) / ({f})^{rng.randint(1, 3)}"
            return CliCase("decompose", key, 0, target=target, verification=True)
        if kind in (4, 5):
            key = ("line", "plane")[s % 2]
            curve = self.curves[key]
            target = curve.reduce(bd.parse_poly(small(("x",) if key == "line" else ("x", "y"))))
            decomp = (bd.single_bracket_line(target) if key == "line"
                      else bd.two_bracket_plane(curve, target))
            good = kind == 4
            claimed = target if good else target + curve.one()
            return CliCase("verify", key, 0 if good else 1, target=str(claimed),
                           pairs=_pairs_text(decomp), verification=good)
        pairs = "; ".join(f"{small(('x',))}, {small(('x',))}" for _ in range(rng.randint(1, 2)))
        return CliCase("localize", ("minus", "minus_repeated")[s % 2], 0, pairs=pairs,
                       k=rng.randint(1, 3), verification=True)

    def run(self, i):
        """Run the CLI as a child process; returns (exit code, stdout, stderr, maxrss KiB)."""
        case = self.cases[i % self.pool]
        proc = subprocess.Popen([sys.executable, "-m", "bracketdec.cli", *case.argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.root)
        # outputs are far below a pipe buffer, so reading one pipe after the
        # other cannot block; wait4 reaps the child and reports its memory
        with proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss

    def child_rss_kib(self, out):
        return out[3]

    def run_inprocess(self, i):
        case = self.cases[i % self.pool]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.argv)
        return code, out.getvalue(), err.getvalue(), 0

    def canonical(self, i, out):
        return _error_canon(out) if isinstance(out, Exception) else f"{out[0]}|{out[1]}"

    def check(self, i, out):
        case = self.cases[i % self.pool]
        if isinstance(out, Exception):
            return Checked(False, f"unexpected {out!r}")
        code, stdout, stderr, _ = out
        if code != case.exit_code:
            return Checked(False, f"{case.argv}: exit {code}, expected {case.exit_code}: "
                                  f"{stderr.strip()[-300:]}")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return Checked(False, f"{case.argv}: output is not JSON")
        if case.error:
            ok = doc.get("error", {}).get("code") == case.error
            return Checked(ok, "" if ok else f"{case.argv}: wrong error in {doc}")
        if case.verification is not None and doc.get("verification") is not case.verification:
            return Checked(False, f"{case.argv}: verification {doc.get('verification')}")
        if case.command in ("check", "verify"):
            return Checked(True)
        # recombine the printed pairs independently of the CLI's own check
        curve = self.curves[case.curve]
        result = bd.BracketDecomp(curve, _parse_pairs(curve, doc["decomposition"]))
        if case.command == "decompose":
            return _decomp_check(result, curve.parse_element(case.target),
                                 CLI_CURVES[case.curve][1])
        line = bd.AffineLine()
        given = bd.BracketDecomp(line, _parse_pairs(
            line, (p.split(",") for p in case.pairs.split(";"))))
        target = curve.elem(bd.recombine(given).coeff.poly, 2 * case.k)
        return _decomp_check(result, target, given.length)


def _parse_pairs(curve, pairs) -> tuple:
    return tuple((bd.VField(curve.parse_element(a)), bd.VField(curve.parse_element(b)))
                 for a, b in pairs)


WORKLOADS = {"targets": Targets, "curves": Curves, "rational": Rational, "cli": Cli}


def make(name: str, seed: int, root):
    cls = WORKLOADS[name]
    return cls(seed, root) if cls is Cli else cls(seed)
