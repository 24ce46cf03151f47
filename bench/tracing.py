"""Span tracing of bracketdec's layers, installed from outside the package.

The tracer wraps public functions and methods of the six modules (poly,
groebner, curve, liealg, decompose, cli) by rebinding every name that
refers to them in the bracketdec namespaces, so calls between modules go
through the wrappers without any change to the package.  Each wrapped call
records a span (name, start, end, parent, op id); hooks that run when a
call returns record counts at the same boundary.  A layer's self time is
its span duration minus the part of it covered by child spans.

Counting work in a hook takes time; that time is recorded as a
``bench.count`` child span, so it is subtracted from the enclosing layer's
self time instead of being charged to it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

COUNT_SPAN = "bench.count"

# span record fields
NAME, START, END, PARENT, OP = range(5)


def self_times(spans) -> list:
    """Self time of every span: duration minus the union of its children.

    ``spans`` is a list of [name, start, end, parent, op] records where
    parent is the index of the enclosing span or -1.  Child intervals are
    clipped to their parent and merged, so overlapping children are not
    subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.scratch: dict = defaultdict(Counter)
        self.stack: list = []
        self.op = -1
        self.enabled = True

    def parent_name(self, idx: int):
        parent = self.spans[idx][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def note_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, name: str, fn, on_return=None):
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op]
            spans.append(record)
            stack.append(idx)
            self.counts[name + ".calls"] += 1
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_return is not None:
                count = [COUNT_SPAN, clock(), 0.0, parent, self.op]
                on_return(self, idx, args, result)
                count[END] = clock()
                spans.append(count)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def layer_totals(self, op_scale=None) -> tuple:
        """(self seconds by span name, call count by span name).

        `op_scale[op]`, when given, multiplies the self time of that op's
        spans, to put them at the gauge's reference speed.
        """
        selfs = self_times(self.spans)
        total: Counter = Counter()
        for s, t in zip(self.spans, selfs):
            total[s[NAME]] += t * (op_scale[s[OP]] if op_scale else 1.0)
        return total, self.counts


# -- counting hooks ------------------------------------------------------------


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among a Poly's coefficients."""
    best = 0
    for _, c in poly.terms:
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _on_divide(tr: Tracer, idx, args, result):
    quotients, rem = result
    # every division step adds one quotient term or one remainder term,
    # and neither set can repeat a monomial, so the steps are countable
    steps = sum(len(q.terms) for q in quotients) + len(rem.terms)
    tr.counts["poly.divide.steps"] += steps
    tr.note_max("poly.divide.dividend_terms_max", len(args[0].terms))
    tr.note_max("poly.divide.coeff_bits_max", max(coeff_bits(args[0]), coeff_bits(rem)))
    if tr.parent_name(idx) == "groebner.buchberger":
        scratch = tr.scratch[tr.spans[idx][PARENT]]
        scratch["divides"] += 1
        scratch["steps"] += steps
        scratch["to_zero"] += rem.is_zero()


def _on_buchberger(tr: Tracer, idx, args, gb):
    scratch = tr.scratch.pop(idx, Counter())
    # the final inter-reduction divides each basis element by the others
    # once, and never to zero; every other division reduced an S-pair
    final = len(gb.basis) if len(gb.basis) > 1 else 0
    reduced = scratch["divides"] - final
    useful = reduced - scratch["to_zero"]
    tr.counts["groebner.buchberger.steps"] += scratch["steps"]
    tr.counts["groebner.buchberger.spairs_reduced"] += reduced
    tr.counts["groebner.buchberger.spairs_to_zero"] += scratch["to_zero"]
    nonzero_gens = sum(1 for g in gb.generators if not g.is_zero())
    tr.note_max("groebner.buchberger.basis_len_max", nonzero_gens + useful)


def _on_recombine(tr: Tracer, idx, args, result):
    if tr.parent_name(idx) == "cli.main":
        tr.counts["cli.recombine_under_main"] += 1


# -- installation ---------------------------------------------------------------

# (span name, module, attribute, hook) for module-level functions
FUNCTIONS = (
    ("poly.parse", "bracketdec.poly", "parse_poly", None),
    ("poly.divide", "bracketdec.poly", "divide_multivariate", _on_divide),
    ("groebner.buchberger", "bracketdec.groebner", "buchberger", _on_buchberger),
    ("groebner.normal_form", "bracketdec.groebner", "normal_form", None),
    ("groebner.certificate", "bracketdec.groebner", "certificate_from_basis", None),
    ("liealg.bracket", "bracketdec.liealg", "bracket", None),
    ("liealg.apply_tau", "bracketdec.liealg", "apply_tau", None),
    ("liealg.recombine", "bracketdec.liealg", "recombine", _on_recombine),
    ("decompose.single_bracket_line", "bracketdec.decompose", "single_bracket_line", None),
    ("decompose.two_bracket_plane", "bracketdec.decompose", "two_bracket_plane", None),
    ("decompose.three_bracket_space", "bracketdec.decompose", "three_bracket_space", None),
    ("decompose.rational_decompose", "bracketdec.decompose", "rational_decompose", None),
    ("decompose.localize_decomp", "bracketdec.decompose", "localize_decomp", None),
    ("decompose.solve_rgh", "bracketdec.decompose", "solve_rgh", None),
    ("cli.main", "bracketdec.cli", "main", None),
)

DECOMPOSERS = ("single_bracket_line", "two_bracket_plane", "three_bracket_space",
               "rational_decompose", "localize_decomp")

# (span name, module, class, method) for methods
METHODS = (
    ("groebner.basis_check", "bracketdec.groebner", "GroebnerBasis", "__post_init__"),
    ("groebner.cert_check", "bracketdec.groebner", "MembershipCertificate", "__post_init__"),
    ("curve.construct", "bracketdec.curve", "PlaneCurve", "__init__"),
    ("curve.construct", "bracketdec.curve", "SpaceCurve", "__init__"),
    ("curve.decomposition_basis", "bracketdec.curve", "PlaneCurve", "decomposition_basis"),
    ("curve.decomposition_basis", "bracketdec.curve", "SpaceCurve", "decomposition_basis"),
    ("curve.reduce", "bracketdec.curve", "AffineLine", "reduce"),
    ("curve.reduce", "bracketdec.curve", "LocalizedLine", "reduce"),
    ("curve.reduce", "bracketdec.curve", "PlaneCurve", "reduce"),
    ("curve.reduce", "bracketdec.curve", "SpaceCurve", "reduce"),
    ("curve.localized_elem", "bracketdec.curve", "LocalizedElem", "__init__"),
    ("curve.localized_line", "bracketdec.curve", "LocalizedLine", "__init__"),
)


class Installed:
    """Context manager that wraps the layers with a tracer and undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bracketdec" or name.startswith("bracketdec."))]
        for span, modname, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.tracer.wrap(span, original, hook)
            # rebind every module-level alias, since modules import by name
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self.undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for span, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self.undo.append((cls, attr, original))
            setattr(cls, attr, self.tracer.wrap(span, original))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()
        return False


def layer_metrics(tracer: Tracer, ops: int, pairs: int, warnings: int, op_scale=None) -> dict:
    """Per-layer metrics of a traced phase, per op where the unit says so."""
    selfs, counts = tracer.layer_totals(op_scale)
    ops = max(ops, 1)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("liealg.bracket", "liealg.recombine", "groebner.normal_form",
                 "groebner.certificate", "groebner.buchberger", "poly.divide",
                 "curve.construct", "curve.reduce"):
        m[name + ".calls"] = (per_op(counts[name + ".calls"]), "1/op")
    for name in ("liealg.bracket", "liealg.apply_tau", "liealg.recombine",
                 "groebner.normal_form", "groebner.certificate",
                 "groebner.buchberger", "groebner.basis_check", "groebner.cert_check",
                 "poly.divide", "poly.parse", "curve.construct",
                 "curve.decomposition_basis", "curve.reduce", "curve.localized_elem",
                 "decompose.solve_rgh", "cli.main"):
        m[name + ".self_s"] = (per_op(selfs[name]), "s/op")
    m["liealg.bracket.calls_per_pair"] = (
        ratio(counts["liealg.bracket.calls"], pairs), "ratio")
    for key in ("groebner.buchberger.steps", "groebner.buchberger.spairs_reduced",
                "groebner.buchberger.spairs_to_zero", "poly.divide.steps"):
        m[key] = (per_op(counts[key]), "1/op")
    reduced = counts["groebner.buchberger.spairs_reduced"]
    m["groebner.buchberger.spair_useful_ratio"] = (
        ratio(reduced - counts["groebner.buchberger.spairs_to_zero"], reduced), "ratio")
    m["groebner.buchberger.basis_len_max"] = (
        tracer.maxima.get("groebner.buchberger.basis_len_max", 0), "polys")
    m["poly.divide.dividend_terms_max"] = (
        tracer.maxima.get("poly.divide.dividend_terms_max", 0), "terms")
    m["poly.divide.coeff_bits_max"] = (
        tracer.maxima.get("poly.divide.coeff_bits_max", 0), "bits")
    m["curve.localized_line.constructs_per_op"] = (
        per_op(counts["curve.localized_line.calls"]), "1/op")
    m["curve.localized_line.warnings_per_op"] = (per_op(warnings), "1/op")
    m["decompose.self_s"] = (
        per_op(sum(selfs["decompose." + d] for d in DECOMPOSERS)), "s/op")
    for d in DECOMPOSERS:
        m[f"decompose.{d}.calls"] = (per_op(counts[f"decompose.{d}.calls"]), "1/op")
    m["cli.recombine_calls_per_op"] = (per_op(counts["cli.recombine_under_main"]), "1/op")
    return m
