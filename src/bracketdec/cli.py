"""Command-line front end.

Commands: check (validate a curve), decompose (build a bracket
decomposition for a target field), localize (push a line decomposition
onto a localized line), verify (recombine given pairs and compare with a
target).  Results go to stdout as a JSON document; a one-line summary goes
to stderr.  Exit codes: 0 success, 1 failed verification, 2 parse error,
3 validation error, 4 step budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .curve import AffineLine, LocalizedLine, PlaneCurve, SpaceCurve, parse_curve
from .decompose import (
    _localize,
    rational_decompose,
    single_bracket_line,
    three_bracket_space,
    two_bracket_plane,
)
from .errors import BracketDecError, ParseError, ValidationError
from .liealg import BracketDecomp, VField, recombine
from .poly import DEFAULT_MAX_STEPS, MonomialOrder, StepBudget


def _cert_doc(cert) -> dict:
    return {"target": str(cert.target),
            "generators": [str(g) for g in cert.generators],
            "cofactors": [str(c) for c in cert.cofactors]}


def _parse_pairs(curve, text: str):
    """Parse "a1, b1; a2, b2; ..." into bracket pairs on the curve."""
    pairs = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        sides = chunk.split(",")
        if len(sides) != 2:
            raise ParseError(f"each pair needs exactly two elements: {chunk.strip()!r}")
        pairs.append((VField(curve.parse_element(sides[0])),
                      VField(curve.parse_element(sides[1]))))
    return tuple(pairs)


def _run_check(args, curve) -> dict:
    certs = {}
    if isinstance(curve, PlaneCurve):
        certs["smoothness"] = _cert_doc(curve.smooth_cert)
    elif isinstance(curve, SpaceCurve):
        certs["unit"] = _cert_doc(curve.unit_cert)
        certs["preserves_ideal"] = True
    return {"certificates": certs}


def _decomp_fields(target, decomp: BracketDecomp, verified: bool = True) -> dict:
    # every decomposer checks its result against the target exactly and
    # raises CertificateFailure on a mismatch, so a returned one is verified
    fields = {"target": str(target),
              "decomposition": [[str(u), str(v)] for u, v in decomp.pairs],
              "length": decomp.length, "verification": verified}
    if decomp.trace is not None:
        fields["trace"] = decomp.trace
    return fields


def _run_decompose(args, curve) -> dict:
    target = curve.parse_element(args.target)
    if isinstance(curve, AffineLine):
        decomp = single_bracket_line(target, args.trace)
    elif isinstance(curve, LocalizedLine):
        decomp = rational_decompose(curve.denominator, target, args.trace)
    elif isinstance(curve, PlaneCurve):
        decomp = two_bracket_plane(curve, target, args.trace)
    else:
        decomp = three_bracket_space(curve, target, args.trace)
    return _decomp_fields(target, decomp)


def _run_localize(args, curve) -> dict:
    if not isinstance(curve, LocalizedLine):
        raise ValidationError("localize needs a curve of the form: line minus <f>")
    line = AffineLine()
    target, out = _localize(BracketDecomp(line, _parse_pairs(line, args.pairs)),
                            curve, args.k, args.trace)
    return {"k": args.k, **_decomp_fields(target, out)}


def _run_verify(args, curve) -> dict:
    target = curve.parse_element(args.target)
    decomp = BracketDecomp(curve, _parse_pairs(curve, args.pairs))
    verified = recombine(decomp).coeff == target
    fields = _decomp_fields(target, decomp, verified)
    if not verified:
        # "status" keeps its place at the head of the document
        fields["status"] = "error"
        fields["error"] = {"code": "verification_failed",
                           "message": "pairs do not recombine to the target"}
    return fields


def _summary(doc: dict) -> str:
    if doc["status"] == "error":
        return f"error [{doc['error']['code']}]: {doc['error']['message']}"
    cmd = doc["command"]
    if cmd == "check":
        return f"ok: curve accepted ({doc['curve']['variant']})"
    if cmd == "verify":
        return f"ok: verified decomposition of length {doc['length']}"
    return f"ok: {cmd} produced {doc['length']} bracket(s), verified, target {doc['target']}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracketdec",
        description="Exact bracket decompositions of vector fields on affine curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, traced=False):
        p.add_argument("--order", choices=("lex", "grlex"), default="lex",
                       help="monomial order for the reductions of a plane or space curve "
                            "(default lex); a line ignores it")
        p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                       metavar="N", help="reduction step budget of the whole run")
        p.add_argument("--trace", action="store_true",
                       help="include construction intermediates in the output" if traced
                       else "accepted and ignored: only decompose and localize print a trace")

    p_check = sub.add_parser("check", help="validate a curve description")
    p_check.add_argument("--curve", required=True)
    add_common(p_check)

    p_dec = sub.add_parser("decompose", help="decompose target * tau into brackets")
    p_dec.add_argument("--curve", required=True)
    p_dec.add_argument("--target", required=True,
                       help="coefficient of tau, in the curve's element grammar")
    add_common(p_dec, traced=True)

    p_loc = sub.add_parser("localize",
                           help="push a line decomposition onto a localized line")
    p_loc.add_argument("--curve", required=True,
                       help="must have the form: line minus <f>")
    p_loc.add_argument("--pairs", required=True,
                       help='line decomposition as "a1, b1; a2, b2; ..."')
    p_loc.add_argument("--k", type=int, required=True,
                       help="divide each pair entry by f^k")
    add_common(p_loc, traced=True)

    p_ver = sub.add_parser("verify", help="recombine pairs and compare with target")
    p_ver.add_argument("--curve", required=True)
    p_ver.add_argument("--target", required=True)
    p_ver.add_argument("--pairs", required=True,
                       help='decomposition as "a1, b1; a2, b2; ..."')
    add_common(p_ver)

    return parser


_RUNNERS = {"check": _run_check, "decompose": _run_decompose,
            "localize": _run_localize, "verify": _run_verify}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):
                # argparse reads the option value "--" as an empty list
                raise ParseError(f"--{name.replace('_', '-')} needs a value other than '--'")
        if args.max_steps < 0:
            raise ValueError(f"--max-steps must be nonnegative, not {args.max_steps}")
        with StepBudget(args.max_steps):
            curve = parse_curve(args.curve, order=MonomialOrder(args.order))
            doc = {"status": "ok", "command": args.command, "curve": curve.describe(),
                   **_RUNNERS[args.command](args, curve)}
        code = 0 if doc["status"] == "ok" else 1
    except (BracketDecError, ValueError) as exc:
        # any other ValueError is reported as the base error type is
        kind = type(exc) if isinstance(exc, BracketDecError) else BracketDecError
        doc = {"status": "error", "command": args.command,
               "error": {"code": kind.code, "message": str(exc)}}
        code = kind.exit_status
    print(json.dumps(doc, indent=2))
    print(_summary(doc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
