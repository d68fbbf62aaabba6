"""Command-line front end.

Subcommands:

  dims    --n N                       quotient dimensions at order N
  bounds  --n-max N [--format csv|json]   counting-bound table
  reduce  --sigma 2,3,1 [--verify]    tree-to-n-gon reduction with trace
  ngons   --n N --list                canonical n-gon representatives
  ribbon  gen|verify --sigma 1,2,3    family codes / postcondition suite
  ohyama  --sigma 1,2,3               signed scheme diagrams + identity
  selftest                            compressed property run

Output is deterministic; data lines never carry timestamps.  Exit status:
0 success, 1 verification failure, 2 usage error or bad input (one line
on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DiagramError, ResourceGuardError
from .gausscodes import simplify_budget

# `ribbon verify` tries all 2^n - 1 scheme switchings of a member and of
# its inverse up to this order
SWITCHINGS_MAX_ORDER = 7


def _print_header(args):
    if not getattr(args, "no_header", False):
        print(f"# vassiliev {__version__}")


def _parse_sigma(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        print(f"vassiliev: error: --sigma {text!r} is not a comma-separated"
              " list of integers", file=sys.stderr)
        raise SystemExit(2)


def cmd_dims(args):
    from .relations import quotient_spans

    n = args.n
    if not 2 <= n <= 6:
        raise ResourceGuardError("dims supports 2 <= n <= 6")
    _print_header(args)
    span4, full = quotient_spans(n)
    print(json.dumps({
        "n": n,
        "basis": len(span4.basis),
        "dim_mod_4t": span4.quotient_dim(),
        "primitive_dim": full.quotient_dim(),
    }))
    return 0


def cmd_bounds(args):
    from .bounds import bound_table

    if args.n_max < 3:
        raise DiagramError("bounds requires --n-max >= 3")
    rows = bound_table(args.n_max)
    _print_header(args)
    if args.format == "csv":
        print("n,xtilde,primitive_bound,total_bound,half_factorial,cor53_holds")
        for r in rows:
            print(f"{r.n},{r.xtilde},{r.primitive_bound},{r.total_bound},"
                  f"{r.factorial_ceiling},{r.cor53_holds}")
    else:
        for r in rows:
            print(json.dumps({
                "n": r.n,
                "xtilde": r.xtilde,
                "primitive_bound": r.primitive_bound,
                "total_bound": r.total_bound,
                "half_factorial": str(r.factorial_ceiling),
                "cor53_holds": r.cor53_holds,
                "per_divisor": {str(d): v for d, v in r.per_divisor.items()},
            }))
    # Burnside multiplicity note: the divisor d contributes with weight
    # phi(n/d) (the number of 0 < m < n with gcd(m, n) = d).  The variant
    # weight phi(d) that sometimes appears in print does not reproduce the
    # published sequence and fails the integrality self-check.
    print("# multiplicity per divisor d: phi(n/d); the phi(d) variant is"
          " not integral and is rejected by the self-check")
    return 0


def cmd_reduce(args):
    from .ngons import ngon_coefficients, reduce_tree_to_ngons

    sigma = _parse_sigma(args.sigma)
    trace = []
    combo = reduce_tree_to_ngons(sigma, trace=trace)
    _print_header(args)
    terms = [{"sigma": list(rep), "coefficient": c}
             for rep, c in ngon_coefficients(combo)]
    print(json.dumps({"sigma": list(sigma), "ngon_combination": terms}))
    print(json.dumps(trace))
    if args.verify:
        from .relations import quotient_spans, stu_expand
        from .ngons import one_branch_tree

        _, span = quotient_spans(len(sigma))
        target = stu_expand(one_branch_tree(sigma))
        for g, c in combo.terms.items():
            target = target - stu_expand(g).scaled(c)
        ok = span.member(target)
        print(json.dumps({"verified": ok}))
        return 0 if ok else 1
    return 0


def cmd_ngons(args):
    from .ngons import ngon_representatives

    reps = ngon_representatives(args.n)
    _print_header(args)
    for rep in reps:
        print(",".join(str(v) for v in rep))
    return 0


def cmd_ribbon(args):
    from .ribbon import (all_switchings_trivial, ribbon_gauss_code,
                         ribbon_inverse_code, verify_ohyama_identity)

    sigma = _parse_sigma(args.sigma)
    if args.action == "gen":
        code, scheme = (ribbon_inverse_code(sigma) if args.inverse
                        else ribbon_gauss_code(sigma))
        _print_header(args)
        print(code.to_text())
        print(scheme.to_json())
        return 0
    # verify; reject bad input before any output
    code, scheme = ribbon_gauss_code(sigma)
    simplify_budget()
    _print_header(args)
    checks = {"realizable": code.is_realizable()}
    n = len(sigma)
    # a guarded check is reported as "skipped", never left out
    if n <= SWITCHINGS_MAX_ORDER:
        checks["switchings_trivial"] = all_switchings_trivial(code, scheme)
        inv, ischeme = ribbon_inverse_code(sigma)
        checks["inverse_switchings_trivial"] = all_switchings_trivial(inv, ischeme)
    else:
        checks["switchings_trivial"] = "skipped"
        checks["inverse_switchings_trivial"] = "skipped"
    checks["scheme_identity"] = (verify_ohyama_identity(sigma) if n <= 4
                                 else "skipped")
    if n <= 3:
        # the inverse member negates invariants of order <= n only
        from .invariants import invariant_a2, invariant_v3
        inv, _ = ribbon_inverse_code(sigma)
        checks["a2_negates"] = bool(invariant_a2(inv) == -invariant_a2(code))
        if n >= 3:
            checks["v3_negates"] = bool(invariant_v3(inv) == -invariant_v3(code))
    print(json.dumps(checks))
    return 1 if False in checks.values() else 0


def cmd_ohyama(args):
    from .ribbon import ohyama_diagrams, verify_ohyama_identity

    sigma = _parse_sigma(args.sigma)
    diagrams = ohyama_diagrams(sigma)
    _print_header(args)
    for sign, d in diagrams:
        print(f"{'+' if sign > 0 else '-'}1 {d.as_text()}")
    if len(sigma) in (2, 3, 4):
        ok = verify_ohyama_identity(sigma)
        print(json.dumps({"identity_mod_4t": ok}))
        return 0 if ok else 1
    return 0


def cmd_selftest(args):
    from .bounds import brute_force_xtilde, primitive_bound
    from .relations import quotient_spans, stu_expand
    from .ngons import complete_ngon, ngon_representatives
    from .ribbon import all_switchings_trivial, ribbon_gauss_code, verify_ohyama_identity

    simplify_budget()  # reject a bad budget before any output
    _print_header(args)
    ok = True

    def report(name, good):
        nonlocal ok
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} {name}")

    report("bound sequence 3..7",
           [primitive_bound(n) for n in range(3, 8)] == [1, 2, 4, 14, 54])
    report("brute force agrees at n=6", brute_force_xtilde(6) == 14)
    dims = [quotient_spans(n)[1].quotient_dim() for n in (3, 4)]
    report("primitive dimensions (3,4) = (1,2)", dims == [1, 2])
    span = quotient_spans(3)[1].copy()
    for rep in ngon_representatives(3):
        span.add(stu_expand(complete_ngon(rep)))
    report("n-gons span order 3", span.rank == len(span.basis))
    report("scheme identity n=2,3",
           all(verify_ohyama_identity(s) for s in ((1, 2), (1, 2, 3), (1, 3, 2))))
    code, scheme = ribbon_gauss_code((1, 2))
    report("order-2 member fully trivialises",
           all_switchings_trivial(code, scheme))
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vassiliev",
        description="exact workbench for finite-type knot invariant combinatorics")
    ap.add_argument("--no-header", action="store_true",
                    help="suppress the version comment line")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="quotient dimensions at one order")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("bounds", help="counting-bound table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reduce", help="rewrite a one-branch tree into n-gons")
    p.add_argument("--sigma", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("ngons", help="canonical n-gon representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_ngons)

    p = sub.add_parser("ribbon", help="ribbon family codes and checks")
    p.add_argument("action", choices=("gen", "verify"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_ribbon)

    p = sub.add_parser("ohyama", help="signed scheme diagrams of a family member")
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=cmd_ohyama)

    p = sub.add_parser("selftest", help="compressed property suite")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (DiagramError, ResourceGuardError) as exc:
        print(f"vassiliev: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
