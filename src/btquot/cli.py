"""Command-line driver.

Subcommands::

    formulas      counting formulas for a ramification profile, or a sweep
    ramification  ramified places and the maximality certificate
    torsion       torsion units, conjugacy classes, class-count check
    quotient      build the quotient graph and cross-check it
    report        formula-vs-graph comparison only
    dot           quotient graph in DOT format

Exit codes: 0 all checks green, 2 a check failed, 3 unsupported or invalid
input, 4 a resource guard tripped or an internal invariant broke.  All
output is byte-deterministic for a fixed configuration; JSON objects are
emitted with sorted keys.
"""

import argparse
import json
import sys

from .errors import (
    InvalidProfile,
    InvariantViolation,
    NonIntegral,
    NonterminationGuard,
    NotASquare,
    NotCertified,
    PrecisionLoss,
    RamifiedAtInfinity,
    SearchExhausted,
    StabilizerAnomalousOrder,
    Unsupported,
)
from .gfpoly import Poly, choose_xi, field_from_q, parse_poly
from .invariants import (
    RamProfile,
    cross_check,
    edges,
    eichler_count,
    euler_check,
    genus,
    sweep_profiles,
    v1,
    vq1,
    wp,
)
from .order import StandardOrder, solve_torsion, torsion_classes
from .quat import QuatAlgebra, ramified_set
from .quotient import build_quotient, find_quotient_algebra


class UsageError(Exception):
    """Bad flag combinations, caught in main and mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _int_list(text):
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError("expected comma-separated integers, got %r" % text)


def _algebra_from(args):
    fld = field_from_q(args.q)
    pair = [args.a is not None, args.b is not None]
    picked = sum([any(pair), args.r is not None, args.r_degrees is not None])
    if picked != 1:
        raise UsageError("specify the algebra with --a/--b, --r, or --R-degrees")
    if any(pair):
        if not all(pair):
            raise UsageError("--a and --b go together")
        return QuatAlgebra(fld, parse_poly(fld, args.a), parse_poly(fld, args.b))
    if args.r is not None:
        xi = Poly.const(fld, choose_xi(fld))
        return QuatAlgebra(fld, xi, parse_poly(fld, args.r))
    return find_quotient_algebra(fld, _int_list(args.r_degrees), bound=args.search_bound)


def _build_graph(args):
    return build_quotient(_algebra_from(args))


def _profile_of(alg):
    return RamProfile(alg.field.q, [pl.degree for pl in ramified_set(alg)])


def _formula_entry(profile):
    return {
        "q": profile.q,
        "R": list(profile.degrees),
        "wp": wp(profile),
        "genus": genus(profile),
        "V1": v1(profile),
        "Vq1": vq1(profile),
        "E": edges(profile),
        "eichler": eichler_count(profile),
        "realizable": profile.realizable(),
        "checks": {"euler": euler_check(profile)},
    }


def render_dot(graph):
    """Undirected DOT text; terminal vertices get a double circle and
    parallel edges are drawn individually."""
    q = graph.q
    lines = [
        "graph quotient {",
        "  // %s over F_%d" % (graph.algebra, q),
        "  node [shape=circle];",
    ]
    for v in graph.vertices:
        shape = "doublecircle" if v.stabilizer_order == q * q - 1 else "circle"
        lines.append(
            '  v%d [label="%d", shape=%s];' % (v.index, v.stabilizer_order, shape)
        )
    for e in graph.edges:
        lines.append('  v%d -- v%d [label="%d"];' % (e.a, e.b, e.stabilizer_order))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _write_artifacts(prefix, graph, report):
    paths = {
        "graph": prefix + ".graph.json",
        "dot": prefix + ".dot",
        "log": prefix + ".log.jsonl",
        "report": prefix + ".report.json",
    }
    _write(paths["graph"], json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n")
    _write(paths["dot"], render_dot(graph))
    _write(paths["log"], "".join(json.dumps(e, sort_keys=True) + "\n" for e in graph.log))
    _write(paths["report"], json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return [paths[k] for k in ("graph", "dot", "log", "report")]


def cmd_formulas(args):
    if args.R is not None:
        if args.q is None:
            raise UsageError("--R needs --q")
        profiles = [RamProfile(args.q, _int_list(args.R))]
    elif args.sweep:
        qs = (args.q,) if args.q is not None else (2, 3, 4, 5, 7, 8, 9)
        profiles = sweep_profiles(qs=qs)
    else:
        raise UsageError("pass --R d1,d2,... or --sweep")
    entries = [_formula_entry(p) for p in profiles]
    if args.R is not None:
        _emit(entries[0])
    else:
        _emit({"count": len(entries), "profiles": entries})
    bad = [e for e in entries if not all(e["checks"].values())]
    return 2 if bad else 0


def cmd_ramification(args):
    alg = _algebra_from(args)
    places = ramified_set(alg)
    cert = StandardOrder(alg).certify_maximal()
    profile = RamProfile(alg.field.q, [pl.degree for pl in places])
    payload = {
        "algebra": str(alg),
        "q": alg.field.q,
        "ramified": [{"place": str(pl), "degree": pl.degree} for pl in places],
        "wp": wp(profile),
        "eichler": eichler_count(profile),
        "gram_disc": str(cert.gram_det),
        "squarefree_part": str(cert.reduced),
        "expected": str(cert.expected),
        "certified": bool(cert),
    }
    _emit(payload)
    return 0 if cert else 2


def cmd_torsion(args):
    alg = _algebra_from(args)
    order = StandardOrder(alg)
    order.ensure_maximal()
    units = solve_torsion(order, args.bound)
    payload = {
        "algebra": str(alg),
        "q": alg.field.q,
        "bound": args.bound,
        "count": len(units),
        "units": [
            {
                "elem": str(u.elem),
                "order": u.order,
                "trace": str(u.trace),
                "norm": str(u.norm),
            }
            for u in units
        ],
    }
    code = 0
    if not args.no_classes:
        expected = eichler_count(_profile_of(alg))
        classes = torsion_classes(order, units, expected=expected)
        payload["classes"] = [[str(u.elem) for u in cl] for cl in classes]
        payload["class_count"] = len(classes)
        payload["eichler"] = expected
        payload["check_eichler"] = len(classes) == expected
        if not payload["check_eichler"]:
            code = 2
    _emit(payload)
    return code


def cmd_quotient(args):
    graph = _build_graph(args)
    report = cross_check(graph.profile, graph)
    if args.out:
        paths = _write_artifacts(args.out, graph, report)
        _emit({"ok": report.ok(), "wrote": paths})
    else:
        _emit({"graph": graph.to_dict(), "report": report.to_dict()})
    return 0 if report.ok() else 2


def cmd_report(args):
    graph = _build_graph(args)
    report = cross_check(graph.profile, graph)
    _emit(report.to_dict())
    return 0 if report.ok() else 2


def cmd_dot(args):
    graph = _build_graph(args)
    text = render_dot(graph)
    if args.out:
        path = args.out + ".dot"
        _write(path, text)
        _emit({"wrote": [path]})
    else:
        sys.stdout.write(text)
    return 0


def _add_algebra_options(p):
    p.add_argument("--q", type=int, required=True, help="field size (prime power)")
    p.add_argument("--a", help="first defining polynomial of H(a, b)")
    p.add_argument("--b", help="second defining polynomial of H(a, b)")
    p.add_argument(
        "--r",
        help="shorthand for H(xi, r) with xi the canonical constant of F_q",
    )
    p.add_argument(
        "--R-degrees",
        dest="r_degrees",
        help="comma-separated place degrees; the smallest matching places are"
        " chosen and an algebra is searched for",
    )
    p.add_argument(
        "--search-bound",
        type=int,
        default=4,
        help="degree shell limit for the --R-degrees search",
    )


def _add_quotient_options(p):
    p.add_argument("--out", help="prefix for artifact files")


def build_parser():
    parser = _Parser(
        prog="btquot",
        description="Quotients of the Bruhat-Tits tree by quaternionic unit groups.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("formulas", help="counting formulas for a profile or sweep")
    p.add_argument("--q", type=int, default=None, help="field size (prime power)")
    p.add_argument("--R", help="comma-separated degrees of the ramified places")
    p.add_argument("--sweep", action="store_true", help="tabulate the default sweep")
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("ramification", help="ramified places and maximality certificate")
    _add_algebra_options(p)
    p.set_defaults(func=cmd_ramification)

    p = sub.add_parser("torsion", help="torsion units and conjugacy classes")
    _add_algebra_options(p)
    p.add_argument("--bound", type=int, default=2, help="coordinate degree bound")
    p.add_argument(
        "--no-classes",
        action="store_true",
        help="skip the conjugacy clustering and class-count check",
    )
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("quotient", help="build the quotient graph and cross-check")
    _add_algebra_options(p)
    _add_quotient_options(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("report", help="formula-vs-graph comparison")
    _add_algebra_options(p)
    _add_quotient_options(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("dot", help="quotient graph as DOT")
    _add_algebra_options(p)
    _add_quotient_options(p)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 3
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 3
    except (
        Unsupported,
        NotASquare,
        SearchExhausted,
        RamifiedAtInfinity,
        InvalidProfile,
    ) as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return 3
    except (NotCertified, NonIntegral) as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 2
    except (NonterminationGuard, PrecisionLoss, StabilizerAnomalousOrder) as exc:
        print("resource guard: %s" % exc, file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print("invariant violated: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
