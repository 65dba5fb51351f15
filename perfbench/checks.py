"""Output checks for each CLI command, with the paper's counting formulas
re-derived here so the check does not trust the code it checks."""

import hashlib
import json
from fractions import Fraction


def formula_counts(q, degrees):
    """(V, E, eichler) the counting formulas predict for (q, R)."""
    n = len(degrees)
    wp = 0 if any(d % 2 == 0 for d in degrees) else 1
    prod = 1
    for d in degrees:
        prod *= q**d - 1
    genus = 1 + Fraction(prod, q * q - 1) - Fraction(q, q + 1) * 2 ** (n - 1) * wp
    v1 = 2 ** (n - 1) * wp
    vq1 = Fraction(2 * genus - 2 + v1, q - 1)
    edges = Fraction(v1 + (q + 1) * vq1, 2)
    return int(v1 + vq1), int(edges), 2**n * wp


def graph_digest(payload):
    """sha256 of the graph part of a quotient output, keys sorted."""
    text = json.dumps(payload["graph"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check(case, code, stdout):
    """List of failed checks for one case's exit code and stdout."""
    if code != 0:
        return ["exit code %s" % code]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    want_v, want_e, want_eichler = formula_counts(case.q, case.degrees)
    if case.command == "quotient":
        graph = out["graph"]
        bad = ["report." + k for k, ok in sorted(out["report"]["checks"].items()) if not ok]
        if sorted(graph["ramified_degrees"]) != case.degrees:
            bad.append("ramified degrees %s" % graph["ramified_degrees"])
        if len(graph["vertices"]) != want_v:
            bad.append("V=%d, formula %d" % (len(graph["vertices"]), want_v))
        if len(graph["edges"]) != want_e:
            bad.append("E=%d, formula %d" % (len(graph["edges"]), want_e))
        return bad
    if case.command == "torsion":
        bad = [] if out["check_eichler"] else ["check_eichler"]
        if out["class_count"] != want_eichler:
            bad.append("%d classes, formula %d" % (out["class_count"], want_eichler))
        return bad
    if case.command == "ramification":
        bad = [] if out["certified"] else ["certified"]
        got = sorted(pl["degree"] for pl in out["ramified"])
        if got != case.degrees:
            bad.append("ramified degrees %s" % got)
        return bad
    raise ValueError("no check for command %r" % case.command)
