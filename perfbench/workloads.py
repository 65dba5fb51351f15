"""The four case ladders and their seeded variants.

Seed 0 is the ladder exactly as listed.  Any other seed shuffles the
order of the cases and, for each ``--r`` case whose places all have odd
degree, draws other distinct monic irreducible places of the same
degrees; the counting formulas then predict the same V and E, so the
amount of work stays comparable.  The program receives only the
generated argv.

Two cases are known defects and are pinned, never redrawn, so that the
number of failing cases is a property of the code and not of the seed:
the torsion census of q=3 R=[1,3] at bound 2 finds 2 classes against the
4 the Eichler formula predicts, and the q=3 R=[3,3] algebra search ends
in SearchExhausted.
"""

import random


class Case:
    """One CLI invocation with what its output must show."""

    def __init__(self, argv, q, degrees, places=None, known_defect=None):
        self.argv = list(argv)
        self.q = q
        self.degrees = sorted(degrees)  # ramified degrees the output must show
        self.places = places  # factors of the --r polynomial, if redrawable
        self.known_defect = known_defect

    @property
    def command(self):
        return self.argv[0]

    def label(self):
        return " ".join(self.argv)


def _r(command, q, text, places, *extra, known_defect=None):
    """A --r case; text is the seed-0 argv, places its factors."""
    degrees = [_degree(p) for p in places]
    redraw = None if known_defect or not all(d % 2 for d in degrees) else places
    return Case(
        [command, "--q", str(q), "--r", text] + list(extra),
        q,
        degrees,
        places=redraw,
        known_defect=known_defect,
    )


def _degree(text):
    return max(int(t.split("^")[1]) if "^" in t else 1 for t in text.split("+") if "T" in t)


LADDERS = {
    "many-classes": [
        _r("quotient", 3, "T^4+2*T^2+T", ["T", "T^3+2*T+1"]),
        Case(["quotient", "--q", "3", "--a", "T^3+2*T+1", "--b", "T^2+1"], 3, [2, 3]),
        Case(
            ["quotient", "--q", "3", "--a", "T^2+T+2", "--b", "T^4+T^3+T^2+T"],
            3,
            [1, 1, 2, 2],
        ),
    ],
    "large-q": [
        _r("quotient", 7, "T*(T-1)", ["T", "T+6"]),
        Case(["quotient", "--q", "9", "--a", "4", "--b", "T^2+T"], 9, [1, 1]),
        _r("quotient", 11, "T*(T-1)", ["T", "T+10"]),
        Case(
            ["quotient", "--q", "5", "--a", "T^2+3*T", "--b", "T^2+3*T+2"],
            5,
            [1, 1, 1, 1],
        ),
    ],
    "torsion": [
        _r("torsion", 3, "T*(T-1)", ["T", "T+2"], "--bound", "2"),
        _r("torsion", 5, "T*(T-1)", ["T", "T+4"], "--bound", "1"),
        _r("torsion", 4, "T*(T+1)", ["T", "T+1"], "--bound", "1"),
        _r("torsion", 2, "T*(T+1)", ["T", "T+1"], "--bound", "3"),
        _r(
            "torsion", 3, "T^4+2*T^2+T", ["T", "T^3+2*T+1"], "--bound", "2",
            known_defect="Eichler mismatch: 2 classes against 4 at bound 2",
        ),
    ],
    "algebra-search": [
        Case(["ramification", "--q", "3", "--R-degrees", "2,4"], 3, [2, 4]),
        Case(["ramification", "--q", "7", "--R-degrees", "1,2"], 7, [1, 2]),
        Case(
            ["ramification", "--q", "3", "--R-degrees", "3,3"],
            3,
            [3, 3],
            known_defect="SearchExhausted within the default search bound",
        ),
        Case(["ramification", "--q", "3", "--R-degrees", "1,3"], 3, [1, 3]),
        Case(["ramification", "--q", "5", "--R-degrees", "1,1,1,1"], 5, [1, 1, 1, 1]),
    ],
}

# sha256 of the sorted-key graph JSON of each quotient case at seed 0.
PINNED_DIGESTS = {
    "quotient --q 3 --r T^4+2*T^2+T":
        "f9b416140ded82287da24b2b6de3f975ab91b133ef0ec5ed4cca210fd72a768e",
    "quotient --q 3 --a T^3+2*T+1 --b T^2+1":
        "5e72a1b29d1bfaa4db27908b88d1078445cf442f77fae1b0e9989aeadfe14d3e",
    "quotient --q 3 --a T^2+T+2 --b T^4+T^3+T^2+T":
        "c4544f29db5116aa53a434f613e8e34e81d818d82d6d5d372f3ffafd92e0151a",
    "quotient --q 7 --r T*(T-1)":
        "6f9418dd2888ceca2c40fe08d0563ff3d3f617808cc284b62a0d7e5f1834fe2c",
    "quotient --q 9 --a 4 --b T^2+T":
        "9794bff2f003e4a27d9b51738ab61346107d8f36ada0d7cb113926640ab3f707",
    "quotient --q 11 --r T*(T-1)":
        "a3eee43f615f0f6d1d0ad14bbda9a2fd753826642ada36a9e75de7fc88533707",
    "quotient --q 5 --a T^2+3*T --b T^2+3*T+2":
        "28e7e065921724f44d95fb650b936585e0e6419483cfe6ec4124079041dcd993",
}


def _monic_irreducibles(q, d):
    """Monic irreducible polynomials of degree 1 or 3 over F_q, as CLI text.

    Degree 1 works for every q because integer literals are element codes.
    Degree 3 is needed only for prime q, where a cubic is irreducible
    exactly when it has no root.
    """
    if d == 1:
        return ["T" if c == 0 else "T+%d" % c for c in range(q)]
    if d != 3 or any(q % k == 0 for k in range(2, q)):
        raise ValueError("no place generator for degree %d over F_%d" % (d, q))
    out = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if all((x**3 + a * x * x + b * x + c) % q for x in range(q)):
                    out.append(_poly_text({3: 1, 2: a, 1: b, 0: c}))
    return out


def _poly_text(coeffs):
    terms = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else "T" if k == 1 else "T^%d" % k
        if k == 0:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else "%d*%s" % (c, mono))
    return "+".join(terms)


def _redraw(case, rng):
    pools = {}
    chosen = []
    for d in sorted({_degree(p) for p in case.places}):
        want = sum(1 for p in case.places if _degree(p) == d)
        pools[d] = rng.sample(_monic_irreducibles(case.q, d), want)
    for p in case.places:
        chosen.append(pools[_degree(p)].pop())
    argv = list(case.argv)
    argv[argv.index("--r") + 1] = "*".join("(%s)" % p for p in chosen)
    return Case(argv, case.q, case.degrees, places=chosen)


def cases(workload, seed):
    """The generated case list of a workload for a seed."""
    ladder = LADDERS[workload]
    if seed == 0:
        return list(ladder)
    rng = random.Random("%s/%d" % (workload, seed))
    out = [_redraw(c, rng) if c.places else c for c in ladder]
    rng.shuffle(out)
    return out
