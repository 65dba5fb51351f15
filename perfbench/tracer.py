"""Per-layer call tracing, installed from outside the ``btquot`` package.

``Tracer.install()`` swaps every binding of each traced function or method
for a timing wrapper: the module-level name in the defining module, every
``from .x import name`` copy in other ``btquot`` modules, and every alias
inside a class (``__rmul__ = __mul__``).  ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.

Each call is a span with a name, start, end, parent span and case id.
Spans of the layer functions are kept in memory and written out by
``write_spans`` at the end of a run.  The arithmetic primitives
(``laurent.*``, ``bttree.Mat2K.mul``, ``bttree.act``, ``quat.mul``,
``gfpoly.is_squarefree``) run up to hundreds of thousands of times a
pass, so for them only the counters and the time totals are kept; their
time still counts as child time of the enclosing span, so self times
stay exact.
"""

import functools
import importlib
import json
import sys
import time

# (metric prefix, module, owner attribute or None, attribute, kind).  Kind
# "span" keeps a span per call; "node" keeps only counters and times;
# "leaf" is a "node" whose callees are never traced, so it needs no frame.
TARGETS = [
    ("quotient.build_quotient", "quotient", None, "build_quotient", "span"),
    ("quotient.are_equivalent", "quotient", None, "are_equivalent", "span"),
    ("quotient.hom_units", "quotient", None, "hom_units", "span"),
    ("quotient.stabilizer", "quotient", None, "stabilizer", "span"),
    ("quotient.StabilizerGroup.init", "quotient", "StabilizerGroup", "__init__", "span"),
    ("quotient.neighbor_orbits", "quotient", "StabilizerGroup", "neighbor_orbits", "span"),
    ("quotient.fixing_count", "quotient", "StabilizerGroup", "fixing_count", "span"),
    ("quotient.find_quotient_algebra", "quotient", None, "find_quotient_algebra", "span"),
    ("bttree.canonical_form", "bttree", None, "canonical_form", "span"),
    ("bttree.act", "bttree", None, "act", "node"),
    ("bttree.Mat2K.mul", "bttree", "Mat2K", "__mul__", "node"),
    ("laurent.mul", "laurent", "LaurentSeries", "__mul__", "leaf"),
    ("laurent.inverse", "laurent", "LaurentSeries", "inverse", "leaf"),
    ("laurent.sqrt", "laurent", "LaurentSeries", "sqrt", "leaf"),
    ("linalg.nullspace", "linalg", None, "nullspace", "span"),
    ("quat.mul", "quat", "QuatElem", "__mul__", "leaf"),
    ("quat.find_algebra", "quat", None, "find_algebra", "span"),
    ("quat.ramified_set", "quat", None, "ramified_set", "span"),
    ("quat.hilbert_symbol", "quat", None, "hilbert_symbol", "span"),
    ("order.solve_torsion", "order", None, "solve_torsion", "span"),
    ("order.torsion_classes", "order", None, "torsion_classes", "span"),
    ("order.conj_search", "order", None, "conj_search", "span"),
    ("order.certify_maximal", "order", "StandardOrder", "certify_maximal", "span"),
    ("gfpoly.is_squarefree", "gfpoly", None, "is_squarefree", "leaf"),
    ("gfpoly.factor", "gfpoly", None, "factor", "span"),
    ("gfpoly.is_irreducible", "gfpoly", None, "is_irreducible", "span"),
    ("gfpoly.make_field", "gfpoly", None, "make_field", "span"),
    ("invariants.cross_check", "invariants", None, "cross_check", "span"),
]

MODULES = (
    "gfpoly", "laurent", "linalg", "bttree", "quat", "order",
    "invariants", "quotient", "cli",
)

# Counters taken from a call's arguments and result, beyond calls and times.
EXTRA_COUNTERS = {
    "quotient.are_equivalent": ("witness",),
    "quotient.hom_units": ("found",),
    "quotient.build_quotient": ("retries",),
    "quotient.find_quotient_algebra": ("certify_rejects",),
    "linalg.nullspace": ("kernel_dim_sum", "kernel_dim_max", "cells"),
    "order.solve_torsion": ("units",),
    "order.conj_search": ("witness",),
}

CASE_SPAN = "cli.main"


class Tracer:
    """Span recorder and counters for one traced pass."""

    def __init__(self):
        self.names = [CASE_SPAN] + [t[0] for t in TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.stats = {n: [0, 0.0, 0.0] for n in self.names}  # calls, total, self
        self.extra = {
            p: dict.fromkeys(keys, 0) for p, keys in EXTRA_COUNTERS.items()
        }
        self.site_calls = {}  # "module.attr" or "module.Class.attr" -> [calls]
        self.spans = []  # (name id, start, end, parent span index, case id)
        self.stack = []  # open frames: [child time, span index, name id]
        self.case_id = -1
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = {m: importlib.import_module("btquot." + m) for m in MODULES}
        for prefix, mod, owner, attr, kind in TARGETS:
            if owner is None:
                original = getattr(pkg[mod], attr)
                holders = [(m, pkg[m]) for m in MODULES]
            else:
                cls = getattr(pkg[mod], owner)
                original = cls.__dict__[attr]
                holders = [("%s.%s" % (mod, owner), cls)]
            for label, holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        site = "%s.%s" % (label, key)
                        self._saved.append((holder, key, original))
                        setattr(holder, key, self._wrap(original, prefix, site, kind))
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    def stale_bindings(self):
        """Bindings that still hold an unwrapped original (should be none)."""
        originals = {id(orig) for _, _, orig in self._saved}
        left = []
        for m in MODULES:
            mod = sys.modules["btquot." + m]
            spaces = [(m, mod)] + [
                ("%s.%s" % (m, n), v)
                for n, v in vars(mod).items()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for label, space in spaces:
                left += ["%s.%s" % (label, k) for k, v in vars(space).items() if id(v) in originals]
        return left

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, prefix, site, kind):
        stats = self.stats[prefix]
        name = self.name_id[prefix]
        stack = self.stack
        spans = self.spans
        hits = self.site_calls.setdefault(site, [0])
        after = getattr(self, "_after_" + prefix.replace(".", "_"), None)
        perf = time.perf_counter

        if kind == "leaf":

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf() - start
                    hits[0] += 1
                    stats[0] += 1
                    stats[1] += took
                    stats[2] += took
                    if stack:
                        stack[-1][0] += took

            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits[0] += 1
            parent = stack[-1][1] if stack else -1
            if kind == "span":
                index = len(spans)
                spans.append(None)
            else:
                index = parent  # children attach to the nearest kept span
            frame = [0.0, index, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if kind == "span":
                    spans[index] = (name, start, end, parent, self.case_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def case(self, case_id, fn, *args):
        """Run one case under a root span named cli.main."""
        self.case_id = case_id
        name = self.name_id[CASE_SPAN]
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index, name]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            st = self.stats[CASE_SPAN]
            st[0] += 1
            st[1] += end - start
            st[2] += end - start - frame[0]
            self.spans[index] = (name, start, end, -1, case_id)

    def _open(self, prefix):
        want = self.name_id[prefix]
        return any(frame[2] == want for frame in self.stack)

    def _after_quotient_are_equivalent(self, args, result):
        if result:
            self.extra["quotient.are_equivalent"]["witness"] += 1

    def _after_quotient_hom_units(self, args, result):
        self.extra["quotient.hom_units"]["found"] += len(result)

    def _after_quotient_build_quotient(self, args, result):
        self.extra["quotient.build_quotient"]["retries"] += sum(
            1 for ev in result.log if ev.get("event") == "retry"
        )

    def _after_order_certify_maximal(self, args, result):
        if not result and self._open("quotient.find_quotient_algebra"):
            self.extra["quotient.find_quotient_algebra"]["certify_rejects"] += 1

    def _after_linalg_nullspace(self, args, result):
        ex = self.extra["linalg.nullspace"]
        ex["kernel_dim_sum"] += len(result)
        ex["kernel_dim_max"] = max(ex["kernel_dim_max"], len(result))
        ex["cells"] += len(args[0]) * args[1]

    def _after_order_solve_torsion(self, args, result):
        self.extra["order.solve_torsion"]["units"] += len(result)

    def _after_order_conj_search(self, args, result):
        if type(result).__name__ == "Witness":
            self.extra["order.conj_search"]["witness"] += 1

    # -- output -----------------------------------------------------------

    def counters(self):
        """Every deterministic count, keyed by metric name."""
        out = {}
        for n in self.names:
            out[n + ".calls"] = self.stats[n][0]
        for prefix, ex in self.extra.items():
            for key, value in ex.items():
                out["%s.%s" % (prefix, key)] = value
        return out

    def metric(self, name):
        """Value of one per-layer metric named "<prefix>.<stat>"."""
        prefix, stat = name.rsplit(".", 1)
        if stat == "calls":
            return self.stats[prefix][0]
        if stat == "time_s":
            return self.stats[prefix][1]
        if stat == "self_s":
            return self.stats[prefix][2]
        if stat == "hit_ratio":
            calls = self.stats[prefix][0]
            return self.extra[prefix]["witness"] / calls if calls else 0.0
        return self.extra[prefix][stat]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[name],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "case": case,
                        }
                    )
                    + "\n"
                )
