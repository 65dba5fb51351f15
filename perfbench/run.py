"""btquot benchmark: one workload run, closed loop, one client.

    python3 perfbench/run.py --workload many-classes --seed 0 --seconds 32 --trace 0

The run imports ``btquot`` from ``src/`` of the checkout holding this
file and drives ``btquot.cli.main(argv)`` in-process, one case at a time,
each case starting when the previous one ends.  Every output is checked.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` repeats whole passes over the case list while another pass
still fits in ``--seconds`` (at least one pass) and reports the
end-to-end metrics, each timing a median over passes scaled by a speed
probe (see PROBE_SHARE).  ``--trace 1``
runs one pass with every layer wrapped (see tracer.py), then one pass
without, and reports the per-layer metrics; the spans go to
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 25
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, %r)
import btquot.cli
from btquot.gfpoly import field_from_q
for q in %r:
    field_from_q(q)
print(time.perf_counter() - t0)
"""

# The shared box the benchmark was built on changes speed by up to 40 %
# for tens of seconds at a time, through load outside the process, and
# wall and CPU time both follow.  A fixed probe tracks that speed: after
# every case it runs for PROBE_SHARE of the case's wall time, so the
# probes sample the run evenly in time.  The end-to-end times are scaled
# to a machine on which one probe takes PROBE_NOMINAL_S.
PROBE_ROUNDS = 120
PROBE_NOMINAL_S = 0.040
PROBE_SHARE = 0.2


class Outcome:
    """What one case did: its time, exit code, output and verdict."""

    def __init__(self, case, wall, cpu, code, stdout, crash):
        self.case = case
        self.wall = wall
        self.cpu = cpu
        self.code = code
        self.stdout = stdout
        self.crash = crash
        self.problems = [crash] if crash else checks.check(case, code, stdout)
        self.digest_changed = False
        if case.command == "quotient" and not self.problems:
            pinned = workloads.PINNED_DIGESTS.get(case.label())
            got = checks.graph_digest(json.loads(stdout))
            self.digest_changed = pinned is not None and pinned != got

    @property
    def failed(self):
        return bool(self.problems)

    @property
    def incorrect(self):
        """An output the program called good that the checks reject, or a
        crash that escaped the CLI's documented exit codes."""
        return bool(self.crash) or (self.code == 0 and self.failed)


def run_case(cli, case, trace=None):
    out = io.StringIO()
    crash = None
    code = None
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if trace is None:
                code = cli.main(case.argv)
            else:
                code = trace.case(trace.case_id + 1, cli.main, case.argv)
    except Exception as exc:  # a crash is reported as a failed case
        crash = "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    return Outcome(case, wall, cpu, code, out.getvalue(), crash)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def speed_probe():
    """Fixed pure-Python work shaped like the package's inner loops, a
    table-driven product of coefficient lists; returns its (wall, cpu)."""
    table = [[(i * j) % 7 for j in range(7)] for i in range(7)]
    a = [i % 7 for i in range(60)]
    b = [(3 * i + 1) % 7 for i in range(60)]
    wall, cpu = time.perf_counter(), cpu_seconds()
    for _ in range(PROBE_ROUNDS):
        cs = [0] * 120
        for i, x in enumerate(a):
            if x:
                row = table[x]
                for j, y in enumerate(b):
                    if y:
                        cs[i + j] = (cs[i + j] + row[y]) % 7
    return time.perf_counter() - wall, cpu_seconds() - cpu


def probe_for(seconds, probes):
    """Append speed probes until they took at least the given wall time."""
    spent = 0.0
    while spent < seconds:
        probes.append(speed_probe())
        spent += probes[-1][0]


def run_pass(cli, cases, trace=None, probes=None):
    """Run every case once; with a probes list, probe after each case."""
    outcomes = []
    for case in cases:
        outcomes.append(run_case(cli, case, trace))
        if probes is not None:
            probe_for(PROBE_SHARE * outcomes[-1].wall, probes)
    return outcomes


def measure_setup(qs):
    """Median seconds from a fresh interpreter to imported package and
    built fields, over several interpreters after one unmeasured warm-up."""
    code = SETUP_CODE % (SRC, sorted(set(qs)))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def verdict(outcomes):
    return {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
    }


def timed_run(cli, cases, seconds):
    probes = []
    setup_s = measure_setup(c.q for c in cases)
    probe_for(PROBE_SHARE * (SETUP_REPEATS + 1) * setup_s, probes)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, cases, probes=probes))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    outcomes = [o for p in passes for o in p]
    result = verdict(outcomes)
    wall_scale = PROBE_NOMINAL_S / statistics.median(w for w, _ in probes)
    cpu_scale = PROBE_NOMINAL_S / statistics.median(c for _, c in probes)
    raw = {
        "wall_s": statistics.median(sum(o.wall for o in p) for p in passes),
        "slowest_case_s": statistics.median(max(o.wall for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.cpu for o in p) for p in passes),
        "setup_s": setup_s,
    }
    print("measured: %s; probe scale wall %.4f cpu %.4f over %d probes" % (
        ", ".join("%s %.4f" % kv for kv in raw.items()), wall_scale, cpu_scale, len(probes)))
    metrics = {
        "wall_s": (raw["wall_s"] * wall_scale, "s"),
        "slowest_case_s": (raw["slowest_case_s"] * wall_scale, "s"),
        "cpu_s": (raw["cpu_s"] * cpu_scale, "s"),
        "setup_s": (raw["setup_s"] * wall_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_share": (1 - result["failed"] / result["attempted"], "ratio"),
    }
    return passes[0], len(passes), result, metrics


def traced_run(cli, cases, spans_path):
    trace = tracer.Tracer().install()
    try:
        traced = run_pass(cli, cases, trace)
    finally:
        trace.uninstall()
    untraced = run_pass(cli, cases)
    trace.write_spans(spans_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in per_layer):
        if name == "cli.output_digest_changed":
            value = sum(o.digest_changed for o in traced)
        elif name == "cli.trace_overhead_ratio":
            value = sum(o.wall for o in traced) / sum(o.wall for o in untraced)
        else:
            value = trace.metric(name)
        metrics[name] = (value, unit)
    return traced, 1, verdict(traced), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LADDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "btquot", "cli.py")):
        print("no btquot sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from btquot import cli

    cases = workloads.cases(args.workload, args.seed)
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        first, passes, result, metrics = traced_run(cli, cases, spans)
    else:
        first, passes, result, metrics = timed_run(cli, cases, args.seconds)

    for o in first:
        status = "FAIL " + "; ".join(o.problems) if o.failed else "ok"
        if o.case.known_defect and o.failed:
            status += " (known defect: %s)" % o.case.known_defect
        print("%8.3f s  %s  %s" % (o.wall, o.case.label(), status))
    print(
        "%s seed %d: %d pass(es), failed_share %d/%d"
        % (args.workload, args.seed, passes, result["failed"], result["attempted"])
    )
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6f %s" % (name, value, unit))
    result["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
