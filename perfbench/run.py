"""contactbetti benchmark: CLI commands on a seeded ladder of diagrams.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

Every operation runs ``contactbetti.cli.main(argv)`` in its own fork
of this process, one at a time, so nothing one command leaves behind
can speed up the next.  The child times ``main`` and sends back wall
time, user+sys CPU and peak RSS (its own and those of any processes it
started and waited for), exit code and a digest of stdout.  Passes over
the workload repeat until ``--seconds`` have elapsed; per-operation
medians over the passes give the end-to-end metrics.

Set-up (``setup_s``) is a fresh interpreter importing the package and
loading the workload's documents, timed from outside.  One set-up is
timed between operations whenever SETUP_EVERY_S have passed since the
last, so the samples span the whole run; ``setup_s`` is their median.

A shared virtual machine's speed follows its neighbours' load: on the
guest the baseline was measured on, by up to 2x over minutes and by
10-20% between runs a few minutes apart.  So
a fixed slice of pure-Python rational arithmetic (``calibrate``) is timed
after every operation and set-up, and every time the run reports is
scaled by REFERENCE_S over the median of its calibrations: seconds at
the reference speed.  A median over a whole run adds little noise of its
own, while a slow or fast spell of the host moves calibrations and
operations alike.  Traced runs report the raw median calibration as
``bench.calibration_ms``.

With ``--trace 1`` untraced and traced passes alternate, the pair's
first pass alternating too, and the traced children time the package's
layers (``spans.py``); only per-layer metrics are reported then.

Every execution's exit code and stdout digest are compared with the
pinned ones in ``expected.json``.  The last line of stdout is one JSON
object; the exit code is 1 if any output was wrong and 2 if the package
could not be found.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_EVERY_S = 1.5
# calibrate() at the reference speed (see the module docstring).
REFERENCE_S = 0.004

sys.path.insert(0, HERE)
from spans import ARGPARSE_SPAN, ROOT_SPAN, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Ladder, Op  # noqa: E402

# A fresh interpreter's set-up: import the package, load the documents.
SETUP = ("import json, sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "import contactbetti.cli\n"
         "for path in sys.argv[2:]:\n"
         "    with open(path, encoding='utf-8') as fh:\n"
         "        json.load(fh)\n")

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
                    "op_max_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "ok_frac": "ratio"}


def calibrate() -> float:
    """Seconds this host now takes for a fixed slice of rational arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7, i % 5 + 1)
    return time.perf_counter() - t0


def time_setup(doc_paths: List[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP, SRC] + doc_paths, check=True)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# one operation in its own fork


def _child(argv: List[str], traced: bool) -> dict:
    import contactbetti.cli as cli
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    rc0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a wrong result: report it as one
        traceback.print_exc(file=err)
        code = -1
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    rc1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    cpu = sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime
              for a, b in ((ru0, ru1), (rc0, rc1)))
    return {"wall": wall, "cpu": cpu,
            "rss_kb": max(ru1.ru_maxrss, rc1.ru_maxrss), "code": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()[-500:],
            "trace": tracer.report() if tracer is not None else None}


def run_op(argv: List[str], traced: bool) -> dict:
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            payload = json.dumps(_child(argv, traced)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError("operation child died: %s" % " ".join(argv))
    return json.loads(payload)


# ----------------------------------------------------------------------
# passes and their summary


class Results:
    """Outcomes of every execution of every operation in one run."""

    def __init__(self, ops: List[Op], expected: Dict[str, dict],
                 setup_docs: Optional[List[str]]):
        self.ops = ops
        self.expected = expected
        self.runs: Dict[bool, List[List[dict]]] = {False: [], True: []}
        self.setup_docs = setup_docs   # None: time no set-ups
        self.setups: List[float] = []
        self.last_setup = -SETUP_EVERY_S
        self.calibrations: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, op: Op, res: dict) -> None:
        self.attempted += 1
        pinned = self.expected.get(op.label)
        if pinned is None:
            problem = "no pinned digest"
        elif res["code"] != pinned["exit"]:
            problem = "exit code %d, pinned %d" % (res["code"], pinned["exit"])
        elif res["sha256"] != pinned["sha256"]:
            problem = "stdout differs from the pinned digest"
        else:
            return
        self.failed += 1
        self.errors.append("%s: %s %s" % (op.label, problem,
                                          res["stderr"].strip()))

    def run_pass(self, traced: bool) -> None:
        outcomes = []
        for op in self.ops:
            if self.setup_docs is not None and \
                    time.perf_counter() - self.last_setup >= SETUP_EVERY_S:
                self.setups.append(time_setup(self.setup_docs))
                self.calibrations.append(calibrate())
                self.last_setup = time.perf_counter()
            res = run_op(op.argv, traced)
            self.calibrations.append(calibrate())
            self.record(op, res)
            outcomes.append(res)
        self.runs[traced].append(outcomes)

    def op_medians(self, traced: bool, field: str) -> List[float]:
        return [statistics.median(p[i][field] for p in self.runs[traced])
                for i in range(len(self.ops))]

    def scale(self) -> float:
        """Factor from this run's seconds to reference-speed seconds."""
        return REFERENCE_S / statistics.median(self.calibrations)

    def end_to_end(self) -> Dict[str, float]:
        k = self.scale()
        wall = self.op_medians(False, "wall")
        return {
            "run_s": k * sum(wall),
            "cpu_s": k * sum(self.op_medians(False, "cpu")),
            "op_p50_ms": k * 1000 * statistics.median(wall),
            "op_max_s": k * max(wall),
            "peak_rss_mb": max(r["rss_kb"] for p in self.runs[False]
                               for r in p) / 1024,
            "ok_frac": 1 - self.failed / self.attempted,
            "setup_s": k * statistics.median(self.setups),
        }

    def per_layer(self) -> Dict[str, tuple]:
        passes = []
        for outcomes in self.runs[True]:
            calls: Dict[str, int] = defaultdict(int)
            self_s: Dict[str, float] = defaultdict(float)
            root = repeats = points = 0
            for res in outcomes:
                tr = res["trace"]
                for name, c in tr["calls"].items():
                    calls[name] += c
                for name, s in tr["self_s"].items():
                    self_s[name] += s
                root += tr["root_s"]
                repeats += tr["count_repeats"]
                points += tr["box_points"]
            passes.append((calls, self_s, root, repeats, points))
        counts = [(dict(c), rep, pts) for c, _, _, rep, pts in passes]
        if any(c != counts[0] for c in counts):
            self.failed += 1
            self.errors.append("trace counters differ between passes")
        calls, _, _, repeats, points = passes[0]

        k = self.scale()

        def med_self(name: str) -> float:
            return k * statistics.median(p[1].get(name, 0.0) for p in passes)

        m: Dict[str, tuple] = {
            name + ".calls": (calls.get(name, 0), "count")
            for name in REPORTED_CALLS}
        count = calls.get("polytope.count_points", 0)
        m["polytope.count_points.repeat_frac"] = (
            repeats / count if count else 0.0, "ratio")
        m["resolution.box_elements.points"] = (points, "count")
        for name in REPORTED_SELF:
            m[name + ".self_s"] = (med_self(name), "s")
        spans = set().union(*(p[1] for p in passes))
        for layer in SPANS:
            m["layer.%s.self_s" % layer] = (sum(
                med_self(s) for s in spans if s.split(".")[0] == layer), "s")
        m["cli.self_s"] = (med_self(ROOT_SPAN), "s")
        m["cli.argparse.self_s"] = (med_self(ARGPARSE_SPAN), "s")
        root = k * statistics.median(p[2] for p in passes)
        m["bench.calibration_ms"] = (
            1000 * statistics.median(self.calibrations), "ms")
        m["trace.coverage"] = (1 - med_self(ROOT_SPAN) / root, "ratio")
        # The j-th untraced and traced passes ran next to each other, which
        # went first alternating with j, so drift and order cancel.
        pairs = list(zip(self.runs[False], self.runs[True]))
        m["trace.overhead_ratio"] = (statistics.median(
            statistics.median(t[i]["wall"] / u[i]["wall"] for u, t in pairs)
            for i in range(len(self.ops))), "ratio")
        return m


REPORTED_CALLS = (
    "polytope.count_points", "polytope.convex_hull", "ehrhart.delta_vector",
    "contact.orbit_degree", "resolution.box_elements",
    "exactlat.smith_normal_form")
REPORTED_SELF = (
    "polytope.count_points", "polytope.convex_hull",
    "ehrhart.delta_vector", "ehrhart.quasipolynomial",
    "contact.validate_diagram", "contact.contact_betti_direct",
    "contact.minimal_discrepancy",
    "resolution.validate_triangulation", "resolution.stapledon_check",
    "resolution.box_elements", "resolution.hc_sector_rows",
    "prequant.is_good_cone", "prequant.quotient_polytope",
    "prequant.twisted_sectors", "exactlat.smith_normal_form")


def import_package() -> Optional[str]:
    """Import the checkout's package, which forked children inherit."""
    if not os.path.isfile(os.path.join(SRC, "contactbetti", "cli.py")):
        return "no contactbetti sources under %s" % SRC
    sys.path.insert(0, SRC)
    import contactbetti.cli
    if not os.path.abspath(contactbetti.cli.__file__).startswith(SRC):
        return "contactbetti was imported from outside %s" % SRC
    return None


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    problem = import_package()
    if problem is not None:
        sys.stderr.write("run.py: %s\n" % problem)
        return 2

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as docs:
        lad = Ladder(args.seed, docs)
        ops = WORKLOADS[args.workload](lad)
        doc_paths = sorted(os.path.join(docs, f) for f in os.listdir(docs))
        results = Results(ops, load_expected(),
                          None if args.trace else doc_paths)
        start = time.perf_counter()
        while True:
            passes = len(results.runs[False])
            order = (False, True) if passes % 2 == 0 else (True, False)
            for traced in order if args.trace else (False,):
                results.run_pass(traced)
            passes += 1
            if time.perf_counter() - start >= args.seconds \
                    and passes >= 1 + args.trace:
                break

    if args.trace:
        metrics = results.per_layer()
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in results.end_to_end().items()}
        k = results.scale()
        sys.stderr.write(
            "%d passes, %d set-ups; unscaled run_s %.6f setup_s %.6f\n"
            % (passes, len(results.setups), metrics["run_s"][0] / k,
               metrics["setup_s"][0] / k))
    for err in results.errors[:20]:
        sys.stderr.write("MISMATCH %s\n" % err)
    wall = results.op_medians(False, "wall")
    for op, w in zip(ops, wall):   # unscaled
        sys.stderr.write("  %9.4f s  %s\n" % (w, op.label))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if results.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
