"""Layer spans and counters installed from outside the package.

``Tracer.install`` replaces selected public functions of the package's
modules by timing wrappers.  A module that did ``from .x import f``
looks ``f`` up in its own globals, so every module attribute bound to
the original function is rebound, not just the defining one.

Spans nest on a stack; a span's self time is its duration minus the
durations of the spans it directly encloses.  Only per-name totals are
kept in memory, and ``report`` hands them over when the operation ends.
Install into a throwaway process only: the wrappers are never removed.
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

ROOT_SPAN = "cli.main"
ARGPARSE_SPAN = "cli.argparse"

# Layer -> functions timed as spans.  grading, polyarith and _jsonio are
# small helpers whose time is counted under their callers.
SPANS: Dict[str, List[str]] = {
    "cli": ["main"],
    "polytope": ["convex_hull", "count_points", "normalized_volume",
                 "enumerate_lattice_points", "dual_polytope",
                 "labelled_polytope", "triangulate_ids"],
    "ehrhart": ["delta_vector", "quasipolynomial", "is_reflexive"],
    "contact": ["validate_diagram", "contact_betti_direct",
                "contact_betti_from_delta", "mean_euler_characteristic",
                "minimal_discrepancy", "orbit_data"],
    "resolution": ["validate_triangulation", "fan_over", "stapledon_check",
                   "box_elements", "orbifold_poincare", "hc_sector_rows",
                   "hc_from_resolution", "triangulation_from_cells",
                   "star_triangulation", "trivial_triangulation"],
    "prequant": ["is_good_cone", "gorenstein_r", "diagram_from_labelled",
                 "fundamental_group_order", "quotient_polytope",
                 "twisted_sectors", "orbifold_cohomology_of_base",
                 "hc_quotient_rows", "hc_from_quotient"],
    "exactlat": ["smith_normal_form", "hermite_normal_form"],
}
# Argument parsing is the cli layer's largest own cost.  The parser is
# built by private cli code on every call, so its time is taken at the
# standard library's argparse methods instead.
ARGPARSE = ("__init__", "add_argument", "add_mutually_exclusive_group",
            "add_subparsers", "parse_args")
# Called once per orbit iterate: counted, not timed.
COUNTERS: Dict[str, List[str]] = {"contact": ["orbit_degree"]}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.box_points = 0
        self.count_keys: set = set()
        self.count_repeats = 0
        self._stack: List[List[float]] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_points(self, span: Callable) -> Callable:
        def wrapper(P, t, interior=False):
            key = (P.vertices, t, interior)
            if key in self.count_keys:
                self.count_repeats += 1
            self.count_keys.add(key)
            return span(P, t, interior)
        return wrapper

    def _box_elements(self, span: Callable) -> Callable:
        def wrapper(F, cone):
            out = span(F, cone)
            self.box_points += len(out)
            return out
        return wrapper

    def install(self) -> None:
        mods = [mod for name, mod in sys.modules.items()
                if name == "contactbetti" or name.startswith("contactbetti.")]
        targets = [(layer, f, self._span) for layer, names in SPANS.items()
                   for f in names]
        targets += [(layer, f, self._counter)
                    for layer, names in COUNTERS.items() for f in names]
        for layer, fname, wrap in targets:
            qual = "%s.%s" % (layer, fname)
            orig = getattr(sys.modules["contactbetti." + layer], fname)
            new = wrap(qual, orig)
            if qual == "polytope.count_points":
                new = self._count_points(new)
            elif qual == "resolution.box_elements":
                new = self._box_elements(new)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
        parser = argparse.ArgumentParser
        for attr in ARGPARSE:
            setattr(parser, attr,
                    self._span(ARGPARSE_SPAN, getattr(parser, attr)))

    def report(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "root_s": self.root_s, "box_points": self.box_points,
                "count_repeats": self.count_repeats}
