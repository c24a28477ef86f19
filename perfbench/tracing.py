"""Spans and counts around qcoinflip's layer functions, recorded from outside.

The tracer replaces each listed function wherever a qcoinflip module holds a
reference to it (``qcoinflip.lowerbound.solve``, ``qcoinflip.cli.solve``, ...),
so calls between layers are seen the way the callers make them.  Nothing in
the package changes; ``installed()`` puts the originals back on exit.

Spans are kept in memory as ``[name, start, end, parent]`` and written out by
the caller once the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

TRACED = (
    "sdp.solve",
    "sdp.verify_dual",
    "penalty.bob_attack",
    "penalty.alice_attack_sdp",
    "penalty.dual_certificate",
    "protocols.load_protocol",
    "protocols.validate_protocol",
    "protocols.honest_state",
    "lowerbound.cheat_product_check",
    "lowerbound.optimal_cheat",
    "lowerbound.cheat_sdp",
    "multiparty.lightest_bin_select",
    "multiparty.simulate_tournament",
    "broadcast.emulate_broadcast_pairwise",
    "broadcast.classical_broadcast",
    "broadcast.establish_epr",
    "broadcast.teleport",
    "quantum.apply_unitary",
    "quantum.measure",
    "quantum.partial_trace",
    "quantum.helstrom",
)

# Peak Python-visible allocation (tracemalloc) inside these calls.  Tracing is
# switched on just outside the span, so its start and stop are not billed to
# the function.
ALLOC_TRACED = ("protocols.validate_protocol", "broadcast.establish_epr")

LAYERS = ("cli", "sdp", "penalty", "protocols", "lowerbound", "multiparty", "broadcast", "quantum", "bench")


def _solve_counts(args, kwargs, solution, counts):
    problem = args[0] if args else kwargs["problem"]
    counts["sdp.solve.iterations"] += solution.iterations
    counts["sdp.solve.converged"] += solution.status == "converged"
    counts["sdp.solve.constraints_m"] += sum(c.rhs.size for c in problem.constraints)


def _uses_from_transcript(index):
    def count(args, kwargs, result, counts):
        counts["broadcast.channel_uses"] += result[index][-1]["use_count"]

    return count


def _epr_uses(args, kwargs, result, counts):
    counts["broadcast.channel_uses"] += result[3]


def _selection_rounds(args, kwargs, result, counts):
    counts["multiparty.lightest_bin_select.rounds"] += result.rounds


# Exact counts read off each call's arguments and result.
COUNTERS = {
    "sdp.solve": _solve_counts,
    "multiparty.lightest_bin_select": _selection_rounds,
    "broadcast.emulate_broadcast_pairwise": _uses_from_transcript(1),
    "broadcast.classical_broadcast": _uses_from_transcript(1),
    "broadcast.establish_epr": _epr_uses,
    "broadcast.teleport": _uses_from_transcript(2),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.alloc_peak = Counter()  # name -> largest peak in bytes
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        alloc = name in ALLOC_TRACED

        def traced(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[name] = max(self.alloc_peak[name], peak)
            if counter:
                counter(args, kwargs, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "qcoinflip"):
        """Swap every reference to a TRACED function for its traced wrapper."""
        patched = []
        try:
            for name in TRACED:
                module_name, attr = name.split(".")
                original = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
                wrapper = self._wrap(name, original)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != package and not mod_name.startswith(package + "."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(self.spans)]

    def totals(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus per-layer self seconds."""
        calls, inclusive, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
        for (name, start, end, _parent), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        return {"calls": calls, "s": inclusive, "self_s": self_s, "layer_self_s": layer_self}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
