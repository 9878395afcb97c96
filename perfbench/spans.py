"""Timing shims around the functions ``faultres.cli`` and
``faultres.sat_encoding`` call, and the per-layer metrics drawn from them.

A shim replaces a module attribute, so it catches exactly the calls that
look the name up in that module; the program's source is untouched.  Each
call records one span (id, parent id, instance id, name, start, end).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass

# (module, attribute) pairs that get a shim; the span takes the attribute's
# name.  cli also looks up encode_problem, but only under --dimacs, which the
# benchmark does not pass.
SHIMMED = (
    ("faultres.cli", "parse_netlist"),
    ("faultres.cli", "build_and_validate"),
    ("faultres.cli", "parse_config"),
    ("faultres.cli", "verify"),
    ("faultres.sat_encoding", "encode_problem"),
    ("faultres.sat_encoding", "unroll"),
    ("faultres.sat_encoding", "plan_reductions"),
    ("faultres.sat_encoding", "fault_locations"),
    ("faultres.sat_encoding", "make_input_vars"),
    ("faultres.sat_encoding", "instrument"),
    ("faultres.sat_encoding", "build_fr_formula"),
    ("faultres.sat_encoding", "tseitin_cnf"),
    ("faultres.sat_encoding", "solve_cnf"),
    ("faultres.sat_encoding", "decode_fault_vector"),
    ("faultres.sat_encoding", "check_effectiveness"),
)

ROOT = "cli.main"  # the span the run opens around each CLI call

# Span name -> the per-layer self-time metric it adds to.  Self times of the
# spans left out (encode_problem, unroll) are what trace.coverage misses.
LAYER_OF = {
    ROOT: "cli.self_s",
    "parse_netlist": "netlist_io.parse_s",
    "parse_config": "netlist_io.parse_s",
    "build_and_validate": "circuit_model.validate_s",
    "verify": "sat_encoding.verify_self_s",
    "plan_reductions": "reductions.plan_s",
    "fault_locations": "circuit_model.locations_s",
    "make_input_vars": "fault_encoder.instrument_s",
    "instrument": "fault_encoder.instrument_s",
    "build_fr_formula": "sat_encoding.formula_s",
    "tseitin_cnf": "formula.tseitin_s",
    "solve_cnf": "solvers.solve_s",
    "decode_fault_vector": "fault_encoder.decode_s",
    "check_effectiveness": "simulator.replay_s",
}

# Counts read off the results of these calls; each is summed over the
# instance set and, for a fixed seed, must repeat exactly.
COUNTED_CALLS = ("solve_cnf", "plan_reductions", "fault_locations", "tseitin_cnf")
COUNTS = ("solvers.sat", "solvers.unsat", "solvers.unknown",
          "reductions.gates_removed", "reductions.locations_before",
          "circuit_model.locations", "formula.cnf_vars", "formula.cnf_clauses",
          "fault_encoder.controls")


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    instance: int
    name: str
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Span and count store; ``with tracer:`` has the shims installed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.instance = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._results = []  # (name, args, result) of this instance's counted calls
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(len(self.spans), self.stack[-1] if self.stack else -1,
                    self.instance, name)
        self.spans.append(span)
        self.stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if name in COUNTED_CALLS:
            self._results.append((name, args, result))
        return result

    def _shim(self, name, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return shim

    def __enter__(self):
        """Install every shim; leaving the block puts the originals back."""
        for mod_name, attr in SHIMMED:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._shim(attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def end_instance(self):
        """Add the finished instance's counts, outside any timed region, and
        drop its results so that one instance's objects are alive at a time."""
        from faultres.circuit_model import fault_locations
        from faultres.formula import ROLE_CONTROL, ROLE_SELECTION

        c = self.counts
        for name, args, result in self._results:
            if name == "solve_cnf":
                c[f"solvers.{result.status}"] += 1
            elif name == "plan_reductions":
                unrolled, blacklist = args[:2]
                c["reductions.gates_removed"] += (
                    len(result.effective_blacklist) - len(frozenset(blacklist)))
                c["reductions.locations_before"] += len(
                    fault_locations(unrolled, blacklist, result.effective_model.location))
            elif name == "fault_locations":
                c["circuit_model.locations"] += len(result)
            elif name == "tseitin_cnf":
                c["formula.cnf_vars"] += result.num_vars
                c["formula.cnf_clauses"] += len(result.clauses)
                c["fault_encoder.controls"] += sum(
                    1 for role in result.roles.values()
                    if role in (ROLE_CONTROL, ROLE_SELECTION))
        self._results.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)


def self_times(spans):
    """Span id -> its duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer, traced_total, untraced_sample, traced_sample):
    """Per-layer metrics of one traced pass over the instance set.

    ``traced_total`` sums the traced CLI calls' wall times; the two samples
    sum the wall times of the instances that were run both ways.
    """

    times = dict.fromkeys(sorted(set(LAYER_OF.values())), 0.0)
    own = self_times(tracer.spans)
    for s in tracer.spans:
        metric = LAYER_OF.get(s.name)
        if metric is not None:
            times[metric] += own[s.id]
    metrics = {name: (value, "s") for name, value in times.items()}
    metrics.update({name: (value, "count") for name, value in tracer.counts.items()})
    before = tracer.counts["reductions.locations_before"]
    kept = tracer.counts["circuit_model.locations"] / before if before else 1.0
    metrics["reductions.kept_frac"] = (kept, "ratio")
    metrics["trace.overhead_frac"] = (traced_sample / untraced_sample - 1.0, "ratio")
    metrics["trace.coverage"] = (sum(times.values()) / traced_total, "ratio")
    return metrics
