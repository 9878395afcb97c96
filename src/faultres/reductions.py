"""Verdict-preserving shrinking of the fault-type set and the vulnerable-gate
set, applied before encoding.

The one gate reduction, single-exit, rests on this observation: if every
path out of a sub-circuit is funneled through a single downstream logic
gate, a fault inside is either absorbed or indistinguishable from one fault
on that exit gate, so the inner gates need no control variables of their
own.  The reach step is exact and runs whatever the flags say.  Its
``unobservable`` test comes right after the fault-type reduction: when no
vulnerable gate or register can reach a data output at all, every one is
dropped, the gate reduction is skipped, and the circuit is resistant
without a miter.  Otherwise its per-cycle cut runs last, after the gate
reduction, and drops the fault locations from which no fault can be part
of an effective vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .circuit_model import (
    FaultResistanceModel,
    FaultType,
    SequentialCircuit,
    UnrolledCircuit,
    check_blacklist,
    faultable_names,
)


class NotApplicable(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class AppliedReduction:
    name: str
    gates_removed: int
    detail: str = ""


@dataclass(frozen=True)
class SkippedReduction:
    name: str
    reason: str


@dataclass
class ReductionPlan:
    effective_model: FaultResistanceModel
    effective_blacklist: frozenset
    applied: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    # name -> the last cycle in which a fault on it is kept, for the names the
    # reach step keeps in some cycles but not in all.
    _last_cycle: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def unobservable(self) -> bool:
        """Whether the reach step found that no vulnerable name reaches a
        data output, and blacklisted them all."""
        return any(r.name == "unobservable" for r in self.applied)

    def prune(self, locations) -> set:
        """The instances of ``locations`` (drawn outside the effective
        blacklist) that the plan keeps: all but the later instances of each
        name the reach step keeps only up to some cycle before k."""
        last = self._last_cycle
        if not last:
            return locations
        return {i for i in locations if i.cycle <= last.get(i.name, i.cycle)}


def reduce_fault_types(model: FaultResistanceModel) -> FaultResistanceModel:
    """Collapse the type set to {bit-flip} when bit-flip is allowed: any output
    change a set/reset fault produces is a flip of that signal, so restricting
    to flips preserves the verdict in both directions."""

    if FaultType.BITFLIP not in model.fault_types:
        raise NotApplicable(
            "bf not in the allowed types; reduction would not preserve counterexamples")
    if model.fault_types == frozenset({FaultType.BITFLIP}):
        raise NotApplicable("type set already {bf}")
    return replace(model, fault_types=frozenset({FaultType.BITFLIP}))


def single_exit_map(unrolled: UnrolledCircuit, blacklist) -> dict:
    """Maximal single-exit sub-circuits, by one reverse-topological sweep of
    the frame: maps every gate and register to its exit gate.  A gate merges
    into its successors' common exit only when every successor (including
    output ports and register writes) already belongs to that exit, the exit
    is unprotected, and the exit is an internal logic gate.  Register reads
    are always their own exits and never merge downstream."""

    circuit = unrolled.circuit
    # Nets read outside the frame's gates: output ports and register writes.
    sinks = set(circuit.outputs) | set(circuit.next_state.values())
    exit_of = {}
    for net in reversed(circuit.topo_order):
        exit_of[net] = net
        succs = circuit.successors.get(net, ())
        if net in sinks or not succs:
            continue
        exit_ = exit_of[succs[0]]
        if len(succs) > 1 and any(exit_of[s] != exit_ for s in succs):
            continue
        if exit_ not in blacklist and exit_ in circuit.gate_map:
            exit_of[net] = exit_
    for r in circuit.register_names:
        exit_of[r] = r
    return exit_of


def aggressive_blacklist(exit_of: dict, blacklist, model) -> set:
    """All gates absorbed into some other gate's exit sub-circuit.  Every
    path out of such a gate runs through the exit gate in the same cycle, so
    the sub-circuit's faults can only change the exit's value in that cycle,
    and one fault on the exit does the same with no more events: a bit-flip
    when bf is in T, else a set or a reset, whichever matches the value,
    when {s, r} is a subset of T.  The exit is a logic gate, a fault
    location only under c and cr."""

    _check_single_exit(model)
    return {g for g, exit_ in exit_of.items() if g != exit_} - set(blacklist)


def _check_single_exit(model) -> None:
    """Raise NotApplicable unless ``aggressive_blacklist`` may run under
    ``model``; ``plan_reductions`` checks it before building the exit map."""
    if not (FaultType.BITFLIP in model.fault_types
            or {FaultType.SET, FaultType.RESET} <= model.fault_types):
        raise NotApplicable("needs bf in T or {s,r} subset of T")
    if model.location not in ("c", "cr"):
        raise NotApplicable("needs location c or cr")


def _last_cycles(depth: dict, names, k) -> dict:
    """name -> the last cycle from which a fault on it reaches an output of
    ``depth`` by cycle k, 0 when there is none: a net in cycle c reaches one
    iff its depth is at most k - c."""
    return {n: max(0, k - depth.get(n, k)) for n in names}


def _cut(plan: ReductionPlan, circuit: SequentialCircuit, names, k, flag_only_goes) -> None:
    """The reach step's per-cycle cut.  A fault that reaches no output by
    cycle k (dead) changes nothing any output or the flag shows, whatever
    else is faulted, so dropping it from an effective vector leaves one.
    When a vector holds one event (n_e * min(n_c, k) = 1) and there is no
    separate golden circuit, the fault must itself change a data output, so
    one that reaches only the flag (flag-only) goes too.  It stays with two
    events or more, where a second fault in the detection logic can mask
    the first, and with a separate golden circuit, where lowering a raised
    flag shows the data outputs' disagreement with the golden ones.  Both
    rules are exact.

    Keep (c, n) only when c <= k - depth(n), depth being ``data_depth``
    when flag-only instances go and ``output_depth`` otherwise: the names
    kept in no cycle join the blacklist, and those kept up to some cycle
    before k keep it for ``ReductionPlan.prune``."""

    to_output = _last_cycles(circuit.output_depth, names, k)
    last = _last_cycles(circuit.data_depth, names, k) if flag_only_goes else to_output
    dead = sum(k - c for c in to_output.values())
    flag_only = sum(to_output[n] - last[n] for n in names)
    if not dead + flag_only:
        plan.skipped.append(SkippedReduction("reach", "no instance is dead or flag-only"))
        return
    dropped = frozenset(n for n, c in last.items() if not c)
    plan.effective_blacklist |= dropped
    plan._last_cycle = {n: c for n, c in last.items() if 0 < c < k}
    plan.applied.append(AppliedReduction(
        "reach", len(dropped), detail=f"instances dropped: {dead} dead, {flag_only} flag-only"))


def plan_reductions(unrolled: UnrolledCircuit, blacklist, model: FaultResistanceModel,
                    flags, separate_golden: bool = False) -> ReductionPlan:
    """Compose the requested reductions.  Fault types shrink first.  Then,
    without a separate golden circuit (``separate_golden`` says the miter's
    golden side is another circuit), when no vulnerable gate or register
    reaches a data output within k cycles, all of them join the blacklist as
    ``unobservable`` and the single-exit reduction, when requested, is
    recorded as skipped: the circuit is resistant without a miter.
    Otherwise the single-exit reduction runs when requested, and the reach
    step's per-cycle cut comes last (see ``_cut``), recorded as ``reach``
    with the names it blacklisted and, in ``detail``, the instances it
    dropped as dead and as flag-only.  Inapplicable requests are recorded,
    never silently dropped.  ``prune`` applies the cut to a location set.

    The unobservable test may run before the gate reduction because it
    blacklists a gate only when every path from it runs through one kept
    vulnerable gate of the same cycle, which reaches a data output no
    later: the test's outcome and the effective blacklist are the same
    either way, and only the gate reduction's own record differs."""

    circuit, k = unrolled.circuit, unrolled.k
    blacklist = check_blacklist(circuit, blacklist)
    plan = ReductionPlan(effective_model=model, effective_blacklist=blacklist)

    if flags.fault_type:
        try:
            plan.effective_model = reduce_fault_types(model)
            plan.applied.append(AppliedReduction(
                "fault_type", len(model.fault_types) - 1, detail="types -> {bf}"))
        except NotApplicable as e:
            plan.skipped.append(SkippedReduction("fault_type", e.reason))

    vulnerable = faultable_names(circuit, blacklist, model.location)
    if (vulnerable and not separate_golden
            and all(circuit.data_depth.get(n, k) >= k for n in vulnerable)):
        if flags.single_exit:
            plan.skipped.append(SkippedReduction(
                "single_exit", "no vulnerable gate or register reaches a data output"))
        plan.effective_blacklist = blacklist | vulnerable
        plan.applied.append(AppliedReduction("unobservable", len(vulnerable)))
        return plan

    if flags.single_exit:
        try:
            _check_single_exit(plan.effective_model)
            exit_of = single_exit_map(unrolled, plan.effective_blacklist)
            extra = aggressive_blacklist(exit_of, plan.effective_blacklist,
                                         plan.effective_model)
            plan.effective_blacklist = plan.effective_blacklist | frozenset(extra)
            plan.applied.append(AppliedReduction("single_exit", len(extra)))
        except NotApplicable as e:
            plan.skipped.append(SkippedReduction("single_exit", e.reason))

    vulnerable -= plan.effective_blacklist
    if not vulnerable:
        plan.skipped.append(SkippedReduction("reach", "no vulnerable gate or register"))
        return plan
    m = plan.effective_model
    _cut(plan, circuit, vulnerable, k,
         flag_only_goes=not separate_golden and m.n_e * min(m.n_c, k) == 1)
    return plan
