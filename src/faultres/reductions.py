"""Verdict-preserving shrinking of the fault-type set and the vulnerable-gate
set, applied before encoding.

Both optional gate reductions rest on the same observation: if every path
out of a gate (or a whole sub-circuit) is funneled through a single
downstream logic gate, a fault inside is either absorbed or
indistinguishable from one fault on that exit gate, so the inner gates need
no control variables of their own.  The unobservable reduction always runs
last: when no vulnerable gate can reach a data output at all, every
vulnerable gate and register is dropped and the circuit is resistant
without a miter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .circuit_model import (
    FaultResistanceModel,
    FaultType,
    SequentialCircuit,
    UnrolledCircuit,
    check_blacklist,
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


def _sink_nets(circuit: SequentialCircuit) -> set:
    """Nets read outside the frame's gates: output ports and register writes."""
    return set(circuit.outputs) | set(circuit.next_state.values())


def single_successor_blacklist(unrolled: UnrolledCircuit, blacklist, model) -> set:
    """Logic gates whose output feeds exactly one unprotected logic gate (and
    nothing else: no output port, no register).  Computed on the frame; the
    same set applies in every cycle.  Registers stay vulnerable, mirroring the
    exit-map reduction, so this set is always a subset of the aggressive one."""

    if not (FaultType.BITFLIP in model.fault_types
            or {FaultType.SET, FaultType.RESET} <= model.fault_types):
        raise NotApplicable("needs bf in T or {s,r} subset of T")
    if model.location not in ("c", "cr"):
        raise NotApplicable("needs location c or cr")

    circuit = unrolled.circuit
    sinks = _sink_nets(circuit)
    extra = set()
    for net in circuit.gate_map:
        if net in blacklist or net in sinks:
            continue
        succs = circuit.successors.get(net, ())
        if len(succs) == 1 and succs[0] not in blacklist:
            extra.add(net)
    return extra


def single_exit_map(unrolled: UnrolledCircuit, blacklist) -> dict:
    """Maximal single-exit sub-circuits, by one reverse-topological sweep of
    the frame: maps every gate and register to its exit gate.  A gate merges
    into its successors' common exit only when every successor (including
    output ports and register writes) already belongs to that exit, the exit
    is unprotected, and the exit is an internal logic gate.  Register reads
    are always their own exits and never merge downstream."""

    circuit = unrolled.circuit
    sinks = _sink_nets(circuit)
    exit_of = {}
    for net in reversed(circuit.topo_order):
        exit_of[net] = net
        succs = circuit.successors.get(net, ())
        if net in sinks or not succs:
            continue
        exits = {exit_of[s] for s in succs}
        if len(exits) == 1:
            exit_ = exits.pop()
            if exit_ not in blacklist and exit_ in circuit.gate_map:
                exit_of[net] = exit_
    for r in circuit.register_names:
        exit_of[r] = r
    return exit_of


def aggressive_blacklist(exit_of: dict, blacklist, model) -> set:
    """All gates absorbed into some other gate's exit sub-circuit; sound only
    for the pure bit-flip model on combinational locations."""

    if model.fault_types != frozenset({FaultType.BITFLIP}):
        raise NotApplicable("needs T = {bf}")
    if model.location not in ("c", "cr"):
        raise NotApplicable("needs location c or cr")
    return {g for g, exit_ in exit_of.items() if g != exit_} - set(blacklist)


def unobservable_blacklist(unrolled: UnrolledCircuit, blacklist, model) -> set:
    """Every vulnerable gate and register, when no fault on one can reach a
    data output (any output but the flag) within the unrolled cycles.

    A fault in cycle c reaches a data output by cycle k only from a net whose
    ``data_depth`` is at most k - c, so a vulnerable net reaches one in some
    cycle iff its depth is below k (cycle 1 has the most cycles left).  If
    none does, every data output in every cycle is the same function with
    and without faults, whatever the flag does, so the reduction is exact."""

    circuit = unrolled.circuit
    vulnerable = set()
    if model.location in ("c", "cr"):
        vulnerable.update(circuit.gate_map)
    if model.location in ("r", "cr"):
        vulnerable.update(circuit.register_names)
    vulnerable.difference_update(blacklist)
    if not vulnerable:
        raise NotApplicable("no vulnerable gate or register")

    k = unrolled.k
    observed = min((n for n in vulnerable if circuit.data_depth.get(n, k) < k), default=None)
    if observed is not None:
        raise NotApplicable(f"{observed!r} reaches a data output")
    return vulnerable


def plan_reductions(unrolled: UnrolledCircuit, blacklist, model: FaultResistanceModel,
                    flags) -> ReductionPlan:
    """Compose the requested reductions.  Fault types shrink first; then the
    single-exit reduction runs if the model is now pure bit-flip, otherwise
    the single-successor one.  Inapplicable requests are recorded, never
    silently dropped.  The unobservable reduction runs last whatever the
    flags say, because it is exact, and is recorded only when it fires."""

    blacklist = check_blacklist(unrolled.circuit, blacklist)
    plan = ReductionPlan(effective_model=model, effective_blacklist=blacklist)

    if flags.fault_type:
        try:
            plan.effective_model = reduce_fault_types(model)
            plan.applied.append(AppliedReduction(
                "fault_type", len(model.fault_types) - 1, detail="types -> {bf}"))
        except NotApplicable as e:
            plan.skipped.append(SkippedReduction("fault_type", e.reason))

    gate_reduction_done = False
    if flags.single_exit:
        try:
            exit_of = single_exit_map(unrolled, plan.effective_blacklist)
            extra = aggressive_blacklist(exit_of, plan.effective_blacklist,
                                         plan.effective_model)
            plan.effective_blacklist = plan.effective_blacklist | frozenset(extra)
            plan.applied.append(AppliedReduction("single_exit", len(extra)))
            gate_reduction_done = True
        except NotApplicable as e:
            plan.skipped.append(SkippedReduction("single_exit", e.reason))

    if flags.single_successor and not gate_reduction_done:
        try:
            extra = single_successor_blacklist(unrolled, plan.effective_blacklist,
                                               plan.effective_model)
            plan.effective_blacklist = plan.effective_blacklist | frozenset(extra)
            plan.applied.append(AppliedReduction("single_successor", len(extra)))
        except NotApplicable as e:
            plan.skipped.append(SkippedReduction("single_successor", e.reason))
    elif flags.single_successor and gate_reduction_done:
        plan.skipped.append(SkippedReduction(
            "single_successor", "subsumed by single_exit"))

    try:
        extra = unobservable_blacklist(unrolled, plan.effective_blacklist,
                                       plan.effective_model)
        plan.effective_blacklist = plan.effective_blacklist | frozenset(extra)
        plan.applied.append(AppliedReduction("unobservable", len(extra)))
    except NotApplicable:
        pass

    return plan
