"""Cycle-accurate evaluation of golden and faulted circuits, and ground-truth
effectiveness checking.

A fault vector is effective for a given input sequence when some non-flag
output diverges from the golden run at a cycle i while the faulty circuit's
error flag is still 0 at every cycle up to and including i (a flag that rises
in the divergence cycle counts as detection).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .circuit_model import KIND_EVAL, FaultType, GateInstance, UnrolledCircuit
from .errors import FaultresError


class SimulationError(FaultresError):
    pass


class ShapeMismatch(SimulationError):
    pass


class UnknownInstance(SimulationError):
    def __init__(self, inst):
        super().__init__(f"no such instance {inst.label}")
        self.instance = inst


class DuplicateInstance(SimulationError):
    def __init__(self, label):
        super().__init__(f"instance {label} faulted more than once")
        self.label = label


class EmptyVector(SimulationError):
    pass


class TooLargeForExhaustive(SimulationError):
    pass


@dataclass(frozen=True)
class FaultEvent:
    """A fault of ``fault_type`` on ``instance``.  Blacklist membership is the
    caller's responsibility: events are only built from fault-location sets."""

    instance: GateInstance
    fault_type: FaultType

    @property
    def label(self):
        return f"{self.instance.label}:{self.fault_type.token}"


class FaultVector:
    """A set of fault events with pairwise-distinct gate instances."""

    def __init__(self, events):
        events = frozenset(events)
        keys = {e.instance for e in events}
        if len(keys) != len(events):
            seen = set()
            for e in sorted(events, key=lambda e: e.instance):
                if e.instance in seen:
                    raise DuplicateInstance(e.instance.label)
                seen.add(e.instance)
        self.events = events

    def __iter__(self):
        return iter(self.sorted_events)

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return isinstance(other, FaultVector) and self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        return "FaultVector({%s})" % ", ".join(e.label for e in self.sorted_events)

    @property
    def sorted_events(self):
        return sorted(self.events, key=lambda e: e.instance)


@dataclass
class Trace:
    inputs: list   # per cycle, tuple of input bits
    outputs: list  # per cycle, dict output name -> bit
    flags: list    # per cycle, flag bit (0 when no flag output declared)


@dataclass(frozen=True)
class EffectivenessResult:
    effective: bool
    divergence_cycle: Optional[int] = None
    differing_output: Optional[str] = None


def apply_fault_vector(unrolled: UnrolledCircuit, vector: FaultVector) -> UnrolledCircuit:
    """A copy of the circuit with the vector's faults armed.  Set/reset faults
    behave as constant gates (incoming edges irrelevant), bit-flips invert the
    gate's output; register faults disturb the value read in that cycle."""

    faults = dict(unrolled.faults)
    for event in vector:
        if not unrolled.instance_exists(event.instance):
            raise UnknownInstance(event.instance)
        if event.instance in faults:
            raise DuplicateInstance(event.instance.label)
        faults[event.instance] = event.fault_type
    return replace(unrolled, faults=faults)


def _apply_value_fault(value, fault, ones):
    """The one fault semantics of the simulator, for gate outputs and register
    reads alike: set and reset force the value, a bit-flip inverts it."""
    if fault is None:
        return value
    if fault is FaultType.SET:
        return ones
    if fault is FaultType.RESET:
        return 0
    return value ^ ones


def _run_masked(unrolled: UnrolledCircuit, input_values, ones):
    """Shared evaluation core: input_values[cycle-1][input] is an int lane mask
    (plain 0/1 when ones == 1).  Returns per-cycle net environments."""

    circuit = unrolled.circuit
    faults = unrolled.faults  # GateInstance keys; equal to (cycle, name)
    state = {r: init * ones for r, init in circuit.registers}
    envs = []
    for cycle in range(1, unrolled.k + 1):
        env = dict(input_values[cycle - 1])
        for r in circuit.register_names:
            env[r] = _apply_value_fault(state[r], faults.get((cycle, r)), ones)
        for name in circuit.topo_order:
            g = circuit.gate_map[name]
            a = env[g.operands[0]] if g.operands else 0
            b = env[g.operands[1]] if len(g.operands) > 1 else 0
            f = faults.get((cycle, name))
            env[name] = _apply_value_fault(KIND_EVAL[g.kind](a, b, ones), f, ones)
        state = {r: env[circuit.next_state[r]] for r in circuit.register_names}
        envs.append(env)
    return envs


def run_trace(unrolled: UnrolledCircuit, inputs) -> Trace:
    """Evaluate the circuit for k cycles under the given input bit-vectors."""

    circuit = unrolled.circuit
    inputs = [tuple(v) for v in inputs]
    if len(inputs) != unrolled.k:
        raise ShapeMismatch(f"expected {unrolled.k} input vectors, got {len(inputs)}")
    for vec in inputs:
        if len(vec) != len(circuit.inputs):
            raise ShapeMismatch(
                f"expected {len(circuit.inputs)} input bits per cycle, got {len(vec)}")
        if any(b not in (0, 1) for b in vec):
            raise ShapeMismatch("input bits must be 0 or 1")

    input_values = [dict(zip(circuit.inputs, vec)) for vec in inputs]
    envs = _run_masked(unrolled, input_values, ones=1)

    outputs = [{o: env[o] for o in circuit.outputs} for env in envs]
    flags = [env[circuit.flag] if circuit.flag else 0 for env in envs]
    return Trace(inputs=inputs, outputs=outputs, flags=flags)


def check_effectiveness(golden: UnrolledCircuit, vector: FaultVector,
                        inputs) -> EffectivenessResult:
    """Ground truth for one (vector, inputs) pair, straight from the definition."""

    if len(vector) == 0:
        raise EmptyVector("effectiveness is defined for non-empty fault vectors")
    gold = run_trace(golden, inputs)
    faulty = run_trace(apply_fault_vector(golden, vector), inputs)

    for i in range(1, golden.k + 1):
        if faulty.flags[i - 1] != 0:
            break  # detected at cycle i; no later cycle can qualify
        for o in golden.circuit.data_outputs:
            if gold.outputs[i - 1][o] != faulty.outputs[i - 1][o]:
                return EffectivenessResult(True, i, o)
    return EffectivenessResult(False)


# -- exhaustive witness search -----------------------------------------------
#
# All 2^(|inputs| * k) input sequences are evaluated at once by packing one
# sequence per bit lane of a big integer.  Lane p assigns the j-th bit of the
# flattened sequence (cycle-major, inputs in declaration order) the value
# (p >> (N-1-j)) & 1, so lane order is exactly lexicographic sequence order
# and the lowest effective lane is the first witness.

MAX_EXHAUSTIVE_BITS = 24


def _lane_masks(num_bits):
    total = 1 << num_bits
    all_ones = (1 << total) - 1
    masks = []
    for j in range(num_bits):
        b = num_bits - 1 - j
        block = (1 << (1 << b)) - 1
        comb = all_ones // ((1 << (1 << (b + 1))) - 1)
        masks.append(comb * (block << (1 << b)))
    return masks, all_ones


def _masked_inputs(circuit, k):
    num_bits = len(circuit.inputs) * k
    masks, ones = _lane_masks(num_bits)
    values = []
    pos = 0
    for _ in range(k):
        row = {}
        for name in circuit.inputs:
            row[name] = masks[pos]
            pos += 1
        values.append(row)
    return values, ones


def _lane_to_inputs(lane, circuit, k):
    num_bits = len(circuit.inputs) * k
    bits = [(lane >> (num_bits - 1 - j)) & 1 for j in range(num_bits)]
    n = len(circuit.inputs)
    return tuple(tuple(bits[c * n:(c + 1) * n]) for c in range(k))


def _effective_lanes(golden_envs, faulty_envs, circuit, k, ones):
    flag = circuit.flag
    eff = 0
    flag_ok = ones
    for i in range(k):
        genv = golden_envs[i]
        fenv = faulty_envs[i]
        if flag is not None:
            flag_ok &= fenv[flag] ^ ones
        diff = 0
        for o in circuit.data_outputs:
            diff |= genv[o] ^ fenv[o]
        eff |= diff & flag_ok
    return eff


def find_witness(golden: UnrolledCircuit, vector: FaultVector):
    """First input sequence (lexicographic order) on which the vector is
    effective, or None.  Exhausts the whole input space, so the circuit must
    have at most MAX_EXHAUSTIVE_BITS total input bits."""

    if len(vector) == 0:
        raise EmptyVector("witness search needs a non-empty fault vector")
    circuit = golden.circuit
    num_bits = len(circuit.inputs) * golden.k
    if num_bits > MAX_EXHAUSTIVE_BITS:
        raise TooLargeForExhaustive(
            f"{num_bits} input bits exceeds the exhaustive bound {MAX_EXHAUSTIVE_BITS}")

    values, ones = _masked_inputs(circuit, golden.k)
    golden_envs = _run_masked(golden, values, ones)
    faulty_envs = _run_masked(apply_fault_vector(golden, vector), values, ones)
    eff = _effective_lanes(golden_envs, faulty_envs, circuit, golden.k, ones)
    if eff == 0:
        return None
    lane = (eff & -eff).bit_length() - 1
    return _lane_to_inputs(lane, circuit, golden.k)
