"""Gadget construction and the conditionally-controlled circuit.

Every vulnerable gate instance is replaced by a gadget: a formula over the
gate's data inputs plus a fresh control input c (fault on/off) and, when more
than one fault type is allowed, selection inputs b1/b2 choosing the type.
With c = 0 a gadget is equivalent to the original gate, so assignments of the
control inputs range exactly over the admissible fault vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .circuit_model import (
    BITFLIP_COMPLEMENT,
    GateKind,
    UnrolledCircuit,
)
from .errors import FaultresError
from .formula import ROLE_CONTROL, ROLE_INPUT, ROLE_SELECTION, FormulaBuilder
from .simulator import FaultEvent, FaultType, FaultVector


class EncoderError(FaultresError):
    pass


def _canonical_types(types):
    types = tuple(sorted(types, key=lambda t: t.order))
    if not types:
        raise EncoderError("fault-type set must be non-empty")
    return types


def faulted_kind(kind: GateKind, fault: FaultType) -> GateKind:
    """The gate a fault turns ``kind`` into: set and reset are constants,
    a bit-flip is the output-inverted kind."""
    if fault is FaultType.SET:
        return GateKind.CONST1
    if fault is FaultType.RESET:
        return GateKind.CONST0
    return BITFLIP_COMPLEMENT[kind]


def decode_type(types, bits) -> FaultType:
    """The selection code: while more than one type is left, a 1 keeps all
    but the last type and a 0 picks the last.  For {s, r, bf} the bits
    b1 b2 = 11 / 10 / 0- select s / r / bf."""
    for bit in bits[:len(types) - 1]:
        if not bit:
            return types[-1]
        types = types[:-1]
    return types[0]


def gadget(b: FormulaBuilder, kind: GateKind, types, ins, c, sels):
    """Formula node of a gate under fault control: c = 0 is the gate itself,
    c = 1 the faulty gate whose type the selection inputs ``sels`` pick."""
    orig = _kind_node(b, kind, ins)
    return b.ite(c, _fault_tree(b, kind, types, ins, sels), orig)


def _fault_tree(b, kind, types, ins, sels):
    # Module-level on purpose: a nested closure that calls itself is a
    # reference cycle, which keeps the builder alive until the cyclic
    # collector runs.
    if len(types) == 1:
        return _kind_node(b, faulted_kind(kind, types[0]), ins)
    rest = _fault_tree(b, kind, types[:-1], ins, sels[1:])
    return b.ite(sels[0], rest, _kind_node(b, faulted_kind(kind, types[-1]), ins))


def _kind_node(b: FormulaBuilder, kind: GateKind, ins):
    if kind is GateKind.AND:
        return b.and_(ins[0], ins[1])
    if kind is GateKind.OR:
        return b.or_(ins[0], ins[1])
    if kind is GateKind.NAND:
        return b.not_(b.and_(ins[0], ins[1]))
    if kind is GateKind.NOR:
        return b.not_(b.or_(ins[0], ins[1]))
    if kind is GateKind.XOR:
        return b.xor(ins[0], ins[1])
    if kind is GateKind.XNOR:
        return b.not_(b.xor(ins[0], ins[1]))
    if kind is GateKind.NOT:
        return b.not_(ins[0])
    if kind is GateKind.BUF:
        return ins[0]
    if kind is GateKind.CONST0:
        return b.false
    return b.true


@dataclass(frozen=True)
class ControlVars:
    c: str
    b1: Optional[str] = None
    b2: Optional[str] = None

    @property
    def selections(self):
        return tuple(n for n in (self.b1, self.b2) if n is not None)


@dataclass
class ControlledCircuit:
    """The instrumented unrolled circuit as a formula DAG, plus the mapping
    between gate instances and their control/selection variables."""

    builder: FormulaBuilder
    k: int
    outputs: tuple
    flag: Optional[str]
    types: tuple
    input_vars: dict       # (cycle, input name) -> node
    taps: dict             # (cycle, output name) -> node
    flag_taps: dict        # cycle -> node (constant false when no flag)
    control_map: dict      # GateInstance -> ControlVars
    cycle_controls: dict   # cycle -> list of control var names


def make_input_vars(builder: FormulaBuilder, circuit, k) -> dict:
    """Primary-input variables, cycle-major, shared between the golden and the
    instrumented build so the miter ranges over one input space."""
    out = {}
    for cycle in range(1, k + 1):
        for name in circuit.inputs:
            out[(cycle, name)] = builder.var(f"{name}@{cycle}", ROLE_INPUT)
    return out


def instrument(unrolled: UnrolledCircuit, locations, types,
               builder: Optional[FormulaBuilder] = None,
               input_vars: Optional[dict] = None) -> ControlledCircuit:
    """Replace every instance in ``locations`` by its gadget.  With an empty
    location set this is simply the circuit-to-formula lowering.  Every net no
    fault reaches gets its fault-free node, so ``golden_taps`` on the same
    builder finds those nodes again instead of making new ones."""

    types = _canonical_types(types)
    b = builder if builder is not None else FormulaBuilder()
    circuit = unrolled.circuit
    if input_vars is None:
        input_vars = make_input_vars(b, circuit, unrolled.k)

    for inst in locations:
        if not unrolled.instance_exists(inst):
            raise EncoderError(f"location {inst.label} is not an instance of the circuit")

    order = {g.name: i for i, g in enumerate(circuit.gates)}
    reg_order = {r: i for i, r in enumerate(circuit.register_names)}
    loc_sorted = sorted(locations,
                        key=lambda i: (i.cycle, i.is_register,
                                       reg_order[i.name] if i.is_register else order[i.name]))

    control_map = {}
    cycle_controls = {}
    by_cycle = {}  # cycle -> net name -> ControlVars
    sel_names = ("b1", "b2")[:len(types) - 1]
    for inst in loc_sorted:
        cv = ControlVars(f"c[{inst.label}]",
                         *(f"{s}[{inst.label}]" for s in sel_names))
        b.var(cv.c, ROLE_CONTROL)
        control_map[inst] = cv
        cycle_controls.setdefault(inst.cycle, []).append(cv.c)
        by_cycle.setdefault(inst.cycle, {})[inst.name] = cv
    for cv in control_map.values():
        for sel in cv.selections:
            b.var(sel, ROLE_SELECTION)

    def faulty(cv, kind, ins):
        return gadget(b, kind, types, ins, b.var(cv.c, ROLE_CONTROL),
                      [b.var(s, ROLE_SELECTION) for s in cv.selections])

    taps = {}
    flag_taps = {}
    state = {r: b.const(init) for r, init in circuit.registers}
    for cycle in range(1, unrolled.k + 1):
        here = by_cycle.get(cycle, {})
        env = {name: input_vars[(cycle, name)] for name in circuit.inputs}
        for r in circuit.register_names:
            cv = here.get(r)
            env[r] = state[r] if cv is None else faulty(cv, GateKind.BUF, (state[r],))
        for name in circuit.topo_order:
            g = circuit.gate_map[name]
            ins = tuple(env[op] for op in g.operands)
            cv = here.get(name)
            env[name] = _kind_node(b, g.kind, ins) if cv is None else faulty(cv, g.kind, ins)
        for o in circuit.outputs:
            taps[(cycle, o)] = env[o]
        flag_taps[cycle] = env[circuit.flag] if circuit.flag else b.false
        state = {r: env[circuit.next_state[r]] for r in circuit.register_names}

    return ControlledCircuit(
        builder=b, k=unrolled.k, outputs=circuit.outputs, flag=circuit.flag,
        types=types, input_vars=input_vars, taps=taps, flag_taps=flag_taps,
        control_map=control_map, cycle_controls=cycle_controls)


def golden_taps(b: FormulaBuilder, unrolled: UnrolledCircuit, input_vars: dict) -> dict:
    """Fault-free taps of the data outputs, (cycle, name) -> node, built on
    ``b`` over the primary-input variables ``input_vars``.

    Only each cycle's data cone is lowered: in cycle c the nets with
    ``data_depth <= k - c``, the only ones that reach a data output within
    the k cycles.  They are lowered in the order a full lowering visits them
    (cycle-major, registers, then topological order).  On the builder of an
    ``instrument`` pass over the same circuit, a net no fault reaches lowers
    to its instrumented node, which hash-consing returns without adding a
    node, so only the fault-reachable nets a data output reads add nodes.
    The taps are the nodes a full lowering yields.  Their creation order, and
    with it the CNF numbering, differs from a full lowering's only when a
    skipped cone (one only the flag reads) equals a data cone in structure
    and comes first in topological order."""

    circuit, k = unrolled.circuit, unrolled.k
    depth = circuit.data_depth
    data = [o for o in circuit.outputs if o != circuit.flag]
    init = circuit.init_bits
    taps = {}
    before = {}
    for c in range(1, k + 1):
        reach = k - c
        env = {name: input_vars[(c, name)] for name in circuit.inputs}
        for r in circuit.register_names:
            if depth.get(r, k) <= reach:
                env[r] = b.const(init[r]) if c == 1 else before[circuit.next_state[r]]
        for name in circuit.topo_order:
            if depth.get(name, k) <= reach:
                g = circuit.gate_map[name]
                env[name] = _kind_node(b, g.kind, tuple(env[op] for op in g.operands))
        for o in data:
            taps[(c, o)] = env[o]
        before = env
    return taps


def decode_fault_vector(assignment, controlled: ControlledCircuit) -> FaultVector:
    """Unique fault vector compatible with a total control-input assignment."""

    events = []
    for inst, cv in sorted(controlled.control_map.items(),
                           key=lambda kv: (kv[0].cycle, kv[0].name)):
        if not assignment[cv.c]:
            continue
        bits = [assignment[s] for s in cv.selections]
        events.append(FaultEvent(inst, decode_type(controlled.types, bits)))
    return FaultVector(events)
