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
    KIND_EVAL,
    GateInstance,
    GateKind,
    UnrolledCircuit,
)
from .errors import FaultresError
from .formula import ROLE_CONTROL, ROLE_INPUT, ROLE_SELECTION, FormulaBuilder
from .simulator import FaultEvent, FaultType, FaultVector


class EncoderError(FaultresError):
    pass


class IncompleteAssignment(EncoderError):
    def __init__(self, name):
        super().__init__(f"assignment missing control variable {name!r}")
        self.name = name


def _canonical_types(types):
    return tuple(sorted(types, key=lambda t: t.order))


@dataclass(frozen=True)
class Gadget:
    """Fault gadget for one gate kind and an allowed fault-type set."""

    kind: GateKind
    types: tuple  # canonical order: s < r < bf

    @property
    def selection_count(self):
        return len(self.types) - 1

    def _faulty_build(self, b: FormulaBuilder, fault, ins):
        if fault is FaultType.SET:
            return b.true
        if fault is FaultType.RESET:
            return b.false
        return _kind_node(b, BITFLIP_COMPLEMENT[self.kind], ins)

    def build(self, b: FormulaBuilder, ins, c, b1=None, b2=None):
        """Formula node: c selects faulty behavior, b1/b2 select the type."""
        orig = _kind_node(b, self.kind, ins)
        if len(self.types) == 1:
            faulty = self._faulty_build(b, self.types[0], ins)
        elif len(self.types) == 2:
            faulty = b.ite(b1,
                           self._faulty_build(b, self.types[0], ins),
                           self._faulty_build(b, self.types[1], ins))
        else:
            faulty = b.ite(b1,
                           b.ite(b2,
                                 self._faulty_build(b, FaultType.SET, ins),
                                 self._faulty_build(b, FaultType.RESET, ins)),
                           self._faulty_build(b, FaultType.BITFLIP, ins))
        return b.ite(c, faulty, orig)

    def evaluate(self, ins, c, b1=0, b2=0):
        """Reference semantics on plain bits, for truth-table checks."""
        a = ins[0] if ins else 0
        bb = ins[1] if len(ins) > 1 else 0
        if not c:
            return KIND_EVAL[self.kind](a, bb, 1)
        fault = self.decode_type(b1, b2)
        if fault is FaultType.SET:
            return 1
        if fault is FaultType.RESET:
            return 0
        return KIND_EVAL[BITFLIP_COMPLEMENT[self.kind]](a, bb, 1)

    def decode_type(self, b1, b2) -> FaultType:
        if len(self.types) == 1:
            return self.types[0]
        if len(self.types) == 2:
            return self.types[0] if b1 else self.types[1]
        if b1 and b2:
            return FaultType.SET
        if b1:
            return FaultType.RESET
        return FaultType.BITFLIP


def build_gadget(kind: GateKind, types) -> Gadget:
    types = _canonical_types(types)
    if not types:
        raise EncoderError("fault-type set must be non-empty")
    return Gadget(kind, types)


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

    def names(self):
        return tuple(n for n in (self.c, self.b1, self.b2) if n is not None)


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

    def control_var_names(self):
        out = []
        for cycle in range(1, self.k + 1):
            out.extend(self.cycle_controls.get(cycle, ()))
        return out


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
    location set this is simply the circuit-to-formula lowering, which is also
    how the golden reference side gets built."""

    types = _canonical_types(types)
    if not types:
        raise EncoderError("fault-type set must be non-empty")
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
    loc_set = set(loc_sorted)

    control_map = {}
    cycle_controls = {}
    sel_count = len(types) - 1
    for inst in loc_sorted:
        c_name = f"c[{inst.label}]"
        b1_name = f"b1[{inst.label}]" if sel_count >= 1 else None
        b2_name = f"b2[{inst.label}]" if sel_count >= 2 else None
        b.var(c_name, ROLE_CONTROL)
        control_map[inst] = ControlVars(c_name, b1_name, b2_name)
        cycle_controls.setdefault(inst.cycle, []).append(c_name)
    for inst in loc_sorted:
        cv = control_map[inst]
        for sel in (cv.b1, cv.b2):
            if sel is not None:
                b.var(sel, ROLE_SELECTION)

    def control_nodes(inst):
        cv = control_map[inst]
        c = b.var(cv.c, ROLE_CONTROL)
        b1 = b.var(cv.b1, ROLE_SELECTION) if cv.b1 else None
        b2 = b.var(cv.b2, ROLE_SELECTION) if cv.b2 else None
        return c, b1, b2

    taps = {}
    flag_taps = {}
    state = {r: b.const(init) for r, init in circuit.registers}
    for cycle in range(1, unrolled.k + 1):
        env = {name: input_vars[(cycle, name)] for name in circuit.inputs}
        for r in circuit.register_names:
            read = state[r]
            inst = GateInstance(cycle, r, is_register=True)
            if inst in loc_set:
                gadget = build_gadget(GateKind.BUF, types)
                c, b1, b2 = control_nodes(inst)
                read = gadget.build(b, (read,), c, b1, b2)
            env[r] = read
        for name in circuit.topo_order:
            g = circuit.gate_map[name]
            ins = tuple(env[op] for op in g.operands)
            inst = GateInstance(cycle, name)
            if inst in loc_set:
                gadget = build_gadget(g.kind, types)
                c, b1, b2 = control_nodes(inst)
                env[name] = gadget.build(b, ins, c, b1, b2)
            else:
                env[name] = _kind_node(b, g.kind, ins)
        for o in circuit.outputs:
            taps[(cycle, o)] = env[o]
        flag_taps[cycle] = env[circuit.flag] if circuit.flag else b.false
        state = {r: env[circuit.next_state[r]] for r in circuit.register_names}

    return ControlledCircuit(
        builder=b, k=unrolled.k, outputs=circuit.outputs, flag=circuit.flag,
        types=types, input_vars=input_vars, taps=taps, flag_taps=flag_taps,
        control_map=control_map, cycle_controls=cycle_controls)


def canonical_assignment(controlled: ControlledCircuit, vector: FaultVector) -> dict:
    """The control-input assignment compatible with a fault vector: c = 1 at
    its instances with selection bits per type, everything else 0."""

    assignment = {}
    for inst, cv in controlled.control_map.items():
        for name in cv.names():
            assignment[name] = False
    for event in vector:
        cv = controlled.control_map.get(event.instance)
        if cv is None:
            raise EncoderError(f"event at {event.instance.label} outside instrumented locations")
        assignment[cv.c] = True
        types = controlled.types
        if len(types) == 2:
            assignment[cv.b1] = event.fault_type is types[0]
        elif len(types) == 3:
            if event.fault_type is FaultType.SET:
                assignment[cv.b1] = True
                assignment[cv.b2] = True
            elif event.fault_type is FaultType.RESET:
                assignment[cv.b1] = True
                assignment[cv.b2] = False
            else:
                assignment[cv.b1] = False
        if event.fault_type not in types:
            raise EncoderError(f"fault type {event.fault_type.token} not encodable")
    return assignment


def decode_fault_vector(assignment, controlled: ControlledCircuit) -> FaultVector:
    """Unique fault vector compatible with a control-input assignment."""

    events = []
    for inst, cv in sorted(controlled.control_map.items(),
                           key=lambda kv: (kv[0].cycle, kv[0].name)):
        if cv.c not in assignment:
            raise IncompleteAssignment(cv.c)
        if not assignment[cv.c]:
            continue
        gadget = build_gadget(GateKind.BUF, controlled.types)
        b1 = bool(assignment.get(cv.b1, False)) if cv.b1 else False
        b2 = bool(assignment.get(cv.b2, False)) if cv.b2 else False
        events.append(FaultEvent(inst, gadget.decode_type(b1, b2)))
    return FaultVector(events)
