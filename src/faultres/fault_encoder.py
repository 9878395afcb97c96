"""Gadget construction and the conditionally-controlled circuit.

Every vulnerable gate instance is replaced by a gadget: a formula over the
gate's data inputs plus a fresh control input c (fault on/off) and, when more
than one fault type is allowed, selection inputs b1/b2 choosing the type.
With c = 0 a gadget is equivalent to the original gate, so assignments of the
control inputs range exactly over the admissible fault vectors.  A fault
acts on the gate's output: set makes it 1, reset 0, and a bit-flip negates
it.  The inputs of the instance labelled l (``name@cycle``) are named
``c[l]``, ``b1[l]`` and ``b2[l]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit_model import FaultType, GateKind, UnrolledCircuit
from .formula import ROLE_CONTROL, ROLE_INPUT, ROLE_SELECTION, FormulaBuilder
from .simulator import FaultEvent, FaultVector, UnknownInstance


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
    # decode_type's selection tree, built from its innermost choice outward:
    # sels[0] = 0 picks the last type, 1 the tree over the others.
    faulty = _faulted(b, orig, types[0])
    for t, sel in zip(types[1:], reversed(sels)):
        faulty = b.ite(sel, faulty, _faulted(b, orig, t))
    return b.ite(c, faulty, orig)


def _faulted(b, orig, fault):
    if fault is FaultType.SET:
        return b.true
    if fault is FaultType.RESET:
        return b.false
    return b.not_(orig)


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


@dataclass
class ControlledCircuit:
    """The instrumented unrolled circuit as a formula DAG, plus the mapping
    between gate instances and their control/selection variables."""

    builder: FormulaBuilder
    k: int
    data_outputs: tuple
    types: tuple
    input_vars: dict       # (cycle, input name) -> node
    taps: dict             # (cycle, output name) -> node
    flag_taps: dict        # cycle -> node (constant false when no flag)
    control_map: dict      # GateInstance -> (c, b1, b2) names, one per type
    cycle_controls: dict   # cycle -> list of control var names


def make_input_vars(builder: FormulaBuilder, circuit, k) -> dict:
    """Primary-input variables, cycle-major, shared between the golden and the
    instrumented build so the miter ranges over one input space."""
    out = {}
    for cycle in range(1, k + 1):
        for name in circuit.inputs:
            out[(cycle, name)] = builder.var(f"{name}@{cycle}", ROLE_INPUT)
    return out


def instrument(unrolled: UnrolledCircuit, locations, types: tuple,
               builder: FormulaBuilder, input_vars: dict) -> ControlledCircuit:
    """Replace every instance in ``locations`` by its gadget over the fault
    types ``types``, a tuple in s, r, bf order such as
    ``FaultResistanceModel.types``, on ``builder`` over the primary-input
    variables ``input_vars``.  With an empty location set this is simply
    the circuit-to-formula lowering.  Every net no fault reaches gets its
    fault-free node, so ``golden_taps`` on the same builder finds those
    nodes again instead of making new ones."""

    b = builder
    circuit = unrolled.circuit
    for inst in locations:
        if not unrolled.instance_exists(inst):
            raise UnknownInstance(inst)

    # Controls are numbered cycle-major, then gates before registers, each
    # in declaration order; the selections follow in the same order.
    rank = {name: i for i, name in
            enumerate((*(g.name for g in circuit.gates), *circuit.register_names))}
    control_map = {}
    cycle_controls = {}
    for inst in sorted(locations, key=lambda i: (i.cycle, rank[i.name])):
        names = tuple(f"{v}[{inst.label}]" for v in ("c", "b1", "b2")[:len(types)])
        b.var(names[0], ROLE_CONTROL)
        control_map[inst] = names
        cycle_controls.setdefault(inst.cycle, []).append(names[0])
    gadgets = {}  # cycle -> net name -> (control node, selection nodes)
    for (cycle, name), names in control_map.items():
        gadgets.setdefault(cycle, {})[name] = (
            b.var(names[0], ROLE_CONTROL), [b.var(s, ROLE_SELECTION) for s in names[1:]])

    taps = {}
    flag_taps = {}
    for cycle, env in _lower(b, unrolled, input_vars, None, gadgets, types):
        for o in circuit.outputs:
            taps[(cycle, o)] = env[o]
        flag_taps[cycle] = env[circuit.flag] if circuit.flag else b.false

    return ControlledCircuit(
        builder=b, k=unrolled.k, data_outputs=circuit.data_outputs, types=types,
        input_vars=input_vars, taps=taps, flag_taps=flag_taps, control_map=control_map,
        cycle_controls=cycle_controls)


def golden_taps(b: FormulaBuilder, unrolled: UnrolledCircuit, input_vars: dict) -> dict:
    """Fault-free taps of the data outputs, (cycle, name) -> node, built on
    ``b`` over the primary-input variables ``input_vars``.

    Only each cycle's data cone is lowered, in the walk order of
    ``instrument``.  On the builder of an ``instrument`` pass over the same
    circuit, a net no fault reaches lowers to its instrumented node, which
    hash-consing returns without adding a node, so only the fault-reachable
    nets a data output reads add nodes.  The taps are the nodes a full
    lowering yields.  Their creation order, and with it the CNF numbering,
    differs from a full lowering's only when a skipped cone (one only the
    flag reads) equals a data cone in structure and comes first in
    topological order."""

    circuit = unrolled.circuit
    taps = {}
    for cycle, env in _lower(b, unrolled, input_vars, circuit.data_depth, {}, ()):
        for o in circuit.data_outputs:
            taps[(cycle, o)] = env[o]
    return taps


def _lower(b, unrolled, input_vars, depth, gadgets, types):
    """The one circuit-to-formula walk, which fixes the node creation order
    and with it the CNF numbering: cycle-major, registers in declaration
    order, then gates in topological order.  Yields each cycle with its
    net -> node map.  A net in ``gadgets[cycle]`` lowers to its gadget over
    ``types``.  With ``depth`` (a circuit's ``data_depth``) only the data
    cone is lowered: in cycle c the nets with depth <= k - c, the only ones
    that reach a data output within the k cycles."""

    circuit, k = unrolled.circuit, unrolled.k
    gate_map, next_state, init = circuit.gate_map, circuit.next_state, circuit.init_bits
    order = (*circuit.register_names, *circuit.topo_order)
    env = {}
    for cycle in range(1, k + 1):
        before, env = env, {name: input_vars[(cycle, name)] for name in circuit.inputs}
        here = gadgets.get(cycle, {})
        nets = order if depth is None else [n for n in order if depth.get(n, k) <= k - cycle]
        for name in nets:
            g = gate_map.get(name)
            if g is None:  # a register reads its next-state net of the cycle before
                kind = GateKind.BUF
                ins = (b.const(init[name]) if cycle == 1 else before[next_state[name]],)
            else:
                kind, ins = g.kind, tuple(env[op] for op in g.operands)
            ctrl = here.get(name)
            env[name] = _kind_node(b, kind, ins) if ctrl is None else gadget(
                b, kind, types, ins, *ctrl)
        yield cycle, env


def decode_fault_vector(assignment, controlled: ControlledCircuit) -> FaultVector:
    """Unique fault vector compatible with a total control-input assignment."""

    return FaultVector(
        FaultEvent(inst, decode_type(controlled.types, [assignment[s] for s in names[1:]]))
        for inst, names in controlled.control_map.items() if assignment[names[0]])
