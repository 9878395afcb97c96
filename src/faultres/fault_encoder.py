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
    """The instrumented unrolled circuit as a formula DAG, lowered one cycle
    at a time by ``instrument``, plus its fault locations with their
    control/selection variable names."""

    builder: FormulaBuilder
    unrolled: UnrolledCircuit
    types: tuple
    located: dict          # cycle -> [(GateInstance, its (c, b1, b2) names, one per type)],
                           # in control order
    taps: dict             # (cycle, output name) -> node
    flag_taps: dict        # cycle -> node (constant false when no flag)
    env: dict              # net name -> node of the last cycle lowered


def make_input_vars(builder: FormulaBuilder, circuit, cycles) -> dict:
    """Primary-input variables of ``cycles``, cycle-major, as (cycle, input
    name) -> node.  The builder keeps them by name, so a name declared
    already returns its node and adds none: the golden and the instrumented
    build share them, and the miter ranges over one input space."""
    return {(cycle, name): builder.var(f"{name}@{cycle}", ROLE_INPUT)
            for cycle in cycles for name in circuit.inputs}


def controlled_circuit(unrolled: UnrolledCircuit, locations, types: tuple,
                       builder: FormulaBuilder) -> ControlledCircuit:
    """``unrolled`` with every instance in ``locations`` to be replaced by its
    gadget over the fault types ``types``, a tuple in s, r, bf order such as
    ``FaultResistanceModel.types``, on ``builder``.  Raises UnknownInstance
    for a location the circuit does not have.  No cycle is lowered yet: each
    ``instrument`` call lowers one more from the net map of the one before,
    which ``env`` holds.  ``located`` names each location's variables from
    the start, lowered or not."""

    circuit = unrolled.circuit
    located = {}
    for inst in locations:
        if not unrolled.instance_exists(inst):
            raise UnknownInstance(inst)
        located.setdefault(inst.cycle, []).append(inst)
    if located:
        # Controls are numbered cycle-major, then gates before registers,
        # each in declaration order; the selections follow in the same order.
        rank = {name: i for i, name in enumerate((*circuit.gate_map, *circuit.register_names))}
        kinds = ("c", "b1", "b2")[:len(types)]
        located = {cycle: [(inst, tuple(f"{v}[{inst.label}]" for v in kinds))
                           for inst in sorted(located[cycle], key=lambda i: rank[i.name])]
                   for cycle in sorted(located)}
    return ControlledCircuit(builder=builder, unrolled=unrolled, types=types,
                             located=located, taps={}, flag_taps={}, env={})


def instrument(controlled: ControlledCircuit) -> ControlledCircuit:
    """Lower the next cycle of ``controlled``: make its primary-input
    variables, then the controls of the cycle's ``located`` entries, then
    their selections, then lower the cycle's nets with a gadget at each
    location.  With no location in the cycle this is simply the
    circuit-to-formula lowering.  Every net no fault reaches gets its
    fault-free node, so ``golden_taps`` on the same builder finds those
    nodes again instead of making new ones."""

    b, circuit = controlled.builder, controlled.unrolled.circuit
    cycle = len(controlled.flag_taps) + 1  # flag_taps has one entry per cycle lowered
    inputs = make_input_vars(b, circuit, (cycle,))
    located = controlled.located.get(cycle, ())
    controls = [b.var(names[0], ROLE_CONTROL) for _, names in located]
    gadgets = {inst.name: (c, [b.var(s, ROLE_SELECTION) for s in names[1:]])
               for c, (inst, names) in zip(controls, located)}
    env = controlled.env = _lower(b, controlled.unrolled, cycle, inputs, controlled.env,
                                  None, gadgets, controlled.types)
    for o in circuit.outputs:
        controlled.taps[(cycle, o)] = env[o]
    controlled.flag_taps[cycle] = env[circuit.flag] if circuit.flag else b.false
    return controlled


def golden_taps(b: FormulaBuilder, unrolled: UnrolledCircuit, cycle: int,
                before: dict) -> dict:
    """Fault-free lowering of cycle ``cycle``'s data cone on ``b``, over
    the cycle's primary-input variables, found on ``b`` by name in the
    order ``unrolled`` declares them; its registers read ``before``, the map
    this returned for the cycle before.  Returns the cone's map of net name
    -> node, every data output included.

    Only the data cone is lowered, in the lowering order of ``instrument``.
    On the builder of an ``instrument`` pass over the same circuit, a net no
    fault reaches lowers to its instrumented node, which hash-consing
    returns without adding a node, so only the fault-reachable nets a data
    output reads add nodes.  The taps are the nodes a full lowering makes.
    Their creation order, and with it the CNF numbering, differs from a full
    lowering's only when a skipped cone (one only the flag reads) equals a
    data cone in structure and comes first in topological order."""

    return _lower(b, unrolled, cycle, make_input_vars(b, unrolled.circuit, (cycle,)), before,
                  unrolled.circuit.data_depth, {}, ())


def _lower(b, unrolled, cycle, inputs, before, depth, gadgets, types):
    """The one circuit-to-formula lowering of one cycle, which fixes the node
    creation order and with it the CNF numbering: cycles in order, and in
    each the registers in declaration order, then the gates in topological
    order.  Returns the cycle's net -> node map.  A register reads its
    next-state net in ``before``, the map of the cycle before, or its
    initial bit in cycle 1.  A net in ``gadgets`` lowers to its gadget over
    ``types``.  With ``depth`` (a circuit's ``data_depth``) only the data
    cone is lowered: the nets with depth <= k - cycle, the only ones that
    reach a data output within the k cycles."""

    circuit, k = unrolled.circuit, unrolled.k
    gate_map, next_state = circuit.gate_map, circuit.next_state
    init = circuit.init_bits if cycle == 1 else None
    order = (*circuit.register_names, *circuit.topo_order)
    nets = order if depth is None else [n for n in order if depth.get(n, k) <= k - cycle]
    env = {name: inputs[(cycle, name)] for name in circuit.inputs}
    for name in nets:
        g = gate_map.get(name)
        if g is None:  # a register reads its next-state net of the cycle before
            kind = GateKind.BUF
            ins = (b.const(init[name]) if init is not None else before[next_state[name]],)
        else:
            kind, ins = g.kind, tuple(env[op] for op in g.operands)
        ctrl = gadgets.get(name)
        env[name] = _kind_node(b, kind, ins) if ctrl is None else gadget(
            b, kind, types, ins, *ctrl)
    return env


def decode_fault_vector(assignment, controlled: ControlledCircuit) -> FaultVector:
    """Unique fault vector compatible with an assignment of the control
    inputs.  A location whose control the assignment lacks, one of a cycle
    never lowered, is fault-free."""

    return FaultVector(
        FaultEvent(inst, decode_type(controlled.types, [assignment[s] for s in names[1:]]))
        for locs in controlled.located.values() for inst, names in locs
        if assignment.get(names[0]))
