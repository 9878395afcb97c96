"""Validated in-memory circuit graph, cycle unrolling and fault-location sets.

A circuit is a single combinational frame (a DAG of gates) plus registers
with initial values.  Running it for k clock cycles means instantiating the
frame k times and threading the register values between cycles; we keep the
frame shared and address instances as ``name@cycle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import FaultresError

if TYPE_CHECKING:
    from .netlist_io import NetlistDoc


class CircuitError(FaultresError):
    pass


class CombinationalCycle(CircuitError):
    def __init__(self, path):
        super().__init__("combinational cycle: " + " -> ".join(path))
        self.path = list(path)


class NetlistError(FaultresError):
    """A netlist that breaks the grammar or means no circuit: ``name`` is the
    offending net or gate, ``line``/``col`` its statement (0 when unknown)."""

    def __init__(self, msg, line=0, col=0, name=None):
        loc = f"{line}:{col}: " if line else ""
        super().__init__(loc + msg)
        self.name = name
        self.line = line
        self.col = col


class NetlistSyntaxError(NetlistError):
    pass


class UndefinedNet(NetlistError):
    def __init__(self, name, line=0, col=0):
        super().__init__(f"undefined net {name!r}", line, col, name)


class DuplicateName(NetlistError):
    def __init__(self, name, line=0, col=0):
        super().__init__(f"duplicate net name {name!r}", line, col, name)


class MissingOutputDriver(NetlistError):
    def __init__(self, name, line=0, col=0):
        super().__init__(f"no gate, register or input drives {name!r}", line, col, name)


class UnknownGateKind(NetlistError):
    def __init__(self, gate, token, line=0, col=0):
        super().__init__(f"unknown gate kind {token!r}", line, col, gate)
        self.token = token


class ArityMismatch(NetlistError):
    def __init__(self, gate, kind, got, line=0, col=0):
        super().__init__(f"gate {gate!r}: {kind.value} takes {KIND_ARITY[kind]} "
                         f"operands, got {got}", line, col, gate)


class InvalidK(CircuitError):
    pass


def check_k(k):
    """The one check of a cycle count, for ``unroll`` and the config alike."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidK(f"k must be an integer >= 1, got {k!r}")


class ConfigError(FaultresError):
    pass


class InvalidModel(ConfigError):
    pass


class UnknownBlacklistGate(CircuitError):
    def __init__(self, name):
        super().__init__(f"blacklisted gate {name!r} is not a gate or register of the circuit")
        self.name = name


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    NOT = "not"
    BUF = "buf"
    CONST0 = "const0"
    CONST1 = "const1"


KIND_ARITY = {
    GateKind.AND: 2,
    GateKind.OR: 2,
    GateKind.NAND: 2,
    GateKind.NOR: 2,
    GateKind.XOR: 2,
    GateKind.XNOR: 2,
    GateKind.NOT: 1,
    GateKind.BUF: 1,
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
}

# Netlist token -> (kind, arity); the one table that reads a gate kind.
_KIND_TOKENS = {k.value: (k, arity) for k, arity in KIND_ARITY.items()}

# Evaluators over machine words: `ones` is the all-ones lane mask, so the same
# table serves single-bit simulation (ones=1) and bit-parallel sweeps.
KIND_EVAL = {
    GateKind.AND: lambda a, b, ones: a & b,
    GateKind.OR: lambda a, b, ones: a | b,
    GateKind.NAND: lambda a, b, ones: (a & b) ^ ones,
    GateKind.NOR: lambda a, b, ones: (a | b) ^ ones,
    GateKind.XOR: lambda a, b, ones: a ^ b,
    GateKind.XNOR: lambda a, b, ones: (a ^ b) ^ ones,
    GateKind.NOT: lambda a, b, ones: a ^ ones,
    GateKind.BUF: lambda a, b, ones: a,
    GateKind.CONST0: lambda a, b, ones: 0,
    GateKind.CONST1: lambda a, b, ones: ones,
}

LOCATION_CLASSES = ("c", "r", "cr")


class FaultType(Enum):
    SET = "s"       # output stuck at 1
    RESET = "r"     # output stuck at 0
    BITFLIP = "bf"  # output inverted

    @property
    def token(self):
        return self.value


class GateInstance(NamedTuple):
    """One fault location of the unrolled circuit: gate or register ``name``
    as seen in ``cycle``.  Gates and registers share one name space, so the
    pair alone says which; for a register the instance denotes the value
    *consumed* during ``cycle`` (the init value when cycle == 1).  A plain
    tuple, so it hashes and compares equal to ``(cycle, name)``.
    """

    cycle: int
    name: str

    @property
    def label(self) -> str:
        return f"{self.name}@{self.cycle}"


@dataclass(frozen=True)
class FaultResistanceModel:
    """Adversary budget: at most n_e events per cycle, events in at most n_c
    cycles, fault types drawn from ``fault_types``, locations limited by
    ``location`` ('c' logic gates, 'r' registers, 'cr' both).

    The one place a model is checked, for parsed configs and models built in
    code alike: n_e and n_c are integers >= 1 and not booleans,
    ``fault_types`` is a non-empty frozenset of FaultType members, and
    ``location`` is one of LOCATION_CLASSES, in that order; a defect raises
    InvalidModel."""

    n_e: int
    n_c: int
    fault_types: "frozenset[FaultType]"
    location: str

    def __post_init__(self):
        for name, count in (("ne", self.n_e), ("nc", self.n_c)):
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise InvalidModel(f"{name} must be an integer >= 1")
        types = self.fault_types
        if not isinstance(types, frozenset):
            raise InvalidModel(f"types must be a frozenset, got {type(types).__name__}")
        if not types:
            raise InvalidModel("types must not be empty")
        unknown = sorted(repr(t) for t in types if not isinstance(t, FaultType))
        if unknown:
            raise InvalidModel(f"unknown fault type {unknown[0]} (expected subset of "
                               f"{tuple(t.token for t in FaultType)})")
        self.check_location(self.location)

    @staticmethod
    def check_location(location):
        if location not in LOCATION_CLASSES:
            raise InvalidModel(f"location must be one of {LOCATION_CLASSES}, got {location!r}")

    @property
    def types(self) -> tuple:
        """The allowed fault types in declaration order: s, r, bf."""
        return tuple(t for t in FaultType if t in self.fault_types)

    def type_tokens(self):
        return tuple(t.token for t in self.types)


class Frame(NamedTuple):
    """One combinational frame gate (shared across cycles)."""

    name: str
    kind: GateKind
    operands: tuple


@dataclass
class SequentialCircuit:
    name: str
    inputs: tuple
    outputs: tuple
    flag: Optional[str]
    data_outputs: tuple  # the outputs but the flag, in output order
    registers: tuple  # of (name, init_bit)
    next_state: dict  # register name -> driving net name
    topo_order: tuple = ()
    gate_map: dict = field(default_factory=dict)
    successors: dict = field(default_factory=dict)  # net -> list of consumer gate names

    @cached_property
    def data_depth(self) -> dict:
        """net -> fewest register crossings on a path to a data output; nets
        with no such path are absent.  A net in cycle c reaches a data
        output by cycle k iff data_depth[net] <= k - c."""
        return _data_depths(self.data_outputs, self.gate_map, self.next_state)

    @cached_property
    def output_depth(self) -> dict:
        """As ``data_depth``, to any output, the flag included.  Only the
        reach step's per-cycle cut reads it, so it is walked on first use:
        a circuit that is unobservable under its config never pays for it."""
        return _data_depths(self.outputs, self.gate_map, self.next_state)

    @property
    def register_names(self):
        return tuple(r for r, _ in self.registers)

    @property
    def init_bits(self):
        return {r: b for r, b in self.registers}


def build_and_validate(doc: "NetlistDoc") -> SequentialCircuit:
    """Check what a netlist doc means and turn it into a circuit with a
    cached topological order of the frame.  The one place these checks run,
    for parsed docs and docs built in code alike: at least one input and
    output, known gate kinds and their arity, each net declared once,
    operands and next-state nets declared, outputs driven, a next state for
    every register, the flag among the outputs and not the only one, no
    combinational cycle.  Errors carry the doc's source locations, if it has
    any."""

    for head, nets in ((".inputs", doc.inputs), (".outputs", doc.outputs)):
        if not nets:
            raise NetlistSyntaxError(f"netlist has no {head} statement")
    locs = doc.source_locs
    regs = [r for r, _ in doc.registers]
    # Every declared net, in declaration order, to the gates that read it.
    consumers = {net: [] for net in chain(doc.inputs, regs, (g.name for g in doc.gates))}
    if len(consumers) < len(doc.inputs) + len(regs) + len(doc.gates):
        seen = set()
        for net in chain(doc.inputs, regs, (g.name for g in doc.gates)):
            if net in seen:
                raise DuplicateName(net, *_first_declaration(doc, net))
            seen.add(net)
    reg_set = set(regs)
    sources = set(doc.inputs) | reg_set

    # One pass over the gates checks each one and counts, for Kahn's
    # algorithm below, its operands that are gates; inputs and register
    # reads are sources and never part of a combinational cycle.
    gate_map = {}
    indeg = {}
    for g in doc.gates:
        name = g.name
        kind, arity = _KIND_TOKENS.get(g.kind, (None, None))
        if kind is None:
            raise UnknownGateKind(name, g.kind, g.line, g.col)
        ops = g.operands
        if len(ops) != arity:
            raise ArityMismatch(name, kind, len(ops), g.line, g.col)
        n = 0
        for op in ops:
            readers = consumers.get(op)
            if readers is None:
                raise UndefinedNet(op, g.line, g.col)
            if op not in sources:
                n += 1
            readers.append(name)
        indeg[name] = n
        # The NamedTuple constructor is a Python function; tuple.__new__ is not.
        gate_map[name] = tuple.__new__(Frame, (name, kind, ops))

    for out in doc.outputs:
        if out not in consumers:
            raise MissingOutputDriver(out, *locs.get(("output", out), (0, 0)))
    for reg, net in doc.next_state.items():
        at = locs.get(("next", reg), (0, 0))
        if reg not in reg_set:
            raise UndefinedNet(reg, *at)
        if net not in consumers:
            raise UndefinedNet(net, *at)
    for reg in regs:
        if reg not in doc.next_state:
            raise MissingOutputDriver(reg, *locs.get(("decl", reg), (0, 0)))

    flag = doc.flag_output
    data_outputs = tuple(o for o in doc.outputs if o != flag)
    if flag is not None:
        at = locs.get(("flag", flag), (0, 0))
        if flag not in consumers:
            raise UndefinedNet(flag, *at)
        if flag not in doc.outputs:
            raise NetlistSyntaxError(f"flag {flag!r} must be listed in .outputs", *at, flag)
        if not data_outputs:
            raise NetlistSyntaxError(f"flag {flag!r} is the only output: no data output "
                                     "to check", *at, flag)

    ready = [name for name, n in indeg.items() if n == 0]
    ready.reverse()
    topo = []
    while ready:
        n = ready.pop()
        topo.append(n)
        for succ in consumers[n]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)

    if len(topo) != len(gate_map):
        raise CombinationalCycle(_find_cycle(gate_map, sources))

    return SequentialCircuit(
        name=doc.name,
        inputs=tuple(doc.inputs),
        outputs=tuple(doc.outputs),
        flag=flag,
        data_outputs=data_outputs,
        registers=tuple(doc.registers),
        next_state=dict(doc.next_state),
        topo_order=tuple(topo),
        gate_map=gate_map,
        successors=consumers,
    )


def _first_declaration(doc: "NetlistDoc", net) -> tuple:
    """(line, col) of the first statement in the text that declares ``net``:
    the earlier of its input or register entry in ``source_locs`` and its
    first gate statement; (0, 0) for a doc built in code."""
    at = [(g.line, g.col) for g in doc.gates if g.name == net][:1]
    if ("decl", net) in doc.source_locs:
        at.append(doc.source_locs[("decl", net)])
    return min(at, default=(0, 0))


def _data_depths(outputs, gate_map, next_state) -> dict:
    """Breadth-first over register crossings, backward from ``outputs``:
    each level follows gate operands at the same depth, and a register read
    leads to its next-state net one level deeper."""
    depth = {}
    frontier = list(outputs)
    level = 0
    while frontier:
        stack = [net for net in frontier if net not in depth]
        depth.update((net, level) for net in stack)
        frontier = []
        while stack:
            net = stack.pop()
            g = gate_map.get(net)
            if g is not None:
                for op in g.operands:
                    if op not in depth:
                        depth[op] = level
                        stack.append(op)
            elif net in next_state:
                frontier.append(next_state[net])
        level += 1
    return depth


def _find_cycle(gate_map, sources):
    """Depth-first search over operand edges; returns the first cycle found
    as a gate path that starts and ends on the same gate.  The stack is
    explicit, so loops of any length are found without recursion."""
    color = {}  # gate -> 1 while on the path, 2 when finished
    for root in gate_map:
        if root in color:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(gate_map[root].operands)]
        while pending:
            for op in pending[-1]:
                if op in sources:
                    continue
                c = color.get(op)
                if c == 1:
                    return path[path.index(op):] + [op]
                if c is None:
                    color[op] = 1
                    path.append(op)
                    pending.append(iter(gate_map[op].operands))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return []


@dataclass(frozen=True)
class UnrolledCircuit:
    """The k-cycle instantiation of a circuit.  ``faults`` maps instances to
    fault types; an empty map is the golden circuit."""

    circuit: SequentialCircuit
    k: int
    faults: dict = field(default_factory=dict, hash=False)

    def instance_exists(self, inst: GateInstance) -> bool:
        # next_state has exactly the registers as keys.
        return 1 <= inst.cycle <= self.k and (inst.name in self.circuit.gate_map
                                              or inst.name in self.circuit.next_state)


def unroll(circuit: SequentialCircuit, k: int) -> UnrolledCircuit:
    check_k(k)
    return UnrolledCircuit(circuit, k)


def check_blacklist(circuit: SequentialCircuit, blacklist) -> frozenset:
    """``blacklist`` as a frozenset, once each name is found to be a gate or
    a register (next_state has exactly the registers as keys)."""
    for b in blacklist:
        if b not in circuit.gate_map and b not in circuit.next_state:
            raise UnknownBlacklistGate(b)
    return frozenset(blacklist)


def faultable_names(circuit: SequentialCircuit, blacklist, location: str) -> set:
    """The gates ('c'), registers ('r') or both ('cr') of ``location`` that
    ``blacklist`` leaves open to faults."""
    names = set()
    if location in ("c", "cr"):
        names.update(circuit.gate_map)
    if location in ("r", "cr"):
        names.update(circuit.register_names)
    return names - set(blacklist)


def fault_locations(unrolled: UnrolledCircuit, blacklist, location: str) -> set:
    """All fault-injectable instances: every cycle's instance of each
    ``faultable_names`` name."""

    FaultResistanceModel.check_location(location)
    names = faultable_names(unrolled.circuit, check_blacklist(unrolled.circuit, blacklist),
                            location)
    return {GateInstance(cycle, n) for cycle in range(1, unrolled.k + 1) for n in names}
