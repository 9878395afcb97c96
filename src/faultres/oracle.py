"""Independent ground truth at desk scale: exhaustive fault-vector/input
enumeration, a SAT-reduction instance generator, and seeded random netlists
for the property-test corpus."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .circuit_model import (
    FaultResistanceModel,
    UnrolledCircuit,
    check_blacklist,
    fault_locations,
)
from .netlist_io import GateStmt, NetlistDoc, parse_netlist, write_netlist
from .reductions import ReductionPlan
from .sat_encoding import Counterexample, Verdict
from .errors import FaultresError
from .simulator import FaultEvent, FaultVector, check_effectiveness, find_witness


class OracleError(FaultresError):
    pass


class BudgetExceeded(OracleError):
    pass


class TooManyVars(OracleError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_input_bits: int = 16    # total across cycles
    max_vectors: int = 10 ** 6


@dataclass
class GeneratedInstance:
    doc: NetlistDoc
    expected: Optional[str] = None  # "resistant" | "not_resistant" | None


def enumerate_fault_vectors(locations, model: FaultResistanceModel,
                            budget: OracleBudget = OracleBudget()):
    """Every admissible non-empty fault vector, in deterministic order: vectors
    over fewer instances first, instances ordered by (cycle, gate name), and
    fault types in s < r < bf order with the last event varying fastest."""

    locs = sorted(locations, key=lambda i: (i.cycle, i.name))
    types = model.types
    produced = 0
    for size in range(1, len(locs) + 1):
        if size > model.n_e * model.n_c:
            break
        for combo in itertools.combinations(locs, size):
            cycles = {}
            for inst in combo:
                cycles[inst.cycle] = cycles.get(inst.cycle, 0) + 1
            if len(cycles) > model.n_c or max(cycles.values()) > model.n_e:
                continue
            for assignment in itertools.product(types, repeat=size):
                produced += 1
                if produced > budget.max_vectors:
                    raise BudgetExceeded(
                        f"more than {budget.max_vectors} admissible fault vectors")
                yield FaultVector(FaultEvent(inst, t)
                                  for inst, t in zip(combo, assignment))


def brute_force_verdict(unrolled: UnrolledCircuit, blacklist,
                        model: FaultResistanceModel,
                        budget: OracleBudget = OracleBudget()) -> Verdict:
    """Exhaustive decision: try every admissible fault vector against the whole
    input space; the first effective (vector, witness) pair in enumeration
    order becomes the counterexample."""

    circuit = unrolled.circuit
    blacklist = check_blacklist(circuit, blacklist)
    bits = len(circuit.inputs) * unrolled.k
    if bits > budget.max_input_bits:
        raise BudgetExceeded(
            f"{bits} input bits exceeds oracle budget {budget.max_input_bits}")

    locations = fault_locations(unrolled, blacklist, model.location)
    plan = ReductionPlan(effective_model=model, effective_blacklist=blacklist)
    for vector in enumerate_fault_vectors(locations, model, budget):
        witness = find_witness(unrolled, vector)
        if witness is not None:
            replay = check_effectiveness(unrolled, vector, witness)
            if not replay.effective:
                raise OracleError(
                    f"witness {witness} of {vector!r} is not effective on replay")
            return Verdict("not_resistant", plan, locations, Counterexample(
                vector, witness, replay.divergence_cycle, replay.differing_output))
    return Verdict("resistant", plan, locations)


# -- NP-hardness instance ------------------------------------------------------
#
# Reduction from CNF satisfiability: 2*ne+1 copies of the clause circuit feed a
# register bank that is copied once more one cycle later; the flag compares
# population counts against thresholds that exactly ne register flips in one
# cycle can evade iff the copies all output 1, i.e. iff the CNF is satisfiable.
# Faulting runs over registers only (location class 'r') with bit-flips.


class _NetBuilder:
    def __init__(self):
        self.gates = []
        self.counter = 0

    def emit(self, kind, *ops, name=None):
        if name is None:
            self.counter += 1
            name = f"n{self.counter}"
        self.gates.append(GateStmt(name, kind, tuple(ops)))
        return name

    def or_tree(self, nets):
        if not nets:
            return self.emit("const0")
        acc = nets[0]
        for n in nets[1:]:
            acc = self.emit("or", acc, n)
        return acc

    def and_tree(self, nets):
        if not nets:
            return self.emit("const1")
        acc = nets[0]
        for n in nets[1:]:
            acc = self.emit("and", acc, n)
        return acc

    def popcount(self, nets):
        """Gate-level population count (ripple carry-save), LSB first."""
        columns = [list(nets)]
        result = []
        col = 0
        while col < len(columns):
            bits = columns[col]
            while len(bits) >= 2:
                if len(bits) >= 3:
                    a, b, c = bits.pop(), bits.pop(), bits.pop()
                    ab = self.emit("xor", a, b)
                    s = self.emit("xor", ab, c)
                    c1 = self.emit("and", a, b)
                    c2 = self.emit("and", ab, c)
                    carry = self.emit("or", c1, c2)
                else:
                    a, b = bits.pop(), bits.pop()
                    s = self.emit("xor", a, b)
                    carry = self.emit("and", a, b)
                bits.append(s)
                if col + 1 == len(columns):
                    columns.append([])
                columns[col + 1].append(carry)
            result.append(bits[0] if bits else self.emit("const0"))
            col += 1
        return result

    def le_const(self, sum_bits, bound):
        """sum(msb..lsb) <= bound for a known constant bound."""
        width = len(sum_bits)
        kbits = [(bound >> i) & 1 for i in range(width)]
        if bound >= (1 << width) - 1:
            return self.emit("const1")
        # lt/eq ripple from the most significant bit down.
        lt = self.emit("const0")
        eq = self.emit("const1")
        for i in range(width - 1, -1, -1):
            b = sum_bits[i]
            if kbits[i]:
                nb = self.emit("not", b)
                lt = self.emit("or", lt, self.emit("and", eq, nb))
                eq = self.emit("and", eq, b)
            else:
                nb = self.emit("not", b)
                eq = self.emit("and", eq, nb)
        return self.emit("or", lt, eq)


def _clause_circuit(nb: _NetBuilder, clauses, var_nets, neg_nets):
    clause_nets = []
    for clause in clauses:
        lits = []
        for lit in clause:
            lits.append(var_nets[abs(lit)] if lit > 0 else neg_nets[abs(lit)])
        clause_nets.append(nb.or_tree(lits))
    return nb.and_tree(clause_nets)


def np_hardness_instance(phi_clauses, num_vars: int, n_e: int) -> GeneratedInstance:
    """A 3-cycle circuit that is not fault-resistant w.r.t. an empty blacklist
    and zeta(n_e, 1, {bf}, r) exactly when the given CNF is satisfiable."""

    if num_vars > 8:
        raise TooManyVars(f"{num_vars} CNF variables exceeds the desk-scale bound 8")
    for clause in phi_clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range")

    m = 2 * n_e + 1
    nb = _NetBuilder()
    inputs = [f"x{i}" for i in range(1, num_vars + 1)]
    var_nets = {i: f"x{i}" for i in range(1, num_vars + 1)}
    neg_nets = {i: nb.emit("not", f"x{i}", name=f"nx{i}") for i in range(1, num_vars + 1)}

    copy_nets = [_clause_circuit(nb, phi_clauses, var_nets, neg_nets) for _ in range(m)]

    registers = []
    next_state = {}
    for j in range(1, m + 1):
        registers.append((f"r{j}", 0))
        next_state[f"r{j}"] = copy_nets[j - 1]
        registers.append((f"rp{j}", 0))
        next_state[f"rp{j}"] = f"r{j}"

    # Two-register phase counter: is1/is2/is3 select the active cycle.
    registers.append(("ph_a", 0))
    registers.append(("ph_b", 0))
    one = nb.emit("const1", name="ph_one")
    next_state["ph_a"] = one
    next_state["ph_b"] = "ph_a"
    is1 = nb.emit("not", "ph_a", name="is1")
    nb_phb = nb.emit("not", "ph_b")
    is2 = nb.emit("and", "ph_a", nb_phb, name="is2")
    is3 = "ph_b"

    outputs = []
    for j in range(1, m + 1):
        m1 = nb.emit("and", is1, copy_nets[j - 1])
        m2 = nb.emit("and", is2, f"r{j}")
        m3 = nb.emit("and", is3, f"rp{j}")
        outputs.append(nb.emit("or", nb.emit("or", m1, m2), m3, name=f"o{j}"))

    r_bits = [f"r{j}" for j in range(1, m + 1)]
    rp_bits = [f"rp{j}" for j in range(1, m + 1)]
    c2_sum = nb.popcount(r_bits)
    c2_ge1 = nb.or_tree(r_bits)
    c2_le = nb.le_const(c2_sum, n_e)
    c2 = nb.emit("and", c2_ge1, c2_le)
    c3_ge1 = nb.or_tree(rp_bits)
    c3_not_all = nb.emit("not", nb.and_tree(rp_bits))
    c3 = nb.emit("and", c3_ge1, c3_not_all)
    flag = nb.emit("or", nb.emit("and", is2, c2), nb.emit("and", is3, c3), name="flag")

    doc = NetlistDoc(
        name=f"np_sat_{num_vars}v_{n_e}e",
        inputs=inputs,
        outputs=outputs + [flag],
        flag_output=flag,
        registers=registers,
        gates=nb.gates,
        next_state=next_state,
        default_cycles=3,
    )
    # Round-trip through the writer so generated docs honor the text grammar.
    doc = parse_netlist(write_netlist(doc))

    satisfiable = _truth_table_sat(phi_clauses, num_vars)
    return GeneratedInstance(
        doc=doc,
        expected="not_resistant" if satisfiable else "resistant",
    )


def _truth_table_sat(clauses, num_vars):
    for bits in itertools.product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any((bits[abs(l) - 1]) == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


# -- random netlists -----------------------------------------------------------

_BINARY = ("and", "or", "nand", "nor", "xor", "xnor")


def random_netlist(seed: int, max_gates: int = 12, max_regs: int = 2,
                   num_inputs: int = 3, with_flag: bool = True) -> GeneratedInstance:
    """Seed-deterministic valid netlist.  Flags come in three flavors: a real
    duplicate-and-compare detector, a junk function of internal nets, or a
    constant; across seeds this yields both verdicts under small models."""

    rng = random.Random(seed)
    nb = _NetBuilder()
    inputs = [f"i{n}" for n in range(num_inputs)]
    n_regs = rng.randint(0, max_regs)
    registers = [(f"rg{n}", rng.randint(0, 1)) for n in range(n_regs)]
    nets = list(inputs) + [r for r, _ in registers]

    n_gates = rng.randint(max(3, max_gates // 2), max_gates)
    for _ in range(n_gates):
        kind = rng.choice(_BINARY + ("not", "buf"))
        if kind in ("not", "buf"):
            ops = (rng.choice(nets),)
        else:
            ops = (rng.choice(nets), rng.choice(nets))
        nets.append(nb.emit(kind, *ops))

    gate_names = [g.name for g in nb.gates]
    next_state = {r: rng.choice(gate_names) for r, _ in registers}

    n_outputs = rng.randint(1, min(3, len(gate_names)))
    outputs = rng.sample(gate_names, n_outputs)

    flag_output = None
    if with_flag:
        flavor = rng.choice(["detector", "junk", "const"])
        if flavor == "detector":
            target = outputs[0]
            copy = _duplicate_cone(nb, target, set(inputs) | {r for r, _ in registers})
            flag_output = nb.emit("xor", target, copy, name="flg")
        elif flavor == "junk":
            a, b = rng.choice(gate_names), rng.choice(gate_names)
            flag_output = nb.emit(rng.choice(("and", "xor", "or")), a, b, name="flg")
        else:
            flag_output = nb.emit("const0" if rng.random() < 0.5 else "const1", name="flg")
        outputs = outputs + [flag_output]

    doc = NetlistDoc(
        name=f"rand{seed}",
        inputs=inputs,
        outputs=outputs,
        flag_output=flag_output,
        registers=registers,
        gates=nb.gates,
        next_state=next_state,
    )
    doc = parse_netlist(write_netlist(doc))
    return GeneratedInstance(doc=doc)


def _duplicate_cone(nb: _NetBuilder, root, sources):
    """Structural copy of a gate's input cone, sharing only primary sources.
    Gates are emitted in depth-first postorder, operands left to right; the
    stack is explicit, so cones of any depth are copied without recursion."""
    table = {g.name: g for g in nb.gates}
    mapping = {net: net for net in sources}
    stack = [root]
    while stack:
        net = stack[-1]
        if net in mapping:
            stack.pop()
            continue
        ops = table[net].operands
        pending = [op for op in ops if op not in mapping]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        mapping[net] = nb.emit(table[net].kind, *(mapping[op] for op in ops))
    return mapping[root]
