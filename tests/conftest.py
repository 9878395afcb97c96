import pytest

from faultres import build_and_validate, parse_config, parse_netlist, unroll
from faultres.circuit_model import GateInstance
from faultres.fault_encoder import controlled_circuit, golden_taps, instrument
from faultres.fixtures import fixture_text
from faultres.formula import (
    AND,
    CONST,
    ITE,
    NOT,
    OR,
    ROLE_INPUT,
    VAR,
    XOR,
    BoolFormula,
    CardinalityConstraint,
    FormulaBuilder,
    tseitin_cnf,
)
from faultres.reductions import ReductionPlan
from faultres.sat_encoding import EncodedProblem, build_fr_formula

# Golden truth table of the 4-bit S-box, input value 0..15 (a msb), output wxyz.
SBOX = [
    "0110", "0101", "1100", "1010", "0001", "1110", "0111", "1001",
    "1011", "0000", "0011", "1101", "1000", "1111", "0100", "0010",
]

# Faulty tables for a single fault on gate s7 / gate z (all 16 inputs).
#
# Two cells are corrected misprints of the published table, re-derived by hand
# and confirmed by the table's own internal consistency:
#   - (s7, bf) at input 1010 is 1011, not 0011: an s7 bit-flip always flips
#     output w (w = s1 ^ s7), and the (s7, r) row itself shows 1011 there
#     (s7 = 1 at 1010, so reset and bit-flip must agree).
#   - (z, r) at input 1100 is 1000 (= golden): gate z is already 0 at 1100,
#     so a reset changes nothing, and z's fanout cone {x, z} cannot touch w.
SBOX_FAULTY = {
    ("s7", "s"): ["1110", "1101", "0100", "0010", "0001", "0110", "1111", "1001",
                  "1011", "1000", "0011", "0101", "0000", "0111", "1100", "1010"],
    ("s7", "r"): ["0110", "0101", "1100", "1010", "1001", "1110", "0111", "0001",
                  "0011", "0000", "1011", "1101", "1000", "1111", "0100", "0010"],
    ("s7", "bf"): ["1110", "1101", "0100", "0010", "1001", "0110", "1111", "0001",
                   "0011", "1000", "1011", "0101", "0000", "0111", "1100", "1010"],
    ("z", "s"): ["0011", "0101", "1101", "1011", "0001", "1111", "0111", "1001",
                 "1011", "0101", "0011", "1101", "1001", "1111", "0001", "0111"],
    ("z", "r"): ["0110", "0000", "1100", "1010", "0000", "1110", "0010", "1100",
                 "1110", "0000", "0010", "1100", "1000", "1110", "0100", "0010"],
    ("z", "bf"): ["0011", "0000", "1101", "1011", "0000", "1111", "0010", "1100",
                  "1110", "0101", "0010", "1100", "1001", "1110", "0001", "0111"],
}


# A duplicate-and-compare circuit with the original and the comparator
# blacklisted: the copy (b_o, b_n, b_r) reaches only the flag, so no fault can
# change the data output and the circuit is resistant by its structure.
DUP_COMPARE = (".inputs a b\n.outputs o flag\n.flag flag\n"
               ".reg r init=0\n.reg b_r init=0\n"
               "gate o = and(a, r)\ngate n = or(o, b)\nnext r = n\n"
               "gate b_o = and(a, b_r)\ngate b_n = or(b_o, b)\nnext b_r = b_n\n"
               "gate k_o = xor(o, b_o)\ngate k_r = xor(r, b_r)\n"
               "gate flag = or(k_o, k_r)\n")
DUP_COMPARE_CONFIG = ('{"k": 2, "model": {"ne": 1, "nc": 1, "types": ["s", "r", "bf"], '
                      '"location": "cr"}, "blacklist": ["o", "n", "r", "k_o", "k_r", "flag"]}')


def input_bits(value):
    return tuple((value >> (3 - i)) & 1 for i in range(4))


# Test oracles and views of the encoder's data that the package itself never
# needs.

_NODE_OPS = {
    NOT: lambda v: not v[0],
    AND: lambda v: v[0] and v[1],
    OR: lambda v: v[0] or v[1],
    XOR: lambda v: v[0] != v[1],
    ITE: lambda v: v[1] if v[0] else v[2],
}


def evaluate(builder, root, assignment):
    """Value of formula node ``root`` under a name -> bool assignment in which
    unassigned variables are False.  A node's arguments are older nodes, so
    one pass in id order evaluates every node up to ``root``."""
    val = []
    for kind, args in zip(builder.kinds[:root + 1], builder.args):
        if kind == CONST:
            val.append(bool(args[0]))
        elif kind == VAR:
            val.append(bool(assignment.get(args[0], False)))
        else:
            val.append(_NODE_OPS[kind]([val[a] for a in args]))
    return val[root]


def formula_holds(formula, assignment):
    """A BoolFormula's meaning: the root holds, no cardinality bound is
    exceeded, and each counted variable with a group is the OR of it."""
    def value(v):
        return bool(assignment.get(v, False))

    return evaluate(formula.builder, formula.root, assignment) and all(
        sum(1 for v in c.var_names if value(v)) <= c.bound
        and all(value(v) == any(map(value, g)) for v, g in zip(c.var_names, c.groups))
        for c in formula.cardinality)


def counter_cnf(n, k):
    """The clauses and auxiliary variables of the bound sum <= k over n
    inputs numbered 1..n, lowered by ``tseitin_cnf`` as ``verify`` lowers
    its n_e and n_c bounds: the auxiliaries are n+1 onward."""
    fb = FormulaBuilder()
    names = tuple(f"x{i}" for i in range(1, n + 1))
    for name in names:
        fb.var(name, ROLE_INPUT)
    cnf = tseitin_cnf(BoolFormula(fb, fb.true, [CardinalityConstraint(names, k)]))
    return cnf.clauses, list(range(n + 1, cnf.num_vars + 1))


def selection_bits(types, fault):
    """Inverse of ``decode_type``: the bits that select ``fault``; the
    selection inputs after them are don't-cares."""
    i = types.index(fault)
    return (True,) * (len(types) - 1 - i) + ((False,) if i else ())


def location_names(controlled):
    """Each location of ``controlled`` -> its (c, b1, b2) names, one per
    type, in control order."""
    return {inst: names for locs in controlled.located.values() for inst, names in locs}


def control_names(controlled, cycle):
    """The control names of ``cycle``'s locations, in control order."""
    return tuple(names[0] for _, names in controlled.located.get(cycle, ()))


def canonical_assignment(controlled, vector):
    """The control-input assignment compatible with a fault vector: c = 1 at
    its instances with selection bits per type, everything else 0."""
    named = location_names(controlled)
    assignment = {name: False for names in named.values() for name in names}
    for event in vector:
        c, *selections = named[event.instance]
        assert event.fault_type in controlled.types, event
        assignment[c] = True
        assignment.update(zip(selections,
                              selection_bits(controlled.types, event.fault_type)))
    return assignment


def lowered(unrolled, locations, types, builder=None):
    """``unrolled`` with a gadget over ``types`` at every instance in
    ``locations``, every cycle lowered (one ``instrument`` call each), on
    ``builder`` or a new one."""
    controlled = controlled_circuit(unrolled, locations, types, builder or FormulaBuilder())
    for _ in range(unrolled.k):
        instrument(controlled)
    return controlled


def fr_formula(golden, controlled, model):
    """The whole fault-resistance formula: ``build_fr_formula`` once per
    cycle of ``controlled``, lowered whole, against the unrolled circuit
    ``golden``; the formula of the last cycle is complete."""
    problem = EncodedProblem(ReductionPlan(model, frozenset()), set(), controlled, golden)
    for _ in range(controlled.unrolled.k):
        formula = build_fr_formula(problem)
    return formula


def all_golden_taps(b, unrolled):
    """The data output nodes of ``golden_taps`` called for every cycle in
    turn, as (cycle, output name) -> node."""
    taps, env = {}, {}
    for cycle in range(1, unrolled.k + 1):
        env = golden_taps(b, unrolled, cycle, env)
        taps.update({(cycle, o): env[o] for o in unrolled.circuit.data_outputs})
    return taps


def dup_and_compare(doc):
    """Netlist text of ``doc`` next to a copy of itself (gates and registers
    prefixed ``b_``), each data output compared with its copy's and the
    comparisons ORed into the flag; returns the text, the names of the
    original gates and registers, and the names of the comparator."""
    nets = {r for r, _ in doc.registers} | {g.name for g in doc.gates}

    def cp(net):
        return "b_" + net if net in nets else net

    lines = [".inputs " + " ".join(doc.inputs),
             ".outputs " + " ".join(doc.outputs) + " flag", ".flag flag"]
    for r, init in doc.registers:
        lines += [f".reg {r} init={init}", f".reg b_{r} init={init}"]
    for g in doc.gates:
        lines.append(f"gate {g.name} = {g.kind}({', '.join(g.operands)})")
        lines.append(f"gate b_{g.name} = {g.kind}({', '.join(cp(o) for o in g.operands)})")
    checker = []
    acc = None
    for o in doc.outputs:
        lines.append(f"gate k_{o} = xor({o}, b_{o})")
        checker.append(f"k_{o}")
        if acc is not None:
            lines.append(f"gate t_{o} = or({acc}, k_{o})")
            checker.append(f"t_{o}")
        acc = checker[-1]
    lines.append(f"gate flag = buf({acc})")
    for r, _ in doc.registers:
        lines += [f"next {r} = {doc.next_state[r]}", f"next b_{r} = {cp(doc.next_state[r])}"]
    return "\n".join(lines) + "\n", nets, set(checker) | {"flag"}


def exit_groups(exit_of):
    """The paper's M2 sets from a gate -> exit map: each exit gate's
    single-exit sub-circuit, itself included."""
    groups = {}
    for gate, exit_ in exit_of.items():
        groups.setdefault(exit_, set()).add(gate)
    return groups


def sharp_clk(vector):
    """Number of distinct fault-active cycles."""
    return len({e.instance.cycle for e in vector})


def max_epc(vector):
    """Maximum number of events in any single cycle."""
    counts = {}
    for e in vector:
        counts[e.instance.cycle] = counts.get(e.instance.cycle, 0) + 1
    return max(counts.values(), default=0)


def instances(unrolled):
    """All gate instances, logic then registers, cycle-major."""
    out = []
    for cycle in range(1, unrolled.k + 1):
        out += [GateInstance(cycle, g) for g in unrolled.circuit.gate_map]
        out += [GateInstance(cycle, r) for r in unrolled.circuit.register_names]
    return out


@pytest.fixture(scope="session")
def rect_parity_doc():
    return parse_netlist(fixture_text("rect_parity.nl"))


@pytest.fixture(scope="session")
def rect_parity(rect_parity_doc):
    return build_and_validate(rect_parity_doc)


@pytest.fixture(scope="session")
def rect_parity_unrolled(rect_parity):
    return unroll(rect_parity, 1)


@pytest.fixture(scope="session")
def rect_revised_doc():
    return parse_netlist(fixture_text("rect_revised.nl"))


@pytest.fixture(scope="session")
def rect_revised(rect_revised_doc):
    return build_and_validate(rect_revised_doc)


@pytest.fixture(scope="session")
def zeta_1_1_all_c(rect_parity_doc):
    return parse_config(fixture_text("zeta_1_1_all_c.json"), rect_parity_doc)


@pytest.fixture(scope="session")
def zeta_1_1_all_c_parity(rect_revised_doc):
    return parse_config(fixture_text("zeta_1_1_all_c_parity.json"), rect_revised_doc)
