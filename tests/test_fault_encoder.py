import itertools
import random

import pytest

from conftest import (
    all_golden_taps,
    canonical_assignment,
    control_names,
    dup_and_compare,
    evaluate,
    instances,
    location_names,
    lowered,
    selection_bits,
)
from faultres.circuit_model import (
    KIND_ARITY,
    KIND_EVAL,
    GateInstance,
    GateKind,
    build_and_validate,
    fault_locations,
    unroll,
)
from faultres.fault_encoder import (
    controlled_circuit,
    decode_fault_vector,
    decode_type,
    gadget,
)
from faultres.formula import FormulaBuilder, ROLE_INPUT
from faultres.fixtures import fixture_text
from faultres.netlist_io import parse_config, parse_netlist
from faultres.oracle import enumerate_fault_vectors, random_netlist
from faultres.circuit_model import FaultResistanceModel
from faultres.simulator import (
    FaultEvent,
    FaultType,
    FaultVector,
    UnknownInstance,
    apply_fault_vector,
    run_trace,
)

ALL = (FaultType.SET, FaultType.RESET, FaultType.BITFLIP)
TYPE_SETS = [
    (FaultType.SET,),
    (FaultType.RESET,),
    (FaultType.BITFLIP,),
    (FaultType.SET, FaultType.RESET),
    (FaultType.SET, FaultType.BITFLIP),
    (FaultType.RESET, FaultType.BITFLIP),
    ALL,
]


def reference_gate(kind, fault, ins):
    a = ins[0] if ins else 0
    b = ins[1] if len(ins) > 1 else 0
    if fault is None:
        return KIND_EVAL[kind](a, b, 1)
    if fault is FaultType.SET:
        return 1
    if fault is FaultType.RESET:
        return 0
    return KIND_EVAL[kind](a, b, 1) ^ 1


def eval_gadget(kind, types, data, c, b1=0, b2=0):
    """Build the gadget over fresh variables and evaluate it on plain bits."""
    fb = FormulaBuilder()
    ins = [fb.var(f"in{i}", ROLE_INPUT) for i in range(len(data))]
    sels = [fb.var(n, "selection") for n in ("b1", "b2")[:len(types) - 1]]
    node = gadget(fb, kind, types, ins, fb.var("c", "control"), sels)
    env = {f"in{i}": bool(bit) for i, bit in enumerate(data)}
    env.update({"c": bool(c), "b1": bool(b1), "b2": bool(b2)})
    return int(evaluate(fb, node, env))


def test_gadget_truth_tables_exhaustive():
    # Every kind x type-set x control/selection setting must equal the original
    # gate (c=0) or the selected faulty gate (c=1), on all data inputs.
    for kind in GateKind:
        for types in TYPE_SETS:
            for data in itertools.product((0, 1), repeat=KIND_ARITY[kind]):
                for c, b1, b2 in itertools.product((0, 1), repeat=3):
                    fault = decode_type(types, (b1, b2)) if c else None
                    want = reference_gate(kind, fault, data)
                    assert eval_gadget(kind, types, data, c, b1, b2) == want


def test_gadget_examples():
    assert eval_gadget(GateKind.XOR, ALL, (0, 1), c=1, b1=1, b2=1) == 1  # set branch
    assert eval_gadget(GateKind.XOR, ALL, (0, 1), c=0) == 1              # original xor
    assert eval_gadget(GateKind.NOT, (FaultType.BITFLIP,), (1,), c=1) == 1  # not flipped to buf


def test_gadget_selection_decoding():
    assert decode_type(ALL, (1, 1)) is FaultType.SET
    assert decode_type(ALL, (1, 0)) is FaultType.RESET
    assert decode_type(ALL, (0, 0)) is FaultType.BITFLIP
    assert decode_type(ALL, (0, 1)) is FaultType.BITFLIP  # b2 ignored when b1=0
    two = (FaultType.SET, FaultType.BITFLIP)
    assert decode_type(two, (1,)) is FaultType.SET     # b=1 selects the smaller
    assert decode_type(two, (0,)) is FaultType.BITFLIP
    # selection_bits is the inverse: its bits, padded with either value for
    # the don't-cares, decode back to the type.
    for types in TYPE_SETS:
        for t in types:
            bits = selection_bits(types, t)
            assert len(bits) <= len(types) - 1
            for pad in itertools.product((0, 1), repeat=len(types) - 1 - len(bits)):
                assert decode_type(types, bits + pad) is t


def test_instrument_rect_control_vars(rect_parity_unrolled):
    blacklist = {"p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"}
    locations = fault_locations(rect_parity_unrolled, blacklist, "c")
    controlled = lowered(rect_parity_unrolled, locations, ALL)
    named = location_names(controlled)
    assert len(named) == 12
    controls = [c for cycle in sorted(controlled.located)
                for c in control_names(controlled, cycle)]
    assert len(controls) == 12
    selections = [n for names in named.values() for n in names[1:]]
    assert len(selections) == 24
    assert named[GateInstance(1, "s3")] == ("c[s3@1]", "b1[s3@1]", "b2[s3@1]")


def test_controlled_circuit_rejects_unknown_locations(rect_parity_unrolled):
    # A location must be a gate or register of the circuit in a cycle 1..k;
    # controlled_circuit checks every one before any cycle is lowered.
    k = rect_parity_unrolled.k
    for bad in (GateInstance(k + 1, "s3"), GateInstance(1, "nosuch")):
        with pytest.raises(UnknownInstance, match=f"^no such instance {bad.label}$"):
            controlled_circuit(rect_parity_unrolled, {GateInstance(1, "s1"), bad}, ALL,
                               FormulaBuilder())


def test_instrument_empty_locations_is_golden(rect_parity_unrolled):
    fb = FormulaBuilder()
    a = lowered(rect_parity_unrolled, set(), ALL, fb)
    b = lowered(rect_parity_unrolled, set(), ALL, fb)
    # hash-consing makes the two lowerings literally the same nodes
    assert a.taps == b.taps
    assert a.located == {}


def test_instrument_size_bound(rect_parity_unrolled):
    for types in TYPE_SETS:
        locations = fault_locations(rect_parity_unrolled, set(), "c")
        controlled = lowered(rect_parity_unrolled, locations, types)
        # every node of the formula DAG, inputs and constants included
        nodes = len(controlled.builder.kinds)
        assert nodes <= 6 * len(types) * len(instances(rect_parity_unrolled))


def test_decode_examples(rect_parity_unrolled):
    locations = fault_locations(rect_parity_unrolled,
                                {"p1", "p2", "p3", "p4", "p5", "p6",
                                 "c1", "c2", "c3", "flag"}, "c")
    controlled = lowered(rect_parity_unrolled, locations, ALL)
    named = location_names(controlled)
    base = {name: False for names in named.values() for name in names}

    inst = GateInstance(1, "s3")
    c, b1, b2 = named[inst]

    a = dict(base, **{c: True, b1: False, b2: True})
    assert decode_fault_vector(a, controlled) == FaultVector(
        [FaultEvent(inst, FaultType.BITFLIP)])
    a = dict(base, **{c: True, b1: False, b2: False})
    assert decode_fault_vector(a, controlled) == FaultVector(
        [FaultEvent(inst, FaultType.BITFLIP)])  # same vector, b2 is a don't-care
    a = dict(base, **{c: True, b1: True, b2: False})
    assert decode_fault_vector(a, controlled) == FaultVector(
        [FaultEvent(inst, FaultType.RESET)])
    assert decode_fault_vector(base, controlled) == FaultVector([])


def test_roundtrip_vectors(rect_parity_unrolled):
    locations = fault_locations(rect_parity_unrolled, set(), "c")
    rng = random.Random(3)
    for types in TYPE_SETS:
        controlled = lowered(rect_parity_unrolled, locations, types)
        vectors = []
        for _ in range(40):
            insts = rng.sample(sorted(locations), rng.randint(1, 2))
            vectors.append(FaultVector(
                [FaultEvent(i, rng.choice(types)) for i in insts]))
        for v in vectors:
            assignment = canonical_assignment(controlled, v)
            assert decode_fault_vector(assignment, controlled) == v


def test_unrolled_formula_matches_sequential_run():
    # Structure preservation: lowering the unrolled circuit to formulas (no
    # gadgets at all) and evaluating them equals the cycle-by-cycle simulation.
    for seed in (2, 5, 11):
        doc = random_netlist(seed, max_gates=8, max_regs=2, num_inputs=3).doc
        circuit = build_and_validate(doc)
        k = 3
        u = unroll(circuit, k)
        whole = lowered(u, set(), ALL)
        rng = random.Random(seed)
        for _ in range(20):
            rows = [tuple(rng.randint(0, 1) for _ in circuit.inputs)
                    for _ in range(k)]
            trace = run_trace(u, rows)
            env = {}
            for cycle in range(1, k + 1):
                for pos, name in enumerate(circuit.inputs):
                    env[f"{name}@{cycle}"] = bool(rows[cycle - 1][pos])
            for cycle in range(1, k + 1):
                for o in circuit.outputs:
                    got = evaluate(whole.builder, whole.taps[(cycle, o)], env)
                    assert int(got) == trace.outputs[cycle - 1][o]


def test_instrumented_circuit_simulates_every_fault_vector():
    # For every admissible fault vector and every input sequence, the faulted
    # circuit and the instrumented circuit under the compatible control
    # assignment compute the same outputs.
    for seed, types in itertools.product((0, 4, 9), TYPE_SETS):
        doc = random_netlist(seed, max_gates=6, max_regs=1, num_inputs=2).doc
        circuit = build_and_validate(doc)
        k = 2
        u = unroll(circuit, k)
        locations = fault_locations(u, set(), "cr")
        model = FaultResistanceModel(1, 1, frozenset(types), "cr")
        controlled = lowered(u, locations, types)
        for vector in enumerate_fault_vectors(locations, model):
            assignment = canonical_assignment(controlled, vector)
            env_assignment = {n: bool(v) for n, v in assignment.items()}
            faulted = apply_fault_vector(u, vector)
            for flat in itertools.product((0, 1), repeat=len(circuit.inputs) * k):
                rows = [flat[i * len(circuit.inputs):(i + 1) * len(circuit.inputs)]
                        for i in range(k)]
                trace = run_trace(faulted, rows)
                env = dict(env_assignment)
                for cycle in range(1, k + 1):
                    for pos, name in enumerate(circuit.inputs):
                        env[f"{name}@{cycle}"] = bool(rows[cycle - 1][pos])
                for cycle in range(1, k + 1):
                    for o in circuit.outputs:
                        got = evaluate(controlled.builder,
                                       controlled.taps[(cycle, o)], env)
                        assert int(got) == trace.outputs[cycle - 1][o], (
                            seed, vector, rows, cycle, o)


def _golden_and_full_taps(doc, u, locations, types=ALL):
    """The golden taps of the instrumented circuit and of a separate golden
    circuit built again from its ``doc``, and the taps of a full fault-free
    lowering made afterwards, all on the instrumented circuit's builder."""
    controlled = lowered(u, locations, types)
    b = controlled.builder
    separate = unroll(build_and_validate(doc), u.k)
    golden = [all_golden_taps(b, u), all_golden_taps(b, separate)]
    full = lowered(u, set(), types, b)
    data = [o for o in u.circuit.outputs if o != u.circuit.flag]
    for taps in golden:
        assert sorted(taps) == sorted((c, o) for c in range(1, u.k + 1) for o in data)
    return golden, full.taps


# A flag-only copy of a data cone that comes first in topological order: the
# golden side must skip the copy and still build the data cone's nodes.
COPY_FIRST = (".inputs a b c\n.outputs p flg\n.flag flg\n"
              "gate f1 = and(a, b)\ngate f2 = and(f1, c)\ngate flg = buf(f2)\n"
              "gate q1 = or(a, c)\ngate q2 = or(q1, b)\n"
              "gate g1 = and(a, b)\ngate g2 = and(g1, c)\ngate p = xor(g2, q2)\n")


def test_golden_taps_are_the_fault_free_lowering():
    # The golden side, on the instrumented circuit's builder or built for a
    # separate golden circuit, names exactly the nodes a full fault-free
    # lowering on the same builder yields (hash-consing makes equal lowerings
    # the same node ids), over both fixtures, seeded random netlists, every
    # location class and k = 1..3.
    cases = []
    for nl, cfg in (("rect_parity.nl", "zeta_1_1_all_c.json"),
                    ("rect_revised.nl", "zeta_1_1_all_c_parity.json")):
        doc = parse_netlist(fixture_text(nl))
        blacklist = parse_config(fixture_text(cfg), doc).blacklist
        cases += [(doc, blacklist), (doc, set())]
    for seed in range(10):
        doc = random_netlist(seed, max_gates=10, max_regs=3, num_inputs=3,
                             with_flag=seed % 3 != 0).doc
        cases.append((doc, set()))
    cases.append((parse_netlist(COPY_FIRST), {"flg"}))
    for (doc, blacklist), loc, k in itertools.product(cases, ("c", "r", "cr"), (1, 2, 3)):
        circuit = build_and_validate(doc)
        u = unroll(circuit, k)
        golden, full = _golden_and_full_taps(doc, u, fault_locations(u, blacklist, loc))
        for side, taps in zip(("reused", "separate"), golden):
            assert taps == {key: full[key] for key in taps}, (side, circuit.name, loc, k)


def test_golden_taps_of_duplicate_and_compare_add_no_node():
    # With the original and the comparator blacklisted, no fault reaches a
    # data output: the golden side is the instrumented one, node for node.
    for seed in (1, 2, 5, 7):
        doc = random_netlist(seed, max_gates=10, max_regs=2, num_inputs=3,
                             with_flag=False).doc
        text, nets, checker = dup_and_compare(doc)
        blacklist = nets | checker
        u = unroll(build_and_validate(parse_netlist(text)), 3)
        locations = fault_locations(u, blacklist, "cr")
        assert locations
        controlled = lowered(u, locations, ALL)
        before = len(controlled.builder.kinds)
        reused = all_golden_taps(controlled.builder, u)
        assert len(controlled.builder.kinds) == before
        assert reused == {key: controlled.taps[key] for key in reused}
