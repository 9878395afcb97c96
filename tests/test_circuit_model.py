import itertools
import json
from collections import deque

import pytest

from conftest import instances
from faultres.circuit_model import (
    ArityMismatch,
    CombinationalCycle,
    DuplicateName,
    FaultResistanceModel,
    FaultType,
    GateInstance,
    InvalidK,
    InvalidModel,
    MissingOutputDriver,
    NetlistSyntaxError,
    UndefinedNet,
    UnknownBlacklistGate,
    UnknownGateKind,
    build_and_validate,
    fault_locations,
    unroll,
)
from faultres.fixtures import fixture_text
from faultres.netlist_io import GateStmt, NetlistDoc, parse_config, parse_netlist, write_netlist
from faultres.oracle import random_netlist

SEQ_TEXT = ".inputs i\n.outputs g\n.reg r init=0\ngate g = xor(i, r)\nnext r = g\n"


def test_build_rect(rect_parity):
    c = rect_parity
    assert len(c.gate_map) == 22
    topo = list(c.topo_order)
    assert topo.index("s2") < topo.index("s4")
    assert topo.index("s2") < topo.index("s5")
    assert set(topo) == set(c.gate_map)


def test_combinational_cycle():
    text = ".inputs i\n.outputs a\ngate a = not(b)\ngate b = not(a)\n"
    with pytest.raises(CombinationalCycle) as exc:
        build_and_validate(parse_netlist(text))
    assert set(exc.value.path) >= {"a", "b"}


def test_combinational_cycle_past_a_finished_gate():
    # The search from a finishes it; the search from b meets a finished and
    # goes on to the cycle through b and c.
    text = ".inputs i\n.outputs a\ngate a = buf(i)\ngate b = and(a, c)\ngate c = not(b)\n"
    with pytest.raises(CombinationalCycle) as exc:
        build_and_validate(parse_netlist(text))
    assert str(exc.value) == "combinational cycle: b -> c -> b"


def test_combinational_cycle_deep():
    # A 3000-gate loop g0 <- g1 <- ... <- g2999 <- g0; no recursion limit applies.
    n = 3000
    gates = "".join(f"gate g{i} = not(g{(i + 1) % n})\n" for i in range(n))
    text = ".inputs i\n.outputs g0\n" + gates
    with pytest.raises(CombinationalCycle) as exc:
        build_and_validate(parse_netlist(text))
    assert exc.value.path == [f"g{i}" for i in range(n)] + ["g0"]


def test_build_arity_mismatch():
    # A doc built in code is checked like a parsed one.
    doc = NetlistDoc("t", ["a", "b"], ["g"], None, [],
                     [GateStmt("g", "not", ("a", "b"))], {})
    with pytest.raises(ArityMismatch):
        build_and_validate(doc)


def _doc(outputs=("g",), flag=None, registers=(), gates=(("g", "buf", ("a",)),),
         next_state=None):
    return NetlistDoc("t", ["a", "b"], list(outputs), flag, list(registers),
                      [GateStmt(*g) for g in gates], dict(next_state or {}))


@pytest.mark.parametrize("doc, error, name", [
    (_doc(gates=[("g", "nandx", ("a", "b"))]), UnknownGateKind, "g"),
    (_doc(gates=[("g", "not", ("a", "b"))]), ArityMismatch, "g"),
    (_doc(gates=[("g", "buf", ("a",)), ("g", "not", ("b",))]), DuplicateName, "g"),
    (_doc(gates=[("g", "and", ("a", "zz"))]), UndefinedNet, "zz"),
    (_doc(outputs=("g", "w")), MissingOutputDriver, "w"),
    (_doc(registers=[("r", 0)], gates=[("g", "buf", ("r",))]), MissingOutputDriver, "r"),
    (_doc(next_state={"q": "g"}), UndefinedNet, "q"),
    (_doc(flag="f", gates=[("g", "buf", ("a",)), ("f", "not", ("a",))]),
     NetlistSyntaxError, "f"),
    (_doc(outputs=()), NetlistSyntaxError, None),
    (_doc(flag="g"), NetlistSyntaxError, "g"),
    (_doc(registers=[("r", 0)], next_state={"r": "ghost"}), UndefinedNet, "ghost"),
    (_doc(flag="ghost"), UndefinedNet, "ghost"),
], ids=["kind", "arity", "duplicate", "undefined", "undriven", "no-next", "next-not-register",
        "flag", "no-outputs", "flag-only", "next-undefined-net", "flag-undefined"])
def test_built_doc_checked_like_its_text(doc, error, name):
    # The same defect raises the same error whether the doc was built in code
    # or parsed from its text; only the parsed one knows source locations.
    # The text of a doc with no outputs has an empty .outputs line, which
    # parsing already rejects.
    for candidate in (lambda: doc, lambda: parse_netlist(write_netlist(doc))):
        with pytest.raises(error) as exc:
            build_and_validate(candidate())
        assert type(exc.value) is error and exc.value.name == name
    assert exc.value.line > 0 and exc.value.col == 1


@pytest.mark.parametrize("config_fields, fields", [
    ({"types": []}, {"fault_types": frozenset()}),
    ({"types": ["s", "q"]}, {"fault_types": frozenset({"s", "q"})}),
    ({"ne": 0}, {"n_e": 0}),
    ({"nc": 0}, {"n_c": 0}),
    ({"ne": True}, {"n_e": True}),
    ({"location": "x"}, {"location": "x"}),
], ids=["empty-types", "string-types", "ne-zero", "nc-zero", "ne-bool", "location"])
def test_built_model_checked_like_its_config(rect_parity_doc, config_fields, fields):
    # The same defect raises the same error whether the model was built in
    # code or parsed from a config.
    model = {"ne": 1, "nc": 1, "types": ["bf"], "location": "c", **config_fields}
    with pytest.raises(InvalidModel) as parsed:
        parse_config(json.dumps({"k": 1, "model": model}), rect_parity_doc)
    with pytest.raises(InvalidModel) as built:
        FaultResistanceModel(**{"n_e": 1, "n_c": 1, "fault_types": frozenset({FaultType.BITFLIP}),
                                "location": "c", **fields})
    assert str(built.value) == str(parsed.value)


def test_model_types_must_be_a_frozenset():
    with pytest.raises(InvalidModel) as exc:
        FaultResistanceModel(1, 1, {FaultType.BITFLIP}, "c")
    assert str(exc.value) == "types must be a frozenset, got set"


def test_unroll_rect(rect_parity):
    u = unroll(rect_parity, 1)
    assert len(instances(u)) == 22
    assert all(inst.name in rect_parity.gate_map for inst in instances(u))


def test_unroll_sequential():
    c = build_and_validate(parse_netlist(SEQ_TEXT))
    u = unroll(c, 3)
    logic = [i for i in instances(u) if i.name in c.gate_map]
    regs = [i for i in instances(u) if i.name in c.register_names]
    assert [i.label for i in logic] == ["g@1", "g@2", "g@3"]
    assert [i.label for i in regs] == ["r@1", "r@2", "r@3"]


def test_unroll_k_zero():
    # The cycle count a config would reject, unroll rejects too.
    c = build_and_validate(parse_netlist(SEQ_TEXT))
    for k in (0, True, 1.5, "2"):
        with pytest.raises(InvalidK):
            unroll(c, k)


def test_fault_locations_rect(rect_parity_unrolled):
    blacklist = {"p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"}
    locs = fault_locations(rect_parity_unrolled, blacklist, "c")
    assert {i.label for i in locs} == {
        f"{n}@1" for n in ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8",
                           "w", "x", "y", "z"]}
    assert len(locs) == 12


def test_fault_locations_r_on_combinational(rect_parity_unrolled):
    assert fault_locations(rect_parity_unrolled, set(), "r") == set()


def test_fault_locations_cr_with_register():
    c = build_and_validate(parse_netlist(SEQ_TEXT))
    u = unroll(c, 2)
    locs = fault_locations(u, set(), "cr")
    assert {i.label for i in locs} == {"g@1", "g@2", "r@1", "r@2"}
    assert {i.label for i in locs if i.name in c.register_names} == {"r@1", "r@2"}


def test_fault_locations_class_partition():
    for seed in range(10):
        doc = random_netlist(seed, max_gates=8, max_regs=2).doc
        u = unroll(build_and_validate(doc), 2)
        c_locs = fault_locations(u, set(), "c")
        r_locs = fault_locations(u, set(), "r")
        cr_locs = fault_locations(u, set(), "cr")
        assert c_locs & r_locs == set()
        assert c_locs | r_locs == cr_locs


def test_fault_locations_blacklist_antitone(rect_parity_unrolled):
    b1 = {"s1"}
    b2 = {"s1", "s2", "w"}
    l1 = fault_locations(rect_parity_unrolled, b1, "c")
    l2 = fault_locations(rect_parity_unrolled, b2, "c")
    assert l2 <= l1


def test_fault_locations_unknown_blacklist(rect_parity_unrolled):
    with pytest.raises(UnknownBlacklistGate):
        fault_locations(rect_parity_unrolled, {"ghost"}, "c")


def _unrolled_reachers(circuit, k, outputs):
    """Instances (cycle, net) of the explicitly unrolled circuit from which
    one of ``outputs`` of some cycle is reachable: a backward search from
    every such output instance over operand edges and, from a register read
    in cycle c > 1, to its next-state net in cycle c - 1."""
    seen = {(c, o) for c in range(1, k + 1) for o in outputs}
    queue = deque(seen)
    while queue:
        c, net = queue.popleft()
        g = circuit.gate_map.get(net)
        if g is not None:
            preds = [(c, op) for op in g.operands]
        elif net in circuit.next_state and c > 1:
            preds = [(c - 1, circuit.next_state[net])]
        else:
            preds = []
        for p in preds:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def test_data_depth_matches_unrolled_reachability():
    # data_depth against the data outputs, output_depth against every
    # output, the flag included; docs with and without a flag.
    docs = [parse_netlist(fixture_text(nl)) for nl in ("rect_parity.nl", "rect_revised.nl")]
    docs += [random_netlist(seed, max_gates=12, max_regs=3, num_inputs=3,
                            with_flag=seed % 3 != 0).doc for seed in range(30)]
    assert any(doc.registers for doc in docs)
    assert any(doc.flag_output is None for doc in docs)
    for doc, k in itertools.product(docs, (1, 2, 3, 4)):
        circuit = build_and_validate(doc)
        # data_outputs: the outputs in their order, the flag left out.
        if circuit.flag is None:
            assert circuit.data_outputs == circuit.outputs
        else:
            i = circuit.outputs.index(circuit.flag)
            assert circuit.data_outputs == circuit.outputs[:i] + circuit.outputs[i + 1:]
        nets = list(circuit.inputs) + list(circuit.register_names) + list(circuit.gate_map)
        for depth, outputs in ((circuit.data_depth, circuit.data_outputs),
                               (circuit.output_depth, circuit.outputs)):
            reachers = _unrolled_reachers(circuit, k, outputs)
            for c, net in itertools.product(range(1, k + 1), nets):
                by_depth = depth.get(net, k) <= k - c
                assert by_depth == ((c, net) in reachers), (doc.name, k, c, net)
        if circuit.flag:
            assert circuit.output_depth[circuit.flag] == 0


def test_instance_labels():
    inst = GateInstance(3, "s7")
    assert inst.label == "s7@3"
    assert GateInstance(1, "r").label == "r@1"
