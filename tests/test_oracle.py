import sys

import pytest

from conftest import max_epc, sharp_clk
from faultres.circuit_model import (
    FaultResistanceModel,
    GateInstance,
    build_and_validate,
    unroll,
)
from faultres.netlist_io import parse_netlist, write_netlist
from faultres.oracle import (
    BudgetExceeded,
    OracleBudget,
    _NetBuilder,
    _duplicate_cone,
    TooManyVars,
    _truth_table_sat,
    brute_force_verdict,
    enumerate_fault_vectors,
    np_hardness_instance,
    random_netlist,
)
from faultres.simulator import FaultType

ALL = frozenset(FaultType)
BF = frozenset({FaultType.BITFLIP})


def model(ne=1, nc=1, types=ALL, loc="c"):
    return FaultResistanceModel(ne, nc, types, loc)


def g(cycle, name):
    return GateInstance(cycle, name)


def test_enumerate_two_singletons():
    locs = {g(1, "a"), g(1, "b")}
    vs = list(enumerate_fault_vectors(locs, model(types=BF)))
    assert len(vs) == 2
    assert all(len(v) == 1 for v in vs)


def test_enumerate_with_pairs():
    locs = {g(1, "a"), g(1, "b")}
    vs = list(enumerate_fault_vectors(locs, model(ne=2, types=BF)))
    assert len(vs) == 3  # two singletons plus the pair


def test_enumerate_grid_constrained():
    locs = {g(1, "a"), g(1, "b"), g(2, "a"), g(2, "b")}
    vs = list(enumerate_fault_vectors(locs, model(ne=1, nc=1, types=BF)))
    # same-cycle pairs blocked by ne, cross-cycle pairs by nc
    assert len(vs) == 4
    assert all(len(v) == 1 for v in vs)


def closed_form_count(locs, m):
    """Independent count: walk the power set and multiply by |T|^size."""
    locs = list(locs)
    total = 0
    for mask in range(1, 1 << len(locs)):
        chosen = [locs[i] for i in range(len(locs)) if mask >> i & 1]
        per_cycle = {}
        for inst in chosen:
            per_cycle[inst.cycle] = per_cycle.get(inst.cycle, 0) + 1
        if len(per_cycle) <= m.n_c and max(per_cycle.values()) <= m.n_e:
            total += len(m.fault_types) ** len(chosen)
    return total


def test_enumerate_matches_closed_form():
    locs = [g(1, "a"), g(1, "b"), g(2, "a"), g(2, "c")]
    for ne in (1, 2):
        for nc in (1, 2):
            for types in (BF, ALL, frozenset({FaultType.SET, FaultType.RESET})):
                m = model(ne=ne, nc=nc, types=types)
                got = len(list(enumerate_fault_vectors(locs, m)))
                assert got == closed_form_count(locs, m), (ne, nc, types)


def test_enumerate_types_and_keys_admissible():
    locs = [g(1, "a"), g(2, "b"), g(2, "c")]
    m = model(ne=2, nc=2, types=ALL)
    for v in enumerate_fault_vectors(locs, m):
        assert max_epc(v) <= 2 and sharp_clk(v) <= 2
        assert len({e.instance for e in v.events}) == len(v.events)
        assert all(e.fault_type in ALL for e in v.events)


def test_enumerate_deterministic():
    locs = [g(1, "b"), g(1, "a")]
    a = [repr(v) for v in enumerate_fault_vectors(locs, model(ne=2))]
    b = [repr(v) for v in enumerate_fault_vectors(locs, model(ne=2))]
    assert a == b


def test_enumerate_budget():
    locs = [g(1, f"n{i}") for i in range(20)]
    m = model(ne=3, nc=1, types=ALL)
    with pytest.raises(BudgetExceeded):
        list(enumerate_fault_vectors(locs, m, OracleBudget(max_vectors=100)))


def test_brute_force_replay_failure_raises(rect_parity_unrolled, monkeypatch):
    # The oracle re-checks each witness it finds; a replay that disagrees is
    # an error, also under python -O.
    import faultres.oracle
    from faultres.oracle import OracleError
    from faultres.simulator import EffectivenessResult

    monkeypatch.setattr(faultres.oracle, "check_effectiveness",
                        lambda unrolled, vector, inputs: EffectivenessResult(False))
    with pytest.raises(OracleError, match="is not effective on replay") as info:
        brute_force_verdict(rect_parity_unrolled, {"c1", "c2", "c3", "flag"}, model())
    assert type(info.value) is OracleError


def test_brute_force_rect_set_faults(rect_parity_unrolled):
    blacklist = {"p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"}
    verdict = brute_force_verdict(rect_parity_unrolled, blacklist,
                                  model(types=frozenset({FaultType.SET})))
    assert verdict.status == "not_resistant"
    assert verdict.counterexample is not None
    # the z-gate stuck-at-1 event slips through exactly on these inputs
    from faultres.simulator import FaultEvent, FaultVector, check_effectiveness
    from conftest import input_bits

    v = FaultVector([FaultEvent(g(1, "z"), FaultType.SET)])
    witnesses = {format(i, "04b") for i in range(16)
                 if check_effectiveness(rect_parity_unrolled, v,
                                        [input_bits(i)]).effective}
    assert witnesses == {"0000", "1001", "1110", "1111"}


def test_brute_force_const1_flag_resistant():
    text = (".inputs a b\n.outputs o flg\n.flag flg\n"
            "gate o = and(a, b)\ngate flg = const1()\n")
    u = unroll(build_and_validate(parse_netlist(text)), 1)
    verdict = brute_force_verdict(u, set(), model(types=ALL, loc="c"))
    assert verdict.status == "resistant"


def test_brute_force_budget_exceeded():
    doc = random_netlist(0, max_gates=40, max_regs=0, num_inputs=8).doc
    u = unroll(build_and_validate(doc), 3)
    with pytest.raises(BudgetExceeded):
        brute_force_verdict(u, set(), model(ne=3, nc=3, types=ALL, loc="c"))


def test_np_instance_sat_direction():
    inst = np_hardness_instance([(1,)], 1, 1)
    assert inst.expected == "not_resistant"
    assert inst.doc.default_cycles == 3
    regs = [r for r, _ in inst.doc.registers]
    assert regs.count("ph_a") == 1
    assert len([r for r in regs if r.startswith("r") and not r.startswith("rp")]) == 3


def test_np_instance_unsat_direction():
    inst = np_hardness_instance([(1,), (-1,)], 1, 1)
    assert inst.expected == "resistant"


def test_np_instance_copy_count():
    inst = np_hardness_instance([(1,)], 1, 2)
    regs = [r for r, _ in inst.doc.registers]
    assert len([r for r in regs if r.startswith("rp")]) == 5  # 2*ne+1 copies


def test_np_instance_too_many_vars():
    with pytest.raises(TooManyVars):
        np_hardness_instance([(1, 2, 3)], 9, 1)


def test_np_instance_verdicts_match_truth_table():
    # small family: every 2-clause 3-var CNF drawn from a fixed pool
    pool = [(1, 2), (-1, 3), (2, -3), (-2,), (1, -2, 3), (-1, -3)]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            phi = [pool[i], pool[j]]
            inst = np_hardness_instance(phi, 3, 1)
            assert (inst.expected == "not_resistant") == _truth_table_sat(phi, 3)


def test_np_instance_brute_force_agrees():
    from faultres import verify
    from faultres.netlist_io import ReductionFlags, VerificationConfig

    for phi, m in [([(1,)], 1), ([(1,), (-1,)], 1), ([(1, 2), (-1, -2)], 2)]:
        inst = np_hardness_instance(phi, m, 1)
        circuit = build_and_validate(inst.doc)
        mdl = model(ne=1, nc=1, types=BF, loc="r")
        brute = brute_force_verdict(unroll(circuit, 3), set(), mdl)
        cfg = VerificationConfig(3, mdl, frozenset(), ReductionFlags(), ("builtin",))
        sat = verify(circuit, cfg)
        assert brute.status == sat.status == inst.expected


def test_random_netlist_deterministic():
    a = random_netlist(1)
    b = random_netlist(1)
    assert write_netlist(a.doc) == write_netlist(b.doc)


def test_random_netlist_all_valid():
    for seed in range(100):
        doc = random_netlist(seed).doc
        build_and_validate(doc)  # raises if invalid


def test_random_corpus_has_both_verdicts():
    seen = set()
    for seed in range(30):
        doc = random_netlist(seed, max_gates=7, max_regs=2, num_inputs=3).doc
        u = unroll(build_and_validate(doc), 1)
        verdict = brute_force_verdict(u, set(), model(types=ALL, loc="c"))
        seen.add(verdict.status)
    assert seen == {"resistant", "not_resistant"}


def test_duplicate_cone_order():
    # Depth-first postorder, operands left to right; shared gates copied once.
    nb = _NetBuilder()
    a1 = nb.emit("and", "i0", "i1")
    a2 = nb.emit("or", "i1", "i0")
    a3 = nb.emit("xor", a1, a2)
    a4 = nb.emit("not", "i1")
    a5 = nb.emit("and", a3, a4)
    a6 = nb.emit("or", a5, a1)
    assert _duplicate_cone(nb, a6, {"i0", "i1"}) == "n12"
    assert [(g.name, g.kind, g.operands) for g in nb.gates[6:]] == [
        ("n7", "and", ("i0", "i1")), ("n8", "or", ("i1", "i0")),
        ("n9", "xor", ("n7", "n8")), ("n10", "not", ("i1",)),
        ("n11", "and", ("n9", "n10")), ("n12", "or", ("n11", "n7"))]


def test_duplicate_cone_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    nb = _NetBuilder()
    net = "i0"
    for d in range(depth):
        net = nb.emit("not", net) if d % 2 else nb.emit("and", net, "i1")
    copy = _duplicate_cone(nb, net, {"i0", "i1"})
    gates = {g.name: g for g in nb.gates}
    assert len(gates) == 2 * depth
    original = net
    for _ in range(depth):
        g, c = gates[original], gates[copy]
        assert g.kind == c.kind and g.operands[1:] == c.operands[1:]
        original, copy = g.operands[0], c.operands[0]
    assert original == copy == "i0"
