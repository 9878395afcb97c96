import contextlib
import itertools
import random
import re

import pytest

from conftest import exit_groups
from faultres.circuit_model import (
    FaultResistanceModel,
    GateInstance,
    build_and_validate,
    fault_locations,
    faultable_names,
    unroll,
)
from faultres.netlist_io import ReductionFlags, VerificationConfig, parse_netlist
from faultres import reductions
from faultres.oracle import brute_force_verdict, random_netlist
from faultres.reductions import (
    NotApplicable,
    SkippedReduction,
    aggressive_blacklist,
    plan_reductions,
    reduce_fault_types,
    single_exit_map,
)
from faultres.sat_encoding import verify
from faultres.simulator import FaultType

ALL = frozenset(FaultType)
BF = frozenset({FaultType.BITFLIP})
SR = frozenset({FaultType.SET, FaultType.RESET})
S_ONLY = frozenset({FaultType.SET})

PARITY_CHECK = {"c1", "c2", "c3", "flag"}


def model(ne=1, nc=1, types=ALL, loc="c"):
    return FaultResistanceModel(ne, nc, types, loc)


def test_reduce_fault_types_all():
    assert reduce_fault_types(model(types=ALL)) == model(types=BF)


def test_reduce_fault_types_identity():
    with pytest.raises(NotApplicable, match=r"^type set already \{bf\}$"):
        reduce_fault_types(model(ne=2, types=BF, loc="cr"))


def test_reduce_fault_types_not_applicable():
    with pytest.raises(NotApplicable) as info:
        reduce_fault_types(model(types=S_ONLY))
    assert info.value.reason == (
        "bf not in the allowed types; reduction would not preserve counterexamples")


def test_single_successor_excludes_output_feeders(rect_parity_unrolled):
    em = single_exit_map(rect_parity_unrolled, PARITY_CHECK)
    extra = aggressive_blacklist(em, PARITY_CHECK, model())
    # w..z feed primary output ports, p6's sole successor (flag) is protected.
    assert {"w", "x", "y", "z", "p6"} & extra == set()


def test_single_successor_not_applicable(rect_parity_unrolled):
    # The single-exit reduction takes the single-successor guard: bf in T or
    # {s, r} a subset of T, at location c or cr.
    em = single_exit_map(rect_parity_unrolled, PARITY_CHECK)
    with pytest.raises(NotApplicable, match=r"^needs bf in T or \{s,r\} subset of T$"):
        aggressive_blacklist(em, PARITY_CHECK, model(types=S_ONLY))
    with pytest.raises(NotApplicable, match=r"^needs location c or cr$"):
        aggressive_blacklist(em, PARITY_CHECK, model(types=BF, loc="r"))
    # {s, r} together is enough even without bf
    extra = aggressive_blacklist(em, PARITY_CHECK, model(types=SR))
    assert "p1" in extra


def test_single_exit_guard_runs_before_the_exit_map(rect_parity_unrolled, monkeypatch):
    # A model that fails the guard (T = {s}, T = {r}, location r) is
    # recorded as skipped without sweeping the circuit for exits.
    def no_sweep(*args):
        raise AssertionError("single_exit_map called for a model failing the guard")

    monkeypatch.setattr(reductions, "single_exit_map", no_sweep)
    types_reason = "needs bf in T or {s,r} subset of T"
    for m, reason in ((model(types=S_ONLY), types_reason),
                      (model(types=frozenset({FaultType.RESET})), types_reason),
                      (model(types=BF, loc="r"), "needs location c or cr")):
        plan = plan_reductions(rect_parity_unrolled, PARITY_CHECK, m, ReductionFlags())
        assert SkippedReduction("single_exit", reason) in plan.skipped, m


def test_single_exit_map_rect(rect_parity_unrolled):
    m2 = exit_groups(single_exit_map(rect_parity_unrolled, PARITY_CHECK))
    assert m2["p6"] == {"p1", "p2", "p3", "p4", "p5", "p6"}
    assert m2["x"] == {"s8", "x"}
    assert m2["w"] == {"s7", "w"}
    assert m2["z"] == {"s4", "z"}
    assert m2["s6"] == {"s5", "s6"}
    for gate in ["s1", "s2", "s3", "y", "c1", "c2", "c3", "flag"]:
        assert m2[gate] == {gate}


def test_single_exit_map_partition(rect_parity_unrolled):
    exit_of = single_exit_map(rect_parity_unrolled, PARITY_CHECK)
    m2 = exit_groups(exit_of)
    seen = []
    for members in m2.values():
        seen.extend(members)
    assert len(seen) == len(set(seen)) == 22
    for exit_, members in m2.items():
        assert exit_ in members
        for g in members:
            assert exit_of[g] == exit_


def test_single_exit_chain_to_output():
    text = (".inputs i j\n.outputs c\ngate a = and(i, j)\ngate b = not(a)\n"
            "gate c = not(b)\n")
    u = unroll(build_and_validate(parse_netlist(text)), 1)
    assert exit_groups(single_exit_map(u, set()))["c"] == {"a", "b", "c"}


def test_single_exit_register_feeder_is_own_exit():
    text = (".inputs i\n.outputs o\n.reg r init=0\ngate g = not(i)\n"
            "gate o = xor(r, i)\nnext r = g\n")
    u = unroll(build_and_validate(parse_netlist(text)), 2)
    exit_of = single_exit_map(u, set())
    m2 = exit_groups(exit_of)
    assert m2["g"] == {"g"}
    # register reads are their own exits and never merge downstream
    assert m2["r"] == {"r"} and exit_of["r"] == "r"


def test_aggressive_rect(rect_parity_unrolled):
    em = single_exit_map(rect_parity_unrolled, PARITY_CHECK)
    extra = aggressive_blacklist(em, PARITY_CHECK, model(types=BF))
    assert extra == {"p1", "p2", "p3", "p4", "p5", "s4", "s5", "s7", "s8"}


def test_aggressive_all_singletons():
    # every gate feeds an output port, so nothing merges
    text = ".inputs i j\n.outputs a b\ngate a = and(i, j)\ngate b = or(i, j)\n"
    u = unroll(build_and_validate(parse_netlist(text)), 1)
    em = single_exit_map(u, set())
    assert aggressive_blacklist(em, set(), model(types=BF)) == set()


def test_aggressive_not_applicable(rect_parity_unrolled):
    em = single_exit_map(rect_parity_unrolled, PARITY_CHECK)
    with pytest.raises(NotApplicable):
        aggressive_blacklist(em, PARITY_CHECK, model(types=BF, loc="r"))
    # Every type set that holds bf passes the guard; the set depends on the
    # exit map alone.
    expected = aggressive_blacklist(em, PARITY_CHECK, model(types=BF))
    for types in (ALL, BF | {FaultType.SET}, BF | {FaultType.RESET}):
        assert aggressive_blacklist(em, PARITY_CHECK, model(types=types)) == expected


def test_plan_full_pipeline(rect_parity_unrolled):
    flags = ReductionFlags()
    plan = plan_reductions(rect_parity_unrolled, PARITY_CHECK, model(types=ALL), flags)
    assert plan.effective_model.fault_types == BF
    # p6 feeds only the protected flag: with one event, the reach step drops it.
    assert plan.effective_blacklist == frozenset(PARITY_CHECK) | {
        "p1", "p2", "p3", "p4", "p5", "s4", "s5", "s7", "s8", "p6"}
    assert [r.name for r in plan.applied] == ["fault_type", "single_exit", "reach"]
    assert plan.applied[-1].detail == "instances dropped: 0 dead, 1 flag-only"
    assert plan.skipped == []


def test_plan_identity_when_flags_off(rect_parity_unrolled):
    # Only the exact reach step runs: with one event it drops the parity
    # gates p1..p6, which feed only the protected flag.
    flags = ReductionFlags(False, False)
    plan = plan_reductions(rect_parity_unrolled, PARITY_CHECK, model(types=ALL), flags)
    assert plan.effective_model.fault_types == ALL
    assert plan.effective_blacklist == frozenset(PARITY_CHECK) | {
        "p1", "p2", "p3", "p4", "p5", "p6"}
    assert [r.name for r in plan.applied] == ["reach"]


def test_plan_single_exit_skipped_without_bf(rect_parity_unrolled):
    # Without bf, T stays as it is, and single-exit needs both s and r.
    flags = ReductionFlags()
    plan = plan_reductions(rect_parity_unrolled, PARITY_CHECK, model(types=SR), flags)
    assert [s.name for s in plan.skipped] == ["fault_type"]
    assert [r.name for r in plan.applied] == ["single_exit", "reach"]
    plan = plan_reductions(rect_parity_unrolled, PARITY_CHECK, model(types=S_ONLY), flags)
    assert [s.name for s in plan.skipped] == ["fault_type", "single_exit"]
    assert plan.skipped[-1].reason == "needs bf in T or {s,r} subset of T"
    assert [r.name for r in plan.applied] == ["reach"]


def test_single_exit_map_linear_visits(rect_parity):
    # The sweep must look at each frame gate's successor list a bounded number
    # of times; count lookups through a counting dict.
    class CountingDict(dict):
        def __init__(self, base):
            super().__init__(base)
            self.gets = 0

        def get(self, *a):
            self.gets += 1
            return super().get(*a)

    import dataclasses

    counting = CountingDict(rect_parity.successors)
    circuit = dataclasses.replace(rect_parity, successors=counting)
    u = unroll(circuit, 1)
    single_exit_map(u, PARITY_CHECK)
    v = len(circuit.gate_map) + len(circuit.registers)
    e = sum(len(s) for s in rect_parity.successors.values())
    assert counting.gets <= 2 * (v + e)


def test_unobservable_reach_is_per_cycle():
    # g's value reaches the data output o only through r, one cycle later.
    # With o blacklisted, g is the only vulnerable gate: unobservable at
    # k = 1, and a flip of g@1 shows on o@2 at k = 2.
    text = (".inputs a\n.outputs o\n.reg r init=0\ngate g = not(a)\n"
            "next r = g\ngate o = buf(r)\n")
    circuit = build_and_validate(parse_netlist(text))
    m = model(types=ALL, loc="c")
    for k, status in ((1, "resistant"), (2, "not_resistant")):
        u = unroll(circuit, k)
        plan = plan_reductions(u, {"o"}, m, ReductionFlags())
        fired = any(r.name == "unobservable" for r in plan.applied)
        assert fired == (k == 1), k
        cfg = VerificationConfig(k, m, frozenset({"o"}), ReductionFlags(), ("builtin",))
        assert verify(circuit, cfg).status == status
        assert brute_force_verdict(u, {"o"}, m).status == status
    gates_off = ReductionFlags(False, False)
    plan = plan_reductions(unroll(circuit, 1), {"o"}, m, gates_off)
    assert plan.effective_blacklist == {"o", "g"}
    # At k = 2 the reach step keeps g@1 and drops g@2, which reaches no
    # output by k = 2.
    u = unroll(circuit, 2)
    plan = plan_reductions(u, {"o"}, m, gates_off)
    assert plan.effective_blacklist == {"o"}
    assert plan.prune(fault_locations(u, {"o"}, "c")) == {GateInstance(1, "g")}
    assert plan.applied[-1].detail == "instances dropped: 1 dead, 0 flag-only"
    plan = plan_reductions(u, {"o", "g"}, m, gates_off)
    assert plan.skipped == [SkippedReduction("reach", "no vulnerable gate or register")]
    # With registers vulnerable too, a fault on r@1 shows on o@1; g@1 is dead.
    m = model(types=ALL, loc="cr")
    plan = plan_reductions(unroll(circuit, 1), {"o"}, m, gates_off)
    assert plan.effective_blacklist == {"o", "g"}
    assert [r.name for r in plan.applied] == ["reach"]
    cfg = VerificationConfig(1, m, frozenset({"o"}), ReductionFlags(), ("builtin",))
    assert verify(circuit, cfg).status == "not_resistant"


def test_unobservable_keeps_flag_only_locations():
    # o reaches the data output; f1, f2 and flag reach only the flag, which
    # is raised whenever o alone is faulted.  A second fault on the flag
    # logic masks the first, so with two events no location may go while one
    # of them reaches a data output; with one event the flag-only ones go.
    text = (".inputs a b\n.outputs o flag\n.flag flag\ngate o = and(a, b)\n"
            "gate f1 = and(b, a)\ngate f2 = not(f1)\ngate flag = xnor(o, f2)\n")
    circuit = build_and_validate(parse_netlist(text))
    u = unroll(circuit, 1)
    flags = ReductionFlags(False, False)
    for ne, dropped, status in ((1, {"f1", "f2", "flag"}, "resistant"),
                                (2, set(), "not_resistant")):
        m = model(ne=ne, types=BF, loc="c")
        plan = plan_reductions(u, set(), m, flags)
        assert plan.effective_blacklist == dropped
        assert [r.name for r in plan.applied] == (["reach"] if dropped else [])
        assert len(fault_locations(u, plan.effective_blacklist, "c")) == 4 - len(dropped)
        cfg = VerificationConfig(1, m, frozenset(), flags, ("builtin",))
        assert verify(circuit, cfg).status == status
        assert brute_force_verdict(u, set(), m).status == status


def _frame_cone(circuit, nets):
    """Every net the given nets read within one frame, themselves included."""
    cone, stack = set(nets), list(nets)
    while stack:
        g = circuit.gate_map.get(stack.pop())
        for op in g.operands if g is not None else ():
            if op not in cone:
                cone.add(op)
                stack.append(op)
    return cone


def test_unobservable_agrees_with_oracle():
    # Two blacklists per netlist: the data outputs' cones within one frame,
    # under which the reduction fires at k = 1 and then only while no
    # register carries a vulnerable gate's value into those cones; and a
    # random half of the gates and registers.
    rng = random.Random(8)
    cases = fired = 0
    for seed in range(30):
        circuit = build_and_validate(random_netlist(
            seed, max_gates=7, max_regs=2, num_inputs=3).doc)
        names = sorted(set(circuit.gate_map) | set(circuit.register_names))
        data = [o for o in circuit.outputs if o != circuit.flag]
        blacklists = (frozenset(_frame_cone(circuit, data) & set(names)),
                      frozenset(rng.sample(names, len(names) // 2)))
        for blacklist in blacklists:
            for loc in ("c", "r", "cr"):
                for k in (1, 2, 3):
                    m = model(types=ALL, loc=loc)
                    cfg = VerificationConfig(k, m, blacklist, ReductionFlags(), ("builtin",))
                    verdict = verify(circuit, cfg)
                    brute = brute_force_verdict(unroll(circuit, k), blacklist, m)
                    assert verdict.status == brute.status, (seed, sorted(blacklist), loc, k)
                    cases += 1
                    fired += any(r.name == "unobservable"
                                 for r in verdict.plan.applied)
    assert 3 * fired >= cases, (fired, cases)


def _gate_reductions_first(unrolled, blacklist, m, flags):
    """(unobservable, effective blacklist, whether the gate reduction removed
    a gate) with the gate reduction run before the unobservable test: fault
    types shrink, then single_exit, then the unobservable test and the cut
    on the names left."""
    circuit, k = unrolled.circuit, unrolled.k
    if flags.fault_type and FaultType.BITFLIP in m.fault_types:
        m = model(m.n_e, m.n_c, BF, m.location)
    extra = None
    if flags.single_exit:
        with contextlib.suppress(NotApplicable):
            extra = aggressive_blacklist(single_exit_map(unrolled, blacklist), blacklist, m)
    reduced = blacklist | (extra or set())
    vulnerable = faultable_names(circuit, reduced, m.location)
    if vulnerable and all(circuit.data_depth.get(n, k) >= k for n in vulnerable):
        return True, reduced | vulnerable, bool(extra)
    depth = circuit.data_depth if m.n_e * min(m.n_c, k) == 1 else circuit.output_depth
    return False, reduced | {n for n in vulnerable if depth.get(n, k) >= k}, bool(extra)


def test_unobservable_check_before_gate_reductions_changes_nothing():
    # The gate reduction blacklists a gate only when all its paths run
    # through a kept vulnerable gate of the same cycle, which is at most as
    # deep; so checking for an unobservable circuit before the gate
    # reduction gives the same outcome and the same effective blacklist as
    # checking after.  {s, r} keeps its types and still has the reduction.
    cases = fired = fired_after_removal = 0
    for seed, with_flag in itertools.product(range(20), (True, False)):
        circuit = build_and_validate(random_netlist(
            seed, max_gates=10, max_regs=2, num_inputs=3, with_flag=with_flag).doc)
        names = set(circuit.gate_map) | set(circuit.register_names)
        data = [o for o in circuit.outputs if o != circuit.flag]
        blacklists = {frozenset(), frozenset(_frame_cone(circuit, data) & names)}
        if circuit.flag:
            blacklists.add(frozenset({circuit.flag}))
        for blacklist, k, loc, types, single_exit in itertools.product(
                blacklists, (1, 2, 3), ("c", "cr"), (BF, SR), (False, True)):
            m = model(types=types, loc=loc)
            flags = ReductionFlags(single_exit=single_exit)
            u = unroll(circuit, k)
            plan = plan_reductions(u, blacklist, m, flags)
            unobservable, effective, removed = _gate_reductions_first(u, blacklist, m, flags)
            key = (seed, with_flag, sorted(blacklist), k, loc, len(types), single_exit)
            assert plan.unobservable == unobservable, key
            assert plan.effective_blacklist == effective, key
            cases += 1
            fired += unobservable
            fired_after_removal += unobservable and removed
    assert 0 < fired < cases and fired_after_removal, (cases, fired, fired_after_removal)


_DROPPED = re.compile(r"instances dropped: (\d+) dead, (\d+) flag-only")

# A flip of g in cycle 1 shows on o in cycle 2, where the flag sees it; a
# second flip, of f in cycle 2, masks the flag.  With one event per cycle in
# two cycles the circuit is not resistant, although f reaches only the flag.
MASKED_LATER = (".name masked_later\n.inputs a\n.outputs o flag\n.flag flag\n.reg r init=0\n.reg s init=0\n"
                "gate g = buf(a)\ngate h = buf(a)\ngate o = buf(r)\ngate f = xor(o, s)\n"
                "gate flag = buf(f)\nnext r = g\nnext s = h\n")


def test_reach_agrees_with_oracle():
    # Every location class, k = 1..3, one event and two (in one cycle or
    # over two cycles), bit-flips and set/reset, the flag faultable and
    # blacklisted: the verdict with the reach step's cut equals the
    # oracle's, both verdicts occur, and both of its rules drop instances
    # somewhere.
    docs = [random_netlist(seed, max_gates=6, max_regs=2, num_inputs=2).doc
            for seed in range(5)]
    cases = dead = flag_only = resistant = 0
    for doc in docs + [parse_netlist(MASKED_LATER)]:
        circuit = build_and_validate(doc)
        for blacklist, loc, k, (ne, nc), types in itertools.product(
                (frozenset(), frozenset({circuit.flag})), ("c", "r", "cr"), (1, 2, 3),
                ((1, 1), (2, 1), (1, 2)), (BF, SR)):
            m = model(ne, nc, types, loc)
            cfg = VerificationConfig(k, m, blacklist, ReductionFlags(), ("builtin",))
            verdict = verify(circuit, cfg)
            brute = brute_force_verdict(unroll(circuit, k), blacklist, m)
            assert verdict.status == brute.status, (doc.name, sorted(blacklist), loc, k, ne, nc)
            cases += 1
            resistant += verdict.status == "resistant"
            for r in verdict.plan.applied:
                if r.name == "reach":
                    d, f = map(int, _DROPPED.fullmatch(r.detail).groups())
                    dead += d > 0
                    flag_only += f > 0
    assert 0 < resistant < cases and dead and flag_only, (cases, resistant, dead, flag_only)


def test_single_exit_agrees_with_oracle():
    # Single-exit under its guard (bf in T or {s, r} a subset of T), with
    # the fault-type reduction off so each type set reaches it: one fault on
    # the exit gate reproduces whatever its sub-circuit's faults do to it,
    # so the verdict equals the oracle's.  Both verdicts occur, and
    # single-exit removes gates without bf too.
    flags = ReductionFlags(fault_type=False, single_exit=True)
    rng = random.Random(22)
    cases = resistant = removed_under_sr = 0
    for seed, with_flag in itertools.product(range(10), (True, False)):
        circuit = build_and_validate(random_netlist(
            seed, max_gates=10, max_regs=2, num_inputs=2, with_flag=with_flag).doc)
        names = sorted(set(circuit.gate_map) | set(circuit.register_names))
        for blacklist, types, loc, k, (ne, nc) in itertools.product(
                (frozenset(), frozenset(rng.sample(names, 2))),
                (SR, ALL, BF | {FaultType.SET}, BF | {FaultType.RESET}), ("c", "cr"),
                (1, 2), ((1, 1), (2, 1), (1, 2))):
            if nc > k:
                continue
            m = model(ne, nc, types, loc)
            cfg = VerificationConfig(k, m, blacklist, flags, ("builtin",))
            verdict = verify(circuit, cfg)
            brute = brute_force_verdict(unroll(circuit, k), blacklist, m)
            key = (seed, with_flag, sorted(blacklist), sorted(t.token for t in types),
                   loc, k, ne, nc)
            assert verdict.status == brute.status, key
            cases += 1
            resistant += verdict.status == "resistant"
            removed_under_sr += types == SR and any(
                r.name == "single_exit" and r.gates_removed for r in verdict.plan.applied)
    assert 0 < resistant < cases and removed_under_sr, (cases, resistant, removed_under_sr)
