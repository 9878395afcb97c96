import itertools
import random

import pytest

from conftest import SBOX, SBOX_FAULTY, input_bits, max_epc, sharp_clk
from faultres.circuit_model import GateInstance, build_and_validate, fault_locations, unroll
from faultres.netlist_io import parse_netlist
from faultres.oracle import random_netlist
from faultres.simulator import (
    DuplicateInstance,
    EffectivenessResult,
    EmptyVector,
    FaultEvent,
    FaultType,
    FaultVector,
    ShapeMismatch,
    TooLargeForExhaustive,
    UnknownInstance,
    apply_fault_vector,
    check_effectiveness,
    find_witness,
    run_trace,
)

TYPES = {"s": FaultType.SET, "r": FaultType.RESET, "bf": FaultType.BITFLIP}


def sbox_out(trace, cycle=1):
    return "".join(str(trace.outputs[cycle - 1][o]) for o in "wxyz")


def single(gate, token, cycle=1):
    return FaultVector([FaultEvent(GateInstance(cycle, gate), TYPES[token])])


def test_golden_truth_table(rect_parity_unrolled):
    for value in range(16):
        t = run_trace(rect_parity_unrolled, [input_bits(value)])
        assert sbox_out(t) == SBOX[value]
        assert t.flags[0] == 0


def test_faulted_truth_tables(rect_parity_unrolled):
    for (gate, token), rows in SBOX_FAULTY.items():
        faulted = apply_fault_vector(rect_parity_unrolled, single(gate, token))
        for value in range(16):
            t = run_trace(faulted, [input_bits(value)])
            assert sbox_out(t) == rows[value], (gate, token, value)


def test_one_cycle_delay_register():
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = buf(r)\nnext r = i\n"
    u = unroll(build_and_validate(parse_netlist(text)), 2)
    t = run_trace(u, [(1,), (0,)])
    assert [t.outputs[0]["o"], t.outputs[1]["o"]] == [0, 1]


def test_empty_vector_is_identity(rect_parity_unrolled):
    same = apply_fault_vector(rect_parity_unrolled, FaultVector([]))
    for value in range(16):
        golden = run_trace(rect_parity_unrolled, [input_bits(value)])
        faulty = run_trace(same, [input_bits(value)])
        assert golden.outputs == faulty.outputs


def test_apply_unknown_instance(rect_parity_unrolled):
    with pytest.raises(UnknownInstance):
        apply_fault_vector(rect_parity_unrolled, single("ghost", "s"))
    with pytest.raises(UnknownInstance):
        apply_fault_vector(rect_parity_unrolled, single("s1", "s", cycle=2))


def test_vector_rejects_duplicate_instance():
    events = [FaultEvent(GateInstance(1, "s1"), FaultType.SET),
              FaultEvent(GateInstance(1, "s1"), FaultType.RESET)]
    with pytest.raises(DuplicateInstance):
        FaultVector(events)


def test_apply_rejects_refaulting_an_instance(rect_parity_unrolled):
    once = apply_fault_vector(rect_parity_unrolled, single("s1", "s"))
    with pytest.raises(DuplicateInstance):
        apply_fault_vector(once, single("s1", "bf"))


def test_vector_stats():
    v = FaultVector([
        FaultEvent(GateInstance(1, "a"), FaultType.SET),
        FaultEvent(GateInstance(1, "b"), FaultType.SET),
        FaultEvent(GateInstance(2, "a"), FaultType.BITFLIP),
    ])
    assert sharp_clk(v) == 2
    assert max_epc(v) == 2


def test_run_trace_shape_errors(rect_parity_unrolled):
    with pytest.raises(ShapeMismatch):
        run_trace(rect_parity_unrolled, [])
    with pytest.raises(ShapeMismatch):
        run_trace(rect_parity_unrolled, [(0, 1)])
    with pytest.raises(ShapeMismatch):
        run_trace(rect_parity_unrolled, [(0, 1, 2, 0)])


def test_effectiveness_z_set(rect_parity_unrolled):
    res = check_effectiveness(rect_parity_unrolled, single("z", "s"), [input_bits(0)])
    assert res.effective and res.divergence_cycle == 1
    assert res.differing_output in "wxyz"


def test_effectiveness_s7_set_detected(rect_parity_unrolled):
    # Outputs differ (0110 vs 1110) but the faulty flag rises in the same cycle.
    res = check_effectiveness(rect_parity_unrolled, single("s7", "s"), [input_bits(0)])
    assert not res.effective


def test_effectiveness_empty_vector(rect_parity_unrolled):
    with pytest.raises(EmptyVector):
        check_effectiveness(rect_parity_unrolled, FaultVector([]), [input_bits(0)])


def test_witness_sets_for_z_gate(rect_parity_unrolled):
    # A z fault slips past the parity check exactly when it flips both x and z.
    # The stuck-at-1 and stuck-at-0 sets are disjoint (z cannot differ from
    # both constants on one input) and their union is the bit-flip set.
    expect = {
        "s": {"0000", "1001", "1110", "1111"},
        "r": {"0001", "0110", "0111", "1000"},
        "bf": {"0000", "0001", "0110", "0111", "1000", "1001", "1110", "1111"},
    }
    got = {}
    for token, want in expect.items():
        got[token] = set()
        for value in range(16):
            res = check_effectiveness(rect_parity_unrolled, single("z", token),
                                      [input_bits(value)])
            if res.effective:
                got[token].add(format(value, "04b"))
        assert got[token] == want, token
    assert got["s"] | got["r"] == got["bf"]
    assert got["s"] & got["r"] == set()


def test_find_witness_z_reset(rect_parity_unrolled):
    witness = find_witness(rect_parity_unrolled, single("z", "r"))
    bits = "".join(str(b) for b in witness[0])
    assert bits in {"0001", "0110", "0111", "1000", "1111"}
    assert bits == "0001"  # lexicographically first


def test_find_witness_s7_bitflip_none(rect_parity_unrolled):
    assert find_witness(rect_parity_unrolled, single("s7", "bf")) is None
    # confirmed by exhaustion
    for value in range(16):
        res = check_effectiveness(rect_parity_unrolled, single("s7", "bf"),
                                  [input_bits(value)])
        assert not res.effective


def test_find_witness_empty_vector(rect_parity_unrolled):
    with pytest.raises(EmptyVector, match="^witness search needs a non-empty fault vector$"):
        find_witness(rect_parity_unrolled, FaultVector([]))


def test_find_witness_too_large():
    names = [f"i{n}" for n in range(30)]
    text = (".inputs " + " ".join(names) + "\n.outputs g\n"
            + "gate g = and(i0, i1)\n")
    u = unroll(build_and_validate(parse_netlist(text)), 1)
    with pytest.raises(TooLargeForExhaustive):
        find_witness(u, single("g", "bf"))


def test_determinism(rect_parity_unrolled):
    a = run_trace(rect_parity_unrolled, [input_bits(9)])
    b = run_trace(rect_parity_unrolled, [input_bits(9)])
    assert a == b


def test_fault_locality():
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = xor(i, r)\nnext r = o\n"
    u = unroll(build_and_validate(parse_netlist(text)), 3)
    faulted = apply_fault_vector(u, single("o", "bf", cycle=2))
    for bits in itertools.product((0, 1), repeat=3):
        inputs = [(b,) for b in bits]
        golden = run_trace(u, inputs)
        faulty = run_trace(faulted, inputs)
        assert golden.outputs[0] == faulty.outputs[0]  # cycle 1 untouched
        assert golden.outputs[1] != faulty.outputs[1]  # bf on the output gate


def test_register_fault_replays_by_name():
    # A location is (cycle, name): a register fault needs nothing but the
    # register's name, and it is the instance fault_locations yields.
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = buf(r)\nnext r = i\n"
    u = unroll(build_and_validate(parse_netlist(text)), 2)
    inst = GateInstance(2, "r")
    assert inst in fault_locations(u, set(), "r")
    v = FaultVector([FaultEvent(inst, FaultType.SET)])
    assert check_effectiveness(u, v, [(0,), (0,)]) == EffectivenessResult(True, 2, "o")


def test_register_fault_is_transient():
    # A bit-flip on a register read disturbs that cycle only; the stored value
    # is rebuilt from the faulted read through the next-state logic.
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = buf(r)\nnext r = i\n"
    u = unroll(build_and_validate(parse_netlist(text)), 3)
    v = FaultVector([FaultEvent(GateInstance(2, "r"), FaultType.BITFLIP)])
    golden = run_trace(u, [(0,), (0,), (0,)])
    faulty = run_trace(apply_fault_vector(u, v), [(0,), (0,), (0,)])
    assert [o["o"] for o in golden.outputs] == [0, 0, 0]
    assert [o["o"] for o in faulty.outputs] == [0, 1, 0]


def test_sweep_agrees_with_per_input_check():
    # find_witness is a bit-parallel sweep; check it against the definitional
    # per-input loop on random circuits and vectors.
    rng = random.Random(7)
    for seed in range(12):
        doc = random_netlist(seed, max_gates=7, max_regs=1, num_inputs=3).doc
        c = build_and_validate(doc)
        k = 1 + seed % 2
        u = unroll(c, k)
        candidates = ([GateInstance(cy, g) for cy in range(1, k + 1)
                       for g in c.gate_map]
                      + [GateInstance(cy, r)
                         for cy in range(1, k + 1) for r in c.register_names])
        for _ in range(6):
            size = rng.randint(1, min(3, len(candidates)))
            insts = rng.sample(candidates, size)
            v = FaultVector([FaultEvent(i, rng.choice(list(FaultType)))
                             for i in insts])
            witness = find_witness(u, v)
            total = len(c.inputs) * k
            all_inputs = list(itertools.product((0, 1), repeat=total))
            first = None
            for flat in all_inputs:
                rows = [flat[i * len(c.inputs):(i + 1) * len(c.inputs)]
                        for i in range(k)]
                if check_effectiveness(u, v, rows).effective:
                    first = tuple(rows)
                    break
            assert witness == first
