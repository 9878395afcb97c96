"""Acceptance gate: every criterion as one test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its stated runtime bound where one exists.
"""

import itertools
import random
import time

import pytest

from conftest import (
    SBOX,
    SBOX_FAULTY,
    counter_cnf,
    exit_groups,
    input_bits,
    instances,
    lowered,
)
from faultres.circuit_model import (
    FaultResistanceModel,
    GateInstance,
    build_and_validate,
    fault_locations,
    unroll,
)
from faultres.formula import BoolFormula, FormulaBuilder, ROLE_INPUT, tseitin_cnf
from faultres.netlist_io import ReductionFlags, VerificationConfig
from faultres.oracle import (
    _truth_table_sat,
    brute_force_verdict,
    np_hardness_instance,
    random_netlist,
)
from faultres.reductions import aggressive_blacklist, single_exit_map
from faultres.sat_encoding import verify
from faultres.simulator import (
    FaultEvent,
    FaultType,
    FaultVector,
    apply_fault_vector,
    run_trace,
)
from faultres.solvers import solve_cnf
from test_sat_encoding import (
    clauses_extendable,
    clauses_extendable_solver,
    random_formula,
    truth_table_satisfiable,
)

ALL = frozenset(FaultType)
BF = frozenset({FaultType.BITFLIP})
SR = frozenset({FaultType.SET, FaultType.RESET})
TYPES = {"s": FaultType.SET, "r": FaultType.RESET, "bf": FaultType.BITFLIP}

CORPUS_SEEDS = range(30)
CORPUS_PARAMS = dict(max_gates=7, max_regs=2, num_inputs=3)


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_truth_table_fidelity(rect_parity_unrolled):
    start = time.perf_counter()
    for value in range(16):
        trace = run_trace(rect_parity_unrolled, [input_bits(value)])
        got = "".join(str(trace.outputs[0][o]) for o in "wxyz")
        assert got == SBOX[value]
    for (gate, token), rows in SBOX_FAULTY.items():
        vector = FaultVector([FaultEvent(GateInstance(1, gate), TYPES[token])])
        faulted = apply_fault_vector(rect_parity_unrolled, vector)
        for value in range(16):
            trace = run_trace(faulted, [input_bits(value)])
            got = "".join(str(trace.outputs[0][o]) for o in "wxyz")
            assert got == rows[value], (gate, token, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"1 truth-table fidelity (16 golden + 6x16 faulty rows, "
           f"{elapsed:.2f}s < 1s): PASS")


def test_criterion_2_verdict_reproduction(rect_parity, rect_revised,
                                          zeta_1_1_all_c, zeta_1_1_all_c_parity):
    start = time.perf_counter()
    verdict = verify(rect_parity, zeta_1_1_all_c)
    parity_time = time.perf_counter() - start
    assert verdict.status == "not_resistant"
    assert verdict.counterexample is not None  # replay-confirmed by verify
    assert parity_time < 5.0

    start = time.perf_counter()
    verdict2 = verify(rect_revised, zeta_1_1_all_c_parity)
    revised_time = time.perf_counter() - start
    assert verdict2.status == "resistant"
    assert revised_time < 5.0
    report(f"2 verdict reproduction (protected: not_resistant {parity_time:.2f}s; "
           f"revised: resistant {revised_time:.2f}s; builtin solver, < 5s each): PASS")


def test_criterion_3_reduction_fixtures(rect_parity_unrolled):
    blacklist = {"c1", "c2", "c3", "flag"}
    model = FaultResistanceModel(1, 1, ALL, "c")
    exit_of = single_exit_map(rect_parity_unrolled, blacklist)
    extra = aggressive_blacklist(exit_of, blacklist, model)
    assert extra == {"s4", "s5", "s7", "s8", "p1", "p2", "p3", "p4", "p5"}

    m2 = exit_groups(exit_of)
    assert m2["p6"] == {"p1", "p2", "p3", "p4", "p5", "p6"}
    assert m2["x"] == {"s8", "x"}
    assert m2["w"] == {"s7", "w"}
    assert m2["z"] == {"s4", "z"}
    assert m2["s6"] == {"s5", "s6"}
    singleton = {g for g, members in m2.items() if members == {g}}
    assert singleton == {"s1", "s2", "s3", "y", "c1", "c2", "c3", "flag"}
    report("3 reduction fixtures (single-exit set and exit map, exact): PASS")


@pytest.fixture(scope="module")
def corpus_matrix():
    """Brute-force and SAT verdicts for 30 circuits x 36 models x all 4
    reduction-flag combinations."""
    start = time.perf_counter()
    results = []
    flag_combos = [ReductionFlags(ft, se) for ft in (False, True) for se in (False, True)]
    for seed in CORPUS_SEEDS:
        inst = random_netlist(seed, **CORPUS_PARAMS)
        assert len(inst.doc.gates) <= 15
        assert len(inst.doc.registers) <= 2
        circuit = build_and_validate(inst.doc)
        k = 1 + seed % 2
        unrolled = unroll(circuit, k)
        for ne in (1, 2):
            for nc in (1, 2):
                for types in (BF, SR, ALL):
                    for loc in ("c", "r", "cr"):
                        model = FaultResistanceModel(ne, min(nc, k), types, loc)
                        brute = brute_force_verdict(unrolled, frozenset(), model)
                        sat = {}
                        for flags in flag_combos:
                            cfg = VerificationConfig(k, model, frozenset(),
                                                     flags, ("builtin",))
                            sat[flags] = verify(circuit, cfg).status
                        results.append((seed, k, ne, min(nc, k), types, loc,
                                        brute.status, sat))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_4_oracle_equivalence(corpus_matrix):
    results, elapsed = corpus_matrix
    runs = 0
    for seed, k, ne, nc, types, loc, brute, sat in results:
        for flags, status in sat.items():
            assert status == brute, (seed, k, ne, nc, types, loc, flags)
            runs += 1
    assert elapsed < 600.0
    report(f"4 oracle equivalence ({len(results)} model cells, {runs} verify runs "
           f"across all reduction-flag combos, 100% agreement, "
           f"{elapsed:.0f}s < 600s): PASS")


def test_criterion_5_fault_type_invariance(corpus_matrix):
    results, _ = corpus_matrix
    table = {}
    for seed, k, ne, nc, types, loc, brute, _ in results:
        table[(seed, k, ne, nc, types, loc)] = brute
    compared = 0
    for (seed, k, ne, nc, types, loc), verdict in table.items():
        if types == ALL:
            assert verdict == table[(seed, k, ne, nc, BF, loc)], (seed, ne, nc, loc)
            compared += 1
    # nc is capped at k, so k = 1 circuits contribute half as many cells
    expected = sum(2 * (2 if (1 + seed % 2) == 2 else 1) * 3 for seed in CORPUS_SEEDS)
    assert compared == expected
    report(f"5 fault-type reduction invariance (verdict under all types == "
           f"verdict under bit-flip only, {compared} cells): PASS")


def test_criterion_6_np_hardness_generator():
    rng = random.Random(424242)
    model = lambda ne: FaultResistanceModel(ne, 1, BF, "r")
    checked = 0
    for case in range(20):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            width = rng.randint(1, 3)
            clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, 3)
                                 for _ in range(width)))
        expected_sat = _truth_table_sat(clauses, 3)
        for ne in (1, 2):
            inst = np_hardness_instance(clauses, 3, ne)
            circuit = build_and_validate(inst.doc)
            cfg = VerificationConfig(3, model(ne), frozenset(),
                                     ReductionFlags(), ("builtin",))
            verdict = verify(circuit, cfg)
            assert verdict.is_resistant == (not expected_sat), (case, ne, clauses)
            checked += 1
    report(f"6 SAT-reduction instances ({checked} verdicts == truth-table "
           f"satisfiability, 100%): PASS")


def test_criterion_7_size_bound(rect_parity_unrolled, rect_revised):
    type_sets = [(FaultType.SET,), (FaultType.SET, FaultType.RESET),
                 (FaultType.SET, FaultType.RESET, FaultType.BITFLIP)]
    checked = 0
    worst = 0.0
    circuits = [rect_parity_unrolled, unroll(rect_revised, 1)]
    for seed in CORPUS_SEEDS:
        doc = random_netlist(seed, **CORPUS_PARAMS).doc
        circuits.append(unroll(build_and_validate(doc), 2))
    for unrolled in circuits:
        for types in type_sets:
            locations = fault_locations(unrolled, set(), "cr")
            controlled = lowered(unrolled, locations, types)
            # every node of the formula DAG against 6|T| x k x (gates + registers)
            bound = 6 * len(types) * len(instances(unrolled))
            nodes = len(controlled.builder.kinds)
            assert nodes <= bound
            worst = max(worst, nodes / bound)
            checked += 1
    report(f"7 instrumented size bound (formula nodes <= 6|T| x original gates on "
           f"{checked} circuit/type-set pairs, worst {worst:.3f} of the bound): PASS")


def test_criterion_8_cardinality_exactness():
    checked = 0
    # The bound lowered by tseitin_cnf, the code verify runs.  Small aux
    # blocks are checked by exhausting the aux assignments; larger ones by
    # asking the solver.
    for n in range(1, 9):
        for k in range(0, 5):
            clauses, aux = counter_cnf(n, k)
            assert len(aux) <= n * max(k, 1)
            for bits in itertools.product((False, True), repeat=n):
                if len(aux) <= 12:
                    ok = clauses_extendable(clauses, aux, n, bits)
                else:
                    ok = clauses_extendable_solver(clauses, n + len(aux), n, bits)
                assert ok == (sum(bits) <= k), (n, k, bits)
                checked += 1
    report(f"8 cardinality exactness (n <= 8, k <= 4, {checked} assignments "
           f"by full enumeration): PASS")


def test_criterion_9_tseitin_equisatisfiability():
    rng = random.Random(31337)
    names = ["v1", "v2", "v3", "v4"]
    checked = 0
    for _ in range(200):
        fb = FormulaBuilder()
        for n in names:
            fb.var(n, ROLE_INPUT)
        root = random_formula(fb, rng, names, depth=4)
        cnf = tseitin_cnf(BoolFormula(fb, root))
        assert (solve_cnf(cnf).status == "sat") == truth_table_satisfiable(fb, root, names)
        checked += 1
    report(f"9 Tseitin equisatisfiability ({checked} formulas over <= 4 vars, "
           f"100% agreement with truth tables): PASS")
