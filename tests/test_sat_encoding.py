import dataclasses
import hashlib
import itertools
import json
import random
import stat
import sys

import pytest

from conftest import (
    DUP_COMPARE,
    DUP_COMPARE_CONFIG,
    canonical_assignment,
    control_names,
    counter_cnf,
    dup_and_compare,
    evaluate,
    formula_holds,
    fr_formula,
    lowered,
)
from faultres.circuit_model import (
    FaultResistanceModel,
    GateInstance,
    InvalidModel,
    build_and_validate,
    fault_locations,
    unroll,
)
from faultres.formula import (
    ITE,
    ROLE_CONTROL,
    ROLE_INPUT,
    BoolFormula,
    EncodingError,
    FormulaBuilder,
    emit_dimacs,
    tseitin_cnf,
)
from faultres import reductions
from faultres.fixtures import fixture_text
from faultres.netlist_io import (
    ReductionFlags,
    VerificationConfig,
    parse_config,
    parse_netlist,
    write_netlist,
)
from faultres.oracle import enumerate_fault_vectors, random_netlist
from faultres.sat_encoding import (
    GoldenDisagrees,
    InternalEncodingError,
    encode_problem,
    verify,
)
from faultres.simulator import FaultType, FaultVector, check_effectiveness
from faultres.solvers import REFUTED, CdclSolver, SolverUndecided, solve_cnf

ALL = (FaultType.SET, FaultType.RESET, FaultType.BITFLIP)


def count_true(bits, lits):
    return sum(1 for lit in lits if bits[abs(lit) - 1] == (lit > 0))


def clauses_extendable(clauses, aux, n_fixed, bits):
    """Can the fixed assignment of vars 1..n_fixed extend over the aux vars to
    satisfy all clauses?  Exhaustive over aux assignments (small aux counts
    only; the callers keep len(aux) <= 12)."""
    aux = sorted(aux)
    for ext in itertools.product((False, True), repeat=len(aux)):
        value = dict(zip(aux, ext))

        def sat(lit):
            v = abs(lit)
            b = bits[v - 1] if v <= n_fixed else value[v]
            return b == (lit > 0)

        if all(any(sat(l) for l in clause) for clause in clauses):
            return True
    return False


def clauses_extendable_solver(clauses, num_vars, n_fixed, bits):
    """Same question decided with the CDCL solver (itself verified against
    truth tables elsewhere): fix vars 1..n_fixed with unit clauses, solve."""
    units = [[v if bits[v - 1] else -v] for v in range(1, n_fixed + 1)]
    return CdclSolver(num_vars, clauses + units).solve().status == "sat"


def test_at_most_k_exact_small():
    clauses, aux = counter_cnf(3, 1)
    assert aux == [4, 5]
    good = 0
    for bits in itertools.product((False, True), repeat=3):
        ok = clauses_extendable(clauses, aux, 3, bits)
        assert ok == (sum(bits) <= 1)
        good += ok
    assert good == 4


def test_at_most_k_trivial_cases():
    assert counter_cnf(2, 2) == ([], [])
    assert counter_cnf(2, 5) == ([], [])
    clauses, aux = counter_cnf(3, 0)
    assert clauses == [[-1], [-2], [-3]] and aux == []


def test_at_most_k_canonical_counter_extension():
    # Independent positive-side witness: setting s[i][j] = "at least j+1 of
    # the first i+1 literals are true" satisfies every clause whenever the
    # bound holds, without consulting any solver.
    for n in range(2, 9):
        for k in range(1, 5):
            if k >= n:
                continue
            clauses, aux = counter_cnf(n, k)
            for bits in itertools.product((False, True), repeat=n):
                if sum(bits) > k:
                    continue
                value = {}
                pos = 0
                for i in range(n - 1):
                    count = sum(bits[:i + 1])
                    for j in range(k):
                        value[n + 1 + pos] = count >= j + 1
                        pos += 1

                def sat(lit):
                    v = abs(lit)
                    b = bits[v - 1] if v <= n else value[v]
                    return b == (lit > 0)

                assert all(any(sat(l) for l in clause) for clause in clauses), (n, k, bits)


def test_formula_var_unknown_role():
    with pytest.raises(EncodingError, match="unknown role 'aux'"):
        FormulaBuilder().var("a", "aux")


def test_tseitin_and_root_clause_count():
    fb = FormulaBuilder()
    a = fb.var("a", ROLE_INPUT)
    b = fb.var("b", ROLE_INPUT)
    cnf = tseitin_cnf(BoolFormula(fb, fb.and_(a, b)))
    assert len(cnf.clauses) == 4  # 3 defining + 1 root unit
    assert cnf.num_vars == 3


def random_formula(fb, rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return fb.var(rng.choice(names), ROLE_INPUT)
    op = rng.choice(["not", "and", "or", "xor", "iff", "ite"])
    if op == "not":
        return fb.not_(random_formula(fb, rng, names, depth - 1))
    if op == "ite":
        return fb.ite(random_formula(fb, rng, names, depth - 1),
                      random_formula(fb, rng, names, depth - 1),
                      random_formula(fb, rng, names, depth - 1))
    f = {"and": fb.and_, "or": fb.or_, "xor": fb.xor,
         "iff": lambda a, b: fb.not_(fb.xor(a, b))}[op]
    return f(random_formula(fb, rng, names, depth - 1),
             random_formula(fb, rng, names, depth - 1))


def truth_table_satisfiable(fb, root, names):
    for bits in itertools.product((False, True), repeat=len(names)):
        if evaluate(fb, root, dict(zip(names, bits))):
            return True
    return False


def test_tseitin_equisatisfiable_family():
    # acceptance criterion: >= 200 random formulas over <= 4 variables
    rng = random.Random(12345)
    names = ["v1", "v2", "v3", "v4"]
    agree = 0
    for _ in range(220):
        fb = FormulaBuilder()
        for n in names:
            fb.var(n, ROLE_INPUT)
        root = random_formula(fb, rng, names, depth=4)
        cnf = tseitin_cnf(BoolFormula(fb, root))
        want = truth_table_satisfiable(fb, root, names)
        got = solve_cnf(cnf).status == "sat"
        assert got == want
        agree += 1
    assert agree == 220


def test_tseitin_clauses_repeat_no_variable():
    # The family above builds ite nodes with a branch equal to the condition
    # or to its negation; folded, they leave no clause with a variable twice.
    rng = random.Random(12345)
    names = ["v1", "v2", "v3", "v4"]
    for _ in range(220):
        fb = FormulaBuilder()
        for n in names:
            fb.var(n, ROLE_INPUT)
        cnf = tseitin_cnf(BoolFormula(fb, random_formula(fb, rng, names, depth=4)))
        for clause in cnf.clauses:
            assert len({abs(lit) for lit in clause}) == len(clause), clause


def test_ite_folds_a_branch_equal_to_the_condition():
    fb = FormulaBuilder()
    names = ["c", "x", "y"]
    c, x, y = (fb.var(n, ROLE_INPUT) for n in names)
    for cond in (c, fb.not_(c), fb.and_(x, y)):
        neg = fb.not_(cond)
        for other in (x, fb.not_(y), fb.xor(x, c)):
            if other in (cond, neg):
                continue
            for t, e in ((cond, other), (neg, other), (other, cond), (other, neg)):
                node = fb.ite(cond, t, e)
                assert fb.kinds[node] != ITE
                for bits in itertools.product((False, True), repeat=len(names)):
                    env = dict(zip(names, bits))
                    want = evaluate(fb, t if evaluate(fb, cond, env) else e, env)
                    assert evaluate(fb, node, env) == want, (cond, t, e, env)


def test_tseitin_constant_false_root():
    fb = FormulaBuilder()
    a = fb.var("a", ROLE_INPUT)
    root = fb.and_(a, fb.not_(a))  # folds to const false
    cnf = tseitin_cnf(BoolFormula(fb, root))
    assert [] in cnf.clauses
    assert solve_cnf(cnf).status == "unsat"


def test_tseitin_disjuncts():
    fb = FormulaBuilder()
    x, y, z = (fb.var(n, ROLE_INPUT) for n in "xyz")
    dx, dy = fb.and_(x, y), fb.and_(y, z)
    # Postorder numbering after the inputs 1..3: dx = 4, dy = 5, root = 6.
    cnf = tseitin_cnf(BoolFormula(fb, fb.or_(dx, dy),
                                  disjuncts=(dx, fb.false, dy, dx)))
    assert cnf.disjuncts == (4, 5)
    # A negated node maps to a negative literal.
    cnf = tseitin_cnf(BoolFormula(fb, fb.or_(fb.not_(x), dy),
                                  disjuncts=(fb.not_(x), dy)))
    assert cnf.disjuncts == (-1, 4)
    # Fewer than two live disjuncts, or one that folded to true: no split.
    for disjuncts in ((dx, fb.false), (dx, dx), (dx, fb.true)):
        root = fb.or_many(disjuncts)
        assert tseitin_cnf(BoolFormula(fb, root, disjuncts=disjuncts)).disjuncts == ()
    # The disjunction folds to true and leaves x out of the formula.
    root = fb.and_(fb.or_(x, fb.not_(x)), dy)
    assert tseitin_cnf(BoolFormula(fb, root, disjuncts=(x, fb.not_(x)))).disjuncts == ()


def test_split_solve_on_random_disjunctions():
    # Roots of the miter's shape, a conjunction with a disjunction, with
    # constant, repeated and negated disjuncts: the split agrees with the
    # truth table, and every model satisfies the formula.
    rng = random.Random(4242)
    names = ["v1", "v2", "v3", "v4", "v5"]
    split = 0
    for _ in range(200):
        fb = FormulaBuilder()
        for n in names:
            fb.var(n, ROLE_INPUT)
        disjuncts = [random_formula(fb, rng, names, depth=3)
                     for _ in range(rng.randint(1, 5))]
        disjuncts += rng.sample(disjuncts + [fb.false], rng.randint(0, 2))
        root = fb.and_(random_formula(fb, rng, names, depth=2), fb.or_many(disjuncts))
        formula = BoolFormula(fb, root, disjuncts=tuple(disjuncts))
        cnf = tseitin_cnf(formula)
        split += bool(cnf.disjuncts)
        res = solve_cnf(cnf)
        assert (res.status == "sat") == truth_table_satisfiable(fb, root, names)
        if res.status == "sat":
            env = {name: res.model[idx] for name, idx in cnf.var_index.items()}
            assert evaluate(fb, root, env)
    assert split > 100


def test_tseitin_model_respects_formula():
    fb = FormulaBuilder()
    a, b, c = (fb.var(n, ROLE_INPUT) for n in "abc")
    root = fb.and_(fb.xor(a, b), fb.or_(c, b))
    formula = BoolFormula(fb, root)
    cnf = tseitin_cnf(formula)
    res = solve_cnf(cnf)
    assert res.status == "sat"
    env = {name: res.model[idx] for name, idx in cnf.var_index.items()}
    assert evaluate(fb, root, env)


def test_emit_dimacs_exact():
    from faultres.formula import CNF

    cnf = CNF(num_vars=2, clauses=[[1, -2], [2]], var_index={"a": 1, "b": 2},
              roles={"a": "primary-input", "b": "primary-input"})
    text, sidecar = emit_dimacs(cnf)
    assert text == "p cnf 2 2\n1 -2 0\n2 0\n"
    assert sidecar["vars"]["a"] == {"index": 1, "role": "primary-input"}
    again, _ = emit_dimacs(cnf)
    assert again == text  # byte-deterministic


def test_emit_dimacs_header_matches_body(rect_parity, zeta_1_1_all_c):
    from faultres.sat_encoding import encode_problem

    problem = encode_problem(rect_parity, zeta_1_1_all_c)
    text, _ = emit_dimacs(problem.cnf)
    header = text.splitlines()[0].split()
    assert int(header[2]) == problem.cnf.num_vars
    assert int(header[3]) == len(text.splitlines()) - 1


def test_builtin_solver_basics():
    assert solve_cnf(_cnf(1, [[1], [-1]])).status == "unsat"
    res = solve_cnf(_cnf(2, [[1, 2]]))
    assert res.status == "sat" and (res.model[1] or res.model[2])
    assert solve_cnf(_cnf(0, [[]])).status == "unsat"


def _model_digest(model):
    """First 12 hex digits of the SHA-256 of the true variables, ascending
    and space-separated."""
    text = " ".join(str(v) for v in sorted(model) if model[v])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _search(num_vars, clauses):
    res = CdclSolver(num_vars, clauses).solve()
    digest = _model_digest(res.model) if res.status == "sat" else None
    return (res.status, res.conflicts, res.decisions, digest)


# The built-in solver's search, pinned as (status, conflicts, decisions, model
# digest).  Any change to its decisions, learning or restarts moves these
# numbers; such a change must update them on purpose.
PINNED_FIXTURE_SEARCH = {
    ("rect_parity.nl", "zeta_1_1_all_c.json"): ("sat", 3, 11, "d45c0eb02e4a"),
    ("rect_parity.nl", "zeta_1_1_all_c_parity.json"): ("sat", 3, 11, "2865d784e829"),
    ("rect_revised.nl", "zeta_1_1_all_c.json"): ("unsat", 75, 79, None),
    ("rect_revised.nl", "zeta_1_1_all_c_parity.json"): ("unsat", 89, 102, None),
}

# Random 3-SAT at clause ratio 4.26 from random.Random(2023): 30 instances
# with 10-60 variables, then 6 with 90-120 variables, which restart.
PINNED_RANDOM_SEARCH = [
    ("unsat", 32, 40, None), ("unsat", 50, 60, None),
    ("sat", 4, 12, "896968c459b2"), ("sat", 5, 23, "f53f5d96e203"),
    ("sat", 2, 6, "b041478b5560"), ("sat", 6, 20, "83c8dceb995a"),
    ("sat", 0, 2, "facf3465e32d"), ("unsat", 18, 18, None),
    ("sat", 26, 39, "db3b3f9bca85"), ("sat", 1, 7, "8d12a21b50b1"),
    ("unsat", 11, 11, None), ("unsat", 29, 33, None),
    ("sat", 2, 10, "e61ca762274a"), ("sat", 4, 10, "832d7bd0f5ed"),
    ("sat", 16, 29, "bcb444057876"), ("sat", 0, 9, "553616462f96"),
    ("unsat", 3, 3, None), ("sat", 5, 20, "870c1509e818"),
    ("sat", 2, 19, "07ea48833b4d"), ("sat", 4, 7, "9cbba4836077"),
    ("sat", 10, 22, "83339defdb52"), ("sat", 5, 13, "3efa6832907c"),
    ("sat", 4, 9, "5892ed0823b8"), ("sat", 10, 14, "bab2bc4352a1"),
    ("sat", 5, 11, "329a3c3c17bd"), ("unsat", 63, 73, None),
    ("sat", 10, 12, "a20bd0f7fa74"), ("sat", 1, 8, "0f6477c4397a"),
    ("unsat", 11, 13, None), ("sat", 8, 15, "c9708d1ab155"),
    ("sat", 140, 182, "3bfca00c7d40"), ("unsat", 456, 544, None),
    ("unsat", 960, 1125, None), ("unsat", 374, 454, None),
    ("unsat", 141, 169, None), ("unsat", 366, 434, None),
]


# The same with the reach step's cut, for the cases where it drops an
# instance: the parity configs leave p6, which
# feeds only the flag, vulnerable, and without it each search is the one
# under the other config.
PINNED_FIXTURE_SEARCH_REACH = {
    ("rect_parity.nl", "zeta_1_1_all_c_parity.json"): ("sat", 3, 11, "d45c0eb02e4a"),
    ("rect_revised.nl", "zeta_1_1_all_c_parity.json"): ("unsat", 75, 79, None),
}


@pytest.fixture
def without_cut(monkeypatch):
    """The program without the reach step's cut, which the older pins
    predate; the reach step's ``unobservable`` case still runs."""
    monkeypatch.setattr(reductions, "_cut", lambda *args, **kwargs: None)


def _fixture_cnf(netlist, config):
    doc = parse_netlist(fixture_text(netlist))
    return encode_problem(build_and_validate(doc),
                          parse_config(fixture_text(config), doc)).cnf


@pytest.mark.parametrize("netlist,config", sorted(PINNED_FIXTURE_SEARCH))
def test_builtin_solver_search_pinned_on_fixtures(netlist, config, without_cut):
    cnf = _fixture_cnf(netlist, config)
    assert _search(cnf.num_vars, cnf.clauses) == PINNED_FIXTURE_SEARCH[(netlist, config)]


@pytest.mark.parametrize("netlist,config", sorted(PINNED_FIXTURE_SEARCH))
def test_builtin_solver_search_pinned_with_reach(netlist, config):
    cnf = _fixture_cnf(netlist, config)
    expected = PINNED_FIXTURE_SEARCH_REACH.get((netlist, config),
                                               PINNED_FIXTURE_SEARCH[(netlist, config)])
    assert _search(cnf.num_vars, cnf.clauses) == expected


def test_builtin_solver_search_pinned_on_random_3sat():
    rng = random.Random(2023)
    got = []
    for i in range(len(PINNED_RANDOM_SEARCH)):
        n = rng.randint(10, 60) if i < 30 else rng.randint(90, 120)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
                   for _ in range(round(4.26 * n))]
        got.append(_search(n, clauses))
    assert got == PINNED_RANDOM_SEARCH


def test_decisions_follow_the_full_scan():
    # Every decision is the full scan's choice: an unassigned variable of the
    # highest activity, the lowest index on ties.  Before each one, every
    # unassigned variable of activity above 0 has its current entry in the
    # heap, and every one of activity 0 lies at or above the index ``free``,
    # which the later decisions rely on.  act_inc starts near the rescale
    # limit, so a rescale fires and rebuilds the heap mid-search.
    rng = random.Random(1)
    restarts = 0
    for _ in range(4):
        n = rng.randint(90, 110)
        clauses = [[rng.choice([1, -1]) * v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(round(4.26 * n))]
        solver = CdclSolver(n, clauses)
        solver.act_inc = 1e99

        def decide(solver=solver, n=n):
            free = [v for v in range(1, n + 1) if solver.val[v] is None]
            current = {entry for entry in solver.heap if entry[0] == solver.queued[entry[1]]}
            assert current >= {(-solver.activity[v], v) for v in free if solver.activity[v]}
            assert all(v >= solver.free for v in free if not solver.activity[v])
            want = min(free, key=lambda v: (-solver.activity[v], v), default=0)
            got = CdclSolver._decide(solver)
            assert got == want
            return got

        solver._decide = decide
        res = solver.solve()
        assert res.decisions and solver.act_inc < 1e99, res
        restarts += res.restarts
    assert restarts


def test_builtin_solver_counters():
    res = CdclSolver(3, [[1, 2], [1, -2], [-1, 3], [-1, -3]]).solve()
    assert res.status == "unsat"
    assert (res.decisions, res.conflicts, res.restarts, res.learnt) == (1, 2, 0, 0)
    # An empty clause decides the answer before any search.
    res = CdclSolver(4, [[1, 2], [], [3]]).solve()
    assert res.status == "unsat"
    assert (res.decisions, res.conflicts, res.restarts, res.learnt) == (0, 0, 0, 0)


def _cnf(num_vars, clauses):
    from faultres.formula import CNF

    return CNF(num_vars=num_vars, clauses=clauses, var_index={}, roles={})


def _satisfiable(n, clauses):
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=n))


def test_builtin_solver_random_vs_bruteforce():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 6)
        m = rng.randint(1, 14)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            clause = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)]
            clauses.append(clause)
        want = _satisfiable(n, clauses)
        res = CdclSolver(n, clauses).solve()
        assert (res.status == "sat") == want
        if res.status == "sat":
            assert all(any(res.model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def test_builtin_solver_phase_transition_stress():
    # random 3-SAT around the hard ratio, both outcomes, duplicates and
    # tautologies sprinkled in; cross-checked against full enumeration
    rng = random.Random(2024)
    sat_seen = unsat_seen = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        m = int(4.3 * n) + rng.randint(-3, 3)
        clauses = []
        for _ in range(m):
            lits = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
            if rng.random() < 0.05:
                lits.append(lits[0])       # duplicate literal
            if rng.random() < 0.05:
                lits.append(-lits[0])      # tautology
            clauses.append(lits)
        want = _satisfiable(n, clauses)
        res = CdclSolver(n, clauses).solve()
        assert (res.status == "sat") == want
        if want:
            sat_seen += 1
            assert all(any(res.model[abs(l)] == (l > 0) for l in cl)
                       for cl in clauses)
        else:
            unsat_seen += 1
    assert sat_seen > 20 and unsat_seen > 20


def _random_3sat(rng, n):
    return [[rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
            for _ in range(round(rng.uniform(3.0, 5.0) * n))]


def _check_under_assumptions(res, n, clauses, assumptions):
    """``res`` answers the clauses under the assumptions correctly: a model
    of both, or a refutation when brute force finds none, and ``unsat`` only
    when the clauses alone have no model."""
    if _satisfiable(n, clauses + [[a] for a in assumptions]):
        assert res.status == "sat"
        assert all(any(res.model[abs(l)] == (l > 0) for l in cl)
                   for cl in clauses + [[a] for a in assumptions])
    else:
        assert res.status in (REFUTED, "unsat")
        if res.status == "unsat":
            assert not _satisfiable(n, clauses)


def test_builtin_solver_assumptions_vs_bruteforce():
    # Repeated and complementary assumptions included.
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        n = rng.randint(3, 9)
        clauses = _random_3sat(rng, n)
        assumptions = [rng.choice([1, -1]) * rng.randint(1, n)
                       for _ in range(rng.randint(0, 4))]
        res = CdclSolver(n, clauses).solve(assumptions)
        _check_under_assumptions(res, n, clauses, assumptions)
        seen.add(res.status)
    assert seen == {"sat", "unsat", REFUTED}


def test_builtin_solver_assumption_sequence_stays_sound():
    # One solver, many calls with one assumption each, as solve_builtin
    # makes them.  A refutation leaves the negated assumption asserted at
    # level 0: assuming it again is refuted before any search.  Learnt
    # clauses carried between calls must never cut a model, and the
    # counters only grow.
    rng = random.Random(57)
    refuted = 0
    for _ in range(150):
        n = rng.randint(4, 8)
        clauses = _random_3sat(rng, n)
        solver = CdclSolver(n, clauses)
        counters = (0, 0, 0, 0)
        for _ in range(rng.randint(1, 6)):
            assumption = rng.choice([1, -1]) * rng.randint(1, n)
            res = solver.solve([assumption])
            _check_under_assumptions(res, n, clauses, [assumption])
            now = (res.decisions, res.conflicts, res.restarts, res.learnt)
            assert all(a <= b for a, b in zip(counters, now))
            counters = now
            if res.status == REFUTED:
                refuted += 1
                again = solver.solve([assumption])
                assert again.status == REFUTED
                assert (again.decisions, again.conflicts) == now[:2]
        res = solver.solve()
        assert (res.status == "sat") == _satisfiable(n, clauses)
        if res.status == "sat":
            assert all(any(res.model[abs(l)] == (l > 0) for l in cl) for cl in clauses)
    assert refuted > 50


def test_growing_solver_agrees_with_a_fresh_one():
    # Random CNFs split into 2-4 chunks, each chunk over more variables than
    # the one before: one solver takes the chunks in turn with ``add``,
    # solving in between (some calls under an assumption, which leaves
    # level-0 assignments behind), and answers each union as a fresh solver
    # and brute force do.
    rng = random.Random(77)
    seen = set()
    for _ in range(200):
        n = rng.randint(4, 9)
        bounds = sorted(rng.sample(range(2, n), rng.randint(1, min(3, n - 2)))) + [n]
        solver = CdclSolver(0, [])
        union = []
        for top in bounds:
            chunk = [[rng.choice([1, -1]) * rng.randint(1, top)
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.randint(1, 2 * top))]
            union += chunk
            solver.add(top, chunk)
            if rng.random() < 0.5:
                solver.solve([rng.choice([1, -1]) * rng.randint(1, top)])
            res = solver.solve()
            want = CdclSolver(top, union).solve().status
            assert res.status == want == ("sat" if _satisfiable(top, union) else "unsat")
            if res.status == "sat":
                assert len(res.model) == top
                assert all(any(res.model[abs(l)] == (l > 0) for l in cl) for cl in union)
            seen.add(res.status)
    assert seen == {"sat", "unsat"}


def test_growing_solver_reads_new_clauses_under_level_0():
    # After a solve, x1 and x2 hold at level 0.  A new clause whose literals
    # are all false makes the clauses unsatisfiable; a new unit holds in
    # the next model; a clause with one literal that is not false implies it
    # at once, although both its first literals are false.
    solver = CdclSolver(2, [[1], [2]])
    assert solver.solve().status == "sat"
    solver.add(2, [[-1, -2]])
    assert solver.solve().status == "unsat"

    solver = CdclSolver(2, [[1], [2]])
    assert solver.solve().status == "sat"
    solver.add(3, [[-3]])
    res = solver.solve()
    assert res.status == "sat" and res.model == {1: True, 2: True, 3: False}

    solver = CdclSolver(2, [[1], [2]])
    assert solver.solve().status == "sat"
    solver.add(4, [[-1, -2, 4], [-4, 3]])
    res = solver.solve()
    assert res.status == "sat" and res.model == {1: True, 2: True, 3: True, 4: True}
    assert res.decisions == 0


SOLVER_STUB = """#!{python}
import sys
sys.path[:0] = {path!r}
from faultres.formula import CNF
from faultres.solvers import solve_builtin

clauses, num_vars = [], 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line[0] in "cp%":
        if line.startswith("p"):
            num_vars = int(line.split()[2])
        continue
    lits = [int(t) for t in line.split()]
    clauses.append([l for l in lits if l != 0])
res = solve_builtin(CNF(num_vars, clauses, {{}}, {{}}))
if res.status == "sat":
    print("s SATISFIABLE")
    print("v " + " ".join(str(v if res.model[v] else -v)
                          for v in range(1, num_vars + 1)) + " 0")
    sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""


@pytest.fixture()
def stub_solver(tmp_path):
    script = tmp_path / "stubsat.py"
    script.write_text(SOLVER_STUB.format(python=sys.executable, path=sys.path))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return (sys.executable, str(script))


def test_external_solver_roundtrip(stub_solver):
    assert solve_cnf(_cnf(1, [[1], [-1]]), stub_solver).status == "unsat"
    res = solve_cnf(_cnf(2, [[1, 2], [-1]]), stub_solver)
    assert res.status == "sat" and res.model[2] and not res.model[1]


def test_external_solver_bad_exit(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("import sys; sys.exit(3)\n")
    res = solve_cnf(_cnf(1, [[1]]), (sys.executable, str(script)))
    assert res.status == "unknown"


def test_external_solver_wrong_model(tmp_path):
    from faultres.solvers import ModelParseError

    script = tmp_path / "liar.py"
    script.write_text("import sys; print('v -1 -2 0'); sys.exit(10)\n")
    with pytest.raises(ModelParseError, match="clause 0: 1 2 0"):
        solve_cnf(_cnf(2, [[1, 2], [-1]]), (sys.executable, str(script)))


@pytest.mark.parametrize("output, message", [
    ("s SATISFIABLE", "SAT answer without `v` model lines"),
    ("v 1 x 0", "bad literal in model: invalid literal for int() with base 10: 'x'"),
    ("v 5 0", "model literal 5 out of range"),
], ids=["no-v-line", "bad-literal", "out-of-range"])
def test_external_solver_malformed_model(tmp_path, output, message):
    from faultres.solvers import ModelParseError

    script = tmp_path / "bad.py"
    script.write_text(f"import sys; print({output!r}); sys.exit(10)\n")
    with pytest.raises(ModelParseError) as exc:
        solve_cnf(_cnf(2, [[1, 2]]), (sys.executable, str(script)))
    assert str(exc.value) == message


def test_verify_undecided_solver(rect_parity, zeta_1_1_all_c, tmp_path):
    script = tmp_path / "giveup.py"
    script.write_text("import sys; print('out of memory', file=sys.stderr); sys.exit(1)\n")
    with pytest.raises(SolverUndecided, match="out of memory") as exc:
        verify(rect_parity, dataclasses.replace(zeta_1_1_all_c,
                                                solver=(sys.executable, str(script))))
    assert "exited with 1" in exc.value.reason


def test_external_solver_spawn_failure():
    from faultres.solvers import BackendSpawnFailure

    with pytest.raises(BackendSpawnFailure):
        solve_cnf(_cnf(1, [[1]]), ("/nonexistent/solver-binary",))


def test_external_solver_on_fixture(rect_parity, zeta_1_1_all_c, stub_solver):
    verdict = verify(rect_parity, dataclasses.replace(zeta_1_1_all_c, solver=stub_solver))
    assert verdict.status == "not_resistant"
    assert verdict.result.conflicts is None  # counters come from the built-in solver only


def _fr_parts(circuit, blacklist, model, types=ALL):
    u = unroll(circuit, 1)
    locations = fault_locations(u, blacklist, model.location)
    controlled = lowered(u, locations, types)
    formula = fr_formula(u, controlled, model)
    return u, locations, controlled, formula


def test_build_fr_formula_cardinality_shape(rect_parity):
    blacklist = {"p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"}
    model = FaultResistanceModel(1, 1, frozenset(ALL), "c")
    _, locations, controlled, formula = _fr_parts(rect_parity, blacklist, model)
    assert len(locations) == 12
    # k = 1: the cycle-count part never binds; the per-cycle part does (1 < 12)
    [ne] = formula.cardinality
    assert ne.var_names == control_names(controlled, 1) and not ne.groups
    assert len(ne.var_names) == 12
    # ne >= location count: both parts absent
    big = FaultResistanceModel(12, 1, frozenset(ALL), "c")
    _, _, _, formula = _fr_parts(rect_parity, blacklist, big)
    assert formula.cardinality == []


def test_build_fr_formula_nc_part():
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = xor(i, r)\nnext r = o\n"
    circuit = build_and_validate(parse_netlist(text))
    u = unroll(circuit, 3)
    locations = fault_locations(u, set(), "c")
    controlled = lowered(u, locations, ALL)
    model = FaultResistanceModel(1, 1, frozenset(ALL), "c")
    formula = fr_formula(u, controlled, model)
    # n_c = 1 < k = 3 binds: the one bound whose variables have groups
    [nc] = [c for c in formula.cardinality if c.groups]
    assert nc.var_names == ("d@1", "d@2", "d@3")
    assert [list(g) for g in nc.groups] == [["c[o@1]"], ["c[o@2]"], ["c[o@3]"]]


def test_build_fr_formula_nc_part_not_binding_declares_no_d():
    # Controls only in cycle 2 of 3: one fault-active cycle at most, so the
    # n_c = 1 bound cannot bind and no d@ variable reaches the CNF.
    text = ".inputs a b\n.outputs o\ngate g = and(a, b)\ngate o = not(g)\n"
    u = unroll(build_and_validate(parse_netlist(text)), 3)
    controlled = lowered(u, {GateInstance(2, "g"), GateInstance(2, "o")}, ALL)
    model = FaultResistanceModel(1, 1, frozenset(ALL), "c")
    formula = fr_formula(u, controlled, model)
    assert [(c.var_names, c.groups) for c in formula.cardinality] == [
        (control_names(controlled, 2), ())]
    cnf = tseitin_cnf(formula)
    assert not [name for name in cnf.var_index if name.startswith("d@")]


def test_nc_groups_exist_before_any_cycle_is_lowered():
    # The n_c counter is whole from the start: one group of control names
    # per cycle with controls, before staged encoding lowers any cycle.
    text = ".inputs i\n.outputs o\n.reg r init=0\ngate o = xor(i, r)\nnext r = o\n"
    circuit = build_and_validate(parse_netlist(text))
    cfg = VerificationConfig(3, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                             frozenset(), ReductionFlags(), ("builtin",))
    problem = encode_problem(circuit, cfg, staged=True)
    assert problem.cycles == 0 and problem.controlled.flag_taps == {}
    [nc] = problem.cardinality
    assert nc.var_names == ("d@1", "d@2", "d@3")
    assert nc.groups == (("c[o@1]",), ("c[o@2]",), ("c[o@3]",))


def test_verify_unknown_location_class():
    # A raised error, not an assert, so `python -O` cannot turn it into a
    # `resistant` verdict over an empty location set.
    with pytest.raises(InvalidModel, match="'x'"):
        FaultResistanceModel(1, 1, frozenset(ALL), "x")


def test_formula_matches_effectiveness_semantics():
    # Cross-module invariant: an admissible (vector, inputs) pair satisfies the
    # fault-resistance formula exactly when the simulator calls it effective.
    for seed in (1, 3, 8):
        doc = random_netlist(seed, max_gates=6, max_regs=1, num_inputs=2).doc
        circuit = build_and_validate(doc)
        k = 2
        u = unroll(circuit, k)
        model = FaultResistanceModel(1, 1, frozenset(ALL), "cr")
        locations = fault_locations(u, set(), "cr")
        controlled = lowered(u, locations, ALL)
        formula = fr_formula(u, controlled, model)
        n_in = len(circuit.inputs)
        for vector in enumerate_fault_vectors(locations, model):
            assignment = canonical_assignment(controlled, vector)
            # each d variable is the OR of its cycle's controls; set them so
            for cycle in range(1, k + 1):
                controls = control_names(controlled, cycle)
                assignment[f"d@{cycle}"] = any(assignment[c] for c in controls)
            for flat in itertools.product((0, 1), repeat=n_in * k):
                rows = [flat[i * n_in:(i + 1) * n_in] for i in range(k)]
                env = dict(assignment)
                for cycle in range(1, k + 1):
                    for pos, name in enumerate(circuit.inputs):
                        env[f"{name}@{cycle}"] = bool(rows[cycle - 1][pos])
                want = check_effectiveness(u, vector, rows).effective
                assert formula_holds(formula, env) == want, (seed, vector, rows)


def test_verify_counterexample_reconfirms(rect_parity, zeta_1_1_all_c):
    verdict = verify(rect_parity, zeta_1_1_all_c)
    cx = verdict.counterexample
    u = unroll(rect_parity, 1)
    replay = check_effectiveness(u, cx.fault_vector, cx.inputs)
    assert replay.effective
    assert replay.divergence_cycle == cx.divergence_cycle
    assert replay.differing_output == cx.differing_output


def test_verify_no_flag_circuit_is_correction_style():
    # Without a declared flag the synthetic flag is constant 0, so any
    # propagating fault is effective: the bare S-box core is not resistant.
    text = (".inputs a b\n.outputs o\n"
            "gate g1 = xor(a, b)\ngate o = and(g1, a)\n")
    circuit = build_and_validate(parse_netlist(text))
    cfg = VerificationConfig(1, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                             frozenset(), ReductionFlags(), ("builtin",))
    verdict = verify(circuit, cfg)
    assert verdict.status == "not_resistant"


def test_cnf_literals_within_bounds(rect_parity, zeta_1_1_all_c):
    from faultres.sat_encoding import encode_problem

    cnf = encode_problem(rect_parity, zeta_1_1_all_c).cnf
    for clause in cnf.clauses:
        for lit in clause:
            assert lit != 0 and abs(lit) <= cnf.num_vars


def test_verify_deterministic(rect_parity, zeta_1_1_all_c):
    a = verify(rect_parity, zeta_1_1_all_c)
    b = verify(rect_parity, zeta_1_1_all_c)
    assert a.status == b.status
    assert a.counterexample.fault_vector == b.counterexample.fault_vector
    assert a.counterexample.inputs == b.counterexample.inputs
    assert a.cnf.num_vars == b.cnf.num_vars
    assert len(a.cnf.clauses) == len(b.cnf.clauses)


def test_verify_monotone_in_budget():
    # resistant at a larger budget implies resistant at a smaller one
    for seed in range(8):
        doc = random_netlist(seed, max_gates=7, max_regs=1, num_inputs=3).doc
        circuit = build_and_validate(doc)
        verdicts = {}
        for ne in (1, 2):
            cfg = VerificationConfig(
                1, FaultResistanceModel(ne, 1, frozenset(ALL), "c"),
                frozenset(), ReductionFlags(), ("builtin",))
            verdicts[ne] = verify(circuit, cfg).is_resistant
        if verdicts[2]:
            assert verdicts[1]


def test_verify_rejects_mismatched_golden(rect_parity):
    text = ".inputs p q\n.outputs o\ngate o = and(p, q)\n"
    other = build_and_validate(parse_netlist(text))
    cfg = VerificationConfig(1, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                             frozenset(), ReductionFlags(), ("builtin",))
    from faultres.simulator import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        verify(rect_parity, cfg, golden=other)


def test_verify_rejects_golden_with_an_extra_input():
    from faultres.simulator import ShapeMismatch

    protected = build_and_validate(parse_netlist(".inputs a b\n.outputs o\ngate o = and(a, b)\n"))
    golden = build_and_validate(parse_netlist(".inputs a b e\n.outputs o\ngate o = and(a, b)\n"))
    cfg = VerificationConfig(1, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                             frozenset(), ReductionFlags(), ("builtin",))
    with pytest.raises(ShapeMismatch) as exc:
        verify(protected, cfg, golden=golden)
    assert str(exc.value) == "golden and controlled circuits have different inputs"


def test_verify_with_separate_golden(rect_parity, rect_revised, zeta_1_1_all_c_parity):
    # rect_parity computes the same S-box, so it can serve as the golden side
    # of the revised circuit's miter.
    verdict = verify(rect_revised, zeta_1_1_all_c_parity, golden=rect_parity)
    assert verdict.status == "resistant"


# rect_parity's data ports with every output and(a, b): it differs from the
# S-box on input 0000 without any fault.
DISAGREEING_GOLDEN = (".inputs a b c d\n.outputs w x y z\n"
                      + "".join(f"gate {o} = and(a, b)\n" for o in "wxyz"))


def test_verify_golden_disagreeing_without_faults(rect_parity, zeta_1_1_all_c):
    golden = build_and_validate(parse_netlist(DISAGREEING_GOLDEN))
    with pytest.raises(GoldenDisagrees) as info:
        verify(rect_parity, zeta_1_1_all_c, golden=golden)
    assert str(info.value) == (
        "golden circuit disagrees with the protected circuit without faults: "
        "inputs 0000, cycle 1, output 'x' is 0 in the golden circuit and 1 in "
        "the protected one")


def test_verify_golden_reads_inputs_by_name():
    # The golden circuit declares the shared inputs in the other order and
    # computes o = b where the protected circuit computes o = a.  With the
    # only gate blacklisted, the miter is satisfiable without a fault, and the
    # replay check must feed the golden circuit its inputs by name.
    prot = build_and_validate(parse_netlist(".inputs a b\n.outputs o\ngate o = buf(a)\n"))
    gold = build_and_validate(parse_netlist(".inputs b a\n.outputs o\ngate o = buf(b)\n"))
    cfg = VerificationConfig(1, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                             frozenset({"o"}), ReductionFlags(), ("builtin",))
    with pytest.raises(GoldenDisagrees) as info:
        verify(prot, cfg, golden=gold)
    assert str(info.value) == (
        "golden circuit disagrees with the protected circuit without faults: "
        "inputs 01, cycle 1, output 'o' is 1 in the golden circuit and 0 in "
        "the protected one")


def test_encode_golden_finds_its_inputs_by_name():
    # The golden side looks its input variables up by name, so a separate
    # golden circuit that declares the inputs in another order encodes to
    # the CNF, text and sidecar, of one in the protected circuit's order.
    circuit = build_and_validate(parse_netlist(DUP_COMPARE))
    cfg = VerificationConfig(3, FaultResistanceModel(1, 2, frozenset(ALL), "cr"),
                             frozenset(), ReductionFlags(), ("builtin",))
    body = ".outputs o\n.reg r init=0\ngate o = and(a, r)\ngate n = or(o, b)\nnext r = n\n"
    problems = [encode_problem(circuit, cfg, build_and_validate(parse_netlist(
        f".inputs {order}\n{body}"))) for order in ("a b", "b a")]
    assert [p.golden.circuit.inputs for p in problems] == [("a", "b"), ("b", "a")]
    assert problems[0].locations and problems[0].cnf.num_vars > 0
    assert emit_dimacs(problems[0].cnf) == emit_dimacs(problems[1].cnf)


def test_verify_golden_checked_when_replay_is_effective(monkeypatch):
    # The golden circuit computes o2 = not(a), so it disagrees on every
    # input.  The solver answers with a bit-flip on o1, which the replay
    # confirms; the golden check must still run and report the disagreement.
    prot = build_and_validate(parse_netlist(
        ".inputs a\n.outputs o1 o2\ngate o1 = buf(a)\ngate o2 = buf(a)\n"))
    gold = build_and_validate(parse_netlist(
        ".inputs a\n.outputs o1 o2\ngate o1 = buf(a)\ngate o2 = not(a)\n"))
    cfg = VerificationConfig(1, FaultResistanceModel(1, 1, frozenset({FaultType.BITFLIP}), "c"),
                             frozenset({"o2"}), ReductionFlags(), ("stub-solver",))
    cnf = encode_problem(prot, cfg, gold).cnf
    (control,) = [i for name, i in cnf.var_index.items() if cnf.roles[name] == ROLE_CONTROL]
    _capturing_solver(monkeypatch, extra=[[control]])
    with pytest.raises(GoldenDisagrees, match="output 'o2'"):
        verify(prot, cfg, golden=gold)


def test_verify_golden_unrolls_each_circuit_once(rect_parity, zeta_1_1_all_c, monkeypatch):
    # The golden check on a SAT answer reuses the golden circuit's unroll
    # from the encode.
    import faultres.sat_encoding

    calls = []

    def counted(circuit, k, _unroll=faultres.sat_encoding.unroll):
        calls.append(circuit)
        return _unroll(circuit, k)

    monkeypatch.setattr(faultres.sat_encoding, "unroll", counted)
    assert verify(rect_parity, zeta_1_1_all_c, golden=rect_parity).status == "not_resistant"
    assert len(calls) == 2


def _dup_compare():
    doc = parse_netlist(DUP_COMPARE)
    return build_and_validate(doc), parse_config(DUP_COMPARE_CONFIG, doc)


def test_unobservable_encodes_the_folded_miter_without_instrumenting(monkeypatch):
    # No vulnerable gate reaches the data output, so encode_problem builds
    # the constant-false formula over the inputs: the CNF the full miter
    # over an empty location set folds to, byte for byte.
    import faultres.sat_encoding

    circuit, cfg = _dup_compare()
    u = unroll(circuit, cfg.unroll_k)
    controlled = lowered(u, set(), ALL)
    folded = tseitin_cnf(fr_formula(u, controlled, cfg.model))

    def fail(*args, **kwargs):
        raise AssertionError("called on a structurally resistant circuit")

    monkeypatch.setattr(faultres.sat_encoding, "instrument", fail)
    monkeypatch.setattr(faultres.sat_encoding, "build_fr_formula", fail)
    problem = encode_problem(circuit, cfg)
    assert problem.locations == set()
    assert problem.controlled.located == {}
    assert problem.cnf.num_vars == 4 and problem.cnf.clauses == [[]]
    assert emit_dimacs(problem.cnf) == emit_dimacs(folded)
    verdict = verify(circuit, cfg)
    assert verdict.status == "resistant" and verdict.cnf.clauses == [[]]
    assert [(r.name, r.gates_removed) for r in verdict.plan.applied] == [
        ("fault_type", 2), ("unobservable", 3)]


def test_unobservable_with_disagreeing_golden_raises():
    # Every vulnerable gate is unobservable, but a separate golden circuit
    # can differ without faults; the full miter finds that.
    circuit, cfg = _dup_compare()
    golden = build_and_validate(parse_netlist(
        ".inputs a b\n.outputs o\n.reg r init=0\ngate o = and(a, r)\n"
        "gate n = and(o, b)\nnext r = n\n"))
    assert encode_problem(circuit, cfg).locations == set()
    with pytest.raises(GoldenDisagrees, match="output 'o'"):
        verify(circuit, cfg, golden=golden)


# x's flips raise the flag through d; the flag is also raised on input 11,
# the only input on which the golden circuit's o differs from this one's.
FLAG_HIDES_GOLDEN = (".inputs a b\n.outputs o flag\n.flag flag\ngate x = buf(a)\n"
                     "gate o = buf(x)\ngate d = xor(x, a)\ngate t = and(a, b)\n"
                     "gate flag = or(d, t)\n")


def test_flag_only_faults_kept_with_a_separate_golden():
    # Under one event the gate flag reaches only the flag, so the reach step
    # drops it when the miter's golden side is the circuit itself (by the
    # flag-only rule, or as unobservable with x blacklisted too).  Against a
    # separate golden circuit a flip of flag on input 11 shows the golden
    # circuit's disagreement, so the flip must stay.
    circuit = build_and_validate(parse_netlist(FLAG_HIDES_GOLDEN))
    golden = build_and_validate(parse_netlist(
        ".inputs a b\n.outputs o\ngate t = and(a, b)\ngate o = xor(a, t)\n"))
    m = FaultResistanceModel(1, 1, frozenset({FaultType.BITFLIP}), "c")
    for blacklist, dropped_as in (({"o", "d", "t"}, "reach"),
                                  ({"o", "d", "t", "x"}, "unobservable")):
        cfg = VerificationConfig(1, m, frozenset(blacklist), ReductionFlags(False, False),
                                 ("builtin",))
        verdict = verify(circuit, cfg)
        assert verdict.status == "resistant"
        assert [r.name for r in verdict.plan.applied] == [dropped_as]
        assert GateInstance(1, "flag") in encode_problem(circuit, cfg, golden).locations
        with pytest.raises(GoldenDisagrees, match="inputs 11, cycle 1, output 'o'"):
            verify(circuit, cfg, golden=golden)


def test_verify_empty_vector_with_agreeing_golden_is_internal(
        rect_parity, zeta_1_1_all_c, monkeypatch):
    # A golden circuit that agrees without faults leaves an empty decoded
    # vector an encoder bug.
    import faultres.sat_encoding

    monkeypatch.setattr(faultres.sat_encoding, "decode_fault_vector",
                        lambda assignment, controlled: FaultVector([]))
    with pytest.raises(InternalEncodingError):
        verify(rect_parity, zeta_1_1_all_c, golden=rect_parity)


def test_verify_agrees_with_oracle_under_blacklists():
    # nonempty blacklists interact with the gate reduction; sweep them too
    from faultres.oracle import brute_force_verdict

    rng = random.Random(555)
    for seed in range(100, 112):
        doc = random_netlist(seed, max_gates=6, max_regs=2, num_inputs=2).doc
        circuit = build_and_validate(doc)
        k = 1 + seed % 3
        u = unroll(circuit, k)
        names = list(circuit.gate_map) + list(circuit.register_names)
        blacklist = frozenset(rng.sample(names, rng.randint(0, min(3, len(names)))))
        for ne, nc, types, loc in [(1, 1, ALL, "c"), (2, 2, frozenset({FaultType.BITFLIP}), "cr"),
                                   (1, 2, frozenset({FaultType.SET, FaultType.RESET}), "r")]:
            model = FaultResistanceModel(ne, min(nc, k), frozenset(types), loc)
            brute = brute_force_verdict(u, blacklist, model)
            for flags in (ReductionFlags(), ReductionFlags(single_exit=False),
                          ReductionFlags(False, False)):
                cfg = VerificationConfig(k, model, blacklist, flags, ("builtin",))
                assert verify(circuit, cfg).status == brute.status, (
                    seed, k, ne, nc, loc, sorted(blacklist), flags)


def _earliest_divergence(unrolled, blacklist, model):
    """The first cycle c at which some admissible fault vector is effective,
    by the oracle on the circuit unrolled for c cycles; None when none is
    by ``unrolled.k``."""
    from faultres.oracle import brute_force_verdict

    for c in range(1, unrolled.k + 1):
        prefix = unroll(unrolled.circuit, c)
        if brute_force_verdict(prefix, blacklist, model).status == "not_resistant":
            return c
    return None


# A delay line: g's value reaches the output o only through two registers,
# so with o blacklisted a fault diverges in cycle 3 at the earliest.
DELAY_LINE = (".inputs a b\n.outputs o f\n.flag f\n.reg r1 init=0\n.reg r2 init=1\n"
              "gate g = xor(a, b)\ngate h = and(r1, b)\ngate o = or(r2, h)\n"
              "gate f = and(a, h)\nnext r1 = g\nnext r2 = r1\n")


def test_cycle_loop_agrees_with_oracle():
    # verify encodes and solves one cycle at a time and stops at the first
    # cycle with a counterexample.  Sequential random netlists with and
    # without a flag, and a delay line, at k = 2 and 3, under both budgets
    # 1 and 2 (so that each counter binds within a prefix of the cycles),
    # every location class and {bf} and {s, r, bf}; half of the random
    # cases blacklist the gates that drive outputs, which delays some
    # divergences.  The verdict is the oracle's; a counterexample replays at
    # the original k and diverges at the earliest cycle at which any
    # admissible vector is effective; a resistant verdict holds the whole
    # CNF that encode_problem makes.
    rng = random.Random(21)
    bf, srbf = frozenset({FaultType.BITFLIP}), frozenset(ALL)
    combos = list(itertools.product((1, 2), (1, 2), ("c", "r", "cr"), (bf, srbf)))
    cases = []
    for seed in range(40):
        doc = random_netlist(seed, max_gates=5, max_regs=2, num_inputs=2,
                             with_flag=seed % 2 == 0).doc
        if doc.registers:
            circuit = build_and_validate(doc)
            drivers = frozenset(circuit.outputs) & set(circuit.gate_map)
            for k in (2, 3):
                for combo in rng.sample(combos, 4):
                    cases.append((circuit, k, combo, rng.choice((frozenset(), drivers))))
    delay = build_and_validate(parse_netlist(DELAY_LINE))
    for k, combo in itertools.product((2, 3), combos):
        cases.append((delay, k, combo, frozenset({"o"})))
    seen = {"resistant": 0, "not_resistant": 0}
    late = 0
    for circuit, k, (ne, nc, loc, types), blacklist in cases:
        model = FaultResistanceModel(ne, nc, types, loc)
        cfg = VerificationConfig(k, model, blacklist, ReductionFlags(), ("builtin",))
        verdict = verify(circuit, cfg)
        u = unroll(circuit, k)
        earliest = _earliest_divergence(u, blacklist, model)
        why = (circuit.name, k, model, sorted(blacklist))
        assert verdict.status == ("resistant" if earliest is None else "not_resistant"), why
        seen[verdict.status] += 1
        if verdict.is_resistant:
            assert verdict.cnf == encode_problem(circuit, cfg).cnf, why
            continue
        cx = verdict.counterexample
        assert len(cx.inputs) == k
        replay = check_effectiveness(u, cx.fault_vector, cx.inputs)
        assert replay.effective
        assert cx.divergence_cycle == replay.divergence_cycle == earliest, why
        late += earliest > 1
    assert min(seen.values()) > 20 and late > 20, (seen, late)


def test_cycle_loop_reads_every_cycle_of_a_resistant_datapath():
    # Duplicate-and-compare datapaths with only the comparator blacklisted,
    # under zeta(1, 1, {s, r, bf}, c) at k = 3: one fault in the copy reaches
    # no data output, and one in the original changes a data output only
    # where it differs from the copy's, which raises the flag in that cycle.
    # So the loop refutes every cycle and ends with the whole CNF.
    for seed in (1, 2, 5, 7):
        doc = random_netlist(seed, max_gates=10, max_regs=2, num_inputs=3,
                             with_flag=False).doc
        text, _, checker = dup_and_compare(doc)
        circuit = build_and_validate(parse_netlist(text))
        cfg = VerificationConfig(3, FaultResistanceModel(1, 1, frozenset(ALL), "c"),
                                 frozenset(checker), ReductionFlags(), ("builtin",))
        verdict = verify(circuit, cfg)
        assert verdict.status == "resistant"
        assert verdict.cnf == encode_problem(circuit, cfg).cnf
        assert {f"{name}@3" for name in circuit.inputs} <= set(verdict.cnf.var_index)


def test_separate_golden_agrees_with_oracle():
    # A separate golden circuit is lowered a cycle at a time beside the
    # protected one, sharing only the input variables.  Built again from
    # the netlist's own text, it computes the protected circuit's fault-free
    # outputs, so the verdict is the oracle's: sequential random netlists
    # with and without a flag, at k = 2 and 3, over sampled models.
    from faultres.oracle import brute_force_verdict

    rng = random.Random(27)
    bf, srbf = frozenset({FaultType.BITFLIP}), frozenset(ALL)
    combos = list(itertools.product((1, 2), (1, 2), ("c", "r", "cr"), (bf, srbf)))
    seen = {"resistant": 0, "not_resistant": 0}
    for seed in range(40):
        doc = random_netlist(seed, max_gates=5, max_regs=2, num_inputs=2,
                             with_flag=seed % 2 == 0).doc
        if not doc.registers:
            continue
        circuit = build_and_validate(doc)
        golden = build_and_validate(parse_netlist(write_netlist(doc)))
        for k in (2, 3):
            for ne, nc, loc, types in rng.sample(combos, 4):
                model = FaultResistanceModel(ne, nc, types, loc)
                cfg = VerificationConfig(k, model, frozenset(), ReductionFlags(), ("builtin",))
                expected = brute_force_verdict(unroll(circuit, k), frozenset(), model).status
                assert verify(circuit, cfg, golden=golden).status == expected, (seed, k, model)
                seen[expected] += 1
    assert min(seen.values()) > 0, seen


def test_encoded_problem_is_plain_data(rect_parity, zeta_1_1_all_c):
    # A problem part-way through its stages holds only data, no suspended
    # lowering: a deep copy encodes its remaining cycles to the same CNF.
    import copy

    # With a separate golden circuit the copy holds its own golden side too.
    cfg = dataclasses.replace(zeta_1_1_all_c, unroll_k=3)
    for golden in (None, build_and_validate(parse_netlist(fixture_text("rect_parity.nl")))):
        problem = encode_problem(rect_parity, cfg, golden, staged=True)
        next(problem.stages())
        twin = copy.deepcopy(problem)
        for p in (problem, twin):
            for _ in p.stages():
                pass
        assert twin.cycles == problem.cycles == 3
        assert emit_dimacs(twin.cnf) == emit_dimacs(problem.cnf), golden


def _capturing_solver(monkeypatch, extra=()):
    """Stand in for an external solver process: record the DIMACS bytes it
    is handed and answer with a plain solve of the clauses they hold, plus
    the ``extra`` clauses."""
    import subprocess

    import faultres.solvers

    received = []

    def run(argv, **kwargs):
        with open(argv[-1], "rb") as f:
            data = f.read()
        received.append(data)
        lines = data.decode().splitlines()
        num_vars = int(lines[0].split()[2])
        clauses = [[int(t) for t in line.split()[:-1]] for line in lines[1:]]
        res = CdclSolver(num_vars, clauses + list(extra)).solve()
        if res.status == "unsat":
            return subprocess.CompletedProcess(argv, 20, "s UNSATISFIABLE\n", "")
        model = " ".join(str(v if res.model[v] else -v) for v in range(1, num_vars + 1))
        return subprocess.CompletedProcess(argv, 10, f"v {model} 0\n", "")

    monkeypatch.setattr(faultres.solvers.subprocess, "run", run)
    return received


def test_split_solve_agrees_with_plain_solve(monkeypatch):
    # Both fixtures, then 30 random netlists with and without a flag over
    # every location class and k = 1..3.  The disjunct-by-disjunct solve
    # must give the status of one plain solve of the CNF it decided, every
    # counterexample must replay, and an external solver must get the
    # DIMACS text of the whole CNF, which a resistant verdict holds too.
    received = _capturing_solver(monkeypatch)
    cases = []
    for nl, cfg in (("rect_parity.nl", "zeta_1_1_all_c.json"),
                    ("rect_parity.nl", "zeta_1_1_all_c_parity.json"),
                    ("rect_revised.nl", "zeta_1_1_all_c.json"),
                    ("rect_revised.nl", "zeta_1_1_all_c_parity.json")):
        doc = parse_netlist(fixture_text(nl))
        cases.append((build_and_validate(doc), parse_config(fixture_text(cfg), doc)))
    for seed in range(30):
        for with_flag in (True, False):
            doc = random_netlist(seed, max_gates=8, max_regs=2, num_inputs=3,
                                 with_flag=with_flag).doc
            circuit = build_and_validate(doc)
            for loc in ("c", "r", "cr"):
                for k in (1, 2, 3):
                    model = FaultResistanceModel(1, 1, frozenset(ALL), loc)
                    cases.append((circuit, VerificationConfig(
                        k, model, frozenset(), ReductionFlags(), ("builtin",))))
    split = 0
    seen = set()
    for circuit, cfg in cases:
        verdict = verify(circuit, cfg)
        cnf = verdict.cnf
        plain = CdclSolver(cnf.num_vars, cnf.clauses).solve().status
        assert solve_cnf(cnf).status == plain
        assert verdict.status == {"unsat": "resistant", "sat": "not_resistant"}[plain]
        if verdict.counterexample is not None:
            cx = verdict.counterexample
            replay = check_effectiveness(unroll(circuit, cfg.unroll_k),
                                         cx.fault_vector, cx.inputs)
            assert replay.effective
        external = verify(circuit, dataclasses.replace(cfg, solver=("stub-solver",)))
        assert external.status == verdict.status
        whole = encode_problem(circuit, cfg).cnf
        assert external.cnf == whole
        assert received.pop() == emit_dimacs(whole)[0].encode()
        if verdict.is_resistant:
            assert cnf == whole
        split += bool(cnf.disjuncts)
        seen.add(verdict.status)
    assert split > len(cases) // 2 and seen == {"resistant", "not_resistant"}


def test_encoding_size_polynomial():
    # clause count stays within a quadratic envelope of gate count x cycles
    from faultres.sat_encoding import encode_problem

    for seed in range(6):
        for k in (1, 2):
            doc = random_netlist(seed, max_gates=10, max_regs=2, num_inputs=3).doc
            circuit = build_and_validate(doc)
            cfg = VerificationConfig(
                k, FaultResistanceModel(1, 1, frozenset(ALL), "cr"),
                frozenset(), ReductionFlags(False, False), ("builtin",))
            problem = encode_problem(circuit, cfg)
            n = (len(circuit.gate_map) + len(circuit.registers)) * k
            assert len(problem.cnf.clauses) <= 40 * n + 4 * n * n


# sha256 of emit_dimacs text plus the key-sorted JSON sidecar.  The values
# pin the CNF numbering, which follows the formula builder's node creation
# order: an encoder refactor that keeps the formula but reorders the nodes
# changes these digests.
PINNED_ENCODINGS = {
    ("rect_parity.nl", ("s",)): "66b15aeea422abe04aac72908b160ba8ec69ab5b9a8784c9c974e4f73ef5c862",
    ("rect_parity.nl", ("r",)): "f80361aeb78cc7d0f6b98cd7fd6f48335ad14eaa502e201321b63617d4da9865",
    ("rect_parity.nl", ("bf",)): "3650a1827054fcaaef4c200511b858c1cce64c7f062b53599cabd61b85dc8613",
    ("rect_parity.nl", ("s", "r")): "2e1085b0bda2e92a08e4a3a237601f9586efccf82757add71c425ef6ccf7dcee",
    ("rect_parity.nl", ("s", "bf")): "f9f33b0bf9f2e4994cd64683a8be0fceb456dcc8983216176b9c00a1b795dc23",
    ("rect_parity.nl", ("r", "bf")): "e98669b9b57927d0a6accf7c6a0a38436e31265fbde11ed766457e9acc807a3b",
    ("rect_parity.nl", ("s", "r", "bf")): "12c222656ed3c79690991a5b0b9635517a751c50e033c5d241b3a4df26a9bf52",
    ("rect_revised.nl", ("s",)): "4faebd8a82017d5ec69298e7e9904eeb6fd6db4582f4d5ea10ada95e6906ec7b",
    ("rect_revised.nl", ("r",)): "a34b9e47982db4fe6624e37883a703d4471d2f9b4e7dcd572473c8e69a9a632f",
    ("rect_revised.nl", ("bf",)): "87055152980a2f1729bad8dc29d519708c46efc26ac4f0b8bc69eb962e4d22bf",
    ("rect_revised.nl", ("s", "r")): "f51d03d9407aac8e7ccf2214444a6d5de8910972b9c0b50ddf93c3e26fe0950d",
    ("rect_revised.nl", ("s", "bf")): "6953ac9eec5b2a3c779ecfaad48bdfab3496d792eb4d442b83af6bfdc10469b6",
    ("rect_revised.nl", ("r", "bf")): "891bb76e4d93ad8058c1807d9e2421308076c5500e4458e38c06fa6d1aebc9da",
    ("rect_revised.nl", ("s", "r", "bf")): "6bacd6b8dd7c5118edf6a26e02e99d4e9d9db4151d14d38de850b9519e2e9091",
    ("random_netlist(5)", ("s", "r", "bf")): "6619c86d189e5bfad071ace8d26bb1db3b8121d804a1d6f5c2216bb5b92b73ce",
    ("REVERSED_NEXT", ("s", "r", "bf")): "986cc11be763e68a81f98be60db91fc56ee9d5e613791946f879f68e76a4aa4a",
}

# The same with the reach step's cut, for the encodings it changes:
# rect_revised.nl's parity config leaves the parity gates p1..p6, which feed
# only the flag, vulnerable under one event (p1..p5 only while the
# single-exit reduction does not apply); random_netlist(5) has gates
# that reach no output, and n1, whose cycle-2 instance reaches none by k = 2.
PINNED_ENCODINGS_REACH = {
    ("rect_revised.nl", ("s",)): "2d4cc3faff8fb7c570f048feb5efc4a91f521295ae408dcc66c41edb14601d70",
    ("rect_revised.nl", ("r",)): "b3e709a7ae2a806f19dd7c61e0d9d2cec5d80c6231bb102741e7038a4a413061",
    ("rect_revised.nl", ("bf",)): "691da20d6ff07a91bf02edc73f95c3544cd2dd35ca266ad2f4ae57d933707b12",
    ("rect_revised.nl", ("s", "r")): "7bc88f2c1fa99e22144cb0e601d82f00395b57e4ee5501f3defc7460de573fad",
    ("rect_revised.nl", ("s", "bf")): "480b2b486e42de73d3781a54081f7eb99963e3c77a906bdb9ab859be3b2ea1ac",
    ("rect_revised.nl", ("r", "bf")): "109c8bb4a1a5aa3914fa4b91f42f144d9596103610785aecf5d19480620cf153",
    ("rect_revised.nl", ("s", "r", "bf")): "c7a7f19e7858cfaf93fe86c729c9d62645162b492e5f1fc1e261239cd3b845c7",
    ("random_netlist(5)", ("s", "r", "bf")): "ef467cc3e9644f0e918f1f242e1aea617ee4665fa13ba1c0337d13b698487dd8",
}

# Three registers whose next-state lines come in reverse declaration order:
# control variables are numbered gates first, then registers, both in
# declaration order, never in next-statement order.
REVERSED_NEXT = (".inputs a b\n.outputs o flag\n.flag flag\n"
                 ".reg r1 init=0\n.reg r2 init=1\n.reg r3 init=0\n"
                 "gate g1 = and(a, r1)\ngate g2 = xor(b, r2)\ngate o = or(g1, r3)\n"
                 "gate h = xor(g2, r3)\ngate flag = and(h, g1)\n"
                 "next r3 = g2\nnext r2 = g1\nnext r1 = o\n")


def _encoding_digest(circuit, config):
    text, sidecar = emit_dimacs(encode_problem(circuit, config).cnf)
    h = hashlib.sha256(text.encode())
    h.update(json.dumps(sidecar, sort_keys=True).encode())
    return h.hexdigest()


def _pinned_digests():
    # Both fixtures with their configs over every type set, the fault-type
    # reduction off so each set reaches the gadgets; then a sequential random
    # netlist (2 registers, k = 2, location cr) where both cardinality
    # counters bind, and REVERSED_NEXT under the same config.
    tokens = {t.token: t for t in ALL}
    got = {}
    no_type_reduction = ReductionFlags(fault_type=False)
    for nl, cfg in (("rect_parity.nl", "zeta_1_1_all_c.json"),
                    ("rect_revised.nl", "zeta_1_1_all_c_parity.json")):
        doc = parse_netlist(fixture_text(nl))
        base = parse_config(fixture_text(cfg), doc)
        circuit = build_and_validate(doc)
        for key in PINNED_ENCODINGS:
            if key[0] != nl:
                continue
            model = FaultResistanceModel(base.model.n_e, base.model.n_c,
                                         frozenset(tokens[t] for t in key[1]),
                                         base.model.location)
            config = VerificationConfig(base.unroll_k, model, base.blacklist,
                                        no_type_reduction, ("builtin",))
            got[key] = _encoding_digest(circuit, config)
    doc = random_netlist(5, max_gates=10, max_regs=2, num_inputs=3).doc
    assert len(doc.registers) == 2
    config = VerificationConfig(2, FaultResistanceModel(2, 1, frozenset(ALL), "cr"),
                                frozenset(), no_type_reduction, ("builtin",))
    got[("random_netlist(5)", ("s", "r", "bf"))] = _encoding_digest(
        build_and_validate(doc), config)
    got[("REVERSED_NEXT", ("s", "r", "bf"))] = _encoding_digest(
        build_and_validate(parse_netlist(REVERSED_NEXT)), config)
    return got


def test_encoding_pinned(without_cut):
    assert _pinned_digests() == PINNED_ENCODINGS


def test_encoding_pinned_with_reach():
    assert _pinned_digests() == {**PINNED_ENCODINGS, **PINNED_ENCODINGS_REACH}
