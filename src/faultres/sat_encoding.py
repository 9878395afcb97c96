"""The fault-resistance formula, its CNF lowering and the end-to-end verify
pipeline.

The circuit is fault-resistant iff the formula below is unsatisfiable:

    Psi_nc /\\ Psi_ne /\\  \\/_i \\/_o ( psi[i,o] != psi''[i,o]
                                      /\\  /\\_{j<=i} !psi''[j,flag] )

where psi / psi'' are the golden / instrumented output functions, the inner
conjunction says the faulty flag stayed 0 through the divergence cycle, and
the Psi parts bound faults per cycle (n_e) and fault-active cycles (n_c).
A satisfying assignment decodes to a fault vector plus an input trace, which
is replayed on the simulator before a counterexample is ever reported.

The formula is built and lowered to CNF one cycle at a time: cycle c adds
its lowering of both circuits, its disjuncts and flag prefix, its n_e bound
and its place in the n_c counter.  A counterexample that diverges in cycle c
needs nothing from later cycles: a model of cycles 1..c extends to all k
cycles with every later control false.  So ``verify`` hands the built-in
solver each cycle's clauses as they are made and assumes the cycle's
disjuncts one at a time; the first satisfiable one ends the encoding, and
its inputs are padded with zero rows up to k.  The root clause, the
disjunction of all the disjuncts, joins at cycle k, so at k = 1 the CNF and
the search are those of encoding the whole formula first.  ``encode_problem``
and external solvers run the same encoder to the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .circuit_model import (
    SequentialCircuit,
    UnrolledCircuit,
    fault_locations,
    unroll,
)
from .errors import FaultresError
from .fault_encoder import (
    ControlledCircuit,
    controlled_circuit,
    decode_fault_vector,
    golden_taps,
    instrument,
    make_input_vars,
)
from .formula import (
    ROLE_AUX_D,
    BoolFormula,
    CardinalityConstraint,
    CNF,
    FormulaBuilder,
    tseitin_cnf,
)
from .netlist_io import VerificationConfig
from .reductions import ReductionPlan, plan_reductions
from .simulator import FaultVector, ShapeMismatch, check_effectiveness, run_trace
from .solvers import SatResult, SolverUndecided, solve_cnf


class InternalEncodingError(FaultresError):
    """A SAT model whose replay on the simulator does not confirm the
    counterexample; always a bug, never a verdict."""


class GoldenDisagrees(FaultresError):
    """The ``--golden`` reference and the protected circuit compute different
    outputs without any fault, so the miter is not a fault check."""


@dataclass(frozen=True)
class Counterexample:
    fault_vector: FaultVector
    inputs: tuple  # per cycle, tuple of input bits
    divergence_cycle: int
    differing_output: str


@dataclass
class Verdict:
    """What ``verify`` or the oracle decided, and the facts it was decided
    from.  The oracle's plan applies nothing, and it has no CNF and no
    solver result."""

    status: str  # "resistant" | "not_resistant"
    plan: ReductionPlan  # the model, blacklist and reductions it was checked under
    locations: set  # the fault locations checked
    counterexample: Optional[Counterexample] = None
    cnf: Optional[CNF] = None  # the CNF the solver decided
    result: Optional[SatResult] = None  # the solver's answer and search counters
    encode_time: float = 0.0
    solve_time: float = 0.0

    @property
    def is_resistant(self):
        return self.status == "resistant"


class EncodedProblem:
    """A fault-resistance problem and its CNF, which grows a cycle at a
    time: ``stages`` encodes the cycles not encoded yet.

    The formula is the miter of the instrumented circuit ``controlled``,
    whose unrolled circuit is the protected one, against the unrolled
    circuit ``golden``, built one cycle at a time by ``build_fr_formula``:
    the golden side's net map of the last cycle, the flag prefix and the
    disjuncts so far, and the cardinality bounds of the cycles so far; the
    n_c counter is whole from the start, its groups the control names of
    each cycle in ``controlled.located``.  The two circuits share the
    primary-input variables.  ``golden`` is None when nothing is
    instrumented and there is no separate golden circuit: the formula is
    then constant false over the input variables."""

    def __init__(self, plan: ReductionPlan, locations: set, controlled: ControlledCircuit,
                 golden: Optional[UnrolledCircuit]):
        protected = controlled.unrolled
        inputs = protected.circuit.inputs
        if golden is not None:
            if set(golden.circuit.data_outputs) != set(protected.circuit.data_outputs):
                raise ShapeMismatch("golden and controlled circuits expose different outputs")
            for name in inputs:
                if name not in golden.circuit.inputs:
                    raise ShapeMismatch(f"golden circuit lacks input {name!r}")
            if set(golden.circuit.inputs) != set(inputs):
                raise ShapeMismatch("golden and controlled circuits have different inputs")
        b = controlled.builder
        self.plan, self.locations, self.controlled, self.golden = plan, locations, controlled, golden
        self.cnf = CNF(num_vars=0, clauses=[], var_index={}, roles={})  # of the cycles so far
        self.encode_time = 0.0
        self.cycles = 0  # the cycles encoded so far
        # Golden side, over the same input variables: the fault-free lowering
        # of the data outputs' cones, one cycle per ``golden_taps`` call.
        # When the golden circuit is the protected one, every cone net no
        # fault reaches is its instrumented node again, so only the
        # fault-reachable ones add nodes; a separate golden circuit shares
        # only the input variables and adds its whole cones.
        self.golden_env = {}  # net name -> node of the last cycle built
        self.flag_prefix = b.true
        self.root = b.false  # the disjunction of the disjuncts so far
        self.disjuncts = []
        # d@cycle says some fault is active in that cycle: the OR of the
        # cycle's controls.  Declared only when the n_c bound binds, i.e.
        # fewer than the cycles that have controls.  With an input named d
        # they are d'@cycle, a name no identifier spells.
        located = controlled.located
        n_c = plan.effective_model.n_c
        self.d_names = {}
        self.cardinality = []
        if n_c < len(located):
            prefix = "d'" if "d" in inputs else "d"
            self.d_names = {cycle: f"{prefix}@{cycle}" for cycle in located}
            self.cardinality.append(CardinalityConstraint(
                tuple(self.d_names.values()), n_c,
                groups=tuple(tuple(names[0] for _, names in locs) for locs in located.values())))

    def stages(self):
        """Encode the cycles not encoded yet, one at a time, and yield the
        CNF after each: the same CNF object, grown by the cycle's variables
        and clauses.  Before the last cycle it holds no root clause, and its
        ``disjuncts`` are every disjunct so far.  With nothing instrumented
        the one stage is the whole formula, constant false over the input
        variables."""

        controlled = self.controlled
        k = controlled.unrolled.k
        while self.cycles < k:
            start = time.perf_counter()
            if self.golden is None:
                b = controlled.builder
                make_input_vars(b, controlled.unrolled.circuit, range(1, k + 1))
                tseitin_cnf(BoolFormula(b, b.false), self.cnf)
                self.cycles = k
            else:
                instrument(controlled)
                tseitin_cnf(build_fr_formula(self), self.cnf)
            self.encode_time += time.perf_counter() - start
            yield self.cnf


def build_fr_formula(problem: EncodedProblem) -> BoolFormula:
    """Extend ``problem``'s miter by its next cycle, which its controlled
    circuit has lowered already, count the cycle in ``problem.cycles``, and
    return the formula of the cycles so far: the miter of the golden
    outputs against the instrumented ones over shared primary inputs, with
    the flag-silence conjunct and cardinality bounds.  Bounds that cannot
    bind (n_c >= the cycles with controls, n_e >= controls in a cycle) are
    left out entirely.  The root is the disjunction of the disjuncts, one
    per cycle and data output in cycle-major order, which are kept on the
    formula for the built-in solver.  Before the last cycle the formula is
    not complete."""

    controlled = problem.controlled
    b, protected = controlled.builder, controlled.unrolled
    cycle = problem.cycles = problem.cycles + 1
    golden = problem.golden_env = golden_taps(b, problem.golden, cycle, problem.golden_env)
    problem.flag_prefix = flag_prefix = b.and_(problem.flag_prefix,
                                               b.not_(controlled.flag_taps[cycle]))
    disjuncts = [b.and_(b.xor(golden[o], controlled.taps[(cycle, o)]), flag_prefix)
                 for o in protected.circuit.data_outputs]
    problem.disjuncts += disjuncts
    problem.root = root = b.or_many(disjuncts, problem.root)

    controls = tuple(names[0] for _, names in controlled.located.get(cycle, ()))
    n_e = problem.plan.effective_model.n_e
    if n_e < len(controls):
        problem.cardinality.append(CardinalityConstraint(controls, n_e))
    if cycle in problem.d_names:
        b.var(problem.d_names[cycle], ROLE_AUX_D)
    return BoolFormula(builder=b, root=root, cardinality=list(problem.cardinality),
                       disjuncts=tuple(problem.disjuncts), complete=cycle == protected.k)


def encode_problem(circuit: SequentialCircuit, config: VerificationConfig,
                   golden: Optional[SequentialCircuit] = None,
                   staged: bool = False) -> EncodedProblem:
    """unroll -> plan reductions -> fault locations, pruned by the plan (none
    when it found every vulnerable name unobservable) -> instrument ->
    formula -> CNF, the last three once per cycle.  ``golden`` optionally
    supplies a separate unprotected reference circuit for the miter's golden
    side.  With ``staged`` no cycle is encoded yet: ``stages`` encodes them.

    With no fault location and no separate golden circuit, the faulty and
    the fault-free outputs are one function, so the formula is constant
    false over the input variables: nothing is instrumented, and the CNF is
    the one the full miter would fold to."""

    start = time.perf_counter()
    unrolled = unroll(circuit, config.unroll_k)
    golden_unrolled = unroll(golden, config.unroll_k) if golden is not None else unrolled

    plan = plan_reductions(unrolled, config.blacklist, config.model, config.reductions,
                           separate_golden=golden is not None)
    model = plan.effective_model
    locations = (set() if plan.unobservable else
                 plan.prune(fault_locations(unrolled, plan.effective_blacklist, model.location)))
    controlled = controlled_circuit(unrolled, locations, model.types, FormulaBuilder())
    problem = EncodedProblem(plan, locations, controlled,
                             golden_unrolled if locations or golden is not None else None)
    problem.encode_time = time.perf_counter() - start
    if not staged:
        for _ in problem.stages():
            pass
    return problem


def _check_golden_agrees(golden: UnrolledCircuit, protected: UnrolledCircuit, inputs):
    """Raise GoldenDisagrees at the first cycle and output where the two
    circuits differ without faults on ``inputs``, whose rows are in the
    protected circuit's input order; the golden circuit reads them by name."""
    pos = [protected.circuit.inputs.index(n) for n in golden.circuit.inputs]
    gold = run_trace(golden, [tuple(row[i] for i in pos) for row in inputs])
    prot = run_trace(protected, inputs)
    for cycle, (g, p) in enumerate(zip(gold.outputs, prot.outputs), start=1):
        for o in protected.circuit.data_outputs:
            if g[o] != p[o]:
                shown = " ".join("".join(str(b) for b in row) for row in inputs)
                raise GoldenDisagrees(
                    f"golden circuit disagrees with the protected circuit without "
                    f"faults: inputs {shown}, cycle {cycle}, output {o!r} is "
                    f"{g[o]} in the golden circuit and {p[o]} in the protected one")


def verify(circuit: SequentialCircuit, config: VerificationConfig,
           golden: Optional[SequentialCircuit] = None) -> Verdict:
    """Decide fault-resistance of ``circuit`` under ``config``.  Unsat means
    resistant; a model is decoded and replay-confirmed on the simulator before
    being reported.  With ``golden``, every model is first checked for a
    golden circuit that differs from ``circuit`` without faults on the
    decoded inputs, which raises GoldenDisagrees.  A failed replay raises
    InternalEncodingError.  The config's ``solver`` decides the CNF; one that
    decides neither way raises SolverUndecided.

    The built-in solver gets the CNF a cycle at a time and stops at the
    first cycle with a counterexample: no later cycle is encoded, the
    decoded inputs are zero in the cycles after it, and the verdict's CNF
    is the one of the cycles encoded plus their root clause.  An external
    solver gets the whole CNF."""

    problem = encode_problem(circuit, config, golden, staged=True)

    encoding = problem.encode_time
    start = time.perf_counter()
    result = solve_cnf(problem.stages(), config.solver)
    solve_time = time.perf_counter() - start - (problem.encode_time - encoding)

    if result.status not in ("sat", "unsat"):
        raise SolverUndecided(result.reason)
    cnf = problem.cnf
    counterexample = None
    if result.status == "sat":
        if problem.cycles < config.unroll_k:
            cnf.clauses.append([cnf.lits[problem.root]])
        named = {name: result.model.get(idx, False) for name, idx in cnf.var_index.items()}
        vector = decode_fault_vector(named, problem.controlled)
        # An input of a cycle the CNF does not reach yet has no variable: 0.
        inputs = tuple(tuple(1 if named.get(f"{name}@{cycle}") else 0 for name in circuit.inputs)
                       for cycle in range(1, config.unroll_k + 1))
        if golden is not None:
            _check_golden_agrees(problem.golden, problem.controlled.unrolled, inputs)
        if not len(vector):
            raise InternalEncodingError(
                "satisfying assignment decodes to an empty fault vector")
        replay = check_effectiveness(problem.controlled.unrolled, vector, inputs)
        if not replay.effective:
            raise InternalEncodingError(
                f"replay of decoded counterexample is not effective: {vector!r} on {inputs}")
        counterexample = Counterexample(vector, inputs, replay.divergence_cycle,
                                        replay.differing_output)
    return Verdict("resistant" if counterexample is None else "not_resistant",
                   problem.plan, problem.locations, counterexample, cnf, result,
                   problem.encode_time, solve_time)


__all__ = [
    "Counterexample", "EncodedProblem", "GoldenDisagrees", "InternalEncodingError",
    "Verdict", "build_fr_formula", "encode_problem", "verify",
]
