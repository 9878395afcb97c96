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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .circuit_model import (
    FaultResistanceModel,
    SequentialCircuit,
    UnrolledCircuit,
    fault_locations,
    unroll,
)
from .errors import FaultresError
from .fault_encoder import (
    ControlledCircuit,
    decode_fault_vector,
    golden_taps,
    instrument,
    make_input_vars,
)
from .formula import (
    ROLE_AUX_D,
    ROLE_CONTROL,
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


def build_fr_formula(golden: UnrolledCircuit, controlled: ControlledCircuit,
                     model: FaultResistanceModel) -> BoolFormula:
    """Miter of the golden circuit against the instrumented one over shared
    primary inputs, with the flag-silence conjunct and cardinality bounds.
    Bounds that cannot bind (n_c >= k, n_e >= controls in a cycle) are left
    out entirely.  The root's disjuncts, one per cycle and data output in
    cycle-major order, are kept on the formula for the built-in solver."""

    b = controlled.builder
    if golden.k != controlled.k:
        raise ShapeMismatch("golden and controlled circuits have different cycle counts")
    if set(golden.circuit.data_outputs) != set(controlled.data_outputs):
        raise ShapeMismatch("golden and controlled circuits expose different outputs")

    # Golden side, over the same input variables: the fault-free lowering of
    # the data outputs' cones.  When the golden circuit is the protected one,
    # every cone net no fault reaches is its instrumented node again, so only
    # the fault-reachable ones add nodes; a separate golden circuit shares
    # only the input variables and adds its whole cones.
    shared_inputs = controlled.input_vars
    for (cycle, name) in shared_inputs:
        if name not in golden.circuit.inputs:
            raise ShapeMismatch(f"golden circuit lacks input {name!r}")
    if set(golden.circuit.inputs) != {n for (_, n) in shared_inputs}:
        raise ShapeMismatch("golden and controlled circuits have different inputs")
    reference = golden_taps(b, golden, shared_inputs)

    disjuncts = []
    flag_prefix = b.true
    for cycle in range(1, controlled.k + 1):
        flag_prefix = b.and_(flag_prefix, b.not_(controlled.flag_taps[cycle]))
        for o in controlled.data_outputs:
            differs = b.xor(reference[(cycle, o)], controlled.taps[(cycle, o)])
            disjuncts.append(b.and_(differs, flag_prefix))
    root = b.or_many(disjuncts)

    cardinality = []
    conjuncts = []
    for cycle in range(1, controlled.k + 1):
        controls = controlled.cycle_controls.get(cycle, [])
        if model.n_e < len(controls):
            cardinality.append(CardinalityConstraint(
                tuple(controls), model.n_e, label=f"ne@{cycle}"))

    # d@cycle says some fault is active in that cycle; declared only when the
    # n_c bound binds, i.e. fewer than the cycles that have controls.  With
    # an input named d they are d'@cycle, a name no identifier spells.
    active = [cycle for cycle in range(1, controlled.k + 1)
              if controlled.cycle_controls.get(cycle)]
    if model.n_c < len(active):
        prefix = "d'" if (1, "d") in controlled.input_vars else "d"
        names = tuple(f"{prefix}@{cycle}" for cycle in active)
        for cycle, name in zip(active, names):
            d = b.var(name, ROLE_AUX_D)
            any_ctrl = b.or_many([b.var(c, ROLE_CONTROL)
                                  for c in controlled.cycle_controls[cycle]])
            conjuncts.append(b.iff(d, any_ctrl))
        cardinality.append(CardinalityConstraint(names, model.n_c, label="nc"))

    root = b.and_many(conjuncts + [root])
    return BoolFormula(builder=b, root=root, cardinality=cardinality,
                       disjuncts=tuple(disjuncts))


@dataclass
class EncodedProblem:
    protected_unrolled: UnrolledCircuit
    golden_unrolled: UnrolledCircuit  # protected_unrolled without a separate golden
    plan: ReductionPlan
    locations: set
    controlled: ControlledCircuit
    cnf: CNF
    encode_time: float


def encode_problem(circuit: SequentialCircuit, config: VerificationConfig,
                   golden: Optional[SequentialCircuit] = None) -> EncodedProblem:
    """unroll -> plan reductions -> fault locations, pruned by the plan (none
    when it found every vulnerable name unobservable) -> instrument ->
    formula -> CNF.  ``golden`` optionally supplies a separate unprotected
    reference circuit for the miter's golden side.

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
    builder = FormulaBuilder()
    input_vars = make_input_vars(builder, circuit, config.unroll_k)
    if locations or golden is not None:
        controlled = instrument(unrolled, locations, model.types,
                                builder=builder, input_vars=input_vars)
        formula = build_fr_formula(golden_unrolled, controlled, model)
    else:
        controlled = ControlledCircuit(
            builder=builder, k=config.unroll_k, data_outputs=circuit.data_outputs,
            types=model.types, input_vars=input_vars, taps={}, flag_taps={}, control_map={},
            cycle_controls={})
        formula = BoolFormula(builder, builder.false)
    cnf = tseitin_cnf(formula)
    encode_time = time.perf_counter() - start
    return EncodedProblem(unrolled, golden_unrolled, plan, locations, controlled, cnf,
                          encode_time)


def _decode_inputs(model_bits, cnf: CNF, circuit: SequentialCircuit, k: int):
    rows = []
    for cycle in range(1, k + 1):
        row = []
        for name in circuit.inputs:
            idx = cnf.var_index[f"{name}@{cycle}"]
            row.append(1 if model_bits.get(idx, False) else 0)
        rows.append(tuple(row))
    return tuple(rows)


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
    decides neither way raises SolverUndecided."""

    problem = encode_problem(circuit, config, golden)

    start = time.perf_counter()
    result = solve_cnf(problem.cnf, config.solver)
    solve_time = time.perf_counter() - start

    if result.status not in ("sat", "unsat"):
        raise SolverUndecided(result.reason)
    counterexample = None
    if result.status == "sat":
        named = {name: result.model.get(idx, False)
                 for name, idx in problem.cnf.var_index.items()}
        vector = decode_fault_vector(named, problem.controlled)
        inputs = _decode_inputs(result.model, problem.cnf, circuit, config.unroll_k)
        if golden is not None:
            _check_golden_agrees(problem.golden_unrolled, problem.protected_unrolled,
                                 inputs)
        if not len(vector):
            raise InternalEncodingError(
                "satisfying assignment decodes to an empty fault vector")
        replay = check_effectiveness(problem.protected_unrolled, vector, inputs)
        if not replay.effective:
            raise InternalEncodingError(
                f"replay of decoded counterexample is not effective: {vector!r} on {inputs}")
        counterexample = Counterexample(vector, inputs, replay.divergence_cycle,
                                        replay.differing_output)
    return Verdict("resistant" if counterexample is None else "not_resistant",
                   problem.plan, problem.locations, counterexample, problem.cnf, result,
                   problem.encode_time, solve_time)


__all__ = [
    "Counterexample", "EncodedProblem", "GoldenDisagrees", "InternalEncodingError",
    "Verdict", "build_fr_formula", "encode_problem", "verify",
]
