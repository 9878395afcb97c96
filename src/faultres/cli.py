"""Command-line entry point.

Exit codes: 0 the circuit is resistant, 1 it is not (a counterexample was
found and replay-confirmed), 2 usage or processing error, including a
solver that decides neither way.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import __version__
from .circuit_model import build_and_validate, unroll
from .errors import FaultresError
from .netlist_io import parse_config, parse_netlist, write_netlist
from .oracle import (
    OracleBudget,
    brute_force_verdict,
    np_hardness_instance,
    random_netlist,
)
from .reductions import plan_reductions
from .sat_encoding import encode_problem, verify
from .formula import emit_dimacs
from .simulator import run_trace

REPORT_FORMAT_VERSION = 2

EXIT_RESISTANT = 0
EXIT_NOT_RESISTANT = 1
EXIT_ERROR = 2


class CliError(FaultresError):
    pass


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_circuit(path):
    doc = parse_netlist(_read(path))
    return doc, build_and_validate(doc)


def _model_json(model):
    return {
        "ne": model.n_e,
        "nc": model.n_c,
        "types": list(model.type_tokens()),
        "location": model.location,
    }


def _reductions_json(applied, skipped):
    return {
        "applied": [{"name": r.name, "gates_removed": r.gates_removed,
                     "detail": r.detail} for r in applied],
        "skipped": [{"name": r.name, "reason": r.reason} for r in skipped],
    }


def _report(circuit_name, config, verdict):
    plan, cnf, result = verdict.plan, verdict.cnf, verdict.result
    cx = None
    if verdict.counterexample is not None:
        c = verdict.counterexample
        cx = {
            "events": [{"instance": e.instance.label, "type": e.fault_type.token}
                       for e in c.fault_vector],
            "inputs": ["".join(str(b) for b in row) for row in c.inputs],
            "divergence_cycle": c.divergence_cycle,
            "differing_output": c.differing_output,
        }
    stats = {"vars": cnf.num_vars if cnf is not None else 0,
             "clauses": len(cnf.clauses) if cnf is not None else 0,
             "locations": len(verdict.locations),
             "encode_time_s": round(verdict.encode_time, 6),
             "solve_time_s": round(verdict.solve_time, 6)}
    if result is not None and result.conflicts is not None:  # the built-in solver ran
        stats.update(decisions=result.decisions, conflicts=result.conflicts,
                     restarts=result.restarts, learnt=result.learnt)
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "tool_version": __version__,
        "circuit": circuit_name,
        "k": config.unroll_k,
        "verdict": verdict.status,
        "model": _model_json(plan.effective_model),
        "blacklist": {"original": len(config.blacklist),
                      "effective": len(plan.effective_blacklist)},
        "reductions": _reductions_json(plan.applied, plan.skipped),
        "counterexample": cx,
        "stats": stats,
    }


def _write_report(path, circuit_name, config, verdict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_report(circuit_name, config, verdict), f, indent=2)
        f.write("\n")


def _write_dimacs(cnf, path):
    text, sidecar = emit_dimacs(cnf)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    with open(path + ".map.json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)


def _print_verdict(verdict, out=None):
    out = out if out is not None else sys.stdout
    if verdict.is_resistant:
        print("RESISTANT: no admissible fault vector is effective", file=out)
        if verdict.plan.unobservable:
            print("  no vulnerable gate reaches a data output within k cycles", file=out)
    else:
        c = verdict.counterexample
        events = ", ".join(f"{e.instance.label}:{e.fault_type.token}" for e in c.fault_vector)
        inputs = " ".join("".join(str(b) for b in row) for row in c.inputs)
        print("NOT RESISTANT: effective fault vector found", file=out)
        print(f"  events: {events}", file=out)
        print(f"  inputs: {inputs}", file=out)
        print(f"  diverges at cycle {c.divergence_cycle} on output {c.differing_output}",
              file=out)
    cnf, result = verdict.cnf, verdict.result
    if cnf is not None:
        search = ("" if result.conflicts is None
                  else f"; {result.conflicts} conflicts, {result.decisions} decisions")
        print(f"  cnf: {cnf.num_vars} vars, {len(cnf.clauses)} clauses; "
              f"encode {verdict.encode_time:.3f}s, solve {verdict.solve_time:.3f}s{search}",
              file=out)


def _verdict_exit(verdict):
    return EXIT_RESISTANT if verdict.is_resistant else EXIT_NOT_RESISTANT


def cmd_verify(args):
    doc, circuit = _load_circuit(args.netlist)
    config = parse_config(_read(args.config), doc)
    golden = None
    if args.golden:
        _, golden = _load_circuit(args.golden)
    verdict = verify(circuit, config, golden=golden)
    if args.dimacs:
        _write_dimacs(verdict.cnf, args.dimacs)
    _print_verdict(verdict)
    if args.json:
        _write_report(args.json, circuit.name, config, verdict)
    return _verdict_exit(verdict)


def cmd_oracle(args):
    doc, circuit = _load_circuit(args.netlist)
    config = parse_config(_read(args.config), doc)
    budget = OracleBudget(max_input_bits=args.max_input_bits,
                          max_vectors=args.max_vectors)
    unrolled = unroll(circuit, config.unroll_k)
    verdict = brute_force_verdict(unrolled, config.blacklist, config.model, budget)
    _print_verdict(verdict)
    if args.json:
        _write_report(args.json, circuit.name, config, verdict)
    return _verdict_exit(verdict)


def cmd_simulate(args):
    doc, circuit = _load_circuit(args.netlist)
    rows = [row.strip() for row in args.inputs.split(",") if row.strip()]
    k = len(rows)
    if k == 0:
        raise CliError("no input vectors given")
    vectors = []
    for row in rows:
        if any(ch not in "01" for ch in row) or len(row) != len(circuit.inputs):
            raise CliError(f"input vector {row!r} must be {len(circuit.inputs)} bits of 0/1")
        vectors.append(tuple(int(ch) for ch in row))
    trace = run_trace(unroll(circuit, k), vectors)
    for i in range(1, k + 1):
        ins = "".join(str(b) for b in trace.inputs[i - 1])
        outs = "".join(str(trace.outputs[i - 1][o]) for o in circuit.outputs)
        print(f"cycle {i}: in={ins} out={outs} flag={trace.flags[i - 1]}")
    return EXIT_RESISTANT


def cmd_reduce(args):
    doc, circuit = _load_circuit(args.netlist)
    config = parse_config(_read(args.config), doc)
    unrolled = unroll(circuit, config.unroll_k)
    plan = plan_reductions(unrolled, config.blacklist, config.model, config.reductions)
    removed = sorted(plan.effective_blacklist - config.blacklist)
    print(json.dumps({
        "model": _model_json(plan.effective_model),
        "blacklist": {"original": len(config.blacklist),
                      "effective": len(plan.effective_blacklist)},
        "removed_gates": removed,
        **_reductions_json(plan.applied, plan.skipped),
    }, indent=2))
    return EXIT_RESISTANT


def cmd_encode(args):
    doc, circuit = _load_circuit(args.netlist)
    config = parse_config(_read(args.config), doc)
    golden = None
    if args.golden:
        _, golden = _load_circuit(args.golden)
    problem = encode_problem(circuit, config, golden)
    if args.dimacs:
        _write_dimacs(problem.cnf, args.dimacs)
    if args.dump_controls:
        controls = {inst.label: dict(zip(("c", "b1", "b2"), names))
                    for inst, names in sorted(loc for locs in problem.controlled.located.values()
                                              for loc in locs)}
        print(json.dumps(controls, indent=2))
    else:
        print(json.dumps({"vars": problem.cnf.num_vars,
                          "clauses": len(problem.cnf.clauses),
                          "locations": len(problem.locations)}, indent=2))
    return EXIT_RESISTANT


def cmd_gen(args):
    minima = {"ne": 1} if args.kind == "np" else {"gates": 3, "inputs": 1, "regs": 0}
    for option, least in minima.items():
        if getattr(args, option) < least:
            raise CliError(f"--{option} must be at least {least}, got {getattr(args, option)}")
    if args.kind == "np":
        clauses, num_vars = _parse_dimacs_file(args.cnf)
        instance = np_hardness_instance(clauses, num_vars, args.ne)
    else:
        instance = random_netlist(args.seed, max_gates=args.gates, max_regs=args.regs,
                                  num_inputs=args.inputs,
                                  with_flag=not args.no_flag)
    text = write_netlist(instance.doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if instance.expected:
        print(f"# expected verdict: {instance.expected}", file=sys.stderr)
    return EXIT_RESISTANT


def _parse_dimacs_file(path):
    clauses = []
    num_vars = 0
    current = []

    def number(tok):
        try:
            return int(tok)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad DIMACS token {tok!r}") from None

    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) >= 3:
                num_vars = number(parts[2])
            continue
        for tok in line.split():
            lit = number(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
                num_vars = max(num_vars, abs(lit))
    if current:
        clauses.append(tuple(current))
    return clauses, num_vars


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args`` leaves
    it as it is, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="faultres",
        description="SAT-based fault-resistance verification of gate-level circuits")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("netlist", help="netlist file")
        p.add_argument("--config", required=True, help="JSON verification config")

    p = sub.add_parser("verify", help="decide fault-resistance via SAT")
    add_common(p)
    p.add_argument("--golden", help="separate unprotected netlist for the reference side")
    p.add_argument("--json", help="write a JSON report here")
    p.add_argument("--dimacs", help="write the generated DIMACS file here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="decide fault-resistance by exhaustive simulation")
    add_common(p)
    p.add_argument("--json", help="write a JSON report here")
    p.add_argument("--max-input-bits", type=int, default=16)
    p.add_argument("--max-vectors", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="run a trace and print it per cycle")
    p.add_argument("netlist")
    p.add_argument("--inputs", required=True,
                   help="comma-separated per-cycle input bit strings, e.g. 0110,1011")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="print the reduction plan as JSON")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("encode", help="emit the CNF and the control-variable map")
    add_common(p)
    p.add_argument("--golden")
    p.add_argument("--dimacs", help="write DIMACS text here (sidecar: <file>.map.json)")
    p.add_argument("--dump-controls", action="store_true",
                   help="print the instance -> control variable map as JSON")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gen", help="generate netlists")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("np", help="SAT-reduction instance from a DIMACS CNF")
    g.add_argument("--cnf", required=True, help="DIMACS file with the source formula")
    g.add_argument("--ne", type=int, default=1, help="per-cycle fault budget encoded")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("random", help="seeded random netlist")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--gates", type=int, default=12)
    g.add_argument("--regs", type=int, default=2)
    g.add_argument("--inputs", type=int, default=3)
    g.add_argument("--no-flag", action="store_true")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused for the command and put back as it was afterwards:
    ``verify`` makes no reference cycle, yet the collector would scan its
    young objects (formula nodes, clauses) again and again.  Pausing it
    here, not inside ``verify``, lets the command's objects die by
    reference count before the collector runs again."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except FaultresError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_ERROR
        except Exception as e:  # pragma: no cover - last-resort diagnostics
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
