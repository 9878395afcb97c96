"""Time-to-verdict benchmark for ``faultres verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs seeded countermeasure circuits through ``faultres.cli.main(["verify",
<netlist>, "--config", <cfg>, "--json", <report>])`` in this process, one
instance after another (a closed loop with one client), and checks every
outcome against the verdict the generator built in.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` makes one traced pass over the
instance set and reports per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run at all.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import spans
from check import check_outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "faultres" / "fixtures"

TAIL_PERCENTILE = 90    # every set has >= 100 instances, so >= 10 lie above p90
SETUP_REPEATS = 11      # setup_s is the median of this many set-ups
OVERHEAD_SAMPLE = 20    # instances run both untraced and traced in a traced run
INSTANCE_LIMIT_S = 60.0  # per-instance time limit


@dataclass(frozen=True)
class Workload:
    family: Callable        # gen family: (seed, index, **sizes) -> Instance
    set_size: int           # instances whose times make total_s and the traced sums
    tiny: dict              # sizes for --tiny smoke runs, at most 16 input bits
    why: str


# Set sizes make one set take about 25 s on a 2-core x86 VM with Python 3.11,
# so that each figure averages over as much of the host's noise as fits.
WORKLOADS = {
    "unsat-dup-comb": Workload(
        gen.unsat_dup_comb, 120, {"gates": 8, "inputs": 4},
        "UNSAT proofs: conflict analysis, learning and restarts dominate"),
    "sat-dup-seq": Workload(
        gen.sat_dup_seq, 180, {"gates": 8, "regs": 2, "inputs": 4},
        "SAT search, both cardinality counters, decode and replay"),
    "const-dup-redundant": Workload(
        gen.const_dup_redundant, 150, {"gates": 8, "regs": 2, "inputs": 4},
        "the miter folds to a constant: parse, reductions and encoding dominate"),
}
TINY_SET_SIZE = 12


class SetupError(Exception):
    pass


class InstanceTimeout(BaseException):
    """Raised by the interval timer.  It derives from BaseException so that
    the CLI's last-resort ``except Exception`` cannot swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def _faultres_modules():
    return [name for name in sys.modules if name == "faultres" or name.startswith("faultres.")]


def set_up(workdir: Path):
    """Import faultres.cli afresh and verify the shipped fixture once; returns
    (seconds taken, the cli module)."""

    for name in _faultres_modules():
        del sys.modules[name]
    report = workdir / "setup_report.json"
    argv = ["verify", str(FIXTURES / "rect_parity.nl"),
            "--config", str(FIXTURES / "zeta_1_1_all_c.json"), "--json", str(report)]
    start = time.perf_counter()
    cli = importlib.import_module("faultres.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported faultres from {cli.__file__}, not from {SRC}")
    # The fixture's README explains the verdict: one fault on gate z flips two
    # outputs and leaves the parity unchanged.
    if code != 1 or json.loads(report.read_text())["verdict"] != "not_resistant":
        raise SetupError(f"warm-up verify of rect_parity.nl gave exit code {code}")
    return elapsed, cli


def run_instance(cli, inst, workdir: Path, tracer=None):
    """One CLI call on one instance; returns (wall seconds, problems)."""

    netlist, config, report = (workdir / "x.nl", workdir / "x.json", workdir / "x.report.json")
    netlist.write_text(inst.netlist)
    config.write_text(inst.config)
    report.unlink(missing_ok=True)
    argv = ["verify", str(netlist), "--config", str(config), "--json", str(report)]
    err = io.StringIO()
    code, problems = None, []
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer:
                        code = tracer.call(spans.ROOT, cli.main, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        problems.append(f"over the {INSTANCE_LIMIT_S:g}s time limit")
    except Exception as e:  # cli.main catches errors itself; anything else is a failure
        problems.append(f"raised {type(e).__name__}: {e}")
    elapsed = time.perf_counter() - start
    if not problems:
        parsed = json.loads(report.read_text()) if report.exists() else None
        problems = check_outcome(inst, code, parsed)
        if code == 2:
            problems.append(err.getvalue().strip()[:200])
    return elapsed, problems


def end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path,
               set_size: int, sizes=None):
    """Untraced run: set up SETUP_REPEATS times, then verify instances until
    the instance set is done and ``seconds`` have passed.  ``sizes``
    overrides the family's default circuit sizes."""

    setup = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli = set_up(workdir)
        setup.append(elapsed)
    times, failures, gen_s = [], {}, 0.0
    start = time.perf_counter()
    index = 0
    while index < set_size or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        inst = workload.family(seed, index, **(sizes or {}))
        gen_s += time.perf_counter() - t0
        elapsed, problems = run_instance(cli, inst, workdir)
        times.append(elapsed)
        if problems:
            failures[inst.name] = problems
        index += 1
    metrics = {
        "total_s": (sum(times[:set_size]), "s"),
        "verify_s.p50": (statistics.median(times), "s"),
        f"verify_s.p{TAIL_PERCENTILE}": (_percentile(times, TAIL_PERCENTILE), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {"instances": len(times), "set_size": set_size,
            "failed_frac": len(failures) / len(times), "generator_s": gen_s,
            "setup_samples_s": setup}
    return metrics, len(times), failures, info


def traced(workload: Workload, seed: int, workdir: Path, set_size: int, sizes=None):
    """One traced pass over the instance set; the first OVERHEAD_SAMPLE
    instances also run untraced, alternating which way goes first."""

    _, cli = set_up(workdir)
    tracer = spans.Tracer(sys.modules)
    failures = {}
    traced_total = untraced_sample = traced_sample = 0.0
    for index in range(set_size):
        inst = workload.family(seed, index, **(sizes or {}))
        ways = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in ways if index < OVERHEAD_SAMPLE else (True,):
            tracer.instance = index
            elapsed, problems = run_instance(cli, inst, workdir, tracer if with_trace else None)
            if problems:
                failures[inst.name] = problems
            if with_trace:
                traced_total += elapsed
                tracer.end_instance()
                if index < OVERHEAD_SAMPLE:
                    traced_sample += elapsed
            else:
                untraced_sample += elapsed
    tracer.write(workdir / "spans.json")
    metrics = spans.layer_metrics(tracer, traced_total, untraced_sample, traced_sample)
    info = {"instances": set_size, "failed_frac": len(failures) / set_size,
            "traced_total_s": traced_total, "spans": len(tracer.spans),
            "spans_file": str(workdir / "spans.json")}
    return metrics, set_size, failures, info


def _percentile(values, p):
    return statistics.quantiles(values, n=100)[p - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description="time-to-verdict benchmark for faultres verify")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"smoke run: desk-scale circuits, {TINY_SET_SIZE} instances")
    parser.add_argument("--workdir", type=Path,
                        help="where instance files, reports and spans go "
                             "(default .bench_work/<workload> in the checkout)")
    args = parser.parse_args(argv)

    if not (SRC / "faultres" / "cli.py").is_file():
        print(f"error: no faultres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = args.workdir or ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    set_size, sizes = (TINY_SET_SIZE, workload.tiny) if args.tiny else (workload.set_size, None)
    try:
        if args.trace:
            metrics, attempted, failures, info = traced(
                workload, args.seed, workdir, set_size, sizes)
        else:
            metrics, attempted, failures, info = end_to_end(
                workload, args.seed, args.seconds, workdir, set_size, sizes)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in info.items():
        print(f"  [info] {name} = {value}")
    for name, problems in failures.items():
        print(f"  FAILED {name}: {'; '.join(problems)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
