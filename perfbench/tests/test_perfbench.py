"""Tests of the benchmark itself: generator verdicts against the exhaustive
oracle, the outcome checker, tiny smoke runs of every workload in both
modes, repeatable counts, and the refusal to run without sources.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from check import check_outcome  # noqa: E402
from run import WORKLOADS, InstanceTimeout  # noqa: E402

from faultres import build_and_validate, parse_config, parse_netlist, unroll  # noqa: E402
from faultres.oracle import brute_force_verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, workdir, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny",
           "--workdir", str(workdir), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", range(4))
def test_generator_verdict_matches_oracle(workload, seed):
    inst = WORKLOADS[workload].family(seed, 0, **WORKLOADS[workload].tiny)
    assert len(inst.inputs) * inst.k <= 16
    doc = parse_netlist(inst.netlist)
    config = parse_config(inst.config, doc)
    verdict = brute_force_verdict(unroll(build_and_validate(doc), inst.k),
                                  config.blacklist, config.model)
    assert verdict.status == inst.expected


def test_generator_is_seeded():
    a = gen.sat_dup_seq(5, 2)
    assert a == gen.sat_dup_seq(5, 2)
    assert a.netlist != gen.sat_dup_seq(5, 3).netlist
    assert a.netlist != gen.sat_dup_seq(6, 2).netlist


def test_generator_sizes():
    inst = gen.const_dup_redundant(0, 0)
    doc = parse_netlist(inst.netlist)
    copies = [g for g in doc.gates if g.name.startswith(gen.COPY)]
    assert 1000 <= len(copies) < 1100
    assert len(doc.registers) == 32
    assert set(inst.data_outputs) | {"flag"} == set(doc.outputs)


def report_with(events, inputs=("0000",) * 3, cycle=1, output=None):
    return {"verdict": "not_resistant", "counterexample": {
        "events": [{"instance": label, "type": kind} for label, kind in events],
        "inputs": list(inputs), "divergence_cycle": cycle,
        "differing_output": output}}


def test_check_accepts_the_constructed_attack():
    inst = gen.sat_dup_seq(1, 0, **WORKLOADS["sat-dup-seq"].tiny)
    o = inst.data_outputs[0]
    report = report_with([(f"{o}@1", "bf"), (f"{gen.COPY}{o}@1", "bf")], output=o)
    assert check_outcome(inst, 1, report) == []


@pytest.mark.parametrize("events, why", [
    ([("flag@1", "bf")], "blacklisted"),
    ([("g0@1", "bf"), ("b_g0@1", "bf"), ("g1@1", "bf")], "ne ="),
    ([("g0@1", "bf"), ("b_g0@2", "bf")], "nc ="),
    ([("g0@4", "bf")], "outside cycles"),
    ([("nope@1", "bf")], "location"),
    ([], "no fault events"),
])
def test_check_rejects_inadmissible_counterexamples(events, why):
    inst = gen.sat_dup_seq(1, 0, **WORKLOADS["sat-dup-seq"].tiny)
    problems = check_outcome(inst, 1, report_with(events, output=inst.data_outputs[0]))
    assert any(why in p for p in problems), problems


def test_check_rejects_wrong_verdicts_and_exit_codes():
    inst = gen.unsat_dup_comb(1, 0, **WORKLOADS["unsat-dup-comb"].tiny)
    resistant = {"verdict": "resistant", "counterexample": None}
    assert check_outcome(inst, 0, resistant) == []
    assert check_outcome(inst, 1, resistant)
    assert check_outcome(inst, 2, None)
    assert check_outcome(inst, 0, None)
    assert check_outcome(inst, 1, report_with([("g0@1", "bf")], inputs=("0000",)))


def test_timeout_escapes_the_cli_handler():
    assert not issubclass(InstanceTimeout, Exception)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload, tmp_path):
    proc = bench(workload, 0, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat(workload, tmp_path):
    runs = [bench(workload, 1, tmp_path / str(n)) for n in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    first, second = (last_json(proc) for proc in runs)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    spans = json.loads((tmp_path / "0" / "spans.json").read_text())
    assert {s["name"] for s in spans} >= {"cli.main", "verify", "solve_cnf"}
    assert all(s["parent"] < s["id"] for s in spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("sat-dup-seq", 0, tmp_path / "work", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
