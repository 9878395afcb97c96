import gc
import itertools
import json
import re
import sys

import jsonschema
import pytest

from conftest import DUP_COMPARE, DUP_COMPARE_CONFIG
from faultres import __version__, build_and_validate, parse_netlist, unroll
from faultres.circuit_model import GateInstance
from faultres.cli import main
from faultres.fixtures import fixture_text
from faultres.netlist_io import parse_config, write_netlist
from faultres.oracle import random_netlist
from faultres.sat_encoding import verify
from faultres.simulator import FaultEvent, FaultType, FaultVector, check_effectiveness


@pytest.fixture()
def workdir(tmp_path):
    for name in ("rect_parity.nl", "rect_revised.nl", "zeta_1_1_all_c.json",
                 "zeta_1_1_all_c_parity.json"):
        (tmp_path / name).write_text(fixture_text(name))
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def load_schema():
    from importlib import resources

    return json.loads(resources.files("faultres").joinpath("report_schema.json")
                      .read_text())


def test_verify_rect_parity_exit_and_report(workdir, capsys):
    report_path = workdir / "report.json"
    code = run_cli("verify", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json",
                   "--json", report_path)
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT RESISTANT" in out
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema())
    assert report["verdict"] == "not_resistant"
    assert len(report["counterexample"]["events"]) == 1
    assert len(report["counterexample"]["inputs"]) == 1
    assert len(report["counterexample"]["inputs"][0]) == 4


def test_verify_rect_revised_exit_zero(workdir, capsys):
    report_path = workdir / "report.json"
    code = run_cli("verify", workdir / "rect_revised.nl",
                   "--config", workdir / "zeta_1_1_all_c.json",
                   "--json", report_path)
    assert code == 0
    assert "RESISTANT" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema())
    assert report["counterexample"] is None


def test_verify_missing_file(workdir, capsys):
    assert run_cli("verify", workdir / "missing.nl",
                   "--config", workdir / "zeta_1_1_all_c.json") == 2
    assert "error" in capsys.readouterr().err


def test_verify_bad_config(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 0, "model": {}}')
    assert run_cli("verify", workdir / "rect_parity.nl", "--config", bad) == 2


def test_verify_dimacs_dump(workdir, monkeypatch):
    import faultres.cli
    import faultres.sat_encoding

    calls = []
    for mod in (faultres.cli, faultres.sat_encoding):
        def counted(*args, _encode=mod.encode_problem, **kwargs):
            calls.append(1)
            return _encode(*args, **kwargs)
        monkeypatch.setattr(mod, "encode_problem", counted)
    out = workdir / "out.cnf"
    code = run_cli("verify", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json",
                   "--dimacs", out)
    assert code == 1
    assert len(calls) == 1  # the CNF written is the one verify solved
    text = out.read_text()
    assert text.startswith("p cnf ")
    sidecar = json.loads((workdir / "out.cnf.map.json").read_text())
    assert any(v["role"] == "control" for v in sidecar["vars"].values())

    encoded = workdir / "enc.cnf"
    assert run_cli("encode", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json",
                   "--dimacs", encoded) == 0
    assert out.read_bytes() == encoded.read_bytes()
    assert ((workdir / "out.cnf.map.json").read_bytes()
            == (workdir / "enc.cnf.map.json").read_bytes())


def test_encode_golden_same_netlist_is_byte_identical(workdir, monkeypatch):
    # --golden with the protected netlist's own file lowers that separate
    # circuit's data cones whole; without it the golden side reuses the
    # instrumented nodes.  Each encode calls instrument once per cycle, and
    # both give the same DIMACS and sidecar bytes.  The reach step's flag-only rule holds
    # only against the circuit's own golden side, so it would drop the
    # parity gates of rect_revised.nl from the first encode alone; it is
    # held off here so that both encodes fault the same locations.
    import faultres.reductions
    import faultres.sat_encoding

    from faultres.netlist_io import write_netlist
    from faultres.oracle import random_netlist

    calls = []

    def counted(*args, _instrument=faultres.sat_encoding.instrument, **kwargs):
        calls.append(1)
        return _instrument(*args, **kwargs)

    def cut_keeping_flag_only(*args, flag_only_goes, _cut=faultres.reductions._cut):
        return _cut(*args, flag_only_goes=False)

    monkeypatch.setattr(faultres.sat_encoding, "instrument", counted)
    monkeypatch.setattr(faultres.reductions, "_cut", cut_keeping_flag_only)
    doc = random_netlist(5, max_gates=10, max_regs=2, num_inputs=3).doc
    assert doc.registers
    (workdir / "rand.nl").write_text(write_netlist(doc))
    (workdir / "rand.json").write_text(json.dumps(
        {"k": 2, "model": {"ne": 2, "nc": 1, "types": ["s", "r", "bf"], "location": "cr"}}))
    for nl, cfg, k in (("rect_parity.nl", "zeta_1_1_all_c.json", 1),
                       ("rect_revised.nl", "zeta_1_1_all_c_parity.json", 1),
                       ("rand.nl", "rand.json", 2)):
        args = ("encode", workdir / nl, "--config", workdir / cfg)
        calls.clear()
        assert run_cli(*args, "--dimacs", workdir / "plain.cnf") == 0
        assert len(calls) == k
        assert run_cli(*args, "--golden", workdir / nl, "--dimacs", workdir / "gold.cnf") == 0
        assert len(calls) == 2 * k
        assert (workdir / "plain.cnf").read_bytes() == (workdir / "gold.cnf").read_bytes(), nl
        assert ((workdir / "plain.cnf.map.json").read_bytes()
                == (workdir / "gold.cnf.map.json").read_bytes()), nl


def test_verify_combinational_loop_clean_error(workdir, capsys):
    loop = workdir / "loop.nl"
    loop.write_text(".inputs i\n.outputs a\ngate a = not(b)\ngate b = not(a)\n")
    assert run_cli("verify", loop, "--config", workdir / "zeta_1_1_all_c.json") == 2
    assert capsys.readouterr().err == "error: combinational cycle: a -> b -> a\n"


def test_verify_golden_input_mismatch_clean_error(tmp_path, capsys):
    (tmp_path / "prot.nl").write_text(".inputs a b\n.outputs o\ngate o = and(a, b)\n")
    (tmp_path / "gold.nl").write_text(".inputs a c\n.outputs o\ngate o = and(a, c)\n")
    (tmp_path / "cfg.json").write_text(
        '{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"}}')
    code = run_cli("verify", tmp_path / "prot.nl", "--config", tmp_path / "cfg.json",
                   "--golden", tmp_path / "gold.nl")
    assert code == 2
    assert capsys.readouterr().err == "error: golden circuit lacks input 'b'\n"


def test_verify_golden_disagreeing_clean_error(workdir, capsys):
    # A golden circuit with rect_parity's ports that differs from it without
    # faults is a user error, not an internal encoding error.
    gold = workdir / "gold.nl"
    gold.write_text(".inputs a b c d\n.outputs w x y z\n"
                    + "".join(f"gate {o} = and(a, b)\n" for o in "wxyz"))
    code = run_cli("verify", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json", "--golden", gold)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: golden circuit disagrees with the protected circuit without "
        "faults: inputs 0000, cycle 1, output 'x' is 0 in the golden circuit "
        "and 1 in the protected one\n")


def with_reductions(path, config_text, **reductions):
    """Write ``config_text`` to ``path`` with ``reductions`` as its reductions
    object; returns ``path``."""
    path.write_text(json.dumps({**json.loads(config_text), "reductions": reductions}))
    return path


def test_verify_flags_change_reductions(workdir, capsys):
    report = workdir / "r.json"
    config = fixture_text("zeta_1_1_all_c.json")
    run_cli("verify", workdir / "rect_parity.nl",
            "--config", with_reductions(workdir / "none.json", config, fault_type=False,
                                        single_exit=False),
            "--json", report)
    data = json.loads(report.read_text())
    assert data["reductions"]["applied"] == []

    run_cli("verify", workdir / "rect_parity.nl",
            "--config", with_reductions(workdir / "single_exit.json", config, single_exit=True),
            "--json", report)
    data = json.loads(report.read_text())
    assert [r["name"] for r in data["reductions"]["applied"]] == [
        "fault_type", "single_exit"]


def test_simulate_output_format(workdir, capsys):
    code = run_cli("simulate", workdir / "rect_parity.nl", "--inputs", "0000")
    assert code == 0
    out = capsys.readouterr().out
    assert out == "cycle 1: in=0000 out=01100 flag=0\n"


def test_simulate_multi_cycle(tmp_path, capsys):
    nl = tmp_path / "seq.nl"
    nl.write_text(".inputs i\n.outputs o\n.reg r init=0\n"
                  "gate o = buf(r)\nnext r = i\n")
    code = run_cli("simulate", nl, "--inputs", "1,0")
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cycle 1: in=1 out=0 flag=0", "cycle 2: in=0 out=1 flag=0"]


@pytest.mark.parametrize("inputs, message", [
    (",", "no input vectors given"),
    ("0x", "input vector '0x' must be 2 bits of 0/1"),
], ids=["none", "not-bits"])
def test_simulate_rejects_bad_inputs(tmp_path, capsys, inputs, message):
    nl = tmp_path / "and.nl"
    nl.write_text(".inputs a b\n.outputs o\ngate o = and(a, b)\n")
    assert run_cli("simulate", nl, "--inputs", inputs) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_reduce_json(workdir, capsys):
    code = run_cli("reduce", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json")
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"]["types"] == ["bf"]
    assert set(data["removed_gates"]) == {"s4", "s5", "s7", "s8"}


def test_reduce_legacy_single_successor_runs_single_exit(workdir, capsys):
    # The shape of the benchmark's configs: the legacy single_successor flag
    # on and single_exit off still runs the one gate reduction.
    config = with_reductions(workdir / "legacy.json", fixture_text("zeta_1_1_all_c_parity.json"),
                             fault_type=True, single_successor=True, single_exit=False)
    assert run_cli("reduce", workdir / "rect_parity.nl", "--config", config) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"name": "single_exit", "gates_removed": 9, "detail": ""} in data["applied"]
    assert data["skipped"] == []


def test_encode_dump_controls(workdir, capsys):
    code = run_cli("encode", workdir / "rect_parity.nl",
                   "--config", with_reductions(workdir / "none.json",
                                               fixture_text("zeta_1_1_all_c.json"),
                                               fault_type=False, single_exit=False),
                   "--dump-controls")
    assert code == 0
    controls = json.loads(capsys.readouterr().out)
    assert len(controls) == 12
    assert controls["s7@1"]["c"] == "c[s7@1]"
    assert set(controls["s7@1"]) == {"c", "b1", "b2"}


def test_oracle_subcommand(workdir, capsys):
    code = run_cli("oracle", workdir / "rect_parity.nl",
                   "--config", workdir / "zeta_1_1_all_c.json")
    assert code == 1
    assert "NOT RESISTANT" in capsys.readouterr().out
    code = run_cli("oracle", workdir / "rect_revised.nl",
                   "--config", workdir / "zeta_1_1_all_c_parity.json")
    assert code == 0


def test_gen_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "rand.nl"
    code = run_cli("gen", "random", "--seed", "5", "-o", out)
    assert code == 0
    from faultres import build_and_validate, parse_netlist

    build_and_validate(parse_netlist(out.read_text()))


def test_gen_np(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    out = tmp_path / "np.nl"
    code = run_cli("gen", "np", "--cnf", cnf, "--ne", "1", "-o", out)
    assert code == 0
    err = capsys.readouterr().err
    assert "not_resistant" in err
    from faultres import build_and_validate, parse_netlist

    doc = parse_netlist(out.read_text())
    assert doc.default_cycles == 3
    build_and_validate(doc)


def test_gen_np_malformed_dimacs(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 1\n1 x 0\n")
    assert run_cli("gen", "np", "--cnf", cnf) == 2
    assert capsys.readouterr().err == f"error: {cnf}:2: bad DIMACS token 'x'\n"


def test_gen_rejects_sizes_it_cannot_build(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    for argv, option in ((("random", "--gates", "2"), "--gates"),
                         (("random", "--gates", "0"), "--gates"),
                         (("random", "--inputs", "0"), "--inputs"),
                         (("random", "--regs", "-1"), "--regs"),
                         (("np", "--cnf", cnf, "--ne", "0"), "--ne")):
        seed = ("--seed", "1") if argv[0] == "random" else ()
        assert run_cli("gen", *argv, *seed) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option} must be at least ")
        assert captured.out == ""
    assert run_cli("gen", "random", "--seed", "1", "--gates", "3", "--inputs", "1",
                   "--regs", "0") == 0


def test_verify_input_named_d_with_binding_nc(tmp_path, capsys):
    # At k = 2 with nc = 1 the n_c bound binds, so the encoder declares one
    # activity variable per cycle; an input named d must not collide with it.
    config = tmp_path / "zeta.json"
    config.write_text('{"k": 2, "model": {"ne": 1, "nc": 1, "types": ["bf"], '
                      '"location": "c"}}')
    outputs = []
    for name in ("d", "x"):
        netlist = tmp_path / f"{name}.nl"
        netlist.write_text(f".inputs {name} e\n.outputs o\n"
                           f"gate g = and({name}, e)\ngate o = buf(g)\n")
        report = tmp_path / f"{name}.json"
        assert run_cli("verify", netlist, "--config", config, "--json", report) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        # Every byte but the encode and solve wall times.
        outputs.append(re.sub(r"\d+\.\d{3}s", "<t>s", captured.out))
        assert json.loads(report.read_text())["verdict"] == "not_resistant"
    assert outputs[0] == outputs[1]


def test_main_reuses_one_parser(workdir, capsys, monkeypatch):
    # main builds its argparse parser once per process.  A run of calls,
    # a usage error among them, prints what the same calls print when each
    # builds a fresh parser.
    import faultres.cli as cli

    netlist, config = workdir / "rect_parity.nl", workdir / "zeta_1_1_all_c.json"
    calls = [("verify", netlist, "--config", config),
             ("verify", netlist),
             ("encode", netlist, "--config", config, "--dump-controls"),
             ("verify", netlist, "--config", config)]

    def run(argv):
        try:
            code = run_cli(*argv)
        except SystemExit as e:  # argparse exits on a usage error
            code = e.code
        out, err = capsys.readouterr()
        return re.sub(r"\d+\.\d{3}s", "<t>s", out), err, code

    cli.build_parser.cache_clear()
    cached = [run(argv) for argv in calls]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(argv) for argv in calls]
    assert cached == fresh
    assert [code for _, _, code in cached] == [1, 2, 0, 1]
    assert "the following arguments are required: --config" in cached[1][1]


def with_solver(path, solver):
    config = json.loads(fixture_text("zeta_1_1_all_c.json"))
    path.write_text(json.dumps({**config, "solver": solver}))
    return path


def test_verify_undecided_solver_clean_error(workdir, tmp_path, capsys):
    script = tmp_path / "giveup.py"
    script.write_text("import sys; print('gave up on', repr(sys.argv[1]), file=sys.stderr); "
                      "sys.exit(1)\n")
    # An argv word may hold a space, which a command text split on
    # whitespace could not pass.
    config = with_solver(tmp_path / "giveup.json",
                         [sys.executable, str(script), "an argument with spaces"])
    code = run_cli("verify", workdir / "rect_parity.nl", "--config", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: solver could not decide: solver exited with 1: "
                   "gave up on 'an argument with spaces'\n")


def test_oracle_rejects_reduction_options(workdir, capsys):
    # The oracle enumerates every fault vector; no reduction applies to it.
    # The other commands take their reductions, and verify its solver, from
    # the config alone.
    cases = [*itertools.product(("oracle", "verify", "reduce", "encode"),
                                ("--aggressive", "--no-reduce-types", "--no-reduce-gates")),
             ("verify", "--solver x")]
    for command, option in cases:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, workdir / "rect_parity.nl",
                    "--config", workdir / "zeta_1_1_all_c.json", *option.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_verify_reports_solver_counters(workdir, capsys):
    report_path = workdir / "report.json"
    run_cli("verify", workdir / "rect_revised.nl",
            "--config", workdir / "zeta_1_1_all_c.json", "--json", report_path)
    stats = json.loads(report_path.read_text())["stats"]
    # The built-in backend solves the miter one disjunct at a time, so these
    # are the counters summed over its calls, not those of one plain solve.
    assert (stats["conflicts"], stats["decisions"]) == (76, 77)
    assert "76 conflicts, 77 decisions" in capsys.readouterr().out


UNOBSERVABLE_LINE = "  no vulnerable gate reaches a data output within k cycles\n"


def test_structurally_resistant_circuit(tmp_path, capsys):
    # The copy is the only vulnerable logic and reaches only the flag.
    nl, cfg = tmp_path / "dup.nl", tmp_path / "dup.json"
    nl.write_text(DUP_COMPARE)
    cfg.write_text(DUP_COMPARE_CONFIG)

    assert run_cli("reduce", nl, "--config", cfg) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["removed_gates"] == ["b_n", "b_o", "b_r"]
    assert {"name": "unobservable", "gates_removed": 3, "detail": ""} in data["applied"]
    # exact, so turning the gate reductions off leaves it on
    no_gates = with_reductions(tmp_path / "no_gates.json", DUP_COMPARE_CONFIG,
                               single_exit=False)
    assert run_cli("reduce", nl, "--config", no_gates) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in data["applied"]] == ["fault_type", "unobservable"]

    dimacs = tmp_path / "dup.cnf"
    assert run_cli("encode", nl, "--config", cfg, "--dimacs", dimacs) == 0
    capsys.readouterr()
    assert dimacs.read_text() == "p cnf 4 1\n0\n"
    assert run_cli("encode", nl, "--config", cfg, "--dump-controls") == 0
    assert json.loads(capsys.readouterr().out) == {}

    report = tmp_path / "dup_report.json"
    assert run_cli("verify", nl, "--config", cfg, "--json", report) == 0
    out = capsys.readouterr().out
    assert out.startswith("RESISTANT: no admissible fault vector is effective\n"
                          + UNOBSERVABLE_LINE)
    data = json.loads(report.read_text())
    jsonschema.validate(data, load_schema())
    assert data["verdict"] == "resistant" and data["stats"]["locations"] == 0
    assert data["reductions"]["applied"][-1]["name"] == "unobservable"


def test_reduce_skips_gate_reductions_when_unobservable(tmp_path, capsys):
    # No vulnerable gate or register reaches the data output, so the gate
    # reduction is skipped, with the reason, and unobservable takes all
    # three vulnerable names.
    nl = tmp_path / "dup.nl"
    nl.write_text(DUP_COMPARE)
    cfg = with_reductions(tmp_path / "dup.json", DUP_COMPARE_CONFIG, single_exit=True)
    assert run_cli("reduce", nl, "--config", cfg) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["blacklist"] == {"original": 6, "effective": 9}
    assert data["removed_gates"] == ["b_n", "b_o", "b_r"]
    assert data["applied"] == [
        {"name": "fault_type", "gates_removed": 2, "detail": "types -> {bf}"},
        {"name": "unobservable", "gates_removed": 3, "detail": ""}]
    reason = "no vulnerable gate or register reaches a data output"
    assert data["skipped"] == [{"name": "single_exit", "reason": reason}]


def test_verify_output_unchanged_when_a_fault_reaches_data(workdir, capsys):
    for nl, code in (("rect_revised.nl", 0), ("rect_parity.nl", 1)):
        assert run_cli("verify", workdir / nl,
                       "--config", workdir / "zeta_1_1_all_c.json") == code
        assert UNOBSERVABLE_LINE not in capsys.readouterr().out


def test_json_reports_validate_on_all_fixtures(workdir, tmp_path):
    schema = load_schema()
    cases = [
        ("rect_parity.nl", "zeta_1_1_all_c.json"),
        ("rect_parity.nl", "zeta_1_1_all_c_parity.json"),
        ("rect_revised.nl", "zeta_1_1_all_c.json"),
        ("rect_revised.nl", "zeta_1_1_all_c_parity.json"),
    ]
    for nl, cfg in cases:
        report = tmp_path / "rep.json"
        code = run_cli("verify", workdir / nl, "--config", workdir / cfg,
                       "--json", report)
        data = json.loads(report.read_text())
        jsonschema.validate(data, schema)
        assert code in (0, 1)
        assert (code == 0) == (data["verdict"] == "resistant")


def test_report_labels_replay_as_fault_vectors(workdir, tmp_path):
    # A report's "instance" labels (name@cycle) name the fault locations
    # alone: parsed back, every not_resistant counterexample replays on the
    # simulator, register faults included.
    cases = [(workdir / "rect_parity.nl", workdir / "zeta_1_1_all_c.json"),
             (workdir / "rect_revised.nl", workdir / "zeta_1_1_all_c_parity.json")]
    for nl, cfg in list(cases):
        config = json.loads(cfg.read_text())
        config["model"]["ne"] = 2
        (tmp_path / cfg.name).write_text(json.dumps(config))
        cases.append((nl, tmp_path / cfg.name))
    # Seeds whose circuits have a counterexample under one of the classes.
    for seed, location in itertools.product((0, 2, 5, 6, 7), ("r", "cr")):
        nl, cfg = tmp_path / f"rand{seed}.nl", tmp_path / f"rand{seed}{location}.json"
        nl.write_text(write_netlist(random_netlist(seed, max_gates=10, max_regs=2,
                                                   num_inputs=3).doc))
        cfg.write_text(json.dumps({"k": 2, "model": {
            "ne": 1, "nc": 2, "types": ["s", "r", "bf"], "location": location}}))
        cases.append((nl, cfg))
    tokens = {t.token: t for t in FaultType}
    replayed = set()
    for nl, cfg in cases:
        report = tmp_path / "rep.json"
        code = run_cli("verify", nl, "--config", cfg, "--json", report)
        data = json.loads(report.read_text())
        if code == 0:
            continue
        cx = data["counterexample"]
        events = []
        for e in cx["events"]:
            name, cycle = e["instance"].rsplit("@", 1)
            events.append(FaultEvent(GateInstance(int(cycle), name), tokens[e["type"]]))
        inputs = [tuple(int(b) for b in row) for row in cx["inputs"]]
        circuit = build_and_validate(parse_netlist(nl.read_text()))
        replay = check_effectiveness(unroll(circuit, data["k"]), FaultVector(events), inputs)
        assert replay.effective, (nl.name, cfg.name, cx)
        assert replay.divergence_cycle == cx["divergence_cycle"]
        replayed.add("rand" if nl.name.startswith("rand") else nl.name)
        replayed.update("register" for e in events if e.instance.name in circuit.next_state)
    assert replayed == {"rect_parity.nl", "rect_revised.nl", "rand", "register"}


def test_bench_shims_resolve(workdir, capsys, monkeypatch):
    # perfbench/spans.py times the layers by replacing these module
    # attributes; each must exist once the CLI is imported, or --trace 1
    # breaks.  And each must still be called through its module: a call
    # site that moved would leave its span, and the layer metric drawn from
    # it, at zero.  A counterexample at k = 2 and an unobservable circuit
    # between them reach every shim.
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    import faultres.cli

    for module, attr in spans.SHIMMED:
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr)

    config = json.loads(fixture_text("zeta_1_1_all_c.json"))
    config["k"] = 2
    (workdir / "k2.json").write_text(json.dumps(config))
    (workdir / "dup.nl").write_text(DUP_COMPARE)
    (workdir / "dup.json").write_text(DUP_COMPARE_CONFIG)
    tracer = spans.Tracer(sys.modules)
    with tracer:
        for netlist, cfg, code in (("rect_parity.nl", "k2.json", 1), ("dup.nl", "dup.json", 0)):
            argv = ["verify", str(workdir / netlist), "--config", str(workdir / cfg)]
            assert tracer.call(spans.ROOT, faultres.cli.main, argv) == code, netlist
            tracer.end_instance()
    capsys.readouterr()
    assert {s.name for s in tracer.spans} == {spans.ROOT} | {a for _, a in spans.SHIMMED}


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_restores_it(workdir, capsys, monkeypatch, collecting):
    # The collector is off while a command runs, and afterwards as it was
    # before, on a verdict and on an error exit alike.
    import faultres.cli

    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return verify(*args, **kwargs)

    monkeypatch.setattr(faultres.cli, "verify", spy)
    config = workdir / "zeta_1_1_all_c.json"
    gives_up = with_solver(workdir / "true.json", ["true"])
    calls = [(("verify", workdir / "rect_parity.nl", "--config", config), 1, ""),
             (("verify", workdir / "missing.nl", "--config", config), 2, "cannot read"),
             (("verify", workdir / "rect_parity.nl", "--config", gives_up),
              2, "solver could not decide")]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, code, err in calls:
            assert run_cli(*argv) == code
            assert gc.isenabled() is collecting
            assert err in capsys.readouterr().err
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_verify_makes_no_reference_cycle(tmp_path):
    # Why the collector may pause: verify leaves nothing for it to free.
    generated = tmp_path / "rand.nl"
    assert run_cli("gen", "random", "--seed", "5", "-o", generated) == 0
    cases = [(fixture_text("rect_parity.nl"), fixture_text("zeta_1_1_all_c.json")),
             (fixture_text("rect_revised.nl"), fixture_text("zeta_1_1_all_c.json")),
             (generated.read_text(), json.dumps({
                 "k": 2, "blacklist": [],
                 "model": {"ne": 1, "nc": 2, "types": ["s", "r", "bf"], "location": "cr"}}))]
    statuses = set()
    was = gc.isenabled()
    gc.disable()
    try:
        for text, config_text in cases:
            doc = parse_netlist(text)
            circuit, config = build_and_validate(doc), parse_config(config_text, doc)
            gc.collect()
            statuses.add(verify(circuit, config).status)
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert statuses == {"resistant", "not_resistant"}


# The report content of both shipped fixtures under both shipped configs, for
# the SAT path and the oracle, minus the two timings.
_ALL_TYPES = {"ne": 1, "nc": 1, "types": ["s", "r", "bf"], "location": "c"}
_BF_ONLY = {"ne": 1, "nc": 1, "types": ["bf"], "location": "c"}
_NO_REDUCTIONS = {"applied": [], "skipped": []}
_TYPES_TO_BF = {"name": "fault_type", "gates_removed": 2, "detail": "types -> {bf}"}
_REACH_SKIPPED = {"name": "reach", "reason": "no instance is dead or flag-only"}
_REACH_ONE_FLAG_ONLY = {"name": "reach", "gates_removed": 1,
                        "detail": "instances dropped: 0 dead, 1 flag-only"}
_S1_CX = {"inputs": ["0000"], "divergence_cycle": 1, "differing_output": "w"}
_PARITY_COUNTERS = {"decisions": 7, "conflicts": 3, "restarts": 0, "learnt": 3}
_REVISED_COUNTERS = {"decisions": 77, "conflicts": 76, "restarts": 0, "learnt": 69}
EXPECTED_REPORTS = {
    ("verify", "rect_parity.nl", "zeta_1_1_all_c.json"): {
        "verdict": "not_resistant", "model": _BF_ONLY,
        "blacklist": {"original": 10, "effective": 14},
        "reductions": {"applied": [_TYPES_TO_BF, {"name": "single_exit",
                                                  "gates_removed": 4, "detail": ""}],
                       "skipped": [_REACH_SKIPPED]},
        "counterexample": {"events": [{"instance": "s1@1", "type": "bf"}], **_S1_CX},
        "stats": {"vars": 68, "clauses": 197, "locations": 8, **_PARITY_COUNTERS}},
    ("verify", "rect_parity.nl", "zeta_1_1_all_c_parity.json"): {
        "verdict": "not_resistant", "model": _BF_ONLY,
        "blacklist": {"original": 4, "effective": 14},
        "reductions": {"applied": [_TYPES_TO_BF, {"name": "single_exit",
                                                  "gates_removed": 9, "detail": ""},
                                   _REACH_ONE_FLAG_ONLY],
                       "skipped": []},
        "counterexample": {"events": [{"instance": "s1@1", "type": "bf"}], **_S1_CX},
        "stats": {"vars": 68, "clauses": 197, "locations": 8, **_PARITY_COUNTERS}},
    ("verify", "rect_revised.nl", "zeta_1_1_all_c.json"): {
        "verdict": "resistant", "model": _BF_ONLY,
        "blacklist": {"original": 10, "effective": 31},
        "reductions": {"applied": [_TYPES_TO_BF, {"name": "single_exit",
                                                  "gates_removed": 21, "detail": ""}],
                       "skipped": [_REACH_SKIPPED]},
        "counterexample": None,
        "stats": {"vars": 47, "clauses": 137, "locations": 4, **_REVISED_COUNTERS}},
    ("verify", "rect_revised.nl", "zeta_1_1_all_c_parity.json"): {
        "verdict": "resistant", "model": _BF_ONLY,
        "blacklist": {"original": 4, "effective": 31},
        "reductions": {"applied": [_TYPES_TO_BF, {"name": "single_exit",
                                                  "gates_removed": 26, "detail": ""},
                                   _REACH_ONE_FLAG_ONLY],
                       "skipped": []},
        "counterexample": None,
        "stats": {"vars": 47, "clauses": 137, "locations": 4, **_REVISED_COUNTERS}},
    # The oracle applies no reduction, builds no CNF and runs no solver.
    ("oracle", "rect_parity.nl", "zeta_1_1_all_c.json"): {
        "verdict": "not_resistant", "model": _ALL_TYPES,
        "blacklist": {"original": 10, "effective": 10}, "reductions": _NO_REDUCTIONS,
        "counterexample": {"events": [{"instance": "s1@1", "type": "s"}], **_S1_CX},
        "stats": {"vars": 0, "clauses": 0, "locations": 12}},
    ("oracle", "rect_parity.nl", "zeta_1_1_all_c_parity.json"): {
        "verdict": "not_resistant", "model": _ALL_TYPES,
        "blacklist": {"original": 4, "effective": 4}, "reductions": _NO_REDUCTIONS,
        "counterexample": {"events": [{"instance": "s1@1", "type": "s"}], **_S1_CX},
        "stats": {"vars": 0, "clauses": 0, "locations": 18}},
    ("oracle", "rect_revised.nl", "zeta_1_1_all_c.json"): {
        "verdict": "resistant", "model": _ALL_TYPES,
        "blacklist": {"original": 10, "effective": 10}, "reductions": _NO_REDUCTIONS,
        "counterexample": None,
        "stats": {"vars": 0, "clauses": 0, "locations": 25}},
    ("oracle", "rect_revised.nl", "zeta_1_1_all_c_parity.json"): {
        "verdict": "resistant", "model": _ALL_TYPES,
        "blacklist": {"original": 4, "effective": 4}, "reductions": _NO_REDUCTIONS,
        "counterexample": None,
        "stats": {"vars": 0, "clauses": 0, "locations": 31}},
}


@pytest.mark.parametrize("command,netlist,config", sorted(EXPECTED_REPORTS))
def test_json_report_content_pinned(workdir, capsys, command, netlist, config):
    report_path = workdir / "report.json"
    code = run_cli(command, workdir / netlist, "--config", workdir / config,
                   "--json", report_path)
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema())
    for timing in ("encode_time_s", "solve_time_s"):
        assert isinstance(report["stats"].pop(timing), float)
    expected = EXPECTED_REPORTS[command, netlist, config]
    assert report == {"format_version": 2, "tool_version": __version__,
                      "circuit": netlist.removesuffix(".nl"), "k": 1, **expected}
    assert code == (0 if expected["verdict"] == "resistant" else 1)
