import itertools
import json
import random
import re

import pytest

from faultres.circuit_model import (
    ArityMismatch,
    DuplicateName,
    InvalidK,
    InvalidModel,
    MissingOutputDriver,
    NetlistSyntaxError,
    UndefinedNet,
    UnknownBlacklistGate,
    UnknownGateKind,
    build_and_validate,
)
from faultres.netlist_io import (
    ReductionFlags,
    SchemaError,
    VerificationConfig,
    parse_config,
    parse_netlist,
    write_netlist,
)
from faultres.oracle import random_netlist
from faultres.simulator import FaultType


def test_rect_parity_shape(rect_parity_doc):
    doc = rect_parity_doc
    assert doc.inputs == ["a", "b", "c", "d"]
    assert doc.outputs == ["w", "x", "y", "z", "flag"]
    assert doc.flag_output == "flag"
    assert len(doc.gates) == 22
    assert doc.registers == []
    by_name = {g.name: g for g in doc.gates}
    assert by_name["s1"].kind == "xor" and by_name["s1"].operands == ("b", "c")
    assert by_name["s4"].operands == ("s2", "d")


def test_missing_output_driver():
    text = ".name t\n.inputs a\n.outputs w\ngate g = not(a)\n"
    with pytest.raises(MissingOutputDriver) as exc:
        build_and_validate(parse_netlist(text))
    assert exc.value.name == "w"
    assert exc.value.line == 3  # errors carry their source location


def test_undefined_net():
    text = ".name t\n.inputs a\n.outputs g1\ngate g1 = and(a, zz)\n"
    with pytest.raises(UndefinedNet) as exc:
        build_and_validate(parse_netlist(text))
    assert exc.value.name == "zz"
    assert exc.value.line == 4


def test_duplicate_name():
    # The error names the net and points at its first declaration in the
    # text: gate and gate, input and gate, a gate before the input, register
    # and gate.
    for text, at in (
            (".name t\n.inputs a\n.outputs g\ngate g = not(a)\n  gate g = buf(a)\n", (4, 1)),
            (".name t\n .inputs a g\n.outputs h\ngate h = not(a)\ngate g = buf(a)\n", (2, 2)),
            (".name t\n\tgate g = buf(a)\n.inputs a g\n.outputs g\n", (2, 2)),
            (".inputs a\n.outputs g\n.reg g init=0\ngate g = buf(a)\nnext g = a\n", (3, 1))):
        with pytest.raises(DuplicateName) as exc:
            build_and_validate(parse_netlist(text))
        assert exc.value.name == "g"
        assert (exc.value.line, exc.value.col) == at, text
        assert str(exc.value) == f"{at[0]}:{at[1]}: duplicate net name 'g'"


def test_unknown_gate_kind():
    with pytest.raises(UnknownGateKind) as exc:
        build_and_validate(parse_netlist(".inputs a\n.outputs g\ngate g = nandx(a, a)\n"))
    assert exc.value.token == "nandx"


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch) as exc:
        build_and_validate(parse_netlist(".inputs a b\n.outputs g\ngate g = not(a, b)\n"))
    assert (exc.value.line, exc.value.col) == (3, 1)
    assert str(exc.value) == "3:1: gate 'g': not takes 1 operands, got 2"


def test_syntax_error_has_location():
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(".inputs a\nbogus statement here\n")
    assert exc.value.line == 2


def test_register_without_next_rejected():
    text = ".inputs a\n.outputs g\n.reg r init=0\ngate g = buf(r)\n"
    with pytest.raises(MissingOutputDriver):
        build_and_validate(parse_netlist(text))


def test_flag_must_be_output():
    text = ".inputs a\n.outputs g\n.flag g2\ngate g = buf(a)\ngate g2 = not(a)\n"
    with pytest.raises(NetlistSyntaxError):
        build_and_validate(parse_netlist(text))


def test_missing_inputs_or_outputs_rejected():
    for text, head in (("", ".inputs"), (".outputs g\ngate g = const1()\n", ".inputs"),
                       (".inputs a\ngate g = buf(a)\n", ".outputs")):
        with pytest.raises(NetlistSyntaxError) as exc:
            build_and_validate(parse_netlist(text))
        assert str(exc.value) == f"netlist has no {head} statement"


def test_repeated_single_statements_rejected():
    body = ".inputs a\n.outputs g f\ngate g = buf(a)\ngate f = not(a)\n"
    for stmt in (".name t", ".cycles 2", ".flag f"):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist(f"{stmt}\n{body}{stmt}\n")
        assert (exc.value.line, exc.value.col) == (6, 1)
        assert str(exc.value) == f"6:1: duplicate {stmt.split()[0]} statement"


@pytest.mark.parametrize("statements, at, message", [
    (".name a b\n", 1, ".name takes one identifier"),
    (".inputs\n", 1, ".inputs needs at least one net"),
    (".flag a b\n", 1, ".flag takes one identifier"),
    (".reg r\n", 1, ".reg wants `.reg <name> init=<0|1>`"),
    (".reg r init=2\n", 1, "init must be 0 or 1"),
    (".reg r init=0\nnext r\n", 2, "next wants `next <reg> = <net>`"),
    (".reg r init=0\nnext r = a\nnext r = a\n", 3, "duplicate next for register 'r'"),
], ids=["name-two", "inputs-bare", "flag-two", "reg-no-init", "reg-init-2", "next-bare",
        "next-twice"])
def test_parse_rejects_malformed_statement(statements, at, message):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(statements + ".inputs a\n.outputs g\ngate g = buf(a)\n")
    assert str(exc.value) == f"{at}:1: {message}"


def test_parse_is_deterministic(rect_parity_doc):
    from faultres.fixtures import fixture_text

    text = fixture_text("rect_parity.nl")
    assert parse_netlist(text) == parse_netlist(text)


def test_roundtrip_rect(rect_parity_doc):
    assert parse_netlist(write_netlist(rect_parity_doc)) == rect_parity_doc


def test_roundtrip_drops_comments():
    text = "# a comment\n.inputs a  # trailing\n.outputs g\ngate g = buf(a)\n"
    doc = parse_netlist(text)
    assert "#" not in write_netlist(doc)
    assert parse_netlist(write_netlist(doc)) == doc


def test_roundtrip_random_netlists():
    for seed in range(100):
        doc = random_netlist(seed).doc
        assert parse_netlist(write_netlist(doc)) == doc


def test_roundtrip_with_registers_and_cycles():
    text = (".name seq\n.cycles 3\n.inputs i\n.outputs g\n.reg r init=1\n"
            "gate g = xor(i, r)\nnext r = g\n")
    doc = parse_netlist(text)
    assert doc.default_cycles == 3
    assert doc.registers == [("r", 1)]
    assert parse_netlist(write_netlist(doc)) == doc


@pytest.mark.parametrize("count", ["\u00b2", "\u0663", "0", "-1", "2 3", ""])
def test_cycles_takes_ascii_digits(count):
    # A superscript two and an Arabic-Indic three are digits to str.isdigit,
    # but not counts the grammar takes.
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(f".cycles {count}\n.inputs a\n.outputs g\ngate g = buf(a)\n")
    assert str(exc.value) == "1:1: .cycles takes one positive integer"


# The gate-line grammar stated plainly, as a reference for the parser: the
# comment goes, blank lines are skipped, a statement must have the gate
# shape, and each comma-separated operand, stripped, is dropped when blank
# and must otherwise be an identifier.
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*")
_REF_GATE = re.compile(r"gate\s+g\s*=\s*and\s*\((?P<ops>[^)]*)\)\s*")


def _reference_gate_operands(text):
    """The operand tuple of each gate in ``text``, or the first error."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0]
        if not stmt.strip():
            continue
        col = len(stmt) - len(stmt.lstrip()) + 1
        head = stmt.split()[0]
        if head != "gate":
            return f"{lineno}:{col}: unrecognized statement {head!r}"
        m = _REF_GATE.fullmatch(stmt.strip())
        if not m:
            return f"{lineno}:{col}: gate wants `gate <name> = <kind>(<operands>)`"
        ops = []
        for op in m.group("ops").split(","):
            op = op.strip()
            if op and not _REF_IDENT.fullmatch(op):
                return f"{lineno}:{col}: bad identifier {op!r}"
            if op:
                ops.append(op)
        gates.append(tuple(ops))
    return gates


def _parsed_gate_operands(text):
    try:
        return [g.operands for g in parse_netlist(text).gates]
    except NetlistSyntaxError as e:
        return str(e)


@pytest.mark.parametrize("ops, expected", [
    ("a,,b", ("a", "b")),
    (" a ,b ", ("a", "b")),
    ("", ()),
    (" , ,\t", ()),
    ("x.y[0],\u00a0_q", ("x.y[0]", "_q")),
])
def test_gate_operands(ops, expected):
    assert _parsed_gate_operands(f"gate g = and({ops})") == [expected]


_SYNTAX = "gate wants `gate <name> = <kind>(<operands>)`"


@pytest.mark.parametrize("line, expected", [
    # whitespace around tokens: tabs, no-break spaces; a form feed ends a line
    ("\tgate\tg\t=\tand(\ta\t,\tb\t)\t", ("g", "and", ("a", "b"), 2, 2)),
    ("\u00a0gate\u00a0g\u00a0=\u00a0and(\u00a0a\u00a0,b\u00a0)\u00a0",
     ("g", "and", ("a", "b"), 2, 2)),
    ("gate\tg\u00a0= and(a, b)\t# c\u00a0", ("g", "and", ("a", "b"), 2, 1)),
    ("  gate g\f = and(a, b)", (NetlistSyntaxError, f"2:3: {_SYNTAX}")),
    ("gate g = and(a,\fb)", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
    # trailing comments
    ("gate g = and(a, b)  # trailing", ("g", "and", ("a", "b"), 2, 1)),
    ("gate g = and(a,b)#)", ("g", "and", ("a", "b"), 2, 1)),
    ("gate g = and(a,b)#", ("g", "and", ("a", "b"), 2, 1)),
    ("gate g = and(a, # b)", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
    # 0 to 3 operands and blank ones
    (" gate g=const1()", ("g", "const1", (), 2, 2)),
    ("gate g = not( a )", ("g", "not", ("a",), 2, 1)),
    ("gate g = and(a, b)", ("g", "and", ("a", "b"), 2, 1)),
    ("gate g = maj(a, b, c)", ("g", "maj", ("a", "b", "c"), 2, 1)),
    ("gate g = and(a, , b)", ("g", "and", ("a", "b"), 2, 1)),
    ("gate g = and(,)", ("g", "and", (), 2, 1)),
    # bad names and operands, and other malformed gate lines
    ("gate 1g = and(a, b)", (NetlistSyntaxError, "2:1: bad identifier '1g'")),
    ("gate g- = and(a, b)", (NetlistSyntaxError, "2:1: bad identifier 'g-'")),
    ("gate g = and(a, b-c)", (NetlistSyntaxError, "2:1: bad identifier 'b-c'")),
    ("gate g = and(a b, c)", (NetlistSyntaxError, "2:1: bad identifier 'a b'")),
    ("gate g = and(a, b) x", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
    ("gate g = and(a, b))", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
    ("gate g = an-d(a, b)", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
    ("gate g = (a, b)", (NetlistSyntaxError, f"2:1: {_SYNTAX}")),
])
def test_gate_line_pinned(line, expected):
    # Each gate line gives this statement, with its line and column, or this
    # error class and message.
    try:
        gates = parse_netlist(f".inputs a b c\n{line}\n").gates
    except NetlistSyntaxError as e:
        assert (type(e), str(e)) == expected
    else:
        assert [(g.name, g.kind, g.operands, g.line, g.col) for g in gates] == [expected]


def test_gate_operands_match_reference():
    # Seeded random gate lines over an alphabet of separators, odd
    # whitespace, comments and near-identifiers; the parser must give the
    # reference's operands or its error message.
    alphabet = ["a", "b1", "_q", "x.y[0]", "1a", "a b", "-", ",", ",", ",,", " ", "\t",
                "\x1c", "\u00a0", "# c", "#"]
    rng = random.Random(20)
    outcomes = {"operands": 0, "bad identifier": 0, "other error": 0}
    for _ in range(20_000):
        ops = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        text = f"{rng.choice(['', ' ', chr(9)])}gate g = and({ops}){rng.choice(['', ' ', '  # x'])}"
        expected = _reference_gate_operands(text)
        assert _parsed_gate_operands(text) == expected, repr(text)
        if not isinstance(expected, str):
            outcomes["operands"] += 1
        else:
            outcomes["bad identifier" if "bad identifier" in expected else "other error"] += 1
    assert min(outcomes.values()) > 2_000, outcomes


CONFIG = """
{"k": 1,
 "model": {"ne": 1, "nc": 1, "types": ["s", "r", "bf"], "location": "c"},
 "blacklist": ["p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"]}
"""


def test_parse_config_example(rect_parity_doc):
    config = parse_config(CONFIG, rect_parity_doc)
    assert config.unroll_k == 1
    assert config.model.n_e == 1 and config.model.n_c == 1
    assert config.model.fault_types == frozenset(FaultType)
    assert config.model.location == "c"
    assert config.blacklist == frozenset(
        ["p1", "p2", "p3", "p4", "p5", "p6", "c1", "c2", "c3", "flag"])
    assert config.reductions == ReductionFlags(fault_type=True, single_exit=True)
    assert config.solver == ("builtin",)

    # model.types lists the allowed types in s, r, bf order, whatever order
    # the config names them in.
    tokens = ("s", "r", "bf")
    for size in (1, 2, 3):
        for subset in itertools.permutations(tokens, size):
            raw = {**json.loads(CONFIG), "model": {
                "ne": 1, "nc": 1, "types": list(subset), "location": "c"}}
            model = parse_config(json.dumps(raw), rect_parity_doc).model
            expected = tuple(t for t in tokens if t in subset)
            assert model.types == tuple(FaultType(t) for t in expected)
            assert model.type_tokens() == expected


def test_config_ne_zero(rect_parity_doc):
    with pytest.raises(InvalidModel):
        parse_config('{"k":1,"model":{"ne":0,"nc":1,"types":["s"],"location":"c"}}',
                     rect_parity_doc)


def test_config_nc_capped_at_k(rect_parity_doc):
    config = parse_config(
        '{"k":1,"model":{"ne":1,"nc":5,"types":["bf"],"location":"c"}}',
        rect_parity_doc)
    assert config.model.n_c == 1


def test_config_unknown_blacklist_gate(rect_parity_doc):
    with pytest.raises(UnknownBlacklistGate):
        parse_config(
            '{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"},'
            '"blacklist":["nope"]}', rect_parity_doc)


def test_config_schema_errors(rect_parity_doc):
    with pytest.raises(SchemaError):
        parse_config("not json", rect_parity_doc)
    with pytest.raises(SchemaError):
        parse_config('{"model": {}}', rect_parity_doc)
    with pytest.raises(InvalidK):
        parse_config('{"k":0,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"}}',
                     rect_parity_doc)
    with pytest.raises(InvalidModel):
        parse_config('{"k":1,"model":{"ne":1,"nc":1,"types":[],"location":"c"}}',
                     rect_parity_doc)
    with pytest.raises(InvalidModel):
        parse_config('{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"q"}}',
                     rect_parity_doc)
    # Booleans where counts belong.
    for model_raw in ('"ne":true,"nc":1,"types":["bf"]', '"ne":1,"nc":true,"types":["bf"]'):
        with pytest.raises(InvalidModel):
            parse_config('{"k":1,"model":{%s,"location":"c"}}' % model_raw,
                         rect_parity_doc)
    # Type entries that are not strings, such as unhashable lists.
    with pytest.raises(SchemaError, match="types must be a list of strings"):
        parse_config('{"k":1,"model":{"ne":1,"nc":1,"types":[["bf"]],"location":"c"}}',
                     rect_parity_doc)
    for blacklist in ('[["s1"]]', '[{"s1":1}]'):
        with pytest.raises(SchemaError):
            parse_config('{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"},'
                         '"blacklist":%s}' % blacklist, rect_parity_doc)
    # Reduction flags are JSON booleans; "false" must not read as true.
    for flag in ('"false"', '0', 'null'):
        with pytest.raises(SchemaError, match="single_exit"):
            parse_config('{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"},'
                         '"reductions":{"single_exit":%s}}' % flag, rect_parity_doc)


MODEL = {"ne": 1, "nc": 1, "types": ["bf"], "location": "c"}


@pytest.mark.parametrize("reductions,single_exit", [
    ({"single_successor": True, "single_exit": False}, True),
    ({"single_successor": False, "single_exit": False}, False),
    ({"single_successor": False}, True),
    (None, True),
], ids=["benchmark-shape", "both-off", "legacy-off", "absent"])
def test_config_legacy_single_successor(rect_parity_doc, reductions, single_exit):
    # single_successor is the legacy name of the one gate reduction, which
    # runs when either flag is true; single_exit defaults to true.
    raw = {"k": 1, "model": MODEL}
    if reductions is not None:
        raw["reductions"] = reductions
    config = parse_config(json.dumps(raw), rect_parity_doc)
    assert config.reductions == ReductionFlags(fault_type=True, single_exit=single_exit)


def test_config_legacy_single_successor_must_be_boolean(rect_parity_doc):
    raw = {"k": 1, "model": MODEL, "reductions": {"single_successor": "yes"}}
    with pytest.raises(SchemaError, match="^reduction flag 'single_successor' must be true or false$"):
        parse_config(json.dumps(raw), rect_parity_doc)


@pytest.mark.parametrize("raw,message", [
    ({"k": 1, "model": MODEL, "blacklst": ["c1"]}, "unknown config keys: ['blacklst']"),
    ({"k": 1, "model": MODEL, "reduction": {"single_exit": True}, "z": 0},
     "unknown config keys: ['reduction', 'z']"),
    ({"k": 1, "model": {**MODEL, "n_e": 5}}, "unknown model keys: ['n_e']"),
    ({"k": 1, "model": MODEL, "reductions": {"single_exit": False, "single_exti": False}},
     "unknown reduction flags: ['single_exti']"),
], ids=["top", "top-two", "model", "reductions"])
def test_config_unknown_keys(rect_parity_doc, raw, message):
    # A misspelled key must not silently leave its default in force.
    with pytest.raises(SchemaError) as info:
        parse_config(json.dumps(raw), rect_parity_doc)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("[]", "config must be a JSON object"),
    ('{"k": 1, "model": []}', "model must be an object"),
    ('{"k": 1, "model": {"ne": 1}}', "model missing key 'nc'"),
], ids=["not-object", "model-not-object", "model-missing-key"])
def test_config_shape_errors(rect_parity_doc, text, message):
    with pytest.raises(SchemaError) as exc:
        parse_config(text, rect_parity_doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("config_fields,fields,error", [
    ({"k": 0}, {"unroll_k": 0}, InvalidK),
    ({"k": True}, {"unroll_k": True}, InvalidK),
    ({"k": 1.5}, {"unroll_k": 1.5}, InvalidK),
    ({"reductions": [True]}, {"reductions": {"fault_type": True}}, SchemaError),
    ({"solver": []}, {"solver": ()}, SchemaError),
    ({"solver": [""]}, {"solver": ("",)}, SchemaError),
    ({"solver": ["minisat", 3]}, {"solver": ("minisat", 3)}, SchemaError),
    ({"solver": "minisat"}, {"solver": "builtin"}, SchemaError),
], ids=["k-zero", "k-bool", "k-float", "reductions", "solver-empty", "solver-blank-word",
        "solver-non-string", "solver-bare-string"])
def test_built_config_checked_like_its_json(rect_parity_doc, config_fields, fields, error):
    # The same defect raises the same error whether the config was built in
    # code or parsed from JSON.
    with pytest.raises(error) as parsed:
        parse_config(json.dumps({"k": 1, "model": MODEL, **config_fields}), rect_parity_doc)
    model = parse_config(json.dumps({"k": 1, "model": MODEL}), rect_parity_doc).model
    with pytest.raises(error) as built:
        VerificationConfig(**{"unroll_k": 1, "model": model, "blacklist": frozenset(),
                              "reductions": ReductionFlags(), "solver": ("builtin",),
                              **fields})
    assert str(built.value) == str(parsed.value)


def test_config_external_solver(rect_parity_doc):
    config = parse_config(
        '{"k":1,"model":{"ne":1,"nc":1,"types":["bf"],"location":"c"},'
        '"solver":["minisat","-q"]}', rect_parity_doc)
    assert config.solver == ("minisat", "-q")
