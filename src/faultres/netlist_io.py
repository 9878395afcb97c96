"""Text front end: the line-based netlist grammar and the JSON verification
config.  Nothing else in the package touches raw text.

Grammar (one statement per line, ``#`` starts a comment):

    .name <ident>
    .cycles <n>              # optional default cycle count
    .inputs <ident>+
    .outputs <ident>+
    .flag <ident>            # optional, must be one of the outputs
    .reg <ident> init=<0|1>  # zero or more
    gate <ident> = <kind>(<ident>[, <ident>])
    next <reg-ident> = <ident>

Kinds: and, or, nand, nor, xor, xnor (binary); not, buf (unary);
const0, const1 (nullary).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .circuit_model import (
    ConfigError,
    FaultResistanceModel,
    FaultType,
    NetlistSyntaxError,
    UnknownBlacklistGate,
    check_k,
)


class SchemaError(ConfigError):
    pass


@dataclass(slots=True)
class GateStmt:
    """One ``gate`` statement; equality ignores where it stands."""

    name: str
    kind: str
    operands: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class NetlistDoc:
    name: str
    inputs: list
    outputs: list
    flag_output: Optional[str]
    registers: list  # of (name, init_bit)
    gates: list  # of GateStmt, declaration order
    next_state: dict  # register -> driving net
    default_cycles: Optional[int] = None
    # (statement, net) -> (line, col) in the text: ("decl", net) for inputs
    # and registers and ("output", net), each at its first statement,
    # ("next", reg), ("flag", net).  A gate's location is its GateStmt's.
    source_locs: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class ReductionFlags:
    fault_type: bool = True
    single_exit: bool = True


@dataclass(frozen=True)
class VerificationConfig:
    """What ``verify`` decides, checked here for parsed configs and configs
    built in code alike, with the classes and messages ``parse_config``
    gives for the same JSON: ``unroll_k`` (InvalidK), then ``reductions``
    and ``solver`` (SchemaError)."""

    unroll_k: int
    model: FaultResistanceModel
    blacklist: frozenset
    reductions: ReductionFlags
    solver: tuple  # ("builtin",) or external argv

    def __post_init__(self):
        check_k(self.unroll_k)
        if not isinstance(self.reductions, ReductionFlags):
            raise SchemaError("reductions must be an object")
        solver = self.solver
        if not (isinstance(solver, tuple) and solver
                and all(isinstance(s, str) and s for s in solver)):
            raise SchemaError(
                'solver must be "builtin" or a command argv list of non-empty strings')


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*")
# A well-formed gate line, trailing comment included: leading whitespace,
# name, kind and operand list, the operands comma-separated, each blank or
# one identifier, with whitespace around it.  Each choice the pattern makes
# is forced, so a failed match takes linear time.  Every line is tried
# against it first; a line it rejects goes to the per-statement code, which
# for a gate line says what is wrong with the help of _GATE_RE.
_OPERANDS = rf"\s*(?:{_IDENT.pattern}\s*)?(?:,\s*(?:{_IDENT.pattern}\s*)?)*"
_GATE_LINE = re.compile(rf"(\s*)gate\s+({_IDENT.pattern})\s*=\s*([A-Za-z0-9_]+)"
                        rf"\s*\(({_OPERANDS})\)\s*(?:#.*)?")
_GATE_RE = re.compile(
    r"gate\s+(?P<name>\S+)\s*=\s*(?P<kind>[A-Za-z0-9_]+)\s*\((?P<ops>[^)]*)\)\s*$")
_NEXT_RE = re.compile(r"next\s+(?P<reg>\S+)\s*=\s*(?P<net>\S+)\s*$")
_REG_RE = re.compile(r"\.reg\s+(?P<name>\S+)\s+init=(?P<init>\S+)\s*$")


def _check_ident(tok, line, col):
    if not _IDENT.fullmatch(tok):
        raise NetlistSyntaxError(f"bad identifier {tok!r}", line, col)
    return tok


def parse_netlist(text: str) -> NetlistDoc:
    """Parse netlist text into a NetlistDoc, checking the grammar only:
    statement shapes, identifiers, ``init`` bits, a ``.cycles`` count of
    ASCII digits, at most one ``.name``, ``.cycles``, ``.flag`` and ``next``
    per register.  ``build_and_validate`` checks what the doc means,
    reporting the source locations recorded here.  Statements may appear in
    any order.  ``.cycles`` is kept and written back; ``verify`` takes k from
    the config."""

    name = "circuit"
    cycles = None
    inputs, outputs, registers, gates = [], [], [], []
    flag = None
    next_state = {}
    locs = {}
    single = set()  # heads of the statements that may appear once

    gate_line = _GATE_LINE.fullmatch
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = gate_line(line)
        if m is not None:  # most lines of a large netlist
            lead, gname, kind, ops = m.groups()
            # ops holds identifiers, commas and whitespace only.
            gates.append(GateStmt(gname, kind, tuple(ops.replace(",", " ").split()),
                                  lineno, len(lead) + 1))
            continue
        if "#" in line:
            line = line.split("#", 1)[0]
        words = line.split(None, 1)
        if not words:
            continue
        head = words[0]
        start = line.find(head)
        col = start + 1
        if head == "gate":
            # A malformed gate line: name its first bad identifier when it
            # has the gate shape, else the shape.
            m = _GATE_RE.match(line, start)
            if m:
                for tok in (m["name"], *m["ops"].split(",")):
                    if tok.strip():
                        _check_ident(tok.strip(), lineno, col)
            raise NetlistSyntaxError("gate wants `gate <name> = <kind>(<operands>)`",
                                     lineno, col)
        if head in (".name", ".cycles", ".flag"):
            if head in single:
                raise NetlistSyntaxError(f"duplicate {head} statement", lineno, col)
            single.add(head)

        parts = line.split()
        if head == ".name":
            if len(parts) != 2:
                raise NetlistSyntaxError(".name takes one identifier", lineno, col)
            name = _check_ident(parts[1], lineno, col)
        elif head == ".cycles":
            n = parts[1] if len(parts) == 2 else ""
            if not (n.isascii() and n.isdigit()) or int(n) < 1:
                raise NetlistSyntaxError(".cycles takes one positive integer", lineno, col)
            cycles = int(n)
        elif head == ".inputs":
            for tok in parts[1:]:
                inputs.append(_check_ident(tok, lineno, col))
                locs.setdefault(("decl", tok), (lineno, col))
            if len(parts) == 1:
                raise NetlistSyntaxError(".inputs needs at least one net", lineno, col)
        elif head == ".outputs":
            for tok in parts[1:]:
                outputs.append(_check_ident(tok, lineno, col))
                locs.setdefault(("output", tok), (lineno, col))
            if len(parts) == 1:
                raise NetlistSyntaxError(".outputs needs at least one net", lineno, col)
        elif head == ".flag":
            if len(parts) != 2:
                raise NetlistSyntaxError(".flag takes one identifier", lineno, col)
            flag = _check_ident(parts[1], lineno, col)
            locs[("flag", flag)] = (lineno, col)
        elif head == ".reg":
            m = _REG_RE.match(line, start)
            if not m:
                raise NetlistSyntaxError(".reg wants `.reg <name> init=<0|1>`", lineno, col)
            rname = _check_ident(m.group("name"), lineno, col)
            if m.group("init") not in ("0", "1"):
                raise NetlistSyntaxError("init must be 0 or 1", lineno, col)
            registers.append((rname, int(m.group("init"))))
            locs.setdefault(("decl", rname), (lineno, col))
        elif head == "next":
            m = _NEXT_RE.match(line, start)
            if not m:
                raise NetlistSyntaxError("next wants `next <reg> = <net>`", lineno, col)
            reg = _check_ident(m.group("reg"), lineno, col)
            if reg in next_state:
                raise NetlistSyntaxError(f"duplicate next for register {reg!r}", lineno, col)
            next_state[reg] = _check_ident(m.group("net"), lineno, col)
            locs[("next", reg)] = (lineno, col)
        else:
            raise NetlistSyntaxError(f"unrecognized statement {head!r}", lineno, col)

    return NetlistDoc(name, inputs, outputs, flag, registers, gates, next_state,
                      default_cycles=cycles, source_locs=locs)


def write_netlist(doc: NetlistDoc) -> str:
    """Serialize to canonical text; parse_netlist(write_netlist(d)) == d."""

    lines = [f".name {doc.name}"]
    if doc.default_cycles is not None:
        lines.append(f".cycles {doc.default_cycles}")
    lines.append(".inputs " + " ".join(doc.inputs))
    lines.append(".outputs " + " ".join(doc.outputs))
    if doc.flag_output is not None:
        lines.append(f".flag {doc.flag_output}")
    for r, init in doc.registers:
        lines.append(f".reg {r} init={init}")
    for g in doc.gates:
        lines.append(f"gate {g.name} = {g.kind}({', '.join(g.operands)})")
    for r, net in doc.next_state.items():
        lines.append(f"next {r} = {net}")
    return "\n".join(lines) + "\n"


_TYPE_TOKENS = {t.token: t for t in FaultType}
_CONFIG_KEYS = frozenset({"k", "model", "blacklist", "reductions", "solver"})
_MODEL_KEYS = frozenset({"ne", "nc", "types", "location"})
# "single_successor" is the legacy name of the gate reduction.
_FLAG_KEYS = frozenset(f.name for f in fields(ReductionFlags)) | {"single_successor"}


def _check_keys(obj: dict, known, what):
    unknown = set(obj) - known
    if unknown:
        raise SchemaError(f"unknown {what}: {sorted(unknown)}")


def parse_config(text: str, doc: NetlistDoc) -> VerificationConfig:
    """Parse the JSON verification config against a parsed doc.  Checked
    here: the JSON's shape, unknown keys at every level included
    (SchemaError), ``k`` (InvalidK) and the blacklist against the doc
    (UnknownBlacklistGate).  Type tokens map to FaultType, an unknown token
    passing through as it is, and the model's own constructor checks ``ne``,
    ``nc``, the types and the location (InvalidModel); an ``nc`` above ``k``
    is then capped at ``k``.  The VerificationConfig constructor checks the
    ``reductions`` value and the solver.  The legacy flag
    ``single_successor`` names the single-exit reduction: it runs when
    either flag is true, and ``single_exit`` defaults to true."""

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise SchemaError("config must be a JSON object")
    _check_keys(raw, _CONFIG_KEYS, "config keys")

    try:
        k = raw["k"]
        model_raw = raw["model"]
    except KeyError as e:
        raise SchemaError(f"config missing key {e.args[0]!r}") from None
    check_k(k)
    if not isinstance(model_raw, dict):
        raise SchemaError("model must be an object")
    _check_keys(model_raw, _MODEL_KEYS, "model keys")

    try:
        ne, nc = model_raw["ne"], model_raw["nc"]
        types, location = model_raw["types"], model_raw["location"]
    except KeyError as e:
        raise SchemaError(f"model missing key {e.args[0]!r}") from None
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise SchemaError("types must be a list of strings")
    model = FaultResistanceModel(ne, nc, frozenset(_TYPE_TOKENS.get(t, t) for t in types),
                                 location)
    # Only k cycles exist, so a larger nc budget changes nothing: cap it.
    model = replace(model, n_c=min(nc, k))

    blacklist = raw.get("blacklist", [])
    if not isinstance(blacklist, list) or not all(isinstance(b, str) for b in blacklist):
        raise SchemaError("blacklist must be a list of gate names")
    known = {r for r, _ in doc.registers} | {g.name for g in doc.gates}
    for b in blacklist:
        if b not in known:
            raise UnknownBlacklistGate(b)

    # A reductions value that is not an object, and any solver value, pass
    # to the VerificationConfig constructor, which checks them.
    reductions = raw.get("reductions", {})
    if isinstance(reductions, dict):
        _check_keys(reductions, _FLAG_KEYS, "reduction flags")
        for name, value in reductions.items():
            if not isinstance(value, bool):
                raise SchemaError(f"reduction flag {name!r} must be true or false")
        legacy = reductions.pop("single_successor", False)
        reductions = ReductionFlags(**reductions)
        if legacy:
            reductions = replace(reductions, single_exit=True)

    solver = raw.get("solver", "builtin")
    if solver == "builtin":
        solver = ("builtin",)
    elif isinstance(solver, list):
        solver = tuple(solver)

    return VerificationConfig(
        unroll_k=k,
        model=model,
        blacklist=frozenset(blacklist),
        reductions=reductions,
        solver=solver,
    )
