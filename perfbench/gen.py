"""Seeded generator for duplicate-and-compare countermeasure circuits.

Every family starts from one random datapath (gates and registers) and
copies it whole: the copy's nets carry a ``b_`` prefix and read the same
primary inputs.  An XOR comparator compares each data output and each
register with its copy, and an OR tree of the comparators drives ``flag``.
Only the original's outputs are data outputs; the copy feeds the comparator
and nothing else.  The comparator, the OR tree and ``flag`` are blacklisted.

Netlists are built as text, one gate at a time, with no recursion, so the
sizes are bounded only by memory.  The verdict of each family follows from
the construction alone; the argument sits next to each family below.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Datapath gate kinds.  XOR is left out: with it, proving a 200-gate
# duplicate-and-compare circuit resistant took the built-in solver 15-50 s
# instead of well under a second.
KINDS = ("and", "or", "nand", "nor")
COPY = "b_"


@dataclass(frozen=True)
class Instance:
    """One generated circuit plus its config and the verdict it must get."""

    name: str
    netlist: str
    config: str
    expected: str  # "resistant" | "not_resistant"
    inputs: tuple
    data_outputs: tuple
    gates: frozenset      # every logic gate name, both copies
    registers: frozenset  # every register name, both copies
    blacklist: frozenset
    model: dict           # the config's {"ne", "nc", "types", "location"}
    k: int


@dataclass(frozen=True)
class Datapath:
    inputs: tuple
    registers: tuple   # of (name, init bit)
    gates: tuple       # of (name, kind, operands), topological order
    outputs: tuple
    next_state: dict   # register -> driving gate


BLOCK_GATES = 25    # gates per block
BLOCK_SOURCES = 6   # inputs and registers a block reads


def random_datapath(rng: random.Random, n_inputs: int, n_gates: int,
                    n_regs: int) -> Datapath:
    """A row of random blocks, shaped like the S-box layer of a cipher round.

    Each block of about ``BLOCK_GATES`` gates computes a random AND/OR-family
    function of ``BLOCK_SOURCES`` nets drawn from the primary inputs and the
    registers.  The block's unread gates are folded into one root, which is
    a data output, so every gate is live.  Registers latch gates of the
    second half, which couples the blocks across cycles.  Independent blocks
    keep the solver's effort per instance from swinging by orders of
    magnitude between seeds, as it does on one tangled random DAG.
    """

    inputs = tuple(f"i{n}" for n in range(n_inputs))
    registers = tuple((f"r{n}", rng.randint(0, 1)) for n in range(n_regs))
    sources = list(inputs) + [r for r, _ in registers]
    source_set = set(sources)
    gates = []
    outputs = []

    def emit(kind, ops):
        name = f"g{len(gates)}"
        gates.append((name, kind, ops))
        return name

    n_blocks = max(1, round(n_gates / BLOCK_GATES))
    for block in range(n_blocks):
        size = n_gates // n_blocks + (block < n_gates % n_blocks)
        pool = rng.sample(sources, min(len(sources), BLOCK_SOURCES))
        unread = list(pool)
        made = 0
        # Folding k unread gates into one root takes k - 1 more gates.
        while made + sum(n not in source_set for n in unread) - 1 < size:
            made += 1
            if unread and rng.random() < 0.6:
                first = unread.pop(rng.randrange(len(unread)))
            else:
                first = rng.choice(pool)
            if rng.random() < 0.1:
                ops = (first,)
            else:
                second = rng.choice(pool)
                while second == first and len(pool) > 1:
                    second = rng.choice(pool)
                ops = (first, second)
            kind = "not" if len(ops) == 1 else rng.choice(KINDS)
            for op in ops:
                if op in unread:
                    unread.remove(op)
            name = emit(kind, ops)
            pool.append(name)
            unread.append(name)
        sinks = [n for n in unread if n not in source_set]
        while len(sinks) > 1:
            sinks.append(emit(rng.choice(KINDS), (sinks.pop(0), sinks.pop(0))))
        outputs.append(sinks[0])

    late = [g for g, _, _ in gates[len(gates) // 2:]]
    next_state = {r: rng.choice(late) for r, _ in registers}
    return Datapath(inputs, registers, tuple(gates), tuple(outputs), next_state)


def duplicate_and_compare(dp: Datapath, name: str):
    """Netlist text of ``dp`` plus its copy and comparator; returns the text
    and the gate names of the comparator and its OR tree."""

    reg_names = {r for r, _ in dp.registers}
    gate_names = {g for g, _, _ in dp.gates}

    def copied(net):
        return COPY + net if net in reg_names or net in gate_names else net

    lines = [f".name {name}", ".inputs " + " ".join(dp.inputs),
             ".outputs " + " ".join(dp.outputs + ("flag",)), ".flag flag"]
    for r, init in dp.registers:
        lines.append(f".reg {r} init={init}")
        lines.append(f".reg {COPY}{r} init={init}")
    for g, kind, ops in dp.gates:
        lines.append(f"gate {g} = {kind}({', '.join(ops)})")
    for g, kind, ops in dp.gates:
        lines.append(f"gate {COPY}{g} = {kind}({', '.join(copied(o) for o in ops)})")

    checker = []
    compared = list(dp.outputs) + [r for r, _ in dp.registers]
    level = []
    for net in compared:
        cmp = f"k_{net}"
        lines.append(f"gate {cmp} = xor({net}, {COPY}{net})")
        checker.append(cmp)
        level.append(cmp)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            tree = "flag" if len(level) == 2 else f"t{len(checker)}"
            lines.append(f"gate {tree} = or({level[i]}, {level[i + 1]})")
            checker.append(tree)
            nxt.append(tree)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    if level[0] != "flag":
        lines.append(f"gate flag = buf({level[0]})")
        checker.append("flag")

    for r, _ in dp.registers:
        lines.append(f"next {r} = {dp.next_state[r]}")
        lines.append(f"next {COPY}{r} = {COPY}{dp.next_state[r]}")
    return "\n".join(lines) + "\n", checker


def _instance(name, dp, k, model, reductions, blacklist_original, expected):
    text, checker = duplicate_and_compare(dp, name)
    original = {g for g, _, _ in dp.gates}
    original_regs = {r for r, _ in dp.registers}
    gates = frozenset(original | {COPY + g for g in original} | set(checker))
    registers = frozenset(original_regs | {COPY + r for r in original_regs})
    blacklist = set(checker)
    if blacklist_original:
        blacklist |= original | original_regs
    config = {"k": k, "model": model, "blacklist": sorted(blacklist),
              "reductions": reductions}
    return Instance(name, text, json.dumps(config, indent=1) + "\n", expected,
                    dp.inputs, dp.outputs, gates, registers, frozenset(blacklist),
                    dict(model), k)


ALL_TYPES = ["s", "r", "bf"]


def unsat_dup_comb(seed: int, index: int = 0, gates: int = 200,
                   inputs: int = 16) -> Instance:
    """Combinational, k = 1, zeta(1, 1, {s,r,bf}, c), default reductions.

    Verdict ``resistant``: the one fault lies either in the original or in the
    copy.  In the copy it cannot touch a data output.  In the original, any
    data output it changes differs from the unfaulted copy's, so that
    output's comparator, and with it ``flag``, fires in the same cycle.
    """

    rng = random.Random(f"unsat-dup-comb/{seed}/{index}")
    dp = random_datapath(rng, inputs, gates, 0)
    model = {"ne": 1, "nc": 1, "types": ALL_TYPES, "location": "c"}
    reductions = {"fault_type": True, "single_successor": True, "single_exit": False}
    return _instance(f"unsat_dup_comb_{seed}_{index}", dp, 1, model, reductions, False,
                     "resistant")


def sat_dup_seq(seed: int, index: int = 0, gates: int = 100, regs: int = 6,
                inputs: int = 8) -> Instance:
    """Sequential, k = 3, zeta(2, 1, {s,r,bf}, cr), default reductions.

    Verdict ``not_resistant``: flip a data-output gate ``o`` and its copy
    ``b_o`` in cycle 1.  Both copies then compute the same faulty function in
    every cycle, so every comparator stays 0, while ``o`` differs from the
    fault-free run in cycle 1.  Neither gate is blacklisted, and neither is
    removed by the single-successor reduction: ``o`` drives an output and
    ``b_o`` feeds a blacklisted comparator.
    """

    rng = random.Random(f"sat-dup-seq/{seed}/{index}")
    dp = random_datapath(rng, inputs, gates, regs)
    model = {"ne": 2, "nc": 1, "types": ALL_TYPES, "location": "cr"}
    reductions = {"fault_type": True, "single_successor": True, "single_exit": False}
    return _instance(f"sat_dup_seq_{seed}_{index}", dp, 3, model, reductions, False,
                     "not_resistant")


def const_dup_redundant(seed: int, index: int = 0, gates: int = 1000, regs: int = 16,
                        inputs: int = 16) -> Instance:
    """Sequential, k = 4, zeta(1, 1, {s,r,bf}, cr), single-exit reduction on,
    the original datapath blacklisted so only the copy can be faulted.

    Verdict ``resistant``: the copy reaches nothing but the comparator, so no
    admissible fault reaches a data output.  In the encoding the faulty and
    the fault-free data outputs are the same formula nodes, and the miter
    folds to constant false.
    """

    rng = random.Random(f"const-dup-redundant/{seed}/{index}")
    dp = random_datapath(rng, inputs, gates, regs)
    model = {"ne": 1, "nc": 1, "types": ALL_TYPES, "location": "cr"}
    reductions = {"fault_type": True, "single_successor": True, "single_exit": True}
    return _instance(f"const_dup_redundant_{seed}_{index}", dp, 4, model, reductions, True,
                     "resistant")

