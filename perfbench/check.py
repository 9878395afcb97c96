"""Independent check of one ``faultres verify`` outcome against the verdict
the generator built in, using only the JSON report and the instance's own
description (never faultres code)."""

from __future__ import annotations

EXIT_OF = {"resistant": 0, "not_resistant": 1}


def check_outcome(inst, exit_code, report):
    """Return a list of problems; an empty list means the outcome is right.

    ``report`` is the parsed JSON report, or None when none was written.
    """

    if exit_code not in EXIT_OF.values():
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no JSON report"]
    problems = []
    verdict = report.get("verdict")
    if verdict != inst.expected:
        problems.append(f"verdict {verdict!r}, expected {inst.expected!r}")
    elif exit_code != EXIT_OF[verdict]:
        problems.append(f"exit code {exit_code} for verdict {verdict!r}")
    cx = report.get("counterexample")
    if verdict == "resistant":
        if cx is not None:
            problems.append("resistant verdict with a counterexample")
    elif verdict == "not_resistant":
        if cx is None:
            problems.append("not_resistant verdict without a counterexample")
        else:
            problems.extend(admissibility_problems(inst, cx))
    return problems


def admissibility_problems(inst, cx):
    """Is the counterexample an attack the *original* model and blacklist
    allow, on the instance's own inputs, outputs and cycles?"""

    problems = []
    model = inst.model
    allowed = {"c": inst.gates, "r": inst.registers,
               "cr": inst.gates | inst.registers}[model["location"]]
    per_cycle = {}
    seen = set()
    events = cx.get("events") or []
    if not events:
        problems.append("counterexample has no fault events")
    for event in events:
        label, kind = event.get("instance", ""), event.get("type")
        name, _, cycle = label.rpartition("@")
        if not cycle.isdigit() or not 1 <= int(cycle) <= inst.k:
            problems.append(f"event {label!r} outside cycles 1..{inst.k}")
            continue
        if label in seen:
            problems.append(f"event {label!r} repeated")
        seen.add(label)
        if name not in allowed:
            problems.append(f"event {label!r} is not a {model['location']!r} location")
        if name in inst.blacklist:
            problems.append(f"event {label!r} hits a blacklisted gate")
        if kind not in model["types"]:
            problems.append(f"event {label!r} has type {kind!r}, not in {model['types']}")
        per_cycle[int(cycle)] = per_cycle.get(int(cycle), 0) + 1
    if per_cycle and max(per_cycle.values()) > model["ne"]:
        problems.append(f"more than ne = {model['ne']} events in one cycle")
    if len(per_cycle) > model["nc"]:
        problems.append(f"events in {len(per_cycle)} cycles, more than nc = {model['nc']}")
    rows = cx.get("inputs") or []
    if len(rows) != inst.k or any(len(r) != len(inst.inputs) or set(r) - {"0", "1"}
                                  for r in rows):
        problems.append(f"input trace is not {inst.k} rows of {len(inst.inputs)} bits")
    if cx.get("divergence_cycle") not in range(1, inst.k + 1):
        problems.append(f"divergence cycle {cx.get('divergence_cycle')!r} outside 1..{inst.k}")
    if cx.get("differing_output") not in inst.data_outputs:
        problems.append(f"differing output {cx.get('differing_output')!r} is not a data output")
    return problems
