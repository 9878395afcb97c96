"""SAT backends: a self-contained CDCL solver and an external-process driver
speaking the DIMACS exit-code convention (10 = SAT, 20 = UNSAT)."""

from __future__ import annotations

import heapq
import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Optional

from .errors import FaultresError
from .formula import CNF, emit_dimacs


class SolverError(FaultresError):
    pass


class BackendSpawnFailure(SolverError):
    pass


class ModelParseError(SolverError):
    pass


class SolverUndecided(SolverError):
    """The solver answered neither SAT nor UNSAT."""

    def __init__(self, reason):
        super().__init__(f"solver could not decide: {reason}")
        self.reason = reason


# CdclSolver.solve's status for "unsatisfiable under the assumptions";
# solve_builtin never returns it.
REFUTED = "refuted"


@dataclass(frozen=True)
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[dict] = None  # var index -> bool, total over 1..num_vars
    reason: str = ""
    # Search counters; set by the built-in solver only.
    decisions: Optional[int] = None
    conflicts: Optional[int] = None
    restarts: Optional[int] = None
    learnt: Optional[int] = None


class CdclSolver:
    """Conflict-driven clause learning with two watched literals, first-UIP
    learning, activity-based decisions and geometric restarts.

    Deterministic: each decision takes the unassigned variable of highest
    activity, the lowest index on ties, and assumes it False, exactly the
    choice of a full scan over the variables.  The scan is replaced by a lazy
    heap of ``(-activity, var)`` entries for the variables of activity above
    0, and an index ``free`` for those of activity 0: every unassigned
    variable of activity 0 has index ``free`` or above.  ``queued[v]`` holds
    the key of v's newest entry while that entry is in the heap, and None
    once it is popped.  An entry goes stale once its variable's activity
    grows; a popped entry is dropped unless it is its variable's newest and
    the variable is unassigned.  Activity grows only for assigned
    variables, so every unassigned variable of activity above 0 holds one
    current entry: unassigning a variable pushes an entry only when its
    newest one is stale or popped, and lowers ``free`` past a variable of
    activity 0.  The heap is rebuilt from the unassigned variables of
    activity above 0, and ``queued`` and ``free`` with it, after an activity
    rescale and whenever it grows past ``2 * num_vars`` entries.

    Literal values sit in one list indexed by literal (``-v`` indexes from
    the end): True, False, or None while unassigned.  Watch lists are
    indexed the same way.

    The solver is incremental.  ``solve(assumptions)`` decides the
    assumption literals first, one per decision level, and answers
    ``REFUTED`` when one of them turns false.  Learnt clauses, activities
    and the level-0 assignments carry over from call to call, and ``add``
    grows the solver by variables and clauses between calls.  A call with
    a single assumption is refuted only once the assumption is false at
    level 0, so its negation stays asserted for every later call.
    Assumption levels are not counted as decisions.  ``decisions``,
    ``conflicts`` (the final one at level 0 included), ``restarts`` and
    ``learnt`` (learnt clauses of two or more literals, the ones stored)
    count search events and add up across calls."""

    def __init__(self, num_vars, clauses):
        """``clauses`` is a list of literal sequences over variables
        1..num_vars; a literal outside that range is not detected."""
        self.num_vars = 0
        self.decisions = self.conflicts = self.restarts = self.learnt = 0
        self.unsat = False
        self.val = [None]           # literal -> True / False / None
        self.watches = [[]]         # literal -> clauses watching it
        self.level = [0]            # var -> decision level
        self.reason = [None]        # var -> implying clause or None
        self.activity = [0.0]
        self.queued = [None]
        self.heap = []
        self.free = 1
        self.act_inc = 1.0
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.units = []
        self.add(num_vars, clauses)

    def add(self, num_vars, clauses):
        """Grow to variables 1..num_vars and take in ``clauses``, between
        calls of ``solve``.  A clause whose first or second literal is false
        at level 0 is read under the level-0 assignments: dropped when one
        of them satisfies it, and otherwise without the literals they
        falsify, which leaves a new unit, a clause to watch, or nothing,
        which makes the clauses unsatisfiable.  A unit clause waits for the
        next ``solve``, which asserts every unit at level 0."""
        # An empty clause settles the answer before any per-variable state.
        if self.unsat or not all(clauses):
            self.unsat = True
            return
        self._backjump(0)
        self._grow(num_vars)
        val, units, watches = self.val, self.units, self.watches
        fixed = bool(self.trail)
        for c in clauses:
            # The solver keeps its own copy of each clause: propagation
            # reorders the literals in place.
            lits = list(c)
            if fixed and len(lits) > 1 and (val[lits[0]] is False or val[lits[1]] is False):
                if True in [val[lit] for lit in lits]:
                    continue
                lits = [lit for lit in lits if val[lit] is None]
                if not lits:
                    self.unsat = True
                    return
            n = len(lits)
            if n == 2:
                a, b = lits
                repeats = a == b or a == -b
            elif n == 3:
                a, b, d = lits
                repeats = a == b or a == -b or a == d or a == -d or b == d or b == -d
            else:
                repeats = len(set(map(abs, lits))) < n
            if repeats:
                # A repeated variable: drop repeated literals, then tautologies.
                lits = list(dict.fromkeys(lits))
                n = len(lits)
                if len(set(map(abs, lits))) < n:
                    continue
            if n == 1:
                units.append(lits[0])
            else:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)

    def _grow(self, num_vars):
        """Make room for variables up to ``num_vars``, unassigned and of
        activity 0; the literal-indexed lists keep ``-v`` at the end."""
        old = self.num_vars
        extra = num_vars - old
        if extra <= 0:
            return
        self.val = self.val[:old + 1] + [None] * (2 * extra) + self.val[old + 1:]
        self.watches = (self.watches[:old + 1] + [[] for _ in range(2 * extra)]
                        + self.watches[old + 1:])
        self.level += [0] * extra
        self.reason += [None] * extra
        self.activity += [0.0] * extra
        self.queued += [None] * extra
        self.num_vars = num_vars

    def _rebuild_heap(self):
        activity, val = self.activity, self.val
        self.queued = queued = [None] * (self.num_vars + 1)
        heap = []
        for v in range(1, self.num_vars + 1):
            if activity[v] and val[v] is None:
                queued[v] = key = -activity[v]
                heap.append((key, v))
        heapq.heapify(heap)
        self.heap = heap
        self.free = 1

    def _enqueue(self, lit, reason):
        self.val[lit] = True
        self.val[-lit] = False
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        val, watches, trail = self.val, self.watches, self.trail
        level, reason = self.level, self.reason
        cur_level = len(self.trail_lim)
        i = self.qhead
        while i < len(trail):
            falsified = -trail[i]
            i += 1
            watchlist = watches[falsified]
            if not watchlist:
                continue
            # Clauses keep their watch-list order, which decides the order of
            # implications and which conflict is found first.
            keep = []
            clauses = iter(watchlist)
            for clause in clauses:
                # Make sure the falsified literal sits at position 1.
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                if val[first] is True:
                    keep.append(clause)
                    continue
                # Look for a new watch, from the third literal on.
                idx, n = 2, len(clause)
                while idx < n:
                    lit = clause[idx]
                    if val[lit] is not False:
                        break
                    idx += 1
                if idx < n:
                    clause[1] = lit
                    clause[idx] = falsified
                    watches[lit].append(clause)
                    continue
                keep.append(clause)
                if val[first] is False:
                    keep.extend(clauses)
                    watches[falsified] = keep
                    self.qhead = len(trail)
                    return clause
                val[first] = True
                val[-first] = False
                v = first if first > 0 else -first
                level[v] = cur_level
                reason[v] = clause
                trail.append(first)
            watches[falsified] = keep
        self.qhead = i
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis.  Reason clauses keep their implied
        literal at position 0, so expansion skips it when resolving.  ``seen``
        holds the true literals on the trail whose negations were resolved."""
        level, reason, trail, activity = self.level, self.reason, self.trail, self.activity
        cur_level = len(self.trail_lim)
        inc = self.act_inc
        learnt = []
        seen = set()
        path = 0
        p = None
        clause = conflict
        idx = len(trail) - 1
        while True:
            for q in (clause if p is None else clause[1:]):
                if -q in seen:
                    continue
                v = q if q > 0 else -q
                lv = level[v]
                if lv > 0:
                    seen.add(-q)
                    activity[v] += inc
                    if lv >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while trail[idx] not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen.discard(p)
            path -= 1
            if path == 0:
                break
            clause = reason[abs(p)]
        learnt = [-p] + learnt
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[abs(q)] for q in learnt[1:])
        # Watch the asserting literal and one literal from the backjump level.
        for i in range(1, len(learnt)):
            if level[abs(learnt[i])] == back:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, back

    def _backjump(self, to_level):
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > to_level:
            val, activity, heap, queued = self.val, self.activity, self.heap, self.queued
            push = heapq.heappush
            free = self.free
            lim = trail_lim[to_level]
            for lit in trail[lim:]:
                val[lit] = val[-lit] = None
                v = lit if lit > 0 else -lit
                key = -activity[v]
                if not key:
                    if v < free:
                        free = v
                elif queued[v] != key:
                    queued[v] = key
                    push(heap, (key, v))
            self.free = free
            del trail[lim:]
            del trail_lim[to_level:]
            if len(heap) > 2 * self.num_vars:
                self._rebuild_heap()
        self.qhead = len(trail)

    def _decide(self):
        heap, queued, val = self.heap, self.queued, self.val
        pop = heapq.heappop
        while heap:
            key, v = pop(heap)
            if key == queued[v]:
                queued[v] = None
                if val[v] is None:
                    return v
        # Every unassigned variable left has activity 0.
        v, n = self.free, self.num_vars
        while v <= n and val[v] is not None:
            v += 1
        self.free = v
        return v if v <= n else 0

    def _result(self, status, model=None):
        return SatResult(status, model=model, decisions=self.decisions,
                         conflicts=self.conflicts, restarts=self.restarts,
                         learnt=self.learnt)

    def solve(self, assumptions=()) -> SatResult:
        """Decide the clauses with every literal of ``assumptions`` held
        true.  ``REFUTED`` means unsatisfiable under the assumptions, and
        perhaps not without them; ``unsat`` means unsatisfiable outright,
        and every later call answers the same.  Each call starts again from
        decision level 0."""
        if self.unsat:
            return self._result("unsat")
        self._backjump(0)
        val = self.val
        for u in self.units:
            if val[u] is False:
                self.unsat = True
                return self._result("unsat")
            if val[u] is None:
                self._enqueue(u, None)
        since_restart = 0
        restart_at = 100
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.unsat = True
                    return self._result("unsat")
                since_restart += 1
                self.act_inc *= 1.05
                if self.act_inc > 1e100:
                    self.activity[:] = [a / 1e100 for a in self.activity]
                    self.act_inc /= 1e100
                    self._rebuild_heap()
                learnt, back = self._analyze(conflict)
                self._backjump(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.learnt += 1
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                if since_restart >= restart_at:
                    restart_at = int(restart_at * 1.5) + 1
                    since_restart = 0
                    self.restarts += 1
                    # This also moves the propagation head past a unit just
                    # learnt at level 0, which then is never propagated.
                    # Fixing that changes the search the pinned tests record.
                    self._backjump(0)
            elif len(self.trail_lim) < len(assumptions):
                # Assumption i is decided at level i + 1; one that already
                # holds gets an empty level, so the numbering stays aligned.
                lit = assumptions[len(self.trail_lim)]
                if val[lit] is False:
                    return self._result(REFUTED)
                self.trail_lim.append(len(self.trail))
                if val[lit] is None:
                    self._enqueue(lit, None)
            else:
                var = self._decide()
                if var == 0:
                    return self._result(
                        "sat", {v: val[v] is True for v in range(1, self.num_vars + 1)})
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(-var, None)


def solve_builtin(cnf) -> SatResult:
    """Solve ``cnf`` one disjunct at a time in one solver: assume each of
    ``cnf.disjuncts`` in turn, and return the first model or the first
    conflict at level 0.  A refuted disjunct leaves its negation asserted at
    level 0 for the calls after it.  The last call, without assumptions,
    decides the clauses as given.  The counters add up across the calls.

    ``cnf`` may also be an iterator over the stages of a CNF that grows,
    such as ``EncodedProblem.stages``: the same CNF object after each part
    is added.  The solver takes in each stage's new variables and clauses
    and assumes its disjuncts not tried yet, so a model found in one stage
    ends the solve before the next is made.  The call without assumptions
    follows the last stage."""
    solver = CdclSolver(0, ())
    read = tried = 0
    for stage in _stages(cnf):
        solver.add(stage.num_vars, stage.clauses[read:] if read else stage.clauses)
        read = len(stage.clauses)
        for d in stage.disjuncts[tried:]:
            result = solver.solve([d])
            if result.status != REFUTED:
                return result
        tried = len(stage.disjuncts)
    return solver.solve()


def _stages(cnf):
    return (cnf,) if isinstance(cnf, CNF) else cnf


def solve_external(cnf: CNF, argv) -> SatResult:
    """Run `argv... <dimacs-path>`; exit 10 means SAT (model on `v` lines),
    20 means UNSAT, anything else is reported as unknown.  A SAT model that
    falsifies a clause raises ModelParseError."""

    text, _ = emit_dimacs(cnf)
    path = None
    try:
        fd, path = tempfile.mkstemp(suffix=".cnf", prefix="faultres_")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        try:
            proc = subprocess.run(list(argv) + [path], capture_output=True, text=True)
        except OSError as e:
            raise BackendSpawnFailure(f"cannot run {argv!r}: {e}") from None
        if proc.returncode == 20:
            return SatResult("unsat")
        if proc.returncode == 10:
            lits = []
            for line in proc.stdout.splitlines():
                if line.startswith("v ") or line == "v":
                    lits.extend(line[1:].split())
            if not lits:
                raise ModelParseError("SAT answer without `v` model lines")
            try:
                values = [int(t) for t in lits]
            except ValueError as e:
                raise ModelParseError(f"bad literal in model: {e}") from None
            model = {v: False for v in range(1, cnf.num_vars + 1)}
            for lit in values:
                if lit == 0:
                    continue
                if abs(lit) > cnf.num_vars:
                    raise ModelParseError(f"model literal {lit} out of range")
                model[abs(lit)] = lit > 0
            for i, clause in enumerate(cnf.clauses):
                if not any(model[abs(lit)] == (lit > 0) for lit in clause):
                    raise ModelParseError(
                        f"model falsifies clause {i}: {' '.join(map(str, clause))} 0")
            return SatResult("sat", model=model)
        return SatResult("unknown",
                         reason=f"solver exited with {proc.returncode}: {proc.stderr.strip()[:200]}")
    finally:
        if path is not None and os.path.exists(path):
            os.unlink(path)


def solve_cnf(cnf, backend=("builtin",)) -> SatResult:
    """Decide ``cnf``, a CNF or the stages of a growing one (see
    ``solve_builtin``).  An external solver gets the last stage, the whole
    CNF, in one run."""
    if tuple(backend) == ("builtin",):
        return solve_builtin(cnf)
    for whole in _stages(cnf):
        pass
    return solve_external(whole, backend)
