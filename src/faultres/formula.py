"""Boolean formula DAGs and their lowering to CNF.

The builder hash-conses nodes and folds constants, so structurally equal
sub-terms share one node.  Cardinality constraints ride along the formula as
a side list and are lowered with the sequential-counter encoding; they are
asserted positively at the top level, never negated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FaultresError

VAR, CONST, NOT, AND, OR, XOR, ITE = "var", "const", "not", "and", "or", "xor", "ite"

# Variable roles, in the order they are numbered in the CNF.
ROLE_INPUT = "primary-input"
ROLE_CONTROL = "control"
ROLE_SELECTION = "selection"
ROLE_AUX_D = "aux-d"
ROLE_ORDER = (ROLE_INPUT, ROLE_CONTROL, ROLE_SELECTION, ROLE_AUX_D)


class EncodingError(FaultresError):
    pass


class FormulaBuilder:
    """Hash-consing node store.  Nodes are integers; node 0/1 are reserved for
    the false/true constants."""

    def __init__(self):
        self.kinds = []
        self.args = []
        self.intern = {}
        self.var_names = []
        self.var_roles = {}
        self.false = self._new(CONST, (0,))
        self.true = self._new(CONST, (1,))

    def _new(self, kind, args):
        key = (kind, args)
        nid = self.intern.get(key)
        if nid is None:
            nid = len(self.kinds)
            self.kinds.append(kind)
            self.args.append(args)
            self.intern[key] = nid
        return nid

    def var(self, name, role):
        if role not in ROLE_ORDER:
            raise EncodingError(f"variable {name!r} has unknown role {role!r}")
        nid = self.intern.get((VAR, (name,)))
        if nid is not None:
            if self.var_roles[name] != role:
                raise EncodingError(f"variable {name!r} redeclared with a different role")
            return nid
        nid = self._new(VAR, (name,))
        self.var_names.append(name)
        self.var_roles[name] = role
        return nid

    def const(self, bit):
        return self.true if bit else self.false

    def not_(self, a):
        if a == self.true:
            return self.false
        if a == self.false:
            return self.true
        if self.kinds[a] == NOT:
            return self.args[a][0]
        return self._new(NOT, (a,))

    def _complementary(self, a, b):
        return ((self.kinds[a] == NOT and self.args[a][0] == b)
                or (self.kinds[b] == NOT and self.args[b][0] == a))

    def and_(self, a, b):
        if a == self.false or b == self.false:
            return self.false
        if a == self.true:
            return b
        if b == self.true:
            return a
        if a == b:
            return a
        if self._complementary(a, b):
            return self.false
        if a > b:
            a, b = b, a
        return self._new(AND, (a, b))

    def or_(self, a, b):
        if a == self.true or b == self.true:
            return self.true
        if a == self.false:
            return b
        if b == self.false:
            return a
        if a == b:
            return a
        if self._complementary(a, b):
            return self.true
        if a > b:
            a, b = b, a
        return self._new(OR, (a, b))

    def xor(self, a, b):
        if a == b:
            return self.false
        if a == self.false:
            return b
        if b == self.false:
            return a
        if a == self.true:
            return self.not_(b)
        if b == self.true:
            return self.not_(a)
        if self._complementary(a, b):
            return self.true
        if a > b:
            a, b = b, a
        return self._new(XOR, (a, b))

    def ite(self, c, t, e):
        if c == self.true:
            return t
        if c == self.false:
            return e
        if t == e:
            return t
        if t == self.true and e == self.false:
            return c
        if t == self.false and e == self.true:
            return self.not_(c)
        if t == self.true:
            return self.or_(c, e)
        if t == self.false:
            return self.and_(self.not_(c), e)
        if e == self.true:
            return self.or_(self.not_(c), t)
        if e == self.false:
            return self.and_(c, t)
        # A branch equal to the condition or to its negation: ite(c,c,e) =
        # c|e, ite(c,t,c) = c&t, ite(c,~c,e) = ~c&e and ite(c,t,~c) = ~c|t.
        if t == c:
            return self.or_(c, e)
        if e == c:
            return self.and_(c, t)
        if self._complementary(c, t):
            return self.and_(t, e)
        if self._complementary(c, e):
            return self.or_(e, t)
        return self._new(ITE, (c, t, e))

    def or_many(self, nodes, acc=None):
        """The disjunction of ``acc`` (false by default) and ``nodes``,
        folded left."""
        if acc is None:
            acc = self.false
        for n in nodes:
            acc = self.or_(acc, n)
        return acc


@dataclass(frozen=True, eq=False)
class CardinalityConstraint:
    """sum(vars) <= bound, asserted positively.  With ``groups``, each
    variable is defined too: var_names[i] holds iff some variable of
    groups[i] does."""

    var_names: tuple
    bound: int
    groups: tuple = ()


@dataclass
class BoolFormula:
    builder: FormulaBuilder
    root: int
    cardinality: list = field(default_factory=list)
    # Nodes whose disjunction the root implies, in the order a solver should
    # try them; empty when the formula has no such split.
    disjuncts: tuple = ()
    # False for the formula of a prefix of the cycles, which a formula over
    # more cycles extends: its root is lowered but not asserted, and a
    # solver must try each disjunct in turn.
    complete: bool = True


@dataclass
class CNF:
    num_vars: int
    clauses: list
    var_index: dict        # formula variable name -> CNF index
    roles: dict            # formula variable name -> role
    # Literals of the formula's disjuncts, a search hint for the built-in
    # solver; never written to DIMACS.
    disjuncts: tuple = ()
    # What a later tseitin_cnf call needs to extend this CNF: the literal of
    # each node lowered so far, and per cardinality constraint the number of
    # its variables counted so far and the counter's last register row.
    lits: dict = field(default_factory=dict, repr=False, compare=False)
    counted: dict = field(default_factory=dict, repr=False, compare=False)


def _counter_clauses(x, i, n, k, row, first_aux):
    """The clauses that literal ``x``, the i-th of n, adds to the sequential
    counter (size accumulator) for sum <= k, where 0 < k < n, and its
    register row: k auxiliaries from ``first_aux``, none for the last
    literal.  ``row`` is the register row of literal i - 1.  Register j of
    literal i means that at least j+1 of the literals 0..i hold."""

    if i == n - 1:
        return [[-x, -row[k - 1]]], []
    new = list(range(first_aux, first_aux + k))
    if i == 0:
        return [[-x, new[0]]] + [[-s] for s in new[1:]], new
    clauses = [[-x, new[0]], [-row[0], new[0]]]
    for j in range(1, k):
        clauses.append([-x, -row[j - 1], new[j]])
        clauses.append([-row[j], new[j]])
    clauses.append([-x, -row[k - 1]])
    return clauses, new


def tseitin_cnf(formula: BoolFormula, cnf: CNF = None) -> CNF:
    """Equisatisfiable CNF with deterministic variable numbering: primary
    inputs, controls, selections, d auxiliaries, then Tseitin variables in
    first-use order, then cardinality counters.

    With ``cnf``, made by earlier calls over the same builder, the formula
    extends it in place: the variables and nodes it has not numbered yet
    are numbered after its own, in the same order, and only their clauses
    are appended, then the root clause of a complete formula, then each
    cardinality constraint's clauses for its variables not counted yet.

    ``CNF.disjuncts`` holds the literals of the formula's disjuncts, in
    order, without constant-false or repeated nodes.  It is empty when one
    has no literal because it folded to true or their disjunction did and
    left it out of the formula, and, for a complete formula, when fewer than
    two remain."""

    b = formula.builder
    if cnf is None:
        cnf = CNF(num_vars=0, clauses=[], var_index={}, roles={})
    var_index, roles, lit_of = cnf.var_index, cnf.roles, cnf.lits
    next_var = cnf.num_vars + 1
    new_names = b.var_names[len(var_index):]
    for role in ROLE_ORDER:
        for name in new_names:
            if b.var_roles[name] == role:
                var_index[name] = next_var
                roles[name] = role
                next_var += 1

    clauses = cnf.clauses
    kinds, node_args = b.kinds, b.args
    root = formula.root
    root_const = bool(node_args[root][0]) if kinds[root] == CONST else None

    # Iterative postorder over the nodes reachable from the root that are
    # not lowered yet.  A stack entry ~node (negative) marks a node whose
    # arguments are all done; a node is entered into lit_of when first seen.
    order = []
    stack = [] if root_const is not None else [root]
    push = stack.append
    while stack:
        node = stack.pop()
        if node < 0:
            order.append(~node)
            continue
        if node in lit_of:
            continue
        lit_of[node] = None
        kind = kinds[node]
        if kind == VAR or kind == CONST:
            order.append(node)
            continue
        push(~node)
        for a in reversed(node_args[node]):
            push(a)

    # One pass in postorder, NOT and VAR nodes first.
    add = clauses.append
    for node in order:
        kind, args = kinds[node], node_args[node]
        if kind == NOT:
            lit_of[node] = -lit_of[args[0]]
        elif kind == VAR:
            lit_of[node] = var_index[args[0]]
        elif kind == CONST:
            # Folding keeps constants out of operator arguments.
            raise EncodingError("constant node inside formula body")
        else:
            g = next_var
            next_var += 1
            lit_of[node] = g
            if kind == AND:
                a, c = lit_of[args[0]], lit_of[args[1]]
                add([-g, a])
                add([-g, c])
                add([g, -a, -c])
            elif kind == OR:
                a, c = lit_of[args[0]], lit_of[args[1]]
                add([g, -a])
                add([g, -c])
                add([-g, a, c])
            elif kind == XOR:
                a, c = lit_of[args[0]], lit_of[args[1]]
                add([-g, a, c])
                add([-g, -a, -c])
                add([g, -a, c])
                add([g, a, -c])
            elif kind == ITE:
                s, t, e = lit_of[args[0]], lit_of[args[1]], lit_of[args[2]]
                add([-g, -s, t])
                add([-g, s, e])
                add([g, -s, -t])
                add([g, s, -e])
            else:
                raise EncodingError(f"cannot lower node kind {kind}")

    if formula.complete:
        if root_const is None:
            add([lit_of[root]])
        elif root_const is False:
            add([])

    for card in formula.cardinality:
        next_var = _count(card, cnf, next_var)

    live = [n for n in dict.fromkeys(formula.disjuncts) if n != b.false]
    cnf.disjuncts = ()
    if (len(live) >= 2 or not formula.complete) and all(n in lit_of for n in live):
        cnf.disjuncts = tuple(lit_of[n] for n in live)
    cnf.num_vars = next_var - 1
    return cnf


def _count(card: CardinalityConstraint, cnf: CNF, next_var) -> int:
    """Append the clauses of ``card`` for its variables that ``cnf`` numbers
    and has not counted yet, each with its group's definition first; return
    the next free variable."""

    names, k = card.var_names, card.bound
    n = len(names)
    i, row = cnf.counted.get(card, (0, None))
    var_index, clauses = cnf.var_index, cnf.clauses
    while i < n and names[i] in var_index:
        x = var_index[names[i]]
        if card.groups:
            members = [var_index[m] for m in card.groups[i]]
            clauses.append([-x, *members])
            clauses.extend([x, -m] for m in members)
        if k == 0:
            clauses.append([-x])
        elif k < n:
            extra, row = _counter_clauses(x, i, n, k, row, next_var)
            next_var += len(row)
            clauses.extend(extra)
        i += 1
    cnf.counted[card] = (i, row)
    return next_var


def emit_dimacs(cnf: CNF):
    """DIMACS text plus the role-tagged name->index sidecar.  Byte-identical
    output for equal CNFs."""

    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause + [0]))
    sidecar = {
        "num_vars": cnf.num_vars,
        "num_clauses": len(cnf.clauses),
        "vars": {
            name: {"index": idx, "role": cnf.roles[name]}
            for name, idx in sorted(cnf.var_index.items(), key=lambda kv: kv[1])
        },
    }
    return "\n".join(lines) + "\n", sidecar
