"""MGU machinery, the applicability and factorizability side conditions, and
the resolution-based rewriting procedure producing UCQ rewritings.

Rewriting works on rules in head normal form (one head atom, at most one
occurrence of one existential variable); ``xrewrite`` normalizes internally.
A step applies the unifier itself: ``_unify`` returns the raw binding of a
subset of query atoms (with the step-renamed tgd head, for a rewriting
step), the step follows each variable's chain of bindings to its end, and
it rebuilds only the atoms that hold a bound variable; the others are kept,
cached hash included. ``mgu`` wraps the same binding as a ``Substitution``.
A produced conjunctive query is a duplicate when its canonical key
(``cq_key``) was seen before, that is, when it equals an earlier one modulo
a bijective variable renaming; queries are never minimized beyond collapsing
duplicate atoms.

The step budget counts candidate subsets: each subset of a query's atoms
over a tgd's head predicate that the loop tests for a rewriting or a
factorization step counts once, whether a step applies or not, so the
budget bounds the work of the rewriting of each query disjunct.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Callable, Iterable, Optional, Sequence

from .chase import normalize_tgds
from .classify import classify
from .errors import BudgetExhausted, PreconditionViolated
from .model import (CQ, OMQ, TGD, Atom, Predicate, Substitution, Term,
                    Variable, as_ucq, atoms_variables, sorted_atoms)

DEFAULT_BUDGET = 10 ** 6
RENAME_SEP = "#"


def _var_wins(a: str, b: str) -> bool:
    """Orientation for variable-variable unification, by name: original
    query variables beat step-renamed tgd variables, then lexicographic.

    Keeping query-side representatives realizes the execution of the
    algorithm under which every multi-occurring variable of a rewriting
    disjunct stems from the original query (the sticky join property).
    """
    return (RENAME_SEP in a, a) <= (RENAME_SEP in b, b)


def _end(bind: dict[str, Term], t: Term) -> Term:
    """The end of ``t``'s chain of bindings."""
    while t.__class__ is Variable:
        u = bind.get(t.name)
        if u is None:
            break
        t = u
    return t


def _unify(atoms: Sequence[Atom]) -> Optional[dict[str, Term]]:
    """The binding of the most general unifier of atoms over one predicate,
    unresolved (a variable may be bound to a bound variable), or None.

    Only variables are bound, and the binding is keyed by variable name:
    a string keeps its hash, while a term tuple hashes its items anew.
    """
    bind: dict[str, Term] = {}
    first = atoms[0].args
    for other in atoms[1:]:
        for s, t in zip(first, other.args):
            s, t = _end(bind, s), _end(bind, t)
            s_var = s.__class__ is Variable
            t_var = t.__class__ is Variable
            if s_var and t_var:
                if s.name != t.name:
                    if _var_wins(s.name, t.name):
                        bind[t.name] = s
                    else:
                        bind[s.name] = t
            elif s_var:
                bind[s.name] = t
            elif t_var:
                bind[t.name] = s
            elif s != t:
                return None  # constant/null clash
    return bind


def mgu(atoms: Iterable[Atom]) -> Optional[Substitution]:
    """Most general unifier for a set of atoms, or None.

    The representative choice is deterministic: constants and nulls always
    survive a variable, and of two variables the winner is picked by
    ``_var_wins``. Any MGU is acceptable (they agree modulo renaming); this
    one keeps snapshot tests stable.
    """
    atoms = list(atoms)
    if len({a.predicate for a in atoms}) != 1:
        return None
    bind = _unify(atoms)
    if bind is None:
        return None
    return Substitution({Variable(n): t for n, t in bind.items()})


def _position_of_existential(t: TGD) -> Optional[tuple[Predicate, int]]:
    """pi_exists of a normal-form tgd: the (predicate, index) holding the
    existential variable, or None for full tgds."""
    if not t.exist_vars:
        return None
    (z,) = t.exist_vars
    (head,) = t.head
    return (head.predicate, head.args.index(z))


def _shared_variables(q: CQ) -> frozenset[Variable]:
    """Free variables plus variables with two or more body occurrences,
    cached on the query."""
    shared = getattr(q, "_shared", None)
    if shared is None:
        counts: dict[Variable, int] = {}
        for a in q.body:
            for t in a.args:
                if isinstance(t, Variable):
                    counts[t] = counts.get(t, 0) + 1
        shared = frozenset([v for v, c in counts.items() if c >= 2]
                           ).union(q.answer_variables())
        object.__setattr__(q, "_shared", shared)
    return shared


def _rename_apart(a: Atom, suffix: str) -> Atom:
    """``a`` with ``suffix`` appended to each variable name."""
    return Atom(a.predicate, tuple(
        Variable(t.name + suffix) if isinstance(t, Variable) else t
        for t in a.args))


def _head_apart(t: TGD) -> Atom:
    """The head of a normal-form tgd renamed apart from queries, cached on
    the tgd: query variables end in no ``#`` or in ``#`` and a step."""
    cached = getattr(t, "_head_apart", None)
    if cached is None:
        (head,) = t.head
        cached = _rename_apart(head, RENAME_SEP)
        object.__setattr__(t, "_head_apart", cached)
    return cached


def is_applicable(t: TGD, S: Iterable[Atom], q: CQ) -> bool:
    """May the atoms of S have been produced by applying ``t`` in a chase?

    (1) S together with the head, renamed apart from q as in
    ``rewrite_step``, unifies, and (2) no constant or shared variable of q
    sits at the existential position of ``t``.
    """
    S = list(S)
    if not S:
        return False
    (head,) = t.head
    if any(a.predicate != head.predicate for a in S):
        return False
    if _unify(S + [_head_apart(t)]) is None:
        return False
    pi = _position_of_existential(t)
    if pi is None:
        return True
    shared = _shared_variables(q)
    for a in S:
        term = a.args[pi[1]]
        if not isinstance(term, Variable) or term in shared:
            return False
    return True


def _confined_variable(a: Atom, k: int) -> Optional[Variable]:
    """The variable at position k of ``a`` if it occurs nowhere else in a."""
    t = a.args[k]
    if not isinstance(t, Variable):
        return None
    if any(j != k and a.args[j] == t for j in range(len(a.args))):
        return None
    return t


def is_factorizable(S: Iterable[Atom], t: TGD, q: CQ) -> bool:
    """May S be collapsed so that ``t`` becomes applicable later?

    (1) S unifies, (2) ``t`` has an existential position, and (3) some
    variable outside the rest of the body occurs in every atom of S exactly
    at that position and nowhere else in S.
    """
    S = list(S)
    if len(S) < 2:
        return False
    pi = _position_of_existential(t)
    if pi is None:
        return False
    if any(a.predicate != pi[0] for a in S):
        return False
    if _unify(S) is None:
        return False
    outside = atoms_variables(q.body - frozenset(S))
    candidates: Optional[set[Variable]] = None
    for a in S:
        v = _confined_variable(a, pi[1])
        here = {v} if v is not None and v not in outside else set()
        candidates = here if candidates is None else candidates & here
        if not candidates:
            return False
    return True


def _resolve(bind: dict[str, Term]) -> dict[str, Term]:
    """The most general unifier of a ``_unify`` binding: each bound
    variable's name mapped to the end of its chain. ``_unify`` binds only
    variables that are unbound, to a different term, so chains end."""
    return {n: _end(bind, t) for n, t in bind.items()}


def _apply_terms(sub: dict[str, Term], terms: tuple[Term, ...]) -> tuple[Term, ...]:
    return tuple([sub.get(t.name, t) if t.__class__ is Variable else t
                  for t in terms])


def _apply(sub: dict[str, Term], atoms: Iterable[Atom]) -> frozenset[Atom]:
    """``sub`` applied to atoms; an atom without a bound variable is kept
    as it is, with its cached hash."""
    out = []
    for a in atoms:
        args = _apply_terms(sub, a.args)
        out.append(a if args == a.args else Atom(a.predicate, args))
    return frozenset(out)


def rewrite_step(q: CQ, S: Iterable[Atom], t: TGD, step_index: int) -> CQ:
    """Resolve S in q using the step-renamed tgd; answers follow the MGU."""
    S = frozenset(S)
    suffix = f"{RENAME_SEP}{step_index}"
    (head,) = t.head
    bind = None
    if all(a.predicate == head.predicate for a in S):
        bind = _unify([*S, _rename_apart(head, suffix)])
    if bind is None:
        raise ValueError("rewrite_step on a non-applicable pair")
    sub = _resolve(bind)
    body = _apply(sub, itertools.chain(
        q.body - S, (_rename_apart(a, suffix) for a in t.body)))
    return CQ(_apply_terms(sub, q.answers), body)


def factorize_step(q: CQ, S: Iterable[Atom]) -> CQ:
    """Apply the MGU of S to the whole query."""
    S = list(S)
    bind = None
    if S and all(a.predicate == S[0].predicate for a in S):
        bind = _unify(S)
    if bind is None:
        raise ValueError("factorize_step on a non-unifiable set")
    sub = _resolve(bind)
    return CQ(_apply_terms(sub, q.answers), _apply(sub, q.body))


# -- canonical keys of CQs --------------------------------------------------


def cq_key(q: CQ) -> str:
    """A canonical key of ``q``, cached on it: two CQs have the same key
    exactly when they are equal modulo a bijective variable renaming
    (constants fixed, answer tuples aligned positionally).

    A variable that occurs once in the body and not among the answers is
    written as a wildcard ``_``: any two such variables are interchangeable.
    The other variables are labelled by individualization and refinement
    (McKay and Piperno, "Practical graph isomorphism, II", 2014). Colour
    refinement starts from each variable's (predicate, position) profile,
    which also records the constants, wildcards and repeated variables of
    each atom, and its answer positions. While a cell of the refined
    partition holds more than one variable, the first smallest such cell is
    split by individualizing each of its variables in turn and refining
    again. Every step depends on the query's structure only, never on
    variable names, so the discrete partitions at the leaves are the same up
    to renaming for isomorphic queries, and the key is the least encoding
    over the leaves.
    """
    key = getattr(q, "_cq_key", None)
    if key is None:
        key = _Labelling(q).key()
        object.__setattr__(q, "_cq_key", key)
    return key


def cq_isomorphic(q1: CQ, q2: CQ) -> bool:
    """Equality modulo a bijective variable renaming (constants fixed,
    answer tuples aligned positionally)."""
    return cq_key(q1) == cq_key(q2)


class _Labelling:
    """The refinement tree of one CQ.

    The labelled variables are numbered 0..n-1 in an arbitrary order. An
    ordered partition of them is ``(cell_of, cells)``: ``cells`` maps the
    position where a cell starts in the order to its members, and
    ``cell_of`` gives each variable the start of its cell, which is its
    label once every cell is a singleton. An atom is written as its
    predicate and arguments, where a labelled variable is its label, a
    wildcard ``_`` and a constant its name; names are written by ``repr``,
    so an encoding can be read back unambiguously.
    """

    def __init__(self, q: CQ):
        # variables by name, as in ``_unify``
        counts: dict[str, int] = {}
        for a in q.body:
            for t in a.args:
                if isinstance(t, Variable):
                    counts[t.name] = counts.get(t.name, 0) + 1
        for t in q.answers:
            if isinstance(t, Variable):
                counts[t.name] = 2  # an answer variable is never a wildcard
        number: dict[str, int] = {}
        for v, c in counts.items():
            if c > 1:
                number[v] = len(number)
        self.n = len(number)
        # per atom: its text up to the arguments, and each argument as the
        # number of a labelled variable or as its text
        self.atoms = [(f"{a.predicate.name!r}/{a.predicate.arity}(",
                       [number.get(t.name, "_") if isinstance(t, Variable)
                        else repr(t.name) for t in a.args]) for a in q.body]
        self.answers = [number[t.name] if isinstance(t, Variable)
                        else repr(t.name) for t in q.answers]

    def encode(self, cell_of: list[int]) -> str:
        labels = [str(c) for c in cell_of]
        atoms = sorted(
            prefix + ",".join([a if a.__class__ is str else labels[a]
                               for a in args]) + ")"
            for prefix, args in self.atoms)
        answers = ",".join([a if a.__class__ is str else labels[a]
                            for a in self.answers])
        return f"({answers})" + "".join(atoms)

    def key(self) -> str:
        """The least leaf encoding."""
        if self.n < 2:
            return self.encode([0] * self.n)
        cell_of, cells = self.colouring()
        if len(cells) < self.n:
            self.refine(cell_of, cells, list(cells))
        if len(cells) < self.n:
            return self.search(cell_of, cells)
        return self.encode(cell_of)

    def colouring(self) -> tuple[list[int], dict[int, set[int]]]:
        """The ordered partition by colour, where a variable's colour lists
        the shape of each atom it occurs in with its position there, and
        ("", p) for each answer position p. A shape writes each labelled
        variable as its first position in the atom. Also sets up what
        ``refine`` counts: (shape, position of the splitter's variable,
        position of the counted variable) triples, packed into one int."""
        n = self.n
        shapes = [prefix + ",".join([a if a.__class__ is str else str(args.index(a))
                                     for a in args]) + ")"
                  for prefix, args in self.atoms]
        profiles: list[list[tuple[str, int]]] = [[] for _ in range(n)]
        for shape, (_, args) in zip(shapes, self.atoms):
            for j, a in enumerate(args):
                if a.__class__ is int:
                    profiles[a].append((shape, j))
        for p, a in enumerate(self.answers):
            if a.__class__ is int:
                profiles[a].append(("", p))
        by_colour: dict[tuple, list[int]] = {}
        for i, profile in enumerate(profiles):
            profile.sort()
            by_colour.setdefault(tuple(profile), []).append(i)
        cell_of = [0] * n
        cells: dict[int, set[int]] = {}
        start = 0
        for colour in sorted(by_colour):
            members = by_colour[colour]
            cells[start] = set(members)
            for i in members:
                cell_of[i] = start
            start += len(members)
        ids = {shape: k for k, shape in enumerate(sorted(set(shapes)))}
        width = max(len(args) for _, args in self.atoms)
        self.occurrences: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.labelled: list[list[tuple[int, int]]] = []
        for k, (shape, (_, args)) in enumerate(zip(shapes, self.atoms)):
            for j, a in enumerate(args):
                if a.__class__ is int:
                    self.occurrences[a].append(
                        ((ids[shape] * width + j) * width, j, k))
            self.labelled.append([(p, a) for p, a in enumerate(args)
                                  if a.__class__ is int])
        return cell_of, cells

    def search(self, cell_of: list[int], cells: dict[int, set[int]]) -> str:
        """The least leaf encoding below an equitable partition, depth
        first. When a leaf encodes like the first leaf, the two labellings
        differ by an automorphism of the query, which maps the subtree where
        the two paths part onto the first path's: the rest of that subtree
        is skipped, and a later child that an automorphism fixing the path
        maps onto a tried child is not tried (McKay and Piperno's pruning by
        automorphisms)."""
        best = first = None
        first_path: list[int] = []
        first_at = [0] * self.n  # the variable with each label in the first leaf
        automorphisms: list[list[int]] = []
        stack = [(cell_of, cells, [], [])]  # partition, path, tried children
        while stack:
            cell_of, cells, path, tried = stack[-1]
            _, target = min((len(m), s) for s, m in cells.items() if len(m) > 1)
            i = self.untried(sorted(cells[target]), tried, path, automorphisms)
            if i is None:
                stack.pop()
                continue
            tried.append(i)
            child_of = cell_of.copy()
            child = {s: set(m) for s, m in cells.items()}
            rest = child[target]
            rest.discard(i)
            child[target] = {i}
            child[target + 1] = rest
            for j in rest:
                child_of[j] = target + 1
            self.refine(child_of, child, [target])
            child_path = path + [i]
            if len(child) < self.n:
                stack.append((child_of, child, child_path, []))
                continue
            encoding = self.encode(child_of)
            if first is None:
                best = first = encoding
                first_path = child_path
                for j, label in enumerate(child_of):
                    first_at[label] = j
            elif encoding == first:
                automorphisms.append([first_at[label] for label in child_of])
                parted = next(d for d, (u, v) in enumerate(zip(child_path, first_path))
                              if u != v)
                del stack[parted + 1:]
            elif encoding < best:
                best = encoding
        return best

    @staticmethod
    def untried(candidates: list[int], tried: list[int], path: list[int],
                 automorphisms: list[list[int]]) -> Optional[int]:
        """The first candidate outside the orbits of the tried ones under
        the automorphisms that fix every variable on the path."""
        fixing = [g for g in automorphisms if all(g[v] == v for v in path)]
        seen = set(tried)
        todo = list(tried)
        while todo:
            v = todo.pop()
            for g in fixing:
                if g[v] not in seen:
                    seen.add(g[v])
                    todo.append(g[v])
        return next((i for i in candidates if i not in seen), None)

    def refine(self, cell_of: list[int], cells: dict[int, set[int]],
               queue: list[int]):
        """Split cells until the partition is equitable: every two members
        of a cell meet every cell in the same ways. Each splitter cell
        touches only the variables next to it, so a split costs the
        neighbourhood of the splitter, not the whole query; a cell that
        splits after it served as a splitter queues every part but its
        largest (Hopcroft)."""
        queued = set(queue)
        occurrences, labelled = self.occurrences, self.labelled
        while queue:
            s = queue.pop()
            queued.discard(s)
            touched: dict[int, list[int]] = {}
            for w in cells[s]:
                for base, j, k in occurrences[w]:
                    for p, i in labelled[k]:
                        if p != j:
                            touched.setdefault(i, []).append(base + p)
            by_cell: dict[int, dict[tuple[int, ...], list[int]]] = {}
            for i, counted in touched.items():
                counted.sort()
                by_cell.setdefault(cell_of[i], {}).setdefault(
                    tuple(counted), []).append(i)
            for c in sorted(by_cell):
                groups = by_cell[c]
                members = cells[c]
                moved = sum(len(g) for g in groups.values())
                if len(groups) == 1 and moved == len(members):
                    continue
                parts = []
                start = c + len(members) - moved
                if start > c:  # the untouched members stay first
                    for g in groups.values():
                        members.difference_update(g)
                    parts.append(c)
                for counted in sorted(groups):
                    g = groups[counted]
                    cells[start] = set(g)
                    for i in g:
                        cell_of[i] = start
                    parts.append(start)
                    start += len(g)
                if c not in queued:
                    largest = max(parts, key=lambda p: len(cells[p]))
                    parts.remove(largest)
                for p in parts:
                    if p not in queued:
                        queued.add(p)
                        queue.append(p)


# -- the rewriting procedure ---------------------------------------------------


class _Dedup:
    """The queries seen so far, by canonical key, with the kinds of step
    that produced them."""

    def __init__(self):
        self.kinds: dict[str, tuple[str, ...]] = {}

    def add(self, q: CQ, kind: str):
        key = cq_key(q)
        seen = self.kinds.get(key, ())
        if kind not in seen:
            self.kinds[key] = seen + (kind,)

    def has(self, q: CQ, kinds: tuple[str, ...]) -> bool:
        return any(kind in kinds for kind in self.kinds.get(cq_key(q), ()))


def _predicate_subsets(pool: list[Atom], smallest: int):
    """Subsets of ``pool`` of at least ``smallest`` atoms, smallest first,
    then lexicographic by atom order."""
    for size in range(smallest, len(pool) + 1):
        yield from itertools.combinations(pool, size)


def _step_subsets(t: TGD, pool: list[Atom]):
    """The subsets of ``pool``, the sorted atoms of a query over the head
    predicate of ``t``, that a step with ``t`` may use, each with its kind
    of step: every subset for a rewriting, then those of two or more atoms
    for a factorization when ``t`` has an existential variable (no
    factorization serves a full tgd)."""
    for S in _predicate_subsets(pool, 1):
        yield "rewrite", S
    if t.exist_vars:
        for S in _predicate_subsets(pool, 2):
            yield "factorize", S


def _xrewrite_cq(q0: CQ, tgds: Sequence[TGD], s_preds: frozenset[Predicate],
                 budget: int, trace: Optional[Callable]) -> list[CQ]:
    """The rewritings of q0 over the data schema: the breadth-first closure
    under steps, where a rewriting is new unless it repeats a rewriting and
    a factorization unless it repeats either. Each candidate subset tested
    counts against the budget.

    A tgd whose head predicate is not in a query offers it no subset, so
    each query visits only the tgds over its predicates, in tgd order."""
    by_head: dict[Predicate, list[int]] = {}
    for i, t in enumerate(tgds):
        (head,) = t.head
        by_head.setdefault(head.predicate, []).append(i)
    entries: list[tuple[CQ, str]] = [(q0, "rewrite")]  # (query, kind of step)
    dedup = _Dedup()
    dedup.add(q0, "rewrite")
    tested = 0
    rename_counter = itertools.count(1)
    for q, _ in entries:  # entries grows while it is walked
        by_predicate: dict[Predicate, list[Atom]] = {}
        for a in sorted_atoms(q.body):
            by_predicate.setdefault(a.predicate, []).append(a)
        for i in sorted(i for p in by_predicate for i in by_head.get(p, ())):
            t = tgds[i]
            (head,) = t.head
            pool = by_predicate[head.predicate]
            for kind, S in _step_subsets(t, pool):
                tested += 1
                if tested > budget:
                    raise BudgetExhausted(
                        f"rewriting tested more than {budget} candidate "
                        "subsets of query atoms",
                        partial=[e for e, k in entries if k == "rewrite"])
                if kind == "rewrite":
                    if not is_applicable(t, S, q):
                        continue
                    produced = rewrite_step(q, S, t, next(rename_counter))
                    repeats = ("rewrite",)
                else:
                    if not is_factorizable(S, t, q):
                        continue
                    produced = factorize_step(q, S)
                    repeats = ("rewrite", "factorize")
                if dedup.has(produced, repeats):
                    continue
                entries.append((produced, kind))
                dedup.add(produced, kind)
                if trace:
                    trace({"kind": kind, "query": str(q),
                           "subset": [str(a) for a in sorted_atoms(S)],
                           "tgd": str(t), "result": str(produced)})
    return [q for q, kind in entries
            if kind == "rewrite" and q.predicates() <= s_preds]


def xrewrite(omq: OMQ, budget: Optional[int] = None,
             trace: Optional[Callable] = None) -> tuple[CQ, ...]:
    """UCQ rewriting of the OMQ over its data schema.

    Returns the disjuncts in discovery order; the tuple is empty when no
    rewriting disjunct survives the data-schema filter (an unsatisfiable
    query). For linear, non-recursive and sticky rule sets the result
    evaluated over any database equals the certain answers; for other rule
    sets it warns that the rewriting may not terminate. The step ``budget``
    bounds the candidate subsets tested per query disjunct (see the module
    docstring) and must be at least 1. Nothing is memoized: a caller that
    needs one rewriting many times prepares the OMQ once (``evaluate.prepare``)
    and reads the ``rewriting`` of the ``Prepared``.
    """
    if not classify(omq.tgds).ucq_rewritable:
        warnings.warn(
            "rule set is none of linear/non-recursive/sticky; "
            "rewriting may not terminate before the step budget",
            stacklevel=2)
    return _xrewrite(omq, budget, trace)


def _xrewrite(omq: OMQ, budget: Optional[int] = None,
              trace: Optional[Callable] = None) -> tuple[CQ, ...]:
    """``xrewrite`` without the class check, for ``evaluate.Prepared``,
    whose ``prepare`` checked the class already."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise PreconditionViolated(
            f"the rewriting step budget must be at least 1, got {budget}")
    tgds = normalize_tgds(omq.tgds)
    s_preds = frozenset(omq.data_schema.predicates)
    out: list[CQ] = []
    seen = _Dedup()
    for disjunct in as_ucq(omq.query).disjuncts:
        for q in _xrewrite_cq(disjunct, tgds, s_preds, budget, trace):
            if q.is_boolean() and q.is_true_query():
                # the always-true disjunct subsumes everything
                return (q,)
            if not seen.has(q, ("rewrite",)):
                seen.add(q, "rewrite")
                out.append(q)
    return tuple(out)
