"""Syntactic class membership for tgd sets: linear, guarded, non-recursive,
sticky, full, plus fact-free and constant-free flags.

Conventions for fact tgds (empty body): they are vacuously guarded and
sticky and never obstruct stratification, but they are *not* linear, since
linearity demands exactly one body atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import TGD, Predicate, Variable, tgds_schema


@dataclass(frozen=True)
class Stratification:
    """Partition of a rule set with a predicate level map.

    ``strata[k]`` holds the indices of the tgds in stratum k+1; ``mu`` maps
    every predicate of sch(Sigma) to its level. For single-head tgds every
    tgd sits in the stratum of its head predicate; a multi-head tgd sits in
    the stratum of its highest head predicate.
    """

    strata: tuple[tuple[int, ...], ...]
    mu: dict[Predicate, int]


@dataclass(frozen=True)
class NotStratifiable:
    """Witness: a directed predicate cycle R1 -> R2 -> ... -> R1."""

    cycle: tuple[Predicate, ...]


def predicate_graph(tgds: Sequence[TGD]) -> dict[Predicate, set[Predicate]]:
    """Edges R -> P whenever R occurs in a body and P in the head of one tgd."""
    graph: dict[Predicate, set[Predicate]] = {p: set() for p in tgds_schema(tgds)}
    for t in tgds:
        body_preds = {a.predicate for a in t.body}
        head_preds = {a.predicate for a in t.head}
        for r in body_preds:
            graph[r].update(head_preds)
    return graph


def find_predicate_cycle(tgds: Sequence[TGD]) -> Optional[tuple[Predicate, ...]]:
    """The first cycle of the predicate graph met by a depth-first search
    that visits predicates and successors in sorted order, or None. The
    search keeps its own stack, so a long chain of rules cannot exhaust the
    interpreter's."""
    graph = predicate_graph(tgds)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in graph}
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        successors = [iter(sorted(graph[root]))]
        while successors:
            for q in successors[-1]:
                if color[q] == GRAY:
                    return tuple(path[path.index(q):]) + (q,)
                if color[q] == WHITE:
                    color[q] = GRAY
                    path.append(q)
                    successors.append(iter(sorted(graph[q])))
                    break
            else:
                color[path.pop()] = BLACK
                successors.pop()
    return None


def stratify(tgds: Sequence[TGD]) -> Stratification | NotStratifiable:
    """Topological layering of the predicate graph.

    mu(R) is the longest body->head path ending at R, so body predicates
    always sit strictly below head predicates of the same tgd.
    """
    tgds = list(tgds)
    cycle = find_predicate_cycle(tgds)
    if cycle is not None:
        return NotStratifiable(cycle)
    if not tgds:
        return Stratification(((),), {})
    graph = predicate_graph(tgds)
    head_preds = {a.predicate for t in tgds for a in t.head}
    preds_into: dict[Predicate, list[Predicate]] = {p: [] for p in graph}
    for r, successors in graph.items():
        for p in successors:
            preds_into[p].append(r)
    # predicates in topological order: each once all its predecessors are in
    waiting = {p: len(rs) for p, rs in preds_into.items()}
    ready = [p for p, k in waiting.items() if k == 0]
    mu: dict[Predicate, int] = {}
    while ready:
        p = ready.pop()
        base = 1 if p in head_preds else 0
        mu[p] = max(base, 1 + max((mu[r] for r in preds_into[p]), default=-1))
        for s in graph[p]:
            waiting[s] -= 1
            if not waiting[s]:
                ready.append(s)
    n = max(max(mu.values(), default=0), 1)
    strata: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tgds):
        k = max(mu[a.predicate] for a in t.head)
        strata[k - 1].append(i)
    return Stratification(tuple(tuple(s) for s in strata), mu)


def is_non_recursive(tgds: Sequence[TGD]) -> bool:
    return find_predicate_cycle(tgds) is None


def is_guarded(tgds: Sequence[TGD]) -> tuple[bool, Optional[TGD]]:
    """Every tgd has a body atom containing all body variables."""
    for t in tgds:
        if not t.body:
            continue  # fact tgds are vacuously guarded
        body_vars = set()
        for a in t.body:
            body_vars.update(a.variables())
        if not any(a.variables() >= body_vars for a in t.body):
            return False, t
    return True, None


def is_linear(tgds: Sequence[TGD]) -> tuple[bool, Optional[TGD]]:
    """Every body consists of exactly one atom; fact tgds do not qualify."""
    for t in tgds:
        if len(t.body) != 1:
            return False, t
    return True, None


def is_full(tgds: Sequence[TGD]) -> tuple[bool, Optional[TGD]]:
    for t in tgds:
        if t.exist_vars:
            return False, t
    return True, None


@dataclass(frozen=True)
class MarkedVariableSet:
    """Least fixpoint of the marking rules, as (tgd index, variable) pairs."""

    marked: frozenset[tuple[int, Variable]]

    def of(self, index: int) -> set[Variable]:
        return {v for i, v in self.marked if i == index}


def marked_variables(tgds: Sequence[TGD]) -> MarkedVariableSet:
    """Run the inductive marking to stability.

    Base: a body variable not occurring in some head atom of its tgd is
    marked. Propagation: if x occurs in head atom alpha and some body atom
    beta over alpha's predicate (in any tgd) has only marked variables at the
    positions where alpha holds x, then x is marked. Marks are keyed by tgd
    index, so tgds that share variable names need no renaming apart.
    """
    marked: set[tuple[int, Variable]] = set()
    # base rule
    for i, t in enumerate(tgds):
        body_vars = {v for a in t.body for v in a.variables()}
        for v in body_vars:
            if any(v not in a.variables() for a in t.head):
                marked.add((i, v))
    # bodies indexed by predicate, for the propagation rule
    bodies: dict = {}
    for j, t in enumerate(tgds):
        for b in t.body:
            bodies.setdefault(b.predicate, []).append((j, b))
    changed = True
    while changed:
        changed = False
        for i, t in enumerate(tgds):
            body_vars = {v for a in t.body for v in a.variables()}
            for v in body_vars:
                if (i, v) in marked:
                    continue
                for alpha in t.head:
                    if v not in alpha.variables():
                        continue
                    positions = [k for k, arg in enumerate(alpha.args) if arg == v]
                    for j, beta in bodies.get(alpha.predicate, ()):
                        if all(not isinstance(beta.args[k], Variable)
                               or (j, beta.args[k]) in marked
                               for k in positions):
                            marked.add((i, v))
                            changed = True
                            break
                    if (i, v) in marked:
                        break
    return MarkedVariableSet(frozenset(marked))


def is_sticky(tgds: Sequence[TGD]) -> tuple[bool, Optional[tuple[TGD, Variable]]]:
    """No marked variable occurs twice in the body of its tgd."""
    tgds = list(tgds)
    marks = marked_variables(tgds)
    for i, t in enumerate(tgds):
        counts: dict[Variable, int] = {}
        for a in t.body:
            for term in a.args:
                if isinstance(term, Variable):
                    counts[term] = counts.get(term, 0) + 1
        for v in marks.of(i):
            if counts.get(v, 0) >= 2:
                return False, (t, v)
    return True, None


@dataclass(frozen=True)
class ClassReport:
    linear: bool
    guarded: bool
    non_recursive: bool
    sticky: bool
    full: bool
    fact_free: bool
    constant_free: bool
    witnesses: dict

    @property
    def ucq_rewritable(self) -> bool:
        """Membership in one of the UCQ-rewritable classes this toolkit handles."""
        return self.linear or self.non_recursive or self.sticky

    def flags(self) -> dict[str, bool]:
        return {
            "linear": self.linear,
            "guarded": self.guarded,
            "nonRecursive": self.non_recursive,
            "sticky": self.sticky,
            "full": self.full,
            "factFree": self.fact_free,
            "constantFree": self.constant_free,
        }


def classify(tgds: Sequence[TGD]) -> ClassReport:
    tgds = list(tgds)
    witnesses: dict = {}
    linear, w = is_linear(tgds)
    if w is not None:
        witnesses["linear"] = str(w)
    guarded, w = is_guarded(tgds)
    if w is not None:
        witnesses["guarded"] = str(w)
    cycle = find_predicate_cycle(tgds)
    non_recursive = cycle is None
    if cycle is not None:
        witnesses["nonRecursive"] = " -> ".join(p.name for p in cycle)
    sticky, w = is_sticky(tgds)
    if w is not None:
        witnesses["sticky"] = f"{w[0]} (marked {w[1]} occurs twice)"
    full, w = is_full(tgds)
    if w is not None:
        witnesses["full"] = str(w)
    fact_free = all(not t.is_fact() for t in tgds)
    if not fact_free:
        witnesses["factFree"] = str(next(t for t in tgds if t.is_fact()))
    constant_free = all(not t.constants() for t in tgds)
    if not constant_free:
        witnesses["constantFree"] = str(next(t for t in tgds if t.constants()))
    assert not linear or guarded, "linear rule sets are guarded by definition"
    return ClassReport(linear, guarded, non_recursive, sticky, full,
                       fact_free, constant_free, witnesses)
