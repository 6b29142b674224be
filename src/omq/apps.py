"""Static-analysis applications: connected components of atom sets and
queries, and the distribution-over-components decision.

A query distributes over components when its answer over any database equals
the union of its answers over the database's maximally connected components;
that holds exactly when the query is unsatisfiable or some component of the
query (kept with the full answer tuple) is contained in the whole query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .contain import rewriting_contained, ucq_omq_to_cq_omq
from .errors import EmptyBody, ZeroAryAtom
from .evaluate import prepare
from .model import CQ, OMQ, UCQ, Atom, Database


def components(atoms: Iterable[Atom]) -> list[frozenset[Atom]]:
    """The unique partition of an atom set into maximal connected parts,
    where atoms connect through shared terms, ordered by least atom.
    0-ary atoms are rejected."""
    out = [frozenset(g) for g in _connected_groups(atoms)]
    out.sort(key=lambda g: min(a.sort_key() for a in g))
    return out


def _connected_groups(atoms: Iterable[Atom]) -> list[list[Atom]]:
    """The parts of ``components``, unordered. The union-find runs over
    terms only: each atom joins its args, and the atoms are then grouped by
    the root of their first arg."""
    atoms = list(atoms)
    parent: dict = {}

    def find(x):
        up = parent.setdefault(x, x)
        while up is not x:  # a root is stored as its own parent
            top = parent[x] = parent[up]  # path halving
            x, up = top, parent[top]
        return x

    for a in atoms:
        if not a.args:
            raise ZeroAryAtom(f"component of 0-ary atom {a} is undefined")
        first = find(a.args[0])
        for t in a.args[1:]:
            root = find(t)
            if root is not first:
                parent[root] = first
    groups: dict = {}
    for a in atoms:
        groups.setdefault(find(a.args[0]), []).append(a)
    return list(groups.values())


@dataclass(frozen=True)
class CQComponents:
    """Components of a query body; each safe component keeps the full answer
    tuple. A component missing some answer variable cannot be a query and is
    reported in ``unsafe`` instead."""

    safe: tuple[CQ, ...]
    unsafe: tuple[frozenset[Atom], ...]


def cq_components(q: CQ) -> CQComponents:
    if not q.body:
        raise EmptyBody("the empty-body query has no components")
    safe: list[CQ] = []
    unsafe: list[frozenset[Atom]] = []
    answer_vars = q.answer_variables()
    for comp in components(q.body):
        comp_vars = set()
        for a in comp:
            comp_vars.update(a.variables())
        if answer_vars <= comp_vars:
            safe.append(CQ(q.answers, comp))
        else:
            unsafe.append(comp)
    return CQComponents(tuple(safe), tuple(unsafe))


@dataclass(frozen=True)
class DistributionVerdict:
    distributes: bool
    unsatisfiable: bool = False
    witness: Optional[CQ] = None  # the contained component, when one exists
    unsafe_components: tuple[frozenset[Atom], ...] = ()


def distributes(omq: OMQ, budget: Optional[int] = None) -> DistributionVerdict:
    """Decide distribution over components for a UCQ-rewritable query.

    UCQ queries are first turned into CQ queries via the or-gadget. The
    always-true query never distributes (its answer over the empty database
    is non-empty while the union over no components is empty).
    """
    if isinstance(omq.query, UCQ) and len(omq.query) > 1:
        omq = ucq_omq_to_cq_omq(omq)
    query = omq.query
    if isinstance(query, UCQ):
        query = query.disjuncts[0]
        omq = OMQ(omq.data_schema, omq.tgds, query)
    whole = prepare(omq, budget=budget)
    if not whole.rewriting:
        return DistributionVerdict(True, unsatisfiable=True)
    if query.is_true_query():
        return DistributionVerdict(False)
    parts = cq_components(query)
    for comp in parts.safe:
        # a query is contained in itself: a lone component needs no check;
        # a component shares the rules, so it shares the class report
        part = replace(whole, omq=OMQ(omq.data_schema, omq.tgds, comp))
        if comp == query or rewriting_contained(part.rewriting,
                                                whole).contained:
            return DistributionVerdict(True, witness=comp,
                                       unsafe_components=parts.unsafe)
    return DistributionVerdict(False, unsafe_components=parts.unsafe)


def distribution_definitional_check(
        omq: OMQ, max_constants: int, max_atoms: int,
        budget: Optional[int] = None) -> tuple[bool, Optional[Database]]:
    """Bounded check of the defining equation Q(D) = Q(D_1) u ... u Q(D_n)
    over every database within the enumeration bounds; returns the first
    violating database, if any.

    A connected database is its own only component, so only the empty
    database (whose union is over no components) and disconnected ones are
    evaluated. Each distinct component is evaluated once per call."""
    from .testkit import enumerate_databases

    answers = prepare(omq, budget=budget)
    by_component: dict[frozenset[Atom], frozenset] = {}

    def component_answers(comp: frozenset[Atom]) -> frozenset:
        found = by_component.get(comp)
        if found is None:
            found = by_component[comp] = answers(Database(comp))
        return found

    for db in enumerate_databases(omq.data_schema, max_constants, max_atoms):
        if not db.atoms:
            if answers(db):
                return False, db
            continue
        groups = _connected_groups(db.atoms)
        if len(groups) == 1:
            continue
        union = frozenset().union(
            *(component_answers(frozenset(g)) for g in groups))
        if answers(db) != union:
            return False, db
    return True, None
