"""Backtracking homomorphism search from atom sets into instances, over a
positional fact index.

The index maps each predicate to its facts and to one posting list per
argument position: position -> term -> the facts holding that term there.
``add_fact`` extends an index in place, so a caller whose instance grows
(the chase) keeps one index instead of rebuilding it.

At each search node every pending atom is costed by the shortest posting
list over its bound positions (constants, and variables the binding already
fixes); an atom with no bound position costs its whole predicate bucket.
The cheapest atom is matched against that list alone, and an empty list
ends the branch. Results come in no fixed order; the worst case is
inherently exponential.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

from .model import Atom, Term, Variable


def add_fact(index: dict, fact: Atom) -> None:
    """Extend ``index`` in place with a fact it does not hold yet."""
    entry = index.get(fact.predicate)
    if entry is None:
        entry = index[fact.predicate] = ([], [{} for _ in fact.args])
    bucket, postings = entry
    bucket.append(fact)
    for by_term, t in zip(postings, fact.args):
        facts = by_term.get(t)
        if facts is None:
            by_term[t] = [fact]
        else:
            facts.append(fact)


def index_by_predicate(facts: Iterable[Atom]) -> dict:
    """The positional index of a set of facts:
    predicate -> (facts, [position -> term -> facts])."""
    index: dict = {}
    for f in facts:
        add_fact(index, f)
    return index


def _match(pattern: Atom, fact: Atom, binding: dict) -> dict | None:
    """New bindings extending ``binding`` so pattern maps onto fact, or None."""
    new: dict = {}
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Variable):
            bound = new.get(p, binding.get(p))
            if bound is None:
                new[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return new


def _candidates(a: Atom, bind: dict, index: dict):
    """The shortest posting list of ``a`` under ``bind`` (possibly empty)."""
    entry = index.get(a.predicate)
    if entry is None:
        return ()
    best, postings = entry
    for by_term, t in zip(postings, a.args):
        if isinstance(t, Variable):
            t = bind.get(t)
            if t is None:
                continue
        facts = by_term.get(t)
        if facts is None:
            return ()
        if len(facts) < len(best):
            best = facts
    return best


def _search(pending: list[Atom], bind: dict, index: dict) -> Iterator[dict]:
    if not pending:
        yield dict(bind)
        return
    best_i, best = 0, None
    for i, a in enumerate(pending):
        cands = _candidates(a, bind, index)
        if best is None or len(cands) < len(best):
            if not cands:
                return
            best_i, best = i, cands
    atom = pending[best_i]
    rest = pending[:best_i] + pending[best_i + 1:]
    for fact in best:
        ext = _match(atom, fact, bind)
        if ext is None:
            continue
        bind.update(ext)
        yield from _search(rest, bind, index)
        for k in ext:
            del bind[k]


def homomorphisms(
    atoms: Iterable[Atom],
    facts: AbstractSet[Atom] | Iterable[Atom],
    binding: Mapping[Variable, Term] | None = None,
    index: dict | None = None,
) -> Iterator[dict]:
    """Yield every mapping of the pattern variables into the facts.

    ``binding`` pre-binds some variables. Yielded dicts include the
    pre-bound entries. The empty pattern yields exactly the initial binding.
    A given ``index`` stands in for ``facts``.
    """
    pending = list(atoms)
    if index is None:
        index = index_by_predicate(facts)
    yield from _search(pending, dict(binding) if binding else {}, index)


def has_homomorphism(atoms, facts, binding=None, index=None) -> bool:
    for _ in homomorphisms(atoms, facts, binding, index):
        return True
    return False
