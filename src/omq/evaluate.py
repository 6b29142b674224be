"""CQ/UCQ evaluation over finite instances, and OMQ certain answers via
chase (non-recursive sets) or via UCQ rewriting (linear/NR/sticky).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from . import homs
from .chase import chase_nr
from .classify import classify
from .errors import SchemaMismatch, UnsupportedClass
from .model import (CQ, OMQ, UCQ, Constant, Database, Instance, Variable,
                    as_ucq, sorted_atoms)
from .rewrite import _xrewrite, require_rewritable

AnswerSet = frozenset  # of tuples of Constant


def evaluate_cq(q: CQ, instance: Instance | Database,
                index: dict | None = None) -> AnswerSet:
    """All constant tuples h(answers) over homomorphisms h from the body.

    Nulls may serve as images of existential variables, but any answer
    entry mapping to a null disqualifies that homomorphism. The empty-body
    query is always true and yields its (constant) answer tuple.
    """
    if not q.body:
        return frozenset({tuple(q.answers)})
    out = set()
    for h in homs.homomorphisms(sorted_atoms(q.body), instance.atoms, index=index):
        tup = tuple(h[t] if isinstance(t, Variable) else t for t in q.answers)
        if all(isinstance(c, Constant) for c in tup):
            out.add(tup)
    return frozenset(out)


def evaluate_ucq(q: CQ | UCQ, instance: Instance | Database,
                 index: dict | None = None) -> AnswerSet:
    """The answers of the UCQ over the instance or database; a given
    ``index`` (see ``homs.index_by_predicate``) stands in for its facts."""
    ucq = as_ucq(q)
    if index is None:
        index = homs.index_by_predicate(instance.atoms)
    out: set = set()
    for d in ucq.disjuncts:
        if d.is_boolean() and d.is_true_query():
            return frozenset({()})  # a Boolean TRUE disjunct dominates
        out |= evaluate_cq(d, instance, index=index)
    return frozenset(out)


def prepare(omq: OMQ, strategy: str = "auto",
            budget: Optional[int] = None) -> Callable[[Database], AnswerSet]:
    """The function D -> Q(D), with the OMQ classified, and under rewriting
    rewritten, once. Use it to evaluate one OMQ over many databases.

    ``strategy`` is ``chase`` (requires a non-recursive rule set),
    ``rewriting`` (requires linear, non-recursive or sticky), or ``auto``,
    which is rewriting: every non-recursive set is also rewritable.
    """
    if strategy == "chase":
        if not classify(omq.tgds).non_recursive:
            raise UnsupportedClass("chase strategy needs a non-recursive rule set")
        def chase_answers(db: Database) -> AnswerSet:
            result = chase_nr(db, omq.tgds)
            return evaluate_ucq(omq.query, result.instance, result._index)
        return chase_answers
    if strategy in ("auto", "rewriting"):
        require_rewritable(omq)
        return ucq_evaluator(_xrewrite(omq, budget=budget))
    raise ValueError(f"unknown strategy {strategy!r}")


def ucq_evaluator(disjuncts: Sequence[CQ]) -> Callable[[Database], AnswerSet]:
    """D -> the answers of the UCQ over D, as for a rewriting; no
    disjuncts answer nothing."""
    if not disjuncts:
        return lambda db: frozenset()
    ucq = UCQ(disjuncts)
    return lambda db: evaluate_ucq(ucq, db)


def certain_answers(omq: OMQ, db: Database, strategy: str = "auto",
                    budget: Optional[int] = None) -> AnswerSet:
    """Q(D): the certain answers of the OMQ over the database (see
    ``prepare`` for the strategies)."""
    return prepare(omq, strategy, budget)(db)


def eval_membership(omq: OMQ, db: Database, tup: Sequence[Constant],
                    strategy: str = "auto", budget: Optional[int] = None) -> bool:
    """Does the tuple belong to Q(D)?

    Tuples with constants outside adom(D) are admitted and answered under
    chase semantics (a constant mentioned only in the rules can be an
    answer when the rules carry constants).
    """
    tup = tuple(tup)
    if len(tup) != omq.arity:
        raise SchemaMismatch(
            f"tuple arity {len(tup)} differs from query arity {omq.arity}")
    return tup in certain_answers(omq, db, strategy=strategy, budget=budget)
