"""CQ/UCQ evaluation over finite instances, and OMQ certain answers via
chase (non-recursive sets) or via UCQ rewriting (linear/NR/sticky).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import homs
from .chase import chase_nr
from .classify import ClassReport, classify
from .errors import SchemaMismatch, UnsupportedClass
from .model import (CQ, OMQ, UCQ, Constant, Database, Instance, as_ucq,
                    sorted_atoms)
from .rewrite import _xrewrite

AnswerSet = frozenset  # of tuples of Constant


def _plan(q: CQ) -> homs.Plan:
    """The search plan of ``q``'s body, compiled on first use and cached on
    ``q`` (as ``rewrite.cq_key`` caches its key)."""
    plan = getattr(q, "_plan", None)
    if plan is None:
        plan = homs.Plan(sorted_atoms(q.body))
        object.__setattr__(q, "_plan", plan)
    return plan


def evaluate_cq(q: CQ, instance: Instance | Database,
                index: dict | None = None) -> AnswerSet:
    """All constant tuples h(answers) over homomorphisms h from the body.

    Nulls may serve as images of existential variables, but any answer
    entry mapping to a null disqualifies that homomorphism. The empty-body
    query is always true and yields its (constant) answer tuple.
    """
    if not q.body:
        return frozenset({tuple(q.answers)})
    answers = q.answers
    out = set()
    for h in homs.homomorphisms(_plan(q), instance.atoms, index=index):
        row = [h.get(t, t) for t in answers]
        for c in row:
            if c.__class__ is not Constant:
                break
        else:
            out.add(tuple(row))
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


@dataclass(frozen=True)
class Prepared:
    """An OMQ classified once, its UCQ rewriting computed on first need and
    kept. Called on a database it gives Q(D): by the chase under strategy
    ``chase``, otherwise over the rewriting."""

    omq: OMQ
    report: ClassReport
    strategy: str = "auto"
    budget: Optional[int] = None

    @cached_property
    def rewriting(self) -> tuple[CQ, ...]:
        return _xrewrite(self.omq, budget=self.budget)

    @cached_property
    def _ucq(self) -> Optional[UCQ]:
        return UCQ(self.rewriting) if self.rewriting else None

    def __call__(self, db: Database) -> AnswerSet:
        if self.strategy == "chase":
            result = chase_nr(db, self.omq.tgds)
            return evaluate_ucq(self.omq.query, result.instance, result._index)
        return evaluate_ucq(self._ucq, db) if self._ucq else frozenset()


def prepare(omq: OMQ | Prepared, strategy: str = "auto",
            budget: Optional[int] = None) -> Prepared:
    """The OMQ as a ``Prepared``; one that is already prepared is returned
    unchanged, keeping its own strategy and budget. Use it to evaluate one
    OMQ over many databases, or to share its rewriting between decisions.

    ``strategy`` is ``chase`` (requires a non-recursive rule set),
    ``rewriting`` (requires linear, non-recursive or sticky: the classes
    with UCQ rewritings), or ``auto``, which is rewriting: every
    non-recursive set is also rewritable.
    """
    if isinstance(omq, Prepared):
        return omq
    if strategy not in ("auto", "rewriting", "chase"):
        raise ValueError(f"unknown strategy {strategy!r}")
    report = classify(omq.tgds)
    if strategy == "chase" and not report.non_recursive:
        raise UnsupportedClass("chase strategy needs a non-recursive rule set")
    if not report.ucq_rewritable:
        raise UnsupportedClass(
            "rule set is none of linear/non-recursive/sticky")
    return Prepared(omq, report, strategy, budget)


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
