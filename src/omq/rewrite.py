"""MGU machinery, the applicability and factorizability side conditions, the
resolution-based rewriting procedure producing UCQ rewritings, and the
witness-size bound formulas for linear / non-recursive / sticky rule sets.

Rewriting works on rules in head normal form (one head atom, at most one
occurrence of one existential variable); ``xrewrite`` normalizes internally.
Produced conjunctive queries are deduplicated modulo bijective variable
renaming and never minimized beyond collapsing duplicate atoms.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .chase import normalize_tgds
from .classify import ClassReport, classify
from .errors import BudgetExhausted, PreconditionViolated, UnsupportedClass
from .model import (CQ, OMQ, TGD, Atom, Predicate, Substitution, Term,
                    Variable, as_ucq, atoms_variables, sorted_atoms,
                    tgds_schema)

DEFAULT_BUDGET = 10 ** 6
RENAME_SEP = "#"


def _renamed(name: str) -> bool:
    return RENAME_SEP in name


def _var_wins(a: Variable, b: Variable) -> bool:
    """Orientation for variable-variable unification: original query
    variables beat step-renamed tgd variables, then lexicographic.

    Keeping query-side representatives realizes the execution of the
    algorithm under which every multi-occurring variable of a rewriting
    disjunct stems from the original query (the sticky join property).
    """
    return (_renamed(a.name), a.name) <= (_renamed(b.name), b.name)


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
    bind: dict[Variable, Term] = {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Variable) and t in bind:
            t = bind[t]
        return t

    first = atoms[0]
    for other in atoms[1:]:
        for s, t in zip(first.args, other.args):
            s, t = resolve(s), resolve(t)
            if s == t:
                continue
            s_var = isinstance(s, Variable)
            t_var = isinstance(t, Variable)
            if s_var and t_var:
                if _var_wins(s, t):
                    bind[t] = s
                else:
                    bind[s] = t
            elif s_var:
                bind[s] = t
            elif t_var:
                bind[t] = s
            else:
                return None  # constant/null clash
    return Substitution(bind)


def _position_of_existential(t: TGD) -> Optional[tuple[Predicate, int]]:
    """pi_exists of a normal-form tgd: the (predicate, index) holding the
    existential variable, or None for full tgds."""
    if not t.exist_vars:
        return None
    (z,) = t.exist_vars
    (head,) = t.head
    return (head.predicate, head.args.index(z))


def _shared_variables(q: CQ) -> set[Variable]:
    """Free variables plus variables with two or more body occurrences."""
    counts: dict[Variable, int] = {}
    for a in q.body:
        for t in a.args:
            if isinstance(t, Variable):
                counts[t] = counts.get(t, 0) + 1
    shared = {v for v, c in counts.items() if c >= 2}
    shared |= q.answer_variables()
    return shared


def _head_apart(t: TGD) -> Atom:
    """The head of a normal-form tgd renamed apart from queries, cached on
    the tgd: query variables end in no ``#`` or in ``#`` and a step."""
    cached = getattr(t, "_head_apart", None)
    if cached is None:  # TGD.rename would rebuild and re-check the whole tgd
        (head,) = t.head
        cached = Atom(head.predicate, tuple(
            Variable(a.name + RENAME_SEP) if isinstance(a, Variable) else a
            for a in head.args))
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
    if mgu(S + [_head_apart(t)]) is None:
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
    if mgu(S) is None:
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


def rewrite_step(q: CQ, S: Iterable[Atom], t: TGD, step_index: int) -> CQ:
    """Resolve S in q using the step-renamed tgd; answers follow the MGU."""
    S = frozenset(S)
    renamed = t.rename(f"{RENAME_SEP}{step_index}")
    (head,) = renamed.head
    unifier = mgu(list(sorted_atoms(S)) + [head])
    if unifier is None:
        raise ValueError("rewrite_step on a non-applicable pair")
    new_body = unifier.apply_atoms((q.body - S) | renamed.body)
    answers = tuple(unifier.apply_term(t) for t in q.answers)
    return CQ(answers, new_body)


def factorize_step(q: CQ, S: Iterable[Atom]) -> CQ:
    """Apply the MGU of S to the whole query."""
    unifier = mgu(sorted_atoms(S))
    if unifier is None:
        raise ValueError("factorize_step on a non-unifiable set")
    return unifier.apply_cq(q)


# -- isomorphism of CQs ------------------------------------------------------


def _answer_pattern(q: CQ):
    """Constants verbatim; variables by first-occurrence index."""
    seen: dict[Variable, int] = {}
    out = []
    for t in q.answers:
        if isinstance(t, Variable):
            out.append(("v", seen.setdefault(t, len(seen))))
        else:
            out.append(("c", t.name))
    return tuple(out)


def _variable_profiles(q: CQ):
    """Sorted multiset of per-variable occurrence fingerprints; a strong
    isomorphism invariant used to keep dedup buckets small."""
    prof: dict[Variable, list] = {}
    for a in q.body:
        for k, t in enumerate(a.args):
            if isinstance(t, Variable):
                prof.setdefault(t, []).append((a.predicate.name, k))
    answer_pos: dict[Variable, list] = {}
    for i, t in enumerate(q.answers):
        if isinstance(t, Variable):
            answer_pos.setdefault(t, []).append(i)
    return tuple(sorted(
        (tuple(sorted(occ)), tuple(answer_pos.get(v, ())))
        for v, occ in prof.items()))


def cq_signature(q: CQ):
    cached = getattr(q, "_sig", None)
    if cached is None:
        preds = sorted((a.predicate.name, a.predicate.arity) for a in q.body)
        cached = (len(q.body), tuple(preds), len(q.variables()),
                  _answer_pattern(q), _variable_profiles(q))
        object.__setattr__(q, "_sig", cached)
    return cached


def cq_isomorphic(q1: CQ, q2: CQ) -> bool:
    """Equality modulo a bijective variable renaming (constants fixed,
    answer tuples aligned positionally)."""
    if cq_signature(q1) != cq_signature(q2):
        return False
    fwd: dict[Variable, Variable] = {}
    rev: dict[Variable, Variable] = {}

    def bind(a: Term, b: Term) -> Optional[list]:
        if isinstance(a, Variable) != isinstance(b, Variable):
            return None
        if not isinstance(a, Variable):
            return [] if a == b else None
        fa, rb = fwd.get(a), rev.get(b)
        if fa is None and rb is None:
            fwd[a] = b
            rev[b] = a
            return [(a, b)]
        if fa == b and rb == a:
            return []
        return None

    def unbind(added: list):
        for a, b in added:
            del fwd[a]
            del rev[b]

    for t1, t2 in zip(q1.answers, q2.answers):
        if bind(t1, t2) is None:
            return False

    atoms1 = getattr(q1, "_sorted_body", None)
    if atoms1 is None:
        atoms1 = sorted_atoms(q1.body)
        object.__setattr__(q1, "_sorted_body", atoms1)
    atoms2 = list(q2.body)

    def search(i: int, used: set[int]) -> bool:
        if i == len(atoms1):
            return True
        a = atoms1[i]
        for j, b in enumerate(atoms2):
            if j in used or b.predicate != a.predicate:
                continue
            added: list = []
            ok = True
            for s, t in zip(a.args, b.args):
                got = bind(s, t)
                if got is None:
                    ok = False
                    break
                added.extend(got)
            if ok and search(i + 1, used | {j}):
                return True
            unbind(added)
        return False

    return search(0, set())


# -- the rewriting procedure ---------------------------------------------------


class _Dedup:
    """Signature-bucketed lookup of isomorphic (query, label) entries."""

    def __init__(self):
        self.buckets: dict = {}

    def add(self, q: CQ, label: str):
        self.buckets.setdefault(cq_signature(q), []).append((q, label))

    def has(self, q: CQ, labels: tuple[str, ...]) -> bool:
        return any(label in labels and cq_isomorphic(q, e)
                   for e, label in self.buckets.get(cq_signature(q), ()))


def _predicate_subsets(q: CQ, head_pred: Predicate, smallest: int):
    """Nonempty subsets of body atoms over ``head_pred``, smallest first,
    then lexicographic by atom order."""
    pool = [a for a in sorted_atoms(q.body) if a.predicate == head_pred]
    for size in range(smallest, len(pool) + 1):
        yield from itertools.combinations(pool, size)


def _step_subsets(q: CQ, t: TGD):
    """The subsets of q that ``t`` may resolve, then those it may
    factorize, each with its kind of step."""
    (head,) = t.head
    for S in _predicate_subsets(q, head.predicate, 1):
        if is_applicable(t, S, q):
            yield "rewrite", S
    for S in _predicate_subsets(q, head.predicate, 2):
        if is_factorizable(S, t, q):
            yield "factorize", S


def _xrewrite_cq(q0: CQ, tgds: Sequence[TGD], s_preds: frozenset[Predicate],
                 budget: int, trace: Optional[Callable]) -> list[CQ]:
    """The rewritings of q0 over the data schema: the breadth-first closure
    under steps, where a rewriting is new unless it repeats a rewriting and
    a factorization unless it repeats either."""
    entries: list[tuple[CQ, str]] = [(q0, "rewrite")]  # (query, kind of step)
    dedup = _Dedup()
    dedup.add(q0, "rewrite")
    steps = 0
    rename_counter = itertools.count(1)
    for q, _ in entries:  # entries grows while it is walked
        for t in tgds:
            for kind, S in _step_subsets(q, t):
                steps += 1
                if steps > budget:
                    raise BudgetExhausted(
                        f"rewriting exceeded {budget} steps",
                        partial=[e for e, k in entries if k == "rewrite"])
                if kind == "rewrite":
                    produced = rewrite_step(q, S, t, next(rename_counter))
                    repeats = ("rewrite",)
                else:
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


def require_rewritable(omq: OMQ) -> ClassReport:
    """The class report of the OMQ's rule set, which must be linear,
    non-recursive or sticky: the classes with UCQ rewritings, on which
    evaluation, containment, unsatisfiability and distribution are decided.
    Raises ``UnsupportedClass`` otherwise."""
    report = classify(omq.tgds)
    if not report.ucq_rewritable:
        raise UnsupportedClass(
            "rule set is none of linear/non-recursive/sticky")
    return report


def xrewrite(omq: OMQ, budget: Optional[int] = None,
             trace: Optional[Callable] = None) -> tuple[CQ, ...]:
    """UCQ rewriting of the OMQ over its data schema.

    Returns the disjuncts in discovery order; the tuple is empty when no
    rewriting disjunct survives the data-schema filter (an unsatisfiable
    query). For linear, non-recursive and sticky rule sets the result
    evaluated over any database equals the certain answers; for other rule
    sets it warns that the rewriting may not terminate. The step ``budget``
    must be at least 1. Nothing is memoized: a caller that needs one
    rewriting many times keeps it (see ``evaluate.prepare``).
    """
    if not classify(omq.tgds).ucq_rewritable:
        warnings.warn(
            "rule set is none of linear/non-recursive/sticky; "
            "rewriting may not terminate before the step budget",
            stacklevel=2)
    return _xrewrite(omq, budget, trace)


def _xrewrite(omq: OMQ, budget: Optional[int] = None,
              trace: Optional[Callable] = None) -> tuple[CQ, ...]:
    """``xrewrite`` without the class check, for callers that passed
    ``require_rewritable`` already."""
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


# -- witness-size bounds ------------------------------------------------------


@dataclass(frozen=True)
class WitnessBound:
    value: int
    formula: str


def witness_bound(omq: OMQ) -> WitnessBound:
    """Atom-count bound on databases witnessing non-containment with this
    query on the left; the tightest applicable class formula wins."""
    report = require_rewritable(omq)
    ucq = as_ucq(omq.query)
    q_atoms = max(len(d.body) for d in ucq.disjuncts)
    candidates: list[tuple[int, str]] = []
    if report.linear:
        candidates.append((max(1, q_atoms), "linear"))
    if report.non_recursive:
        max_body = max((len(t.body) for t in omq.tgds), default=1)
        sch_size = len(tgds_schema(omq.tgds))
        candidates.append(
            (max(1, q_atoms * max(1, max_body) ** sch_size), "non-recursive"))
    if report.sticky:
        terms: set = set()
        for d in ucq.disjuncts:
            terms |= d.variables()
            terms |= d.constants()
        consts_sigma = set()
        for t in omq.tgds:
            consts_sigma |= t.constants()
        ar = omq.data_schema.max_arity()
        candidates.append(
            (max(1, len(omq.data_schema)
                 * (len(terms) + len(consts_sigma) + 1) ** ar), "sticky"))
    value, formula = min(candidates)
    return WitnessBound(value, formula)
