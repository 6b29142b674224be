"""Containment between UCQ-rewritable queries, the evaluation/containment
reductions, the or-gadget UCQ-to-CQ transformation, unsatisfiability, and a
brute-force enumeration oracle.

``contains`` determinizes the guess-and-check scheme: instead of guessing a
small witness database, it freezes every disjunct of the left rewriting and
checks the frozen tuple against the right query. That is complete because
certain answers are closed under homomorphisms: when containment fails,
some frozen disjunct already fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import (PreconditionViolated, SchemaMismatch, UnsupportedClass)
from .evaluate import Prepared, prepare
from .model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Predicate,
                    Schema, Substitution, Term, Variable, active_domain,
                    as_ucq, freeze_cq, sorted_atoms, tgds_schema)


@dataclass(frozen=True)
class ContainmentVerdict:
    contained: bool
    counterexample: Optional[tuple[Database, tuple[Constant, ...]]] = None
    exact: Optional[bool] = None  # set by the brute-force oracle only


def _check_compatible(q1: OMQ, q2: OMQ):
    if q1.data_schema != q2.data_schema:
        raise SchemaMismatch("the queries must share one data schema")
    if q1.arity != q2.arity:
        raise SchemaMismatch(
            f"answer arities differ: {q1.arity} vs {q2.arity}")


def contains(q1: OMQ | Prepared, q2: OMQ | Prepared,
             budget: Optional[int] = None) -> ContainmentVerdict:
    """Does Q1(D) <= Q2(D) hold on every database over the shared schema?

    Freezes each disjunct of Q1's rewriting and asks whether the frozen
    tuple is certain for Q2 over the frozen database; the first failure is
    returned as a counterexample. Q2 is rewritten only when a disjunct asks.
    """
    left, right = prepare(q1, budget=budget), prepare(q2, budget=budget)
    _check_compatible(left.omq, right.omq)
    return rewriting_contained(left.rewriting, right)


def rewriting_contained(disjuncts: Iterable[CQ],
                        right: Callable[[Database], frozenset]) -> ContainmentVerdict:
    """Containment of a query, given by its rewriting, in a query given by
    its answer function (see ``evaluate.prepare``): the frozen tuple of
    every disjunct must be among the right answers over its frozen body."""
    for disjunct in disjuncts:
        db, tup = freeze_cq(disjunct)
        if tup not in right(db):
            return ContainmentVerdict(False, (db, tup))
    return ContainmentVerdict(True, None)


def equivalent(q1: OMQ | Prepared, q2: OMQ | Prepared,
               budget: Optional[int] = None) -> bool:
    p1, p2 = prepare(q1, budget=budget), prepare(q2, budget=budget)
    return contains(p1, p2).contained and contains(p2, p1).contained


def is_unsatisfiable(omq: OMQ | Prepared, budget: Optional[int] = None) -> bool:
    """No database over the data schema makes the query non-empty:
    equivalently, the rewriting keeps no disjunct over the data schema."""
    return not prepare(omq, budget=budget).rewriting


# -- witness-size bounds ------------------------------------------------------


@dataclass(frozen=True)
class WitnessBound:
    value: int
    formula: str


def witness_bound(q: OMQ | Prepared) -> WitnessBound:
    """Atom-count bound on databases witnessing non-containment with this
    query on the left; the tightest applicable class formula wins."""
    prepared = prepare(q)
    report, omq = prepared.report, prepared.omq
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


# -- reductions between evaluation and containment ---------------------------


def eval_to_containment(omq: OMQ, db: Database,
                        tup: Sequence[Constant]) -> tuple[OMQ, OMQ]:
    """Rephrase "tup in Q(D)?" as a containment: the database, viewed as a
    canonical query with constants turned into variables, must be contained
    in Q."""
    tup = tuple(tup)
    adom = active_domain(db)
    if not set(tup) <= adom:
        raise PreconditionViolated("the candidate tuple must lie in adom(D)")
    var_of = {c: Variable(f"U_{c.name}") for c in sorted(adom)}
    body = [Atom(a.predicate, tuple(var_of[t] for t in a.args)) for a in db]
    canonical = CQ(tuple(var_of[c] for c in tup), body)
    shared = Schema(set(omq.data_schema.predicates) | tgds_schema(omq.tgds))
    return (OMQ(shared, (), canonical), OMQ(shared, omq.tgds, omq.query))


def _fresh_pred_name(taken: set[str], base: str) -> str:
    if base not in taken:
        taken.add(base)
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    taken.add(f"{base}{k}")
    return f"{base}{k}"


def _star_map(preds: Iterable[Predicate], taken: set[str]) -> dict[Predicate, Predicate]:
    out = {}
    for p in sorted(preds):
        out[p] = Predicate(_fresh_pred_name(taken, f"{p.name}_s"), p.arity)
    return out


def _rename_atoms(atoms: Iterable[Atom], m: dict[Predicate, Predicate]):
    return [Atom(m.get(a.predicate, a.predicate), a.args) for a in atoms]


def coeval_to_cocontainment(omq: OMQ, db: Database,
                            tup: Sequence[Constant]) -> tuple[OMQ, OMQ]:
    """Rephrase "tup in Q(D)?" as a NON-containment: the rules are renamed
    into a fresh namespace and the database is baked in as fact tgds, so the
    left query holds somewhere iff the tuple is certain; the right query is
    never satisfiable over the data schema."""
    tup = tuple(tup)
    if len(tup) != omq.arity:
        raise SchemaMismatch("tuple arity differs from the query arity")
    taken = {p.name for p in omq.data_schema.predicates}
    taken |= {p.name for p in tgds_schema(omq.tgds) | omq.ucq.predicates()}
    taken |= {a.predicate.name for a in db}
    star = _star_map(tgds_schema(omq.tgds) | omq.ucq.predicates()
                     | {a.predicate for a in db}, taken)
    starred_tgds = [TGD(_rename_atoms(t.body, star), _rename_atoms(t.head, star),
                        t.exist_vars) for t in omq.tgds]
    fact_tgds = [TGD((), _rename_atoms([a], star), ()) for a in sorted_atoms(db.atoms)]
    disjuncts = []
    for d in as_ucq(omq.query).disjuncts:
        if any(isinstance(v, Constant) and v != c
               for v, c in zip(d.answers, tup)):
            continue  # this disjunct can never yield the tuple
        binding = Substitution({v: c for v, c in zip(d.answers, tup)
                                if isinstance(v, Variable)})
        body = binding.apply_atoms(frozenset(_rename_atoms(d.body, star)))
        disjuncts.append(CQ((), body))
    if not disjuncts:
        never = Predicate(_fresh_pred_name(taken, "p_never"), 1)
        disjuncts = [CQ((), [Atom(never, (Variable("x"),))])]
    query = disjuncts[0] if len(disjuncts) == 1 else UCQ(disjuncts)
    left = OMQ(omq.data_schema, tuple(starred_tgds) + tuple(fact_tgds), query)
    probe = Predicate(_fresh_pred_name(taken, "p_probe"), 1)
    right_q = CQ((), [Atom(probe, (Variable("x"),))])
    right = OMQ(omq.data_schema, (), right_q)
    return left, right


# -- the or-gadget: one CQ equivalent to a UCQ --------------------------------


def ucq_omq_to_cq_omq(omq: OMQ) -> OMQ:
    """Transform an OMQ with a UCQ query into an equivalent OMQ with a CQ
    query over the same data schema, by encoding the disjunction with an
    or-gadget over the truth constants 0 and 1.

    Boolean inputs use the literal gadget, which preserves the rule-set
    class. Non-Boolean inputs additionally saturate false-annotated copies
    of the query predicates over the active domain; that keeps the
    equivalence but gives up linearity/guardedness (callers re-verify via
    ``classify``).
    """
    ucq = as_ucq(omq.query)
    if any(d.is_true_query() for d in ucq.disjuncts):
        if ucq.arity == 0:
            return OMQ(omq.data_schema, omq.tgds, CQ((), ()))
        raise UnsupportedClass(
            "non-Boolean always-true disjuncts have no or-gadget encoding")
    if any(not isinstance(t, Variable) for d in ucq.disjuncts for t in d.answers):
        raise UnsupportedClass(
            "or-gadget needs variable-only answer tuples")

    s_preds = sorted(omq.data_schema.predicates)
    used = tgds_schema(omq.tgds) | ucq.predicates() | set(s_preds)
    taken = {p.name for p in used}

    # stage A: copy data predicates aside so none of them heads a rule
    star = _star_map(used, taken)  # uniform renaming for rules and query
    copy_rules = []
    for p in s_preds:
        vs = _fresh_vars(p.arity)
        copy_rules.append(TGD([Atom(p, vs)], [Atom(star[p], vs)], ()))
    starred_tgds = [TGD(_rename_atoms(t.body, star), _rename_atoms(t.head, star),
                        t.exist_vars) for t in omq.tgds]
    stage_a = copy_rules + starred_tgds
    starred_q = UCQ([CQ(d.answers, _rename_atoms(d.body, star))
                     for d in ucq.disjuncts])

    # stage B: annotate every predicate with a truth position
    gadget_preds = tgds_schema(stage_a) | starred_q.predicates() | set(s_preds)
    primed: dict[Predicate, Predicate] = {}
    for p in sorted(gadget_preds):
        primed[p] = Predicate(_fresh_pred_name(taken, f"{p.name}_t"), p.arity + 1)
    true_p = Predicate(_fresh_pred_name(taken, "p_true"), 1)
    false_p = Predicate(_fresh_pred_name(taken, "p_false"), 1)
    or_p = Predicate(_fresh_pred_name(taken, "p_or"), 3)
    one = Constant("1")

    def annotate(a: Atom, w: Term) -> Atom:
        return Atom(primed[a.predicate], a.args + (w,))

    rules: list[TGD] = []
    # (1) data atoms are true atoms
    for p in s_preds:
        vs = _fresh_vars(p.arity)
        rules.append(TGD([Atom(p, vs)],
                         [annotate(Atom(p, vs), one), Atom(true_p, (one,))], ()))
    # (3) the rule set, truth value threaded through
    w = Variable("W")
    for t in stage_a:
        body = [annotate(a, w) for a in sorted_atoms(t.body)]
        head = [annotate(a, w) for a in sorted_atoms(t.head)]
        if t.is_fact():
            # fact tgds fire unconditionally: their atoms are true atoms
            head = [annotate(a, one) for a in sorted_atoms(t.head)]
            head.append(Atom(true_p, (one,)))
            rules.append(TGD((), head, t.exist_vars))
        else:
            rules.append(TGD(body, head, t.exist_vars))

    # disjuncts renamed apart, answer variables aligned on one tuple
    answers = tuple(Variable(f"A{i + 1}") for i in range(ucq.arity))
    aligned: list[CQ] = []
    for i, d in enumerate(ucq.disjuncts):
        ren = {v: Variable(f"D{i + 1}{v.name}") for v in d.variables()}
        for v, a in zip(d.answers, answers):
            ren[v] = a
        sub = Substitution(ren)
        aligned.append(sub.apply_cq(CQ(d.answers, _rename_atoms(d.body, star))))

    # (2) one rule generating the false copies, the or table, and the anchors
    tvar, fvar = Variable("T0"), Variable("F0")
    head2: list[Atom] = [
        Atom(or_p, (tvar, tvar, tvar)),
        Atom(or_p, (tvar, fvar, tvar)),
        Atom(or_p, (fvar, tvar, tvar)),
        Atom(or_p, (fvar, fvar, fvar)),
        Atom(false_p, (fvar,)),
    ]
    exist2: set[Variable] = {fvar}
    if ucq.arity == 0:
        for d in aligned:
            for a in sorted_atoms(d.body):
                head2.append(annotate(a, fvar))
            exist2 |= d.variables()
    rules.append(TGD([Atom(true_p, (tvar,))], head2, exist2))
    if ucq.arity > 0:
        rules.extend(_saturation_rules(s_preds, aligned, primed, false_p, taken))

    # the single conjunctive query
    xs = [Variable(f"X{i + 1}") for i in range(len(aligned))]
    ys = [Variable(f"Y{i + 1}") for i in range(len(aligned) + 1)]
    body: list[Atom] = [Atom(false_p, (ys[0],))]
    for i, d in enumerate(aligned):
        body.extend(annotate(a, xs[i]) for a in sorted_atoms(d.body))
        body.append(Atom(or_p, (ys[i], xs[i], ys[i + 1])))
    body.append(Atom(true_p, (ys[-1],)))
    query = CQ(answers, body)
    return OMQ(omq.data_schema, tuple(rules), query)


def _fresh_vars(k: int) -> tuple[Variable, ...]:
    return tuple(Variable(f"Z{i + 1}") for i in range(k))


def _saturation_rules(s_preds, aligned: list[CQ], primed, false_p, taken):
    """False-annotated copies of the query predicates over every active
    domain tuple; needed so non-Boolean disjuncts can be 'false' while the
    shared answer tuple is bound to data constants."""
    dom_p = Predicate(_fresh_pred_name(taken, "p_dom"), 1)
    rules: list[TGD] = []
    for p in s_preds:
        vs = _fresh_vars(p.arity)
        for j in range(p.arity):
            rules.append(TGD([Atom(p, vs)], [Atom(dom_p, (vs[j],))], ()))
    f = Variable("F1")
    for p in sorted({a.predicate for d in aligned for a in d.body}):
        vs = _fresh_vars(p.arity)
        body = [Atom(dom_p, (v,)) for v in vs] + [Atom(false_p, (f,))]
        rules.append(TGD(body, [Atom(primed[p], vs + (f,))], ()))
    return rules


# -- brute-force oracle --------------------------------------------------------


def _canonical_database(db: Database) -> Database:
    """Relabel constants by first occurrence along the sorted atom order."""
    relabel: dict[Constant, Constant] = {}
    for a in sorted_atoms(db.atoms):
        for t in a.args:
            if t not in relabel:
                relabel[t] = Constant(f"c{len(relabel) + 1}")
    return Database(Atom(a.predicate, tuple(relabel[t] for t in a.args))
                    for a in db)


def brute_force_contains(q1: OMQ | Prepared, q2: OMQ | Prepared,
                         max_constants: int, max_atoms: int,
                         budget: Optional[int] = None) -> ContainmentVerdict:
    """Independent containment oracle: enumerate every database over
    ``max_constants`` constants with at most ``max_atoms`` atoms and compare
    answer sets directly.

    The verdict is exact when ``max_atoms`` reaches the witness bound of the
    left query (the canonical counterexample then lies within range);
    otherwise it is a bounded verdict (``exact=False``).
    """
    from .testkit import enumerate_databases

    left_answers, right_answers = (prepare(q1, budget=budget),
                                   prepare(q2, budget=budget))
    q1, q2 = left_answers.omq, right_answers.omq
    _check_compatible(q1, q2)
    exact = max_atoms >= witness_bound(left_answers).value
    constant_free = (
        all(not t.constants() for t in itertools.chain(q1.tgds, q2.tgds))
        and all(not d.constants() for d in as_ucq(q1.query).disjuncts)
        and all(not d.constants() for d in as_ucq(q2.query).disjuncts))
    for db in enumerate_databases(q1.data_schema, max_constants, max_atoms):
        if constant_free and db.atoms and _canonical_database(db) != db:
            continue
        left = left_answers(db)
        if not left:
            continue
        missing = left - right_answers(db)
        if missing:
            return ContainmentVerdict(False, (db, min(missing)), exact)
    return ContainmentVerdict(True, None, exact)
