import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SECTION41, reference_chase
from omq import chase
from omq.chase import (chase_bounded, chase_nr, chase_step, find_triggers,
                       normalize_tgds, satisfies)
from omq.classify import classify
from omq.errors import InactiveTrigger, PreconditionViolated
from omq.evaluate import certain_answers, evaluate_ucq, prepare
from omq.model import (CQ, OMQ, TGD, Atom, Constant, Database, Instance,
                       Null, Predicate, Schema, Variable, atom, tgds_schema)
from omq.parser import parse_program
from omq.testkit import GeneratorConfig, enumerate_databases, random_omq

a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")
S41 = parse_program(SECTION41).tgds


def test_find_triggers_simple():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    (tr,) = find_triggers(Instance({atom("P", a)}), t)
    assert tr.binding.apply_term(x) == a


def test_find_triggers_empty_instance():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    assert find_triggers(Instance(), t) == []


def test_find_triggers_join():
    t = TGD.of([atom("R", x, y), atom("R", y, z)], [atom("Sp", x, z)])
    i = Instance({atom("R", a, b), atom("R", b, c)})
    (tr,) = find_triggers(i, t)
    assert (tr.binding.apply_term(x), tr.binding.apply_term(y),
            tr.binding.apply_term(z)) == (a, b, c)


def test_find_triggers_fact_tgd():
    t = TGD([], [atom("P", z)], [z])
    (tr,) = find_triggers(Instance(), t)
    assert tr.binding.mapping == {}


def test_chase_step_existential():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    i = Instance({atom("P", a)})
    (tr,) = find_triggers(i, t)
    out = chase_step(i, tr)
    assert atom("P", a) in out
    new = [at for at in out if at.predicate.name == "R"]
    assert len(new) == 1 and isinstance(new[0].args[1], Null)


def test_chase_step_full_and_fact():
    full = TGD.of([atom("R", x, y)], [atom("P", y)])
    i = Instance({atom("R", a, b)})
    (tr,) = find_triggers(i, full)
    assert chase_step(i, tr).atoms == {atom("R", a, b), atom("P", b)}

    fact = TGD([], [atom("P", z)], [z])
    (tr,) = find_triggers(Instance(), fact)
    out = chase_step(Instance(), tr)
    (only,) = out.atoms
    assert only.predicate.name == "P" and isinstance(only.args[0], Null)


def test_chase_step_inactive_trigger():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    (tr,) = find_triggers(Instance({atom("P", a)}), t)
    with pytest.raises(InactiveTrigger):
        chase_step(Instance({atom("P", b)}), tr)


def test_chase_nr_simple():
    res = chase_nr(Database({atom("P", a)}),
                   [TGD.of([atom("P", x)], [atom("R", x, y)])])
    assert res.complete
    assert len(res.instance) == 2


def test_chase_nr_fact_only():
    res = chase_nr(Database(), [TGD([], [atom("P", z)], [z])])
    (only,) = res.instance.atoms
    assert only.predicate.name == "P"


def test_chase_nr_two_strata():
    tgds = [TGD.of([atom("A", x)], [atom("B", x)]),
            TGD.of([atom("B", x)], [atom("C", x, y)])]
    res = chase_nr(Database({atom("A", a)}), tgds)
    assert {at.predicate.name for at in res.instance} == {"A", "B", "C"}
    assert res.complete and satisfies(res.instance, tgds)[0]


def test_chase_nr_rejects_recursive():
    with pytest.raises(PreconditionViolated):
        chase_nr(Database({atom("P", a)}), S41)


def test_chase_bounded_worked_example():
    res = chase_bounded(Database({atom("P", a)}), S41, 2)
    assert not res.complete
    by_level = {}
    for at, lvl in res.level_of.items():
        by_level.setdefault(lvl, set()).add(at.predicate.name)
    assert by_level[0] == {"P"}
    assert by_level[1] == {"R"}
    assert by_level[2] == {"P"}
    assert len(res.instance) == 3
    assert max(res.level_of.values()) == 2


def test_chase_bounded_level_zero():
    db = Database({atom("P", a)})
    res = chase_bounded(db, S41, 0)
    assert res.instance.atoms == db.atoms and not res.complete


def test_chase_bounded_reaches_fixpoint():
    tgds = [TGD.of([atom("R", x, y)], [atom("P", x)])]
    res = chase_bounded(Database({atom("R", a, b)}), tgds, 1)
    assert res.complete
    assert res.instance.atoms == {atom("R", a, b), atom("P", a)}


def test_capped_rounds_after_the_first_collect_new_triggers_only(monkeypatch):
    """Under a level cap too, a round after the first collects only the
    triggers whose image holds an atom of the previous round: one each in
    rounds 2 and 3 (the last one capped), where full rounds collect 2 and 3."""
    rounds = []
    triggers = chase._Rule.triggers

    def spy(rule, index, delta=None):
        out = triggers(rule, index, delta)
        rounds.append((delta is None, len(out)))
        return out

    monkeypatch.setattr(chase._Rule, "triggers", spy)
    tgds = [TGD.of([atom("R", x, y)], [atom("R", y, z)])]
    res = chase_bounded(Database({atom("R", a, b)}), tgds, 2)
    assert res.steps == 2 and not res.complete
    # rounds 1-3, then the model check of the result
    assert rounds == [(True, 1), (False, 1), (False, 1), (True, 3)]


def test_satisfies_examples():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    assert satisfies(Instance({atom("P", a), atom("R", a, b)}), [t])[0]
    ok, witness = satisfies(Instance({atom("P", a)}), [t])
    assert not ok and witness.binding.apply_term(x) == a
    assert satisfies(Instance(), [t])[0]


def test_normalize_identity_on_normal_rules():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    assert normalize_tgds([t]) == [t]


def test_normalize_shared_existential():
    t = TGD.of([atom("B", x)], [atom("Sp", x, z), atom("T", z)])
    out = normalize_tgds([t])
    assert len(out) == 3
    assert all(len(u.head) == 1 for u in out)
    assert all(len(u.exist_vars) <= 1 for u in out)
    aux = [p for p in tgds_schema(out) if p.name.startswith("NF")]
    assert len(aux) == 1


def test_normalize_chained_existentials():
    t = TGD([], [atom("R", Variable("z1"), Variable("z2"))],
            [Variable("z1"), Variable("z2")])
    out = normalize_tgds([t])
    assert all(len(u.head) == 1 for u in out)
    assert all(len(u.exist_vars) <= 1 for u in out)
    assert sum(1 for u in out if u.exist_vars) == 2


def test_normalize_repeated_existential_in_one_atom():
    t = TGD.of([atom("B", x)], [atom("R", z, z)])
    out = normalize_tgds([t])
    for u in out:
        if u.exist_vars:
            (zz,) = u.exist_vars
            (head,) = u.head
            assert sum(1 for arg in head.args if arg == zz) == 1


NR_PREDICATES = [Predicate(f"p{i}", 1 + i % 2) for i in range(4)]
NR_VARIABLES = [Variable(n) for n in ("x", "y", "z")]
NR_EXISTENTIALS = [Variable(n) for n in ("e1", "e2")]
NR_CONSTANTS = [Constant(f"c{i}") for i in range(3)]


def atoms_over(preds, terms, min_size, max_size):
    return st.lists(st.sampled_from(preds).flatmap(
        lambda p: st.tuples(*[st.sampled_from(terms)] * p.arity).map(
            lambda args: Atom(p, args))), min_size=min_size, max_size=max_size)


@st.composite
def nr_rules(draw):
    """A non-recursive rule: its body uses only predicates before a split
    of ``NR_PREDICATES`` and its head only those after, with up to three
    head atoms and up to two existential variables, which may repeat."""
    split = draw(st.integers(1, len(NR_PREDICATES) - 1))
    body = draw(atoms_over(NR_PREDICATES[:split], NR_VARIABLES + NR_CONSTANTS[:1], 0, 2))
    body_vars = sorted({t for at in body for t in at.args if isinstance(t, Variable)},
                       key=lambda t: t.name)
    head = draw(atoms_over(NR_PREDICATES[split:],
                           body_vars + NR_EXISTENTIALS + NR_CONSTANTS[:1], 1, 3))
    return TGD.of(body, head)


@st.composite
def nr_omqs_and_databases(draw):
    tgds = draw(st.lists(nr_rules(), min_size=1, max_size=3))
    body = draw(atoms_over(NR_PREDICATES, NR_VARIABLES + NR_CONSTANTS[:1], 1, 2))
    body_vars = sorted({t for at in body for t in at.args if isinstance(t, Variable)},
                       key=lambda t: t.name)
    answers = draw(st.lists(st.sampled_from(body_vars), max_size=2)) if body_vars else []
    omq = OMQ(Schema(NR_PREDICATES), tuple(tgds), CQ(answers, body))
    facts = draw(atoms_over(NR_PREDICATES, NR_CONSTANTS, 0, 6))
    return omq, Database(facts)


@settings(max_examples=200, deadline=None)
@given(nr_omqs_and_databases())
def test_normalization_preserves_chase_answers(omq_and_db):
    """Certain answers by ``chase_nr`` over non-recursive rules with
    several head atoms and existential variables equal those over their
    head normal form, which adds auxiliary predicates."""
    omq, db = omq_and_db
    normal = normalize_tgds(omq.tgds)
    assert (evaluate_ucq(omq.query, chase_nr(db, omq.tgds).instance)
            == evaluate_ucq(omq.query, chase_nr(db, normal).instance))


def test_chase_nr_second_round_at_every_body_position():
    """The first rule's head Y(x) sits in the stratum of F, so the rules
    that read Y share that stratum and find their triggers only in the
    second round: from Y last in a body (after D) and first (before Z)."""
    program = parse_program("""
        schema { A/1, D/1, Z/1 }
        tgds t {
          A(x) -> Y(x), F(x).
          Y(x) -> F(x).
          D(x), Y(x) -> E(x).
          Y(x), Z(x) -> G(x).
        }
        database d { A(a). D(a). Z(a). }
    """)
    db = program.databases["d"]
    got = chase_nr(db, program.tgds)
    assert {"E(a)", "G(a)"} <= {str(f) for f in got.instance.atoms}
    want = reference_chase(db, program.tgds)
    assert (got.instance.atoms, got.steps) == (want.atoms, want.steps)
    assert dict(got.level_of) == want.level_of


@settings(max_examples=200, deadline=None)
@given(nr_omqs_and_databases())
def test_chase_nr_matches_reference_rounds_on_multi_head_rules(omq_and_db):
    """A rule with several head atoms can feed a rule of its own stratum,
    so later semi-naive rounds have new atoms in any body position."""
    omq, db = omq_and_db
    got = chase_nr(db, omq.tgds)
    want = reference_chase(db, omq.tgds)
    assert (got.instance.atoms, got.steps) == (want.atoms, want.steps)
    assert dict(got.level_of) == want.level_of


def test_chase_nr_satisfies_random():
    for seed in range(25):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, target_class="NR")
        omq = random_omq(cfg)
        for db in list(enumerate_databases(omq.data_schema, 2, 2))[:8]:
            res = chase_nr(db, omq.tgds)
            assert satisfies(res.instance, omq.tgds)[0], seed


def _seeded_database(omq, rng, size):
    preds = sorted(omq.data_schema.predicates)
    consts = [Constant(f"c{i}") for i in range(3)]
    return Database(Atom(p, tuple(rng.choice(consts) for _ in range(p.arity)))
                    for p in (rng.choice(preds) for _ in range(size)))


def _crossed_constants(omq, rng):
    """The OMQ with a constant at one position of one binary full rule
    head, and one more query atom that meets that head with the constant
    and the variable crossed: head R(v, c0) gets query atom R(c1, v).
    Resolving the two is only possible when the rule's v is kept apart from
    the query's v. The generator draws rule and query variables from one
    pool, so v often joins the rest of the query too. None when the OMQ
    has no such rule."""
    rules = [t for t in omq.tgds
             if not t.exist_vars and [a.predicate.arity for a in t.head] == [2]]
    if not rules:
        return None
    t, k = rng.choice(rules), rng.randrange(2)
    (head,) = t.head
    v = head.args[k]
    c_rule, c_query = rng.sample([Constant(f"c{i}") for i in range(3)], 2)
    crossed_head = (v, c_rule) if k == 0 else (c_rule, v)
    crossed_atom = (c_query, v) if k == 0 else (v, c_query)
    tgds = [TGD(t.body, [Atom(head.predicate, crossed_head)]) if r is t else r
            for r in omq.tgds]
    query = omq.ucq.disjuncts[0]
    body = query.body | {Atom(head.predicate, crossed_atom)}
    return OMQ(omq.data_schema, tuple(tgds), CQ(query.answers, body))


def test_chase_outputs_are_models_and_agree_with_rewriting():
    """One pass over the strata leaves every tgd satisfied, so chase_nr
    needs no second pass over the whole rule set. Each seed's OMQ is also
    checked with crossed constants, where it has a binary full rule."""
    omqs = []
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=2,
                              max_tgds=4, target_class="NR",
                              fact_tgds=seed % 4 == 0)
        omq = random_omq(cfg)
        crossed = _crossed_constants(omq, random.Random(-seed))
        omqs += [(seed, o) for o in (omq, crossed) if o is not None]
    for seed, omq in omqs:
        by_rewriting = prepare(omq, strategy="rewriting")
        rng = random.Random(seed)
        for size in (0, 2, 4, 7):
            db = _seeded_database(omq, rng, size)
            res = chase_nr(db, omq.tgds)
            assert satisfies(res.instance, omq.tgds)[0], seed
            chased = evaluate_ucq(omq.query, res.instance)
            assert chased == by_rewriting(db), seed
            for level in range(4):
                bounded = chase_bounded(db, omq.tgds, level)
                assert bounded.complete == satisfies(bounded.instance,
                                                     omq.tgds)[0], seed
                if bounded.complete:
                    assert evaluate_ucq(omq.query, bounded.instance) == chased


def test_chase_monotone_in_database():
    for seed in range(10):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, target_class="NR")
        omq = random_omq(cfg)
        dbs = list(enumerate_databases(omq.data_schema, 2, 2))
        for small in dbs[:6]:
            for big in dbs:
                if small.atoms <= big.atoms:
                    assert (certain_answers(omq, small, strategy="chase")
                            <= certain_answers(omq, big, strategy="chase"))


def test_chase_bounded_monotone_in_level():
    db = Database({atom("P", a)})
    prev = set()
    for k in range(4):
        cur = chase_bounded(db, S41, k).instance.atoms
        names = {(at.predicate.name, at.args) for at in cur}
        assert set(prev) <= names
        prev = names


@pytest.mark.parametrize("target", ["NR", "F", "L", "S"])
def test_chase_matches_reference_rounds(target):
    """``chase_nr`` and ``chase_bounded`` (semi-naive rounds) fire exactly
    what the full rounds before compiled rules fired: the same atoms with
    the same null ids, steps, levels and completeness."""
    for seed in range(60):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=2,
                              max_tgds=4, target_class=target,
                              fact_tgds=seed % 5 == 0)
        omq = random_omq(cfg)
        rng = random.Random(f"{target}-{seed}")
        nr = classify(omq.tgds).non_recursive
        for size in (3, 8):
            db = _seeded_database(omq, rng, size)
            for level in ([None] if nr else []) + [1, 2, 3]:
                got = (chase_nr(db, omq.tgds) if level is None
                       else chase_bounded(db, omq.tgds, level))
                want = reference_chase(db, omq.tgds, level)
                assert got.instance.atoms == want.atoms, (target, seed, level)
                assert got.steps == want.steps, (target, seed, level)
                assert dict(got.level_of) == want.level_of, (target, seed, level)
                assert got.complete == want.complete, (target, seed, level)
