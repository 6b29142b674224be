import json
import random
import sys
import time

import pytest

from helpers import SECTION41, naive_evaluate_cq, path_program
from omq.errors import SchemaMismatch, UnsupportedClass
from omq import apps, cli, contain, evaluate, rewrite
from omq.classify import classify
from omq.evaluate import (certain_answers, eval_membership, evaluate_cq,
                          evaluate_ucq, prepare)
from omq.model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Instance,
                       Null, Predicate, Schema, Variable, atom)
from omq.parser import parse_program
from omq.testkit import GeneratorConfig, enumerate_databases, random_omq

a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y = Variable("x"), Variable("y")
PROG41 = parse_program(SECTION41)
OMQ41 = PROG41.omq("q")


def test_evaluate_cq_nulls_as_existential_images():
    q = CQ((x,), [atom("R", x, y)])
    i = Instance({atom("R", a, b), atom("R", b, Null(1))})
    assert evaluate_cq(q, i) == {(a,), (b,)}


def test_evaluate_cq_null_answers_rejected():
    q = CQ((x,), [atom("P", x)])
    assert evaluate_cq(q, Instance({atom("P", Null(1))})) == frozenset()


def test_evaluate_cq_no_two_cycle():
    q = CQ((), [atom("R", x, y), atom("R", y, x)])
    assert evaluate_cq(q, Instance({atom("R", a, b)})) == frozenset()
    assert evaluate_cq(q, Instance({atom("R", a, b), atom("R", b, a)})) == {()}


def test_evaluate_ucq_union_and_true():
    u = UCQ([CQ((x,), [atom("P", x)]), CQ((x,), [atom("T", x)])])
    i = Instance({atom("P", a), atom("T", b)})
    assert evaluate_ucq(u, i) == {(a,), (b,)}
    single = UCQ([CQ((x,), [atom("P", x)])])
    assert evaluate_ucq(single, i) == evaluate_cq(single.disjuncts[0], i)
    with_true = UCQ([CQ((), [atom("P", x)]), CQ((), ())])
    assert evaluate_ucq(with_true, Instance()) == {()}


def test_certain_answers_worked_example():
    assert certain_answers(OMQ41, Database({atom("P", a)})) == {(a,)}


def test_certain_answers_empty_rules():
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((x,), [atom("P", x)]))
    db = Database({atom("P", a), atom("P", b)})
    assert certain_answers(omq, db) == {(a,), (b,)}


def test_certain_answers_strategies_agree():
    schema = Schema([Predicate("A", 1), Predicate("R", 2)])
    omq = OMQ(schema, (TGD.of([atom("A", x)], [atom("R", x, y)]),),
              CQ((), [atom("R", x, y)]))
    db = Database({atom("A", a)})
    assert certain_answers(omq, db, strategy="chase") == {()}
    assert certain_answers(omq, db, strategy="rewriting") == {()}
    # a query variable named like a rule variable, next to constants
    clash = OMQ(schema, (TGD.of([atom("A", x)], [atom("R", x, b)]),),
                CQ((), [atom("R", a, x)]))
    for strategy in ("chase", "rewriting", "auto"):
        assert certain_answers(clash, db, strategy=strategy) == {()}


def test_certain_answers_unsupported():
    z = Variable("z")
    tgds = (TGD.of([atom("R", x, y), atom("R", y, z)], [atom("R", x, z)]),)
    bad = OMQ(Schema([Predicate("R", 2)]), tgds, CQ((), [atom("R", x, y)]))
    from omq.classify import classify
    assert not classify(bad.tgds).ucq_rewritable
    with pytest.raises(UnsupportedClass):
        certain_answers(bad, Database(), strategy="auto")
    with pytest.raises(UnsupportedClass):
        certain_answers(OMQ41, Database(), strategy="chase")


def test_eval_membership_examples():
    assert eval_membership(OMQ41, Database({atom("T", b)}), (b,))
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((), [atom("P", x)]))
    assert not eval_membership(omq, Database(), ())
    # a constant outside adom(D) under constant-free rules is never certain
    assert not eval_membership(OMQ41, Database({atom("P", a)}), (c,))


def test_eval_membership_rule_constant_outside_adom():
    tgds = (TGD.of([atom("T", x)], [atom("P", a)]),)
    omq = OMQ(Schema([Predicate("P", 1), Predicate("T", 1)]), tgds,
              CQ((x,), [atom("P", x)]))
    assert eval_membership(omq, Database({atom("T", b)}), (a,))


def test_eval_membership_arity_checked():
    with pytest.raises(SchemaMismatch):
        eval_membership(OMQ41, Database(), (a, b))


def test_homomorphism_search_matches_naive_oracle():
    rng = random.Random(11)
    preds = [Predicate("P", 1), Predicate("R", 2)]
    terms = [a, b, Null(1), Null(2)]
    variables = [Variable(n) for n in "xyz"]
    for trial in range(150):
        facts = {Atom(p, tuple(rng.choice(terms) for _ in range(p.arity)))
                 for p in preds for _ in range(rng.randint(0, 3))}
        i = Instance(facts)
        body = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(preds)
            body.append(Atom(p, tuple(rng.choice(variables + [a])
                                      for _ in range(p.arity))))
        used = sorted({t for at in body for t in at.args
                       if isinstance(t, Variable)}, key=lambda v: v.name)
        answers = tuple(used[:rng.randint(0, len(used))])
        q = CQ(answers, body)
        assert evaluate_cq(q, i) == naive_evaluate_cq(q, i), trial


def test_monotone_under_homomorphic_image():
    # evaluating over a homomorphic image (identity on constants) can only
    # gain answers: here the image collapses a null onto a constant
    q = CQ((x,), [atom("R", x, y), atom("P", y)])
    i = Instance({atom("R", a, Null(1)), atom("P", Null(1)), atom("P", b)})
    j = Instance({atom("R", a, b), atom("P", b)})  # image under null -> b
    assert evaluate_cq(q, i) <= evaluate_cq(q, j)
    assert evaluate_cq(q, j) == {(a,)}


def test_monotone_under_instance_extension():
    rng = random.Random(5)
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              target_class="any")
        omq = random_omq(cfg)
        q = omq.query.disjuncts[0] if isinstance(omq.query, UCQ) else omq.query
        dbs = list(enumerate_databases(omq.data_schema, 2, 3))
        small = rng.choice(dbs)
        extra = rng.choice(dbs)
        big = Instance(small.atoms | extra.atoms)
        assert evaluate_cq(q, small.as_instance()) <= evaluate_cq(q, big)


def test_nr_strategy_agreement_random():
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, target_class="NR")
        omq = random_omq(cfg)
        for db in list(enumerate_databases(omq.data_schema, 2, 3))[:12]:
            assert (certain_answers(omq, db, strategy="chase")
                    == certain_answers(omq, db, strategy="rewriting")), seed


def test_prepare_classifies_once(monkeypatch, tmp_path, capsys):
    """Each decision classifies every rule set it is given exactly once,
    and one ``Prepared`` rewrites its OMQ at most once for all of them."""
    calls = []
    rewritten = []

    def counting(tgds):
        calls.append(tgds)
        return classify(tgds)

    def counting_rewrite(omq, budget=None):
        rewritten.append(omq)
        return rewrite._xrewrite(omq, budget=budget)

    # also where classify is not imported, so that a new import is counted
    for module in (evaluate, rewrite, contain, apps, cli):
        monkeypatch.setattr(module, "classify", counting, raising=False)
    monkeypatch.setattr(evaluate, "_xrewrite", counting_rewrite)
    prepared = prepare(OMQ41)
    assert len(calls) == 1
    assert prepare(prepared) is prepared and len(calls) == 1
    rewrite.xrewrite(OMQ41)  # the public entry keeps its own class check
    assert len(calls) == 2
    calls.clear()
    plain = OMQ(OMQ41.data_schema, (), CQ((x,), [atom("P", x)]))
    assert contain.contains(plain, OMQ41).contained  # right side rewritten
    assert calls == [plain.tgds, OMQ41.tgds]
    calls.clear()
    assert not contain.is_unsatisfiable(OMQ41)
    assert calls == [OMQ41.tgds]
    calls.clear()
    apps.distributes(OMQ41)
    assert calls == [OMQ41.tgds]
    rewritten.clear()
    assert contain.equivalent(OMQ41, OMQ41)
    assert len(rewritten) == 2
    # an empty left rewriting never asks for the right one, which would
    # exhaust a budget of 1
    never = OMQ(OMQ41.data_schema, (), CQ((x,), [atom("Z", x)]))
    rewritten.clear()
    assert contain.contains(never, OMQ41, budget=1).contained
    assert rewritten == [never]
    program = tmp_path / "prog.omq"
    program.write_text(SECTION41 + "query r(x) :- P(x).\nquery r(x) :- T(x).\n")
    calls.clear()
    rewritten.clear()
    assert cli.main(["contains", str(program), "q", "r", "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["oracleAgrees"]
    assert len(calls) == 2 and len(rewritten) == 2


@pytest.mark.parametrize("strategy", ["chase", "rewriting"])
def test_long_path_query_at_the_default_recursion_limit(strategy):
    """The search keeps its own stack, so a 1,500-atom query needs no
    recursion; each atom bound narrows the next to one candidate, so the
    search takes about one node per atom."""
    program = parse_program(path_program(1500))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        found = certain_answers(program.omq("q"), program.databases["d"], strategy)
        missing = certain_answers(program.omq("q"), program.databases["e"], strategy)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert found == frozenset({()})
    assert missing == frozenset()
    assert elapsed < 20, elapsed
