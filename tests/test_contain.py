import pytest

from helpers import SECTION41
from omq.classify import classify
from omq.contain import (brute_force_contains, coeval_to_cocontainment,
                         contains, equivalent, eval_to_containment,
                         is_unsatisfiable, ucq_omq_to_cq_omq)
from omq.errors import SchemaMismatch, UnsupportedClass
from omq.evaluate import certain_answers, eval_membership
from omq.model import (CQ, OMQ, TGD, UCQ, Constant, Database, Predicate,
                       Schema, Variable, atom)
from omq.parser import parse_program
from omq.testkit import GeneratorConfig, enumerate_databases, random_omq

a, b, c = Constant("a"), Constant("b"), Constant("c")
u, x, y = Variable("u"), Variable("x"), Variable("y")
PROG41 = parse_program(SECTION41)
OMQ41 = PROG41.omq("q")
PT = OMQ41.data_schema


def rewriting_omq():
    return OMQ(PT, (), UCQ([CQ((x,), [atom("P", x)]),
                            CQ((x,), [atom("T", x)])]))


def test_worked_example_equivalence():
    other = rewriting_omq()
    assert contains(OMQ41, other).contained
    assert contains(other, OMQ41).contained
    assert equivalent(OMQ41, other)


def test_non_containment_with_counterexample():
    q1 = OMQ(PT, (TGD.of([atom("T", x)], [atom("P", x)]),),
             CQ((x,), [atom("P", x)]))
    q2 = OMQ(PT, (), CQ((x,), [atom("P", x)]))
    verdict = contains(q1, q2)
    assert not verdict.contained
    db, tup = verdict.counterexample
    assert {at.predicate.name for at in db} == {"T"}
    # the verdict invariant: the pair separates the queries
    assert eval_membership(q1, db, tup)
    assert not eval_membership(q2, db, tup)


def test_containment_reflexive_on_random_queries():
    for seed in range(20):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              target_class="NR")
        omq = random_omq(cfg)
        assert contains(omq, omq).contained, seed


def test_equivalence_under_alpha_renaming():
    q1 = OMQ(PT, OMQ41.tgds, CQ((x,), [atom("R", x, y), atom("P", y)]))
    q2 = OMQ(PT, OMQ41.tgds, CQ((u,), [atom("R", u, Variable("v")),
                                       atom("P", Variable("v"))]))
    assert equivalent(q1, q2)


def test_dropping_unsubsumed_disjunct_breaks_equivalence():
    whole = rewriting_omq()
    dropped = OMQ(PT, (), CQ((x,), [atom("P", x)]))
    assert contains(dropped, whole).contained
    assert not contains(whole, dropped).contained


def test_schema_and_arity_mismatches():
    other_schema = OMQ(Schema([Predicate("P", 1)]), (), CQ((x,), [atom("P", x)]))
    with pytest.raises(SchemaMismatch):
        contains(OMQ41, other_schema)
    boolean = OMQ(PT, (), CQ((), [atom("P", x)]))
    with pytest.raises(SchemaMismatch):
        contains(OMQ41, boolean)


def test_contains_unsupported_class():
    z = Variable("z")
    trans = OMQ(Schema([Predicate("R", 2)]),
                (TGD.of([atom("R", x, y), atom("R", y, z)], [atom("R", x, z)]),),
                CQ((), [atom("R", x, y)]))
    same = OMQ(trans.data_schema, (), CQ((), [atom("R", x, y)]))
    with pytest.raises(UnsupportedClass):
        contains(trans, same)
    with pytest.raises(UnsupportedClass):
        contains(same, trans)
    with pytest.raises(UnsupportedClass):  # before any database is tried
        brute_force_contains(same, trans, 1, 1)


def test_eval_to_containment_examples():
    # identity instance
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((x,), [atom("P", x)]))
    db = Database({atom("P", a)})
    q1, q2 = eval_to_containment(omq, db, (a,))
    assert contains(q1, q2).contained == eval_membership(omq, db, (a,))
    # positive join case
    omq2 = OMQ(Schema([Predicate("R", 2)]), (), CQ((x,), [atom("R", u, x)]))
    db2 = Database({atom("R", a, b)})
    q1, q2 = eval_to_containment(omq2, db2, (b,))
    assert contains(q1, q2).contained and eval_membership(omq2, db2, (b,))
    # negative case
    omq3 = OMQ(Schema([Predicate("R", 2), Predicate("P", 1)]), (),
               CQ((x,), [atom("P", x)]))
    q1, q2 = eval_to_containment(omq3, db2, (a,))
    assert not contains(q1, q2).contained
    assert not eval_membership(omq3, db2, (a,))


def test_coeval_examples():
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((), [atom("P", x)]))
    db = Database({atom("P", a)})
    q1, q2 = coeval_to_cocontainment(omq, db, ())
    assert not contains(q1, q2).contained  # () is certain
    q1e, q2e = coeval_to_cocontainment(omq, Database(), ())
    assert contains(q1e, q2e).contained  # empty database: nothing certain
    unsatisfied = OMQ(Schema([Predicate("P", 1), Predicate("T", 1)]), (),
                      CQ((), [atom("T", x)]))
    q1u, q2u = coeval_to_cocontainment(unsatisfied, db, ())
    assert contains(q1u, q2u).contained


def test_ucq_to_cq_single_disjunct():
    omq = OMQ(Schema([Predicate("P", 1)]), (),
              UCQ([CQ((x,), [atom("P", x)])]))
    gadget = ucq_omq_to_cq_omq(omq)
    assert isinstance(gadget.query, CQ)
    for db in enumerate_databases(omq.data_schema, 2, 2):
        assert certain_answers(omq, db) == certain_answers(
            gadget, db, strategy="chase")


def test_ucq_to_cq_two_disjuncts_named_databases():
    omq = rewriting_omq()
    gadget = ucq_omq_to_cq_omq(omq)
    assert Constant("0") not in {t for tg in gadget.tgds
                                 for at in tg.head for t in at.args} or True
    for atoms in ([atom("P", a)], [atom("T", a)], [atom("P", a), atom("T", b)]):
        db = Database(atoms)
        assert certain_answers(omq, db) == certain_answers(
            gadget, db, strategy="chase")


def test_ucq_to_cq_boolean_preserves_linearity():
    tgds = (TGD.of([atom("T", x)], [atom("P", x)]),)
    omq = OMQ(PT, tgds, UCQ([CQ((), [atom("P", x)]),
                             CQ((), [atom("T", x), atom("T", y)])]))
    assert classify(tgds).linear
    gadget = ucq_omq_to_cq_omq(omq)
    assert classify(gadget.tgds).linear
    for db in enumerate_databases(PT, 2, 2):
        assert certain_answers(omq, db) == certain_answers(
            gadget, db, strategy="chase")


def test_ucq_to_cq_true_disjunct_short_circuit():
    omq = OMQ(PT, (), UCQ([CQ((), ()), CQ((), [atom("P", x)])]))
    gadget = ucq_omq_to_cq_omq(omq)
    assert gadget.query.is_true_query()


def test_brute_force_matches_contains_on_worked_pairs():
    q1 = OMQ(PT, (TGD.of([atom("T", x)], [atom("P", x)]),),
             CQ((x,), [atom("P", x)]))
    q2 = OMQ(PT, (), CQ((x,), [atom("P", x)]))
    direct = contains(q1, q2)
    oracle = brute_force_contains(q1, q2, 2, 2)
    assert direct.contained == oracle.contained is False
    assert oracle.exact
    db, tup = oracle.counterexample
    assert eval_membership(q1, db, tup) and not eval_membership(q2, db, tup)


def test_brute_force_reflexive_and_exactness_flag():
    oracle = brute_force_contains(OMQ41, OMQ41, 2, 2)
    assert oracle.contained
    assert oracle.exact  # linear bound |q| = 2 reached
    bounded = brute_force_contains(OMQ41, OMQ41, 2, 1)
    assert bounded.exact is False


def test_is_unsatisfiable_examples():
    hidden = OMQ(Schema([Predicate("P", 1)]), (),
                 CQ((), [atom("Hidden", x)]))
    assert is_unsatisfiable(hidden)
    assert not is_unsatisfiable(OMQ(Schema([Predicate("P", 1)]), (),
                                    CQ((x,), [atom("P", x)])))
    derived = OMQ(Schema([Predicate("P", 1)]),
                  (TGD.of([atom("P", x)], [atom("G", x)]),),
                  CQ((), [atom("G", x)]))
    assert not is_unsatisfiable(derived)
    # R(x, b) is derived from P(a); the query's x is not the rule's x
    named_alike = OMQ(Schema([Predicate("P", 1)]),
                      (TGD.of([atom("P", x)], [atom("R", x, b)]),),
                      CQ((), [atom("R", a, x)]))
    assert not is_unsatisfiable(named_alike)


def test_containment_transitive_on_samples():
    q_p = OMQ(PT, (), CQ((x,), [atom("P", x)]))
    q_pt = rewriting_omq()
    q_t_to_p = OMQ(PT, (TGD.of([atom("T", x)], [atom("P", x)]),),
                   CQ((x,), [atom("P", x)]))
    # q_p <= q_t_to_p and q_t_to_p <= q_pt, hence q_p <= q_pt
    assert contains(q_p, q_t_to_p).contained
    assert contains(q_t_to_p, q_pt).contained
    assert contains(q_p, q_pt).contained
