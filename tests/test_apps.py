import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eager_distribution_check, union_find_components
from omq.apps import (components, cq_components, distributes,
                      distribution_definitional_check)
from omq.errors import EmptyBody, UnsupportedClass, ZeroAryAtom
from omq.model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Null, Predicate,
                       Schema, Variable, atom)
from omq.testkit import GeneratorConfig, random_omq
a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_components_examples():
    parts = components({atom("R", a, b), atom("P", b), atom("T", c)})
    assert sorted(len(p) for p in parts) == [1, 2]
    assert components(set()) == []
    triangle = {atom("R", a, b), atom("R", b, c), atom("R", c, a)}
    assert components(triangle) == [frozenset(triangle)]


def test_components_zero_ary_rejected():
    with pytest.raises(ZeroAryAtom):
        components({atom("Flag")})


def test_components_partition_property():
    atoms = {atom("R", a, b), atom("R", b, c), atom("P", Constant("d")),
             atom("T", Constant("e"))}
    parts = components(atoms)
    assert frozenset().union(*parts) == atoms
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            assert not (p & q)
            terms_p = {t for at in p for t in at.args}
            terms_q = {t for at in q for t in at.args}
            assert not (terms_p & terms_q)


ATOMS = st.lists(
    st.sampled_from([Predicate("P", 1), Predicate("R", 2), Predicate("T", 3)])
    .flatmap(lambda p: st.tuples(*[st.sampled_from(
        [a, b, c, Constant("d"), x, y, Null(1)])] * p.arity)
        .map(lambda args: Atom(p, args))),
    max_size=10)


@settings(max_examples=300, deadline=None)
@given(ATOMS)
def test_components_match_union_find_reference(atoms):
    assert components(atoms) == union_find_components(atoms)


def test_cq_components_boolean_split():
    q = CQ((), [atom("R", x, y), atom("T", z)])
    parts = cq_components(q)
    assert len(parts.safe) == 2 and not parts.unsafe
    assert {len(p.body) for p in parts.safe} == {1}


def test_cq_components_connected_and_unsafe():
    q = CQ((x,), [atom("P", x), atom("T", z)])
    parts = cq_components(q)
    assert len(parts.safe) == 1 and len(parts.unsafe) == 1
    (unsafe,) = parts.unsafe
    assert unsafe == frozenset({atom("T", z)})
    whole = CQ((x,), [atom("R", x, y), atom("P", y)])
    again = cq_components(whole)
    assert again.safe == (whole,)
    with pytest.raises(EmptyBody):
        cq_components(CQ((), ()))


def test_distributes_single_component():
    omq = OMQ(Schema([Predicate("R", 2)]), (), CQ((), [atom("R", x, y)]))
    verdict = distributes(omq)
    assert verdict.distributes and verdict.witness is not None


def test_distributes_two_component_split():
    omq = OMQ(Schema([Predicate("R", 2), Predicate("T", 2)]), (),
              CQ((), [atom("R", x, x), atom("T", y, y)]))
    verdict = distributes(omq)
    assert not verdict.distributes
    ok, bad = distribution_definitional_check(omq, 2, 2)
    assert not ok and bad is not None


def test_distributes_collapsing_query():
    tgds = (TGD.of([atom("T", x)], [atom("P", x)]),)
    omq = OMQ(Schema([Predicate("P", 1), Predicate("T", 1)]), tgds,
              CQ((), [atom("P", x), atom("P", y)]))
    verdict = distributes(omq)
    assert verdict.distributes and verdict.witness is not None
    ok, _ = distribution_definitional_check(omq, 3, 3)
    assert ok


def test_distributes_unsatisfiable_query():
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((), [atom("Hidden", x)]))
    verdict = distributes(omq)
    assert verdict.distributes and verdict.unsatisfiable


def test_distributes_true_query_fails_on_empty_database():
    omq = OMQ(Schema([Predicate("P", 1)]), (), CQ((), ()))
    assert not distributes(omq).distributes


def test_distributes_alpha_invariant():
    base = OMQ(Schema([Predicate("R", 2), Predicate("T", 2)]), (),
               CQ((), [atom("R", x, x), atom("T", y, y)]))
    renamed = OMQ(base.data_schema, (),
                  CQ((), [atom("R", Variable("u"), Variable("u")),
                          atom("T", Variable("v"), Variable("v"))]))
    assert distributes(base).distributes == distributes(renamed).distributes


def test_distributes_ucq_goes_through_gadget():
    omq = OMQ(Schema([Predicate("P", 1), Predicate("T", 1)]), (),
              UCQ([CQ((), [atom("P", x)]), CQ((), [atom("T", x)])]))
    verdict = distributes(omq)
    assert verdict.distributes


def test_distributes_unsupported_class():
    trans = OMQ(Schema([Predicate("R", 2)]),
                (TGD.of([atom("R", x, y), atom("R", y, z)], [atom("R", x, z)]),),
                CQ((), [atom("R", x, y)]))
    with pytest.raises(UnsupportedClass):
        distributes(trans)


def test_definitional_check_matches_eager_reference():
    """Same (holds, first violating database) as the loop that evaluates
    every component of every database, on acceptance-9-style OMQs."""
    classes = ("L", "NR", "S")
    verdicts = []
    for seed in range(1, 81):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, max_query_atoms=4, max_query_vars=3,
                              answer_arity=seed % 2,
                              target_class=classes[seed % 3],
                              connected_bodies=True)
        omq = random_omq(cfg)
        got = distribution_definitional_check(omq, 3, 3)
        assert got == eager_distribution_check(omq, 3, 3), seed
        verdicts.append(got[0])
    assert verdicts.count(False) >= 2  # violating databases are compared too
