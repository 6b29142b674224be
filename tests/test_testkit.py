import itertools

import pytest

from omq.classify import classify
from omq.errors import PreconditionViolated
from omq.evaluate import certain_answers
from omq.model import Constant, Database, Predicate, Schema
from omq.testkit import (GeneratorConfig, count_databases, enumerate_databases,
                         random_omq, sticky_family, sticky_family_witness)


def test_enumerate_unary_one_constant():
    dbs = list(enumerate_databases(Schema([Predicate("P", 1)]), 1, 1))
    assert len(dbs) == 2
    assert dbs[0].atoms == frozenset()


def test_enumerate_unary_two_constants():
    dbs = list(enumerate_databases(Schema([Predicate("P", 1)]), 2, 2))
    assert len(dbs) == 4


def test_enumerate_binary_counts():
    schema = Schema([Predicate("R", 2)])
    dbs = list(enumerate_databases(schema, 2, 2))
    assert len(dbs) == 11  # 1 + 4 + 6
    assert len(dbs) == count_databases(schema, 2, 2)
    # built unchecked, they equal and hash like checked databases
    for db in dbs:
        checked = Database(db.atoms)
        assert db == checked and hash(db) == hash(checked)


def test_enumerate_matches_closed_form():
    schema = Schema([Predicate("P", 1), Predicate("R", 2)])
    for k, m in [(1, 2), (2, 3), (3, 2)]:
        assert (len(list(enumerate_databases(schema, k, m)))
                == count_databases(schema, k, m))


def test_enumerate_unique_and_deterministic():
    schema = Schema([Predicate("P", 1), Predicate("R", 2)])
    first = [frozenset(db.atoms) for db in enumerate_databases(schema, 2, 2)]
    second = [frozenset(db.atoms) for db in enumerate_databases(schema, 2, 2)]
    assert first == second
    assert len(set(first)) == len(first)


def test_enumerate_guard():
    with pytest.raises(PreconditionViolated):
        list(enumerate_databases(Schema([Predicate("R", 3)]), 3, 2))


def test_sticky_family_shape():
    fam = sticky_family(3)
    assert len(fam.tgds) == 5
    preds = {f"{p.name}/{p.arity}"
             for t in fam.tgds for p in [a.predicate for a in t.body | t.head]}
    assert "S/3" in preds
    for i in range(4):
        assert f"P{i}/5" in preds
    assert fam.query.body and fam.query.arity == 0


def test_sticky_family_classified():
    for n in range(2, 7):
        report = classify(sticky_family(n).tgds)
        assert report.sticky and not report.linear, n


def test_sticky_family_floor_small():
    fam = sticky_family(3)
    wit = sticky_family_witness(3)
    assert certain_answers(fam, wit, strategy="chase") == {()}
    # no single data atom over the anchor constants can satisfy the query
    s = Predicate("S", 3)
    consts = [Constant(c) for c in ("0", "1", "a")]
    from omq.model import Atom
    for tup in itertools.product(consts, repeat=3):
        assert not certain_answers(fam, Database([Atom(s, tup)]),
                                   strategy="chase")
    assert n_is_two_satisfiable()


def n_is_two_satisfiable():
    fam = sticky_family(2)
    wit = sticky_family_witness(2)
    return certain_answers(fam, wit, strategy="chase") == {()}


def test_random_omq_deterministic():
    cfg = GeneratorConfig(seed=42, target_class="any")
    assert random_omq(cfg) == random_omq(cfg)


def test_random_omq_respects_bounds_and_classes():
    for target in ("L", "NR", "S", "F"):
        for seed in range(15):
            cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                                  max_tgds=3, max_body_atoms=2,
                                  max_query_atoms=2, target_class=target)
            omq = random_omq(cfg)
            report = classify(omq.tgds)
            assert len(omq.tgds) <= cfg.max_tgds
            assert len(omq.data_schema) <= cfg.max_predicates
            assert omq.data_schema.max_arity() <= cfg.max_arity
            flag = {"L": report.linear, "NR": report.non_recursive,
                    "S": report.sticky, "F": report.full}[target]
            assert flag, (target, seed)
