import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omq
from helpers import term_key

from omq.errors import ModelError
from omq.model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Instance,
                       Null, Predicate, Schema, Substitution, Variable,
                       active_domain, apply_substitution, atom,
                       compose_substitutions, freeze_cq)

a, b = Constant("a"), Constant("b")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_apply_single_binding():
    s = Substitution({x: a})
    assert apply_substitution(s, atom("R", x, y)) == atom("R", a, y)


def test_apply_identity():
    s = Substitution({})
    assert apply_substitution(s, atom("R", x, y)) == atom("R", x, y)


def test_apply_normalized_chain():
    s = Substitution({x: y, y: z})
    assert apply_substitution(s, atom("R", x, y)) == atom("R", z, z)


def test_apply_is_idempotent():
    s = Substitution({x: y, y: z})
    once = s.apply_atom(atom("R", x, y))
    assert s.apply_atom(once) == once


def test_variable_cycle_collapses():
    s = Substitution({x: y, y: x})
    assert s.apply_term(x) == x
    assert s.apply_term(y) == x


def test_compose_pointwise():
    s = compose_substitutions(Substitution({x: y}), Substitution({y: a}))
    assert s.apply_term(x) == a and s.apply_term(y) == a


def test_compose_identities():
    s = Substitution({x: a})
    assert compose_substitutions(Substitution({}), s) == s
    assert compose_substitutions(s, Substitution({})) == s


def test_compose_associative():
    rng = random.Random(7)
    pool = [Variable(n) for n in "uvwxyz"]
    terms = pool + [a, b]
    for _ in range(100):
        subs = [Substitution({rng.choice(pool): rng.choice(terms)
                              for _ in range(rng.randint(0, 3))})
                for _ in range(3)]
        s1, s2, s3 = subs
        left = compose_substitutions(compose_substitutions(s1, s2), s3)
        right = compose_substitutions(s1, compose_substitutions(s2, s3))
        for v in pool:
            assert left.apply_term(v) == right.apply_term(v)


def test_apply_distributes_over_union():
    s = Substitution({x: a})
    g1 = {atom("R", x, y), atom("P", x)}
    g2 = {atom("T", y)}
    assert s.apply_atoms(g1 | g2) == s.apply_atoms(g1) | s.apply_atoms(g2)


def test_active_domain():
    assert active_domain({atom("R", a, b), atom("P", a)}) == {a, b}
    assert active_domain(set()) == set()
    assert active_domain({atom("R", a, Null(1))}) == {a, Null(1)}


def test_freeze_simple():
    q = CQ((x,), [atom("R", x, y)])
    db, tup = freeze_cq(q)
    assert len(db) == 1 and len(tup) == 1
    (fact,) = db.atoms
    assert fact.predicate.name == "R"
    assert fact.args[0] == tup[0]
    assert fact.args[0] != fact.args[1]
    assert all(t.name.startswith("$frz") for t in fact.args)


def test_freeze_constant_only():
    q = CQ((), [atom("P", a)])
    db, tup = freeze_cq(q)
    assert db.atoms == frozenset({atom("P", a)}) and tup == ()


def test_freeze_shared_variable():
    q = CQ((x,), [atom("R", x, x)])
    db, tup = freeze_cq(q)
    (fact,) = db.atoms
    assert fact.args[0] == fact.args[1] == tup[0]


def test_freeze_unfreeze_recovers():
    q = CQ((x,), [atom("R", x, y), atom("P", y), atom("T", a)])
    db, tup = freeze_cq(q)
    names = {Constant(f"$frz{i}"): v
             for i, v in enumerate(sorted(q.variables(), key=lambda v: v.name))}
    thawed = {Atom(f.predicate, tuple(names.get(t, t) for t in f.args))
              for f in db}
    assert thawed == set(q.body)


def test_freeze_active_domain_size():
    q = CQ((x,), [atom("R", x, y), atom("P", a)])
    db, _ = freeze_cq(q)
    body_constants = {t for at in q.body for t in at.args
                      if isinstance(t, Constant)}
    assert len(active_domain(db)) == len(q.variables()) + len(body_constants)


def test_atom_arity_checked():
    with pytest.raises(ModelError):
        Atom(Predicate("P", 1), (a, b))


def test_schema_rejects_conflicting_arity():
    with pytest.raises(ModelError):
        Schema([Predicate("P", 1), Predicate("P", 2)])


def test_instance_rejects_variables():
    with pytest.raises(ModelError):
        Instance({atom("P", x)})


def test_database_rejects_nulls():
    with pytest.raises(ModelError):
        Database({atom("P", Null(1))})
    Instance({atom("P", Null(1))})  # instances may hold nulls


def test_cq_safety():
    with pytest.raises(ModelError):
        CQ((x,), [atom("P", y)])
    with pytest.raises(ModelError):
        CQ((x,), [])  # empty body admits no answer variables
    CQ((a,), [])  # constant answers are fine


def test_ucq_arity_alignment():
    with pytest.raises(ModelError):
        UCQ([CQ((x,), [atom("P", x)]), CQ((), [atom("P", y)])])
    with pytest.raises(ModelError):
        UCQ([])


def test_tgd_head_variable_discipline():
    TGD([atom("P", x)], [atom("R", x, y)], [y])
    with pytest.raises(ModelError):
        TGD([atom("P", x)], [atom("R", x, y)], [])  # y undeclared
    with pytest.raises(ModelError):
        TGD([atom("P", x)], [atom("R", x, x)], [x])  # existential in body
    with pytest.raises(ModelError):
        TGD([atom("P", x)], [], [])


def test_tgd_of_infers_existentials():
    t = TGD.of([atom("P", x)], [atom("R", x, y)])
    assert t.exist_vars == frozenset({y})
    assert t.frontier == frozenset({x})


def test_null_ids_positive():
    with pytest.raises(ModelError):
        Null(0)
    with pytest.raises(ModelError):
        Null(-3)


def test_terms_are_read_only():
    for t, field in ((a, "name"), (x, "name"), (Null(2), "id")):
        with pytest.raises(AttributeError):
            setattr(t, field, getattr(t, field))
        with pytest.raises(AttributeError):
            t.other = 1
    assert (a.name, x.name, Null(2).id) == ("a", "x", 2)


def test_terms_hash_compare_and_sort_as_tuples():
    """No term class defines ``__hash__``, ``__eq__`` or ``__lt__``: each
    uses ``tuple``'s, which run without a call into Python code."""
    for kind in (Constant, Null, Variable):
        assert issubclass(kind, tuple)
        for method in ("__hash__", "__eq__", "__lt__"):
            assert getattr(kind, method) is getattr(tuple, method), (kind, method)


def test_term_text_and_tuple_form():
    assert (str(a), str(x), str(Null(7))) == ("a", "x", "_:7")
    assert (repr(a), repr(x), repr(Null(7))) == ("Constant('a')", "Variable('x')",
                                                "Null(7)")
    # a term is the pair (rank, name or id), and equals that plain tuple
    assert (a, Null(7), x) == ((0, "a"), (1, 7), (2, "x"))
    assert len(a) == 2


NAMES = st.sampled_from(["a", "b", "x", "y", "0", "10", "9", "A", "a1", "", "é"])
TERMS = st.one_of(NAMES.map(Constant), NAMES.map(Variable),
                  st.integers(1, 12).map(Null))


@settings(max_examples=300, deadline=None)
@given(st.lists(TERMS, max_size=12))
def test_terms_sort_like_the_reference_key(terms):
    assert sorted(terms) == sorted(terms, key=term_key)
    for s, t in zip(terms, terms[1:]):
        assert (s < t) == (term_key(s) < term_key(t))
        assert (s == t) == (term_key(s) == term_key(t))


@settings(max_examples=300, deadline=None)
@given(TERMS, TERMS)
def test_equal_terms_hash_equal_and_kinds_never_meet(s, t):
    rebuilt = type(s)(s.id if isinstance(s, Null) else s.name)
    assert rebuilt == s and hash(rebuilt) == hash(s) and rebuilt is not s
    if type(s) is not type(t):
        assert s != t and len({s, t}) == 2
    else:
        assert (s == t) == (str(s) == str(t))


def test_terms_survive_pickle_and_copy():
    for t in (a, x, Null(3), Constant(""), Variable("é")):
        clones = [pickle.loads(pickle.dumps(t, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        clones += [copy.copy(t), copy.deepcopy(t)]
        for clone in clones:
            assert type(clone) is type(t) and clone == t
            assert hash(clone) == hash(t) and str(clone) == str(t)


def test_omq_rejects_arity_conflicts():
    schema = Schema([Predicate("P", 1)])
    with pytest.raises(ModelError):
        OMQ(schema, (), CQ((), [atom("P", a, b)]))


def test_equal_terms_and_atoms_hash_equal():
    pairs = [(Variable("x"), Variable("x")), (Constant("a"), Constant("a")),
             (Predicate("R", 2), Predicate("R", 2)),
             (atom("R", x, a), atom("R", Variable("x"), Constant("a"))),
             (atom("R", x, a), dataclasses.replace(atom("R", y, a), args=(x, a))),
             (Predicate("R", 2), dataclasses.replace(Predicate("R", 3), arity=2))]
    for first, second in pairs:
        assert first == second and first is not second
        assert hash(first) == hash(second)
    # a term is not equal to a term of another kind with the same name
    assert Variable("a") != a and len({Variable("a"), a}) == 2
    assert atom("R", x, a) != atom("R", a, x) != Atom(Predicate("R", 3), (a, x, x))


def test_copies_carry_no_cached_hash():
    at = atom("R", x, a)
    hash(at)
    for clone in (pickle.loads(pickle.dumps(at)), copy.copy(at),
                  copy.deepcopy(at), dataclasses.replace(at)):
        assert "_hash" not in vars(clone)
        assert clone == at and hash(clone) == hash(atom("R", x, a))


UNPICKLE = """
import pickle, sys
from omq.model import CQ, Constant, Instance, Null, Variable, atom
at, q, inst = pickle.loads(sys.stdin.buffer.read())
fresh = atom("R", Variable("x"), Constant("a"))
assert hash(at) == hash(fresh) and fresh in q.body
assert q == CQ((Variable("x"),), [fresh, atom("P", Variable("x"))])
assert inst == Instance([atom("R", Null(1), Constant("a"))])
assert atom("R", Null(1), Constant("a")) in inst.atoms
print("ok")
"""


def test_pickle_hashes_like_a_fresh_atom_under_another_hash_seed():
    at = atom("R", x, a)
    q = CQ((x,), [at, atom("P", x)])
    inst = Instance([atom("R", Null(1), a)])
    hash(at)
    src = str(Path(omq.__file__).resolve().parent.parent)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    done = subprocess.run([sys.executable, "-c", UNPICKLE],
                          input=pickle.dumps((at, q, inst)), capture_output=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip() == b"ok"
