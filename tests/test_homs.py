"""Differential tests of the indexed homomorphism search against the
scan-based reference and the naive evaluator in ``helpers``."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_evaluate_cq, scan_homomorphisms
from omq.evaluate import evaluate_cq
from omq.homs import add_fact, has_homomorphism, homomorphisms, index_by_predicate
from omq.model import CQ, Atom, Constant, Instance, Null, Predicate, Variable

PREDICATES = [Predicate("P", 1), Predicate("R", 2), Predicate("T", 3)]
GROUND = [Constant("a"), Constant("b"), Constant("c"), Null(1), Null(2)]
VARIABLES = [Variable(n) for n in ("x", "y", "z", "w")]


def atoms_over(terms, max_size):
    atom = st.sampled_from(PREDICATES).flatmap(
        lambda p: st.tuples(*[terms] * p.arity).map(lambda args: Atom(p, args)))
    return st.lists(atom, max_size=max_size)


FACTS = atoms_over(st.sampled_from(GROUND), 14).map(frozenset)
# variables twice as likely as constants, so repeated variables are common
PATTERN = atoms_over(st.sampled_from(VARIABLES + VARIABLES + GROUND[:3]), 4)
BINDING = st.dictionaries(st.sampled_from(VARIABLES), st.sampled_from(GROUND),
                          max_size=2)


def as_multiset(mappings):
    return Counter(frozenset(m.items()) for m in mappings)


@settings(max_examples=300, deadline=None)
@given(PATTERN, FACTS, BINDING)
def test_same_mappings_as_scan(pattern, facts, binding):
    got = as_multiset(homomorphisms(pattern, facts, binding))
    assert got == as_multiset(scan_homomorphisms(pattern, facts, binding))
    assert has_homomorphism(pattern, facts, binding) == bool(got)


@settings(max_examples=200, deadline=None)
@given(PATTERN, FACTS, FACTS, BINDING)
def test_extended_index_matches_fresh_search(pattern, first, more, binding):
    index = index_by_predicate(first)
    before = as_multiset(homomorphisms(pattern, None, binding, index=index))
    assert before == as_multiset(scan_homomorphisms(pattern, first, binding))
    for f in more - first:
        add_fact(index, f)
    after = as_multiset(homomorphisms(pattern, None, binding, index=index))
    assert after == as_multiset(scan_homomorphisms(pattern, first | more, binding))


@settings(deadline=None)
@given(FACTS, BINDING)
def test_empty_pattern_yields_the_binding(facts, binding):
    assert list(homomorphisms([], facts, binding)) == [binding]


def test_constant_absent_from_facts_ends_search():
    x = Variable("x")
    facts = {Atom(PREDICATES[1], (Constant("a"), Constant("b")))}
    pattern = [Atom(PREDICATES[1], (Constant("c"), x))]
    assert list(homomorphisms(pattern, facts)) == []
    pattern = [Atom(PREDICATES[0], (x,))]
    assert list(homomorphisms(pattern, facts)) == []


@settings(max_examples=150, deadline=None)
@given(atoms_over(st.sampled_from(VARIABLES + GROUND[:3]), 3),
       atoms_over(st.sampled_from(GROUND), 10), st.data())
def test_evaluate_cq_matches_naive(body, facts, data):
    body_vars = sorted({t for a in body for t in a.args if isinstance(t, Variable)},
                       key=lambda v: v.name)
    answers = data.draw(st.lists(st.sampled_from(body_vars), max_size=2)
                        if body_vars else st.just([]))
    q = CQ(answers, body)
    instance = Instance(facts)
    assert evaluate_cq(q, instance) == naive_evaluate_cq(q, instance)
