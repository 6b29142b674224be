"""Differential tests of the compiled homomorphism search against the
scan-based and recursive references and the naive evaluator in
``helpers``."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_evaluate_cq, recursive_homomorphisms, scan_homomorphisms
from omq.evaluate import evaluate_cq
from omq.homs import (Plan, add_fact, has_homomorphism, homomorphisms,
                      index_by_predicate)
from omq.model import CQ, Atom, Constant, Instance, Null, Predicate, Variable, atom

PREDICATES = [Predicate("P", 1), Predicate("R", 2), Predicate("T", 3)]
# patterns may also use U, which no fact holds
UNUSED = Predicate("U", 2)
GROUND = [Constant("a"), Constant("b"), Constant("c"), Null(1), Null(2)]
VARIABLES = [Variable(n) for n in ("x", "y", "z", "w")]


def atoms_over(terms, max_size, predicates=PREDICATES, min_size=0):
    atom = st.sampled_from(predicates).flatmap(
        lambda p: st.tuples(*[terms] * p.arity).map(lambda args: Atom(p, args)))
    return st.lists(atom, min_size=min_size, max_size=max_size)


FACTS = atoms_over(st.sampled_from(GROUND), 14).map(frozenset)
# variables twice as likely as constants, so repeated variables are common
PATTERN_TERMS = st.sampled_from(VARIABLES + VARIABLES + GROUND)
PATTERN = atoms_over(PATTERN_TERMS, 4, PREDICATES + PREDICATES + [UNUSED])
# v never occurs in a pattern: a pre-bound variable the search must pass through
BINDING = st.dictionaries(st.sampled_from(VARIABLES + [Variable("v")]),
                          st.sampled_from(GROUND), max_size=2)


def as_multiset(mappings):
    return Counter(frozenset(m.items()) for m in mappings)


@settings(max_examples=300, deadline=None)
@given(PATTERN, FACTS, BINDING)
def test_same_mappings_as_scan(pattern, facts, binding):
    got = as_multiset(homomorphisms(pattern, facts, binding))
    assert got == as_multiset(scan_homomorphisms(pattern, facts, binding))
    assert got == as_multiset(recursive_homomorphisms(pattern, facts, binding))
    assert has_homomorphism(pattern, facts, binding) == bool(got)


@settings(max_examples=200, deadline=None)
@given(atoms_over(st.sampled_from(VARIABLES + VARIABLES + GROUND[:3]), 8, min_size=4),
       atoms_over(st.sampled_from(GROUND[:3]), 30, min_size=10), BINDING)
def test_long_patterns_match_recursive_search(pattern, facts, binding):
    """Longer patterns over denser facts go deeper, so atoms are re-costed
    from slots bound several nodes up; one plan serves every search. Facts
    and patterns share three constants, so most patterns match."""
    plan = Plan(pattern)
    index = index_by_predicate(facts)
    got = as_multiset(homomorphisms(plan, None, binding, index=index))
    assert got == as_multiset(recursive_homomorphisms(pattern, facts, binding))
    assert as_multiset(homomorphisms(plan, None, index=index)) == as_multiset(
        recursive_homomorphisms(pattern, facts))


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


def test_search_leaves_pre_bound_slots_and_restores_the_rest():
    x, y, z = VARIABLES[:3]
    plan = Plan([atom("R", x, y), atom("R", y, z)])
    a, b, c = GROUND[:3]
    index = index_by_predicate({atom("R", a, b), atom("R", b, c), atom("R", b, a)})
    binding = [a, None, None]
    images = [list(m) for m in plan.search(index, binding)]
    assert binding == [a, None, None]
    assert sorted(map(str, sum(images, []))) == sorted(
        ["R(a, b)", "R(b, c)", "R(a, b)", "R(b, a)"])


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
