import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SECTION41, SEED89, reference_factorize_step,
                     reference_isomorphic, reference_rewrite_step,
                     same_disjunct_sets)
from omq import rewrite
from omq.chase import normalize_tgds
from omq.contain import witness_bound
from omq.errors import BudgetExhausted, PreconditionViolated, UnsupportedClass
from omq.evaluate import certain_answers, evaluate_ucq
from omq.model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database,
                       Predicate, Schema, Variable, atom)
from omq.parser import parse_program
from omq.rewrite import (cq_isomorphic, cq_key, factorize_step,
                         is_applicable, is_factorizable, mgu, rewrite_step,
                         xrewrite)
from omq.testkit import GeneratorConfig, enumerate_databases, random_omq

a, b = Constant("a"), Constant("b")
u, v, w, x, y, z = (Variable(n) for n in "uvwxyz")
PROG41 = parse_program(SECTION41)
OMQ41 = PROG41.omq("q")


def test_mgu_collapses_to_one_variable():
    g = mgu([atom("R", x, y), atom("R", z, z)])
    images = {g.apply_atom(atom("R", x, y)), g.apply_atom(atom("R", z, z))}
    assert len(images) == 1
    (image,) = images
    assert len(set(image.args)) == 1


def test_mgu_constant_clash():
    assert mgu([atom("P", a), atom("P", b)]) is None
    assert mgu([atom("P", a), atom("R", a, b)]) is None


def test_mgu_mixed_bindings():
    g = mgu([atom("R", x, a), atom("R", b, y)])
    assert g.apply_term(x) == b and g.apply_term(y) == a
    assert g.apply_atom(atom("R", x, a)) == atom("R", b, a)


def test_mgu_factors_other_unifiers():
    atoms = [atom("R", x, y), atom("R", z, z)]
    g = mgu(atoms)
    # another unifier: everything to the constant a
    other = {x: a, y: a, z: a}
    # gamma' mapping g's representative to a reproduces it
    rep = g.apply_term(x)
    for term, want in other.items():
        got = g.apply_term(term)
        assert got == rep
    # so other = {rep -> a} composed with g


def test_applicability_worked_example():
    # resolving P(y) with R(x,y) -> P(y) is allowed
    sigma2 = TGD.of([atom("R", x, y)], [atom("P", y)])
    q = CQ((x,), [atom("R", x, y), atom("P", y)])
    assert is_applicable(sigma2, [atom("P", y)], q)
    # but resolving R(x,y) with P(x) -> exists y R(x,y) is blocked: the
    # shared variable y sits at the existential position
    sigma1 = TGD.of([atom("P", x)], [atom("R", x, y)])
    assert not is_applicable(sigma1, [atom("R", x, y)], q)


def test_applicability_shared_vs_unshared_existential():
    sigma = TGD.of([atom("P", u, v)], [atom("R", w, u)])
    assert sigma.exist_vars == frozenset({w})
    q_shared = CQ((), [atom("R", x, y), atom("R", x, z)])
    assert not is_applicable(sigma, [atom("R", x, y)], q_shared)
    q_free = CQ((), [atom("R", x, y)])
    assert is_applicable(sigma, [atom("R", x, y)], q_free)


def test_applicability_constant_at_existential_position():
    sigma = TGD.of([atom("P", u)], [atom("R", u, w)])
    q = CQ((), [atom("R", x, a)])
    assert not is_applicable(sigma, [atom("R", x, a)], q)
    q2 = CQ((), [atom("R", a, x)])
    assert is_applicable(sigma, [atom("R", a, x)], q2)
    # the head is renamed apart before unifying: the x of the rule is not
    # the x of the query, so R(a, x) meets R(x, b) without a clash
    full = TGD.of([atom("P", x)], [atom("R", x, b)])
    assert is_applicable(full, [atom("R", a, x)], q2)


def test_factorizability_examples():
    sigma = TGD.of([atom("P", u, v)], [atom("R", w, u)])
    q = CQ((), [atom("R", x, y), atom("R", x, z)])
    assert is_factorizable([atom("R", x, y), atom("R", x, z)], sigma, q)
    full = TGD.of([atom("P", u, v)], [atom("R", u, v)])
    assert not is_factorizable([atom("R", x, y), atom("R", x, z)], full, q)
    q2 = CQ((), [atom("R", x, y), atom("R", y, z)])
    assert not is_factorizable([atom("R", x, y), atom("R", y, z)], sigma, q2)


def test_factorize_step_collapses():
    q = CQ((), [atom("R", x, y), atom("R", x, z)])
    out = factorize_step(q, [atom("R", x, y), atom("R", x, z)])
    assert len(out.body) == 1


def test_factorize_step_answer_variable_survives():
    q = CQ((w,), [atom("R", x, w), atom("R", x, y)])
    out = factorize_step(q, sorted(q.body))
    assert out.answers == (w,)
    assert out.body == frozenset({atom("R", x, w)})


def test_rewrite_step_worked_example():
    sigma2 = TGD.of([atom("R", x, y)], [atom("P", y)])
    q = CQ((x,), [atom("R", x, y), atom("P", y)])
    out = rewrite_step(q, [atom("P", y)], sigma2, 1)
    assert out.answers == (x,)
    assert len(out.body) == 2
    preds = {at.predicate.name for at in out.body}
    assert preds == {"R"}
    # join on the second position of R
    (a1, a2) = sorted(out.body)
    assert a1.args[1] == a2.args[1]


def test_rewrite_step_final_steps():
    sigma3 = TGD.of([atom("T", x)], [atom("P", x)])
    q = CQ((x,), [atom("P", x)])
    out = rewrite_step(q, [atom("P", x)], sigma3, 4)
    assert cq_isomorphic(out, CQ((x,), [atom("T", x)]))


def test_rewrite_step_with_fact_tgd_empties_body():
    fact = TGD([], [atom("P", z)], [z])
    q = CQ((), [atom("P", y)])
    assert is_applicable(fact, [atom("P", y)], q)
    out = rewrite_step(q, [atom("P", y)], fact, 1)
    assert out.body == frozenset() and out.answers == ()


STEP_PREDICATES = [Predicate("P", 2), Predicate("R", 3)]
# query variables, some named like step-renamed ones, and a constant
STEP_QUERY_TERMS = [x, y, z, Variable("x#1"), Variable("y#2"), a]
STEP_RULE_TERMS = [u, v, x, Variable("u#1"), b]


def step_atoms(terms, max_size):
    return st.lists(st.sampled_from(STEP_PREDICATES).flatmap(
        lambda p: st.tuples(*[st.sampled_from(terms)] * p.arity).map(
            lambda args: Atom(p, args))), max_size=max_size)


@st.composite
def step_inputs(draw):
    """A query with repeated variables, constants and constant answers, a
    subset S of its body, a rule with at most one existential variable in
    its head and a step index that may rename rule variables onto query
    ones. S mostly shares the head's predicate, and may clash."""
    body = draw(step_atoms(STEP_QUERY_TERMS, 5).filter(bool))
    body_vars = sorted({t for at in body for t in at.args
                        if isinstance(t, Variable)}, key=lambda t: t.name)
    answers = draw(st.lists(st.sampled_from(body_vars + [a, b]), max_size=3))
    q = CQ(answers, body)
    rule_body = draw(step_atoms(STEP_RULE_TERMS, 2))
    rule_vars = sorted({t for at in rule_body for t in at.args
                        if isinstance(t, Variable)}, key=lambda t: t.name)
    pred = draw(st.sampled_from(STEP_PREDICATES))
    head_terms = rule_vars + [b, w]
    head_args = draw(st.tuples(*[st.sampled_from(head_terms)] * pred.arity)
                     .filter(lambda args: args.count(w) <= 1))
    rule = TGD.of(rule_body, [Atom(pred, head_args)])
    over_head = sorted(at for at in q.body if at.predicate == pred)
    pool = over_head if over_head and draw(st.booleans()) else sorted(q.body)
    S = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=3))
    return q, S, rule, draw(st.integers(1, 3))


def outcome(step, *args):
    try:
        return step(*args)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(step_inputs())
def test_steps_equal_the_substitution_reference(inputs):
    q, S, rule, step_index = inputs
    assert (outcome(rewrite_step, q, S, rule, step_index)
            == outcome(reference_rewrite_step, q, S, rule, step_index))
    assert outcome(factorize_step, q, S) == outcome(reference_factorize_step, q, S)


def test_xrewrite_worked_example_exact():
    disjuncts = xrewrite(OMQ41)
    expected = [CQ((x,), [atom("P", x)]), CQ((x,), [atom("T", x)])]
    assert same_disjunct_sets(disjuncts, expected)


def test_xrewrite_no_tgds_identity():
    q = CQ((x,), [atom("P", x)])
    omq = OMQ(Schema([Predicate("P", 1)]), (), q)
    assert xrewrite(omq) == (q,)


def test_xrewrite_single_step_cross_checked_by_chase():
    schema = Schema([Predicate("A", 1), Predicate("B", 1)])
    omq = OMQ(schema, (TGD.of([atom("A", x)], [atom("B", x)]),),
              CQ((x,), [atom("B", x)]))
    disjuncts = xrewrite(omq)
    assert same_disjunct_sets(
        disjuncts, [CQ((x,), [atom("B", x)]), CQ((x,), [atom("A", x)])])
    for db in enumerate_databases(schema, 1, 2):
        assert (evaluate_ucq(UCQ(disjuncts), db.as_instance())
                == certain_answers(omq, db, strategy="chase"))


def test_xrewrite_idempotent_on_disjuncts():
    for d in xrewrite(OMQ41):
        omq = OMQ(OMQ41.data_schema, (), d)
        assert xrewrite(omq) == (d,)


def test_xrewrite_deduplicates_modulo_renaming():
    disjuncts = xrewrite(OMQ41)
    for i, d1 in enumerate(disjuncts):
        for d2 in disjuncts[i + 1:]:
            assert not cq_isomorphic(d1, d2)


def test_xrewrite_budget_exhausted():
    with pytest.raises(BudgetExhausted) as e:
        xrewrite(OMQ41, budget=1)
    assert isinstance(e.value.partial, tuple)
    with pytest.raises(PreconditionViolated):
        xrewrite(OMQ41, budget=0)


def test_budget_bounds_the_subsets_tested(monkeypatch):
    tested = []
    for name in ("is_applicable", "is_factorizable"):
        def counted(*args, test=getattr(rewrite, name)):
            tested.append(args)
            return test(*args)
        monkeypatch.setattr(rewrite, name, counted)
    omq = parse_program(SEED89).omq("q")
    for budget in (1, 25, 100, 1000):
        tested.clear()
        with pytest.raises(BudgetExhausted, match="candidate subsets"):
            rewrite._xrewrite(omq, budget=budget)
        assert len(tested) == budget


def test_xrewrite_warns_outside_rewritable_classes():
    trans = OMQ(Schema([Predicate("R", 2), Predicate("P", 1)]),
                (TGD.of([atom("R", x, y), atom("R", y, z)], [atom("R", x, z)]),),
                CQ((x,), [atom("P", x)]))
    with pytest.warns(UserWarning, match="none of linear/non-recursive/sticky"):
        assert len(xrewrite(trans)) == 1


def test_xrewrite_true_disjunct_short_circuits():
    schema = Schema([Predicate("P", 1)])
    fact = TGD([], [atom("P", z)], [z])
    omq = OMQ(schema, (fact,), CQ((), [atom("P", y)]))
    disjuncts = xrewrite(omq)
    assert disjuncts == (CQ((), ()),)
    assert evaluate_ucq(UCQ(disjuncts), Database().as_instance()) == {()}


def test_witness_bound_linear():
    wb = witness_bound(OMQ41)
    assert wb.value == 2 and wb.formula == "linear"


def test_witness_bound_non_recursive():
    # sch(Sigma) = {A, B, C}, max body 2, |q| = 1 -> 1 * 2^3 = 8
    tgds = (TGD.of([atom("A", x, y), atom("A", y, z)], [atom("B", x, z)]),
            TGD.of([atom("B", x, y), atom("B", y, z)], [atom("C", x, z)]))
    schema = Schema([Predicate("A", 2), Predicate("B", 2), Predicate("C", 2)])
    omq = OMQ(schema, tgds, CQ((), [atom("C", x, y)]))
    wb = witness_bound(omq)
    assert wb.formula == "non-recursive" and wb.value == 8


def test_witness_bound_sticky():
    # one binary data predicate, |T(q)| = 2, no rule constants -> 1*(2+1)^2 = 9
    tgds = (TGD.of([atom("R", x, y), atom("R", x, z)], [atom("R", x, w)]),)
    schema = Schema([Predicate("R", 2)])
    omq = OMQ(schema, tgds, CQ((x,), [atom("R", x, y)]))
    from omq.classify import classify
    rep = classify(tgds)
    assert rep.sticky and not rep.linear and not rep.non_recursive
    wb = witness_bound(omq)
    assert wb.formula == "sticky" and wb.value == 9


def test_witness_bound_unsupported():
    # full recursive with a marked join variable: none of L/NR/S
    tgds = (TGD.of([atom("R", x, y), atom("R", y, z)], [atom("R", x, z)]),)
    omq = OMQ(Schema([Predicate("R", 2)]), tgds, CQ((), [atom("R", x, y)]))
    with pytest.raises(UnsupportedClass):
        witness_bound(omq)


def test_linear_disjuncts_never_grow():
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, max_query_atoms=2, target_class="L")
        omq = random_omq(cfg)
        size = max(len(d.body) for d in
                   (omq.query.disjuncts if isinstance(omq.query, UCQ)
                    else [omq.query]))
        for d in xrewrite(omq):
            assert len(d.body) <= size, seed


def test_cq_isomorphic_basics():
    q1 = CQ((x,), [atom("R", x, y)])
    q2 = CQ((u,), [atom("R", u, v)])
    assert cq_isomorphic(q1, q2)
    q3 = CQ((x,), [atom("R", x, x)])
    assert not cq_isomorphic(q1, q3)
    q4 = CQ((x,), [atom("R", x, a)])
    q5 = CQ((x,), [atom("R", x, b)])
    assert not cq_isomorphic(q4, q5)
    # answer alignment matters
    q6 = CQ((x, y), [atom("R", x, y)])
    q7 = CQ((y, x), [atom("R", x, y)])
    assert not cq_isomorphic(q6, q7)
    assert cq_isomorphic(q6, CQ((u, v), [atom("R", u, v)]))
    # variables that occur once are interchangeable, but still counted
    assert cq_isomorphic(CQ((), [atom("R", x, y), atom("R", x, z)]),
                         CQ((), [atom("R", u, w), atom("R", u, v)]))
    assert not cq_isomorphic(CQ((), [atom("R", x, y), atom("R", x, z)]),
                             CQ((), [atom("R", x, y)]))
    assert not cq_isomorphic(CQ((), [atom("R", x, y), atom("R", z, y)]),
                             CQ((), [atom("R", x, y), atom("R", x, z)]))


KEY_PREDICATES = [Predicate("P", 1), Predicate("R", 2), Predicate("T", 3)]
KEY_VARIABLES = [Variable(f"v{i}") for i in range(6)]
KEY_CONSTANTS = [Constant("a"), Constant("b")]
KEY_NAMES = [Variable(f"n{i}") for i in range(20)]


@st.composite
def key_queries(draw):
    """A small CQ over a few variables and constants, some of them answers
    (repeats and constants allowed), sometimes with a directed cycle or a
    clique over R, the symmetric bodies that refinement cannot split."""
    terms = st.sampled_from(KEY_VARIABLES + KEY_VARIABLES + KEY_CONSTANTS)
    body = draw(st.lists(st.sampled_from(KEY_PREDICATES).flatmap(
        lambda p: st.tuples(*[terms] * p.arity).map(lambda args: Atom(p, args))),
        max_size=6))
    shape = draw(st.sampled_from(["plain", "cycle", "clique"]))
    if shape != "plain":
        size = draw(st.integers(2, 6 if shape == "cycle" else 4))
        ring = draw(st.permutations(KEY_VARIABLES + KEY_NAMES[:6]))[:size]
        r = KEY_PREDICATES[1]
        if shape == "cycle":
            body += [Atom(r, (ring[i], ring[(i + 1) % size])) for i in range(size)]
        else:
            body += [Atom(r, (s, t)) for s in ring for t in ring if s != t]
    body_vars = sorted({t for a in body for t in a.args if isinstance(t, Variable)},
                       key=lambda v: v.name)
    answers = draw(st.lists(st.sampled_from(body_vars + KEY_CONSTANTS), max_size=3))
    return CQ(answers, body)


def renamed(q, names):
    mapping = dict(zip(sorted(q.variables(), key=lambda v: v.name), names))

    def sub(t):
        return mapping.get(t, t)

    return CQ([sub(t) for t in q.answers],
              [Atom(a.predicate, tuple(map(sub, a.args))) for a in q.body])


@st.composite
def key_query_pairs(draw):
    """A CQ and a second one: a renamed copy, a renamed copy with one
    argument changed, one atom's arguments reversed or one answer added, or
    an independent draw."""
    q1 = draw(key_queries())
    mode = draw(st.sampled_from(["renamed", "changed", "independent"]))
    if mode == "independent":
        return q1, draw(key_queries())
    q2 = renamed(q1, draw(st.permutations(KEY_NAMES)))
    if mode == "changed":
        terms = sorted(q2.variables(), key=lambda v: v.name) + KEY_CONSTANTS
        body = sorted(q2.body)
        change = draw(st.sampled_from(["argument", "reverse", "answer"])
                      if body else st.just("answer"))
        if change == "answer":
            answers = list(q2.answers) + [draw(st.sampled_from(terms))]
        else:
            i = draw(st.integers(0, len(body) - 1))
            args = list(body[i].args)
            if change == "reverse":
                args.reverse()
            else:
                args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(terms))
            body[i] = Atom(body[i].predicate, tuple(args))
            body_vars = {t for b in body for t in b.args}
            answers = [t for t in q2.answers if t in body_vars or isinstance(t, Constant)]
        q2 = CQ(answers, body)
    return q1, q2


@settings(max_examples=400, deadline=None)
@given(key_query_pairs())
def test_cq_key_equal_exactly_when_reference_finds_isomorphism(pair):
    q1, q2 = pair
    assert (cq_key(q1) == cq_key(q2)) == reference_isomorphic(q1, q2)


def test_cq_key_of_a_long_path():
    # refinement splits the path from both ends inward, one pair of
    # variables per splitter, so the key costs linear work in the length
    xs = [Variable(f"x{i}") for i in range(1501)]
    path = [atom("R", xs[i], xs[i + 1]) for i in range(1500)]
    q = CQ((), path)
    copy = renamed(q, [Variable(f"y{i}") for i in range(1501)])
    turned = list(path)
    turned[700] = atom("R", xs[701], xs[700])
    assert cq_key(q) == cq_key(copy)
    assert cq_key(q) != cq_key(CQ((), turned))


def test_normal_form_required_for_position():
    multi = TGD.of([atom("B", x)], [atom("Sp", x, z), atom("T", z)])
    (first, *_rest) = normalize_tgds([multi])
    assert len(first.head) == 1
