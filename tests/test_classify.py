import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SECTION41, renamed_marked_variables
from omq.classify import (NotStratifiable, Stratification, classify,
                          is_guarded, is_linear, is_non_recursive, is_sticky,
                          marked_variables, predicate_graph, stratify)
from omq.model import TGD, Atom, Constant, Predicate, Variable, atom
from omq.parser import parse_program
from omq.testkit import GeneratorConfig, random_omq, sticky_family

x, y, z = Variable("x"), Variable("y"), Variable("z")
S41 = parse_program(SECTION41).tgds


def test_guarded_examples():
    ok, _ = is_guarded([TGD.of([atom("R", x, y), atom("P", y)], [atom("Sp", x)])])
    assert ok
    bad, witness = is_guarded(
        [TGD.of([atom("R", x, y), atom("R", y, z)], [atom("Sp", x, z)])])
    assert not bad and witness is not None
    assert is_guarded(S41)[0]


def test_linear_examples():
    assert is_linear(S41)[0]
    assert not is_linear([TGD.of([atom("P", x), atom("T", x)], [atom("Sp", x)])])[0]
    fact = TGD([], [atom("P", z)], [z])
    assert not is_linear([fact])[0]          # ledger: fact tgds are not linear
    assert is_guarded([fact])[0]             # but vacuously guarded
    assert is_sticky([fact])[0]              # and vacuously sticky


def test_stratify_single_edge():
    strat = stratify([TGD.of([atom("P", x)], [atom("R", x, y)])])
    assert isinstance(strat, Stratification)
    assert strat.mu[Predicate("P", 1)] == 0
    assert strat.mu[Predicate("R", 2)] == 1
    assert strat.strata == ((0,),)


def test_stratify_worked_example_cycle():
    strat = stratify(S41)
    assert isinstance(strat, NotStratifiable)
    names = [p.name for p in strat.cycle]
    assert names[0] == names[-1] and set(names) >= {"P", "R"}


def test_stratify_empty():
    strat = stratify([])
    assert isinstance(strat, Stratification)
    assert strat.strata == ((),) and strat.mu == {}


def test_stratify_respects_ordering_constraints():
    tgds = [TGD.of([atom("A", x)], [atom("B", x)]),
            TGD.of([atom("B", x)], [atom("C", x, y)]),
            TGD([], [atom("A", z)], [z])]
    strat = stratify(tgds)
    assert isinstance(strat, Stratification)
    mu = {p.name: k for p, k in strat.mu.items()}
    assert mu["A"] < mu["B"] < mu["C"]
    assert mu["A"] >= 1  # head predicates of fact tgds sit above level 0
    # every tgd lies in the stratum of its head predicate
    for k, stratum in enumerate(strat.strata, start=1):
        for i in stratum:
            (head,) = tgds[i].head
            assert strat.mu[head.predicate] == k


def test_long_rule_chain_stratifies_and_closes_into_one_cycle():
    # P0(x) -> P1(x), ..., P9999(x) -> P10000(x): deeper than the
    # interpreter's recursion limit
    preds = [Predicate(f"P{i}", 1) for i in range(10_001)]
    chain = [TGD.of([atom(preds[i].name, x)], [atom(preds[i + 1].name, x)])
             for i in range(10_000)]
    strat = stratify(chain)
    assert isinstance(strat, Stratification)
    assert all(strat.mu[p] == i for i, p in enumerate(preds))
    assert strat.strata == tuple((i,) for i in range(10_000))
    back = TGD.of([atom("P10000", x)], [atom("P0", x)])
    cycle = stratify(chain + [back])
    assert isinstance(cycle, NotStratifiable)
    assert cycle.cycle == tuple(preds) + (preds[0],)


def test_non_recursive_examples():
    chain = [TGD.of([atom("A", x)], [atom("B", x)]),
             TGD.of([atom("B", x)], [atom("C", x)])]
    assert is_non_recursive(chain)
    assert not is_non_recursive([TGD.of([atom("P", x)], [atom("P", x)])])
    assert not is_non_recursive(S41)


def test_marked_variables_base_rule():
    marks = marked_variables([TGD.of([atom("R", x, y)], [atom("P", y)])])
    assert marks.marked == frozenset({(0, x)})


def test_marked_variables_lossless():
    marks = marked_variables([TGD.of([atom("R", x, y)], [atom("Sp", x, y)])])
    assert marks.marked == frozenset()
    assert marked_variables([]).marked == frozenset()


def test_marked_variables_propagation():
    # the worked example: x of the first rule becomes marked through R,
    # then y of the second rule through P
    marks = marked_variables(S41)
    by_index = {i: {v.name for j, v in marks.marked if j == i} for i in range(3)}
    assert by_index[0] == {"x"}
    assert by_index[1] == {"x", "y"}
    assert by_index[2] == {"x"}


def test_sticky_examples():
    lossless = [TGD.of([atom("R", x, y)], [atom("Sp", x, y)]),
                TGD.of([atom("Sp", x, y)], [atom("R", y, x)])]
    assert is_sticky(lossless)[0]
    bad, witness = is_sticky(
        [TGD.of([atom("R", x, y), atom("R", y, z)], [atom("Sp", x)])])
    assert not bad and witness[1] == y
    assert is_sticky(S41)[0]


def test_classify_worked_example():
    report = classify(S41)
    assert report.linear and report.guarded and report.sticky
    assert not report.non_recursive and not report.full
    assert report.fact_free and report.constant_free
    assert "nonRecursive" in report.witnesses


def test_classify_empty_all_true():
    report = classify([])
    assert all(report.flags().values())
    assert report.witnesses == {}


def test_classify_sticky_family():
    report = classify(sticky_family(3).tgds)
    assert report.sticky and not report.linear
    assert report.non_recursive and not report.constant_free


def test_linear_implies_guarded_on_random_sets():
    hits = 0
    for seed in range(200):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=3,
                              max_tgds=3, target_class="any")
        report = classify(random_omq(cfg).tgds)
        if report.linear:
            hits += 1
            assert report.guarded
    assert hits > 10


def test_marking_monotone_in_rule_set():
    rng = random.Random(3)
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, target_class="any")
        tgds = list(random_omq(cfg).tgds)
        extra = random_omq(GeneratorConfig(seed=seed + 1000, max_predicates=2,
                                           max_arity=2, max_tgds=1,
                                           target_class="any")).tgds
        before = marked_variables(tgds).marked
        after = marked_variables(tgds + list(extra)).marked
        assert before <= after, seed


MARK_PREDICATES = [Predicate("P", 1), Predicate("R", 2), Predicate("S", 3)]
# every rule draws from the same names, so rules share variable names
MARK_TERMS = [x, y, z, Variable("w"), Constant("a")]


@st.composite
def rule_sets(draw):
    def atoms(lo, hi):
        return [Atom(p, tuple(draw(st.sampled_from(MARK_TERMS))
                              for _ in range(p.arity)))
                for p in draw(st.lists(st.sampled_from(MARK_PREDICATES),
                                       min_size=lo, max_size=hi))]

    return [TGD.of(atoms(1, 3), atoms(1, 2))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@given(rule_sets())
def test_marking_equals_the_renamed_apart_reference(tgds):
    assert marked_variables(tgds) == renamed_marked_variables(tgds)


def test_stratify_agrees_with_independent_cycle_check():
    def kahn_acyclic(tgds):
        graph = predicate_graph(tgds)
        indeg = {p: 0 for p in graph}
        for p in graph:
            for q in graph[p]:
                indeg[q] += 1
        queue = [p for p, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            p = queue.pop()
            seen += 1
            for q in graph[p]:
                indeg[q] -= 1
                if indeg[q] == 0:
                    queue.append(q)
        return seen == len(graph)

    for seed in range(80):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=2,
                              max_tgds=4, target_class="any")
        tgds = random_omq(cfg).tgds
        assert isinstance(stratify(tgds), Stratification) == kahn_acyclic(tgds)


def test_classifiers_alpha_invariant():
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, target_class="any")
        tgds = random_omq(cfg).tgds
        renamed = [t.rename("_alpha") for t in tgds]
        a, b = classify(tgds), classify(renamed)
        assert a.flags() == b.flags(), seed
