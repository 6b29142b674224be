"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time. Tolerances and time limits are pinned here; run with
``pytest -s tests/test_acceptance.py`` to watch the lines stream.
"""

import itertools
import time

from helpers import SECTION41, same_disjunct_sets
from omq.apps import distributes, distribution_definitional_check
from omq.classify import classify
from omq.contain import (brute_force_contains, coeval_to_cocontainment,
                         contains, eval_to_containment, ucq_omq_to_cq_omq,
                         witness_bound)
from omq.errors import BudgetExhausted, UnsupportedClass
from omq.evaluate import certain_answers, eval_membership, prepare
from omq.model import (CQ, UCQ, Atom, Constant, Database, Predicate,
                       Variable, as_ucq, atom)
from omq.parser import parse_program
from omq.rewrite import xrewrite
from omq.testkit import (GeneratorConfig, enumerate_databases, random_omq,
                         random_omq_pair, random_ucq_omq, sticky_family,
                         sticky_family_witness)

x = Variable("x")


def report(n, label, t0, limit):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {n}: PASS ({label}, {elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"criterion {n} exceeded its time limit"


def test_01_worked_example_rewriting_exact():
    t0 = time.time()
    omq41 = parse_program(SECTION41).omq("q")
    disjuncts = xrewrite(omq41)
    expected = [CQ((x,), [atom("P", x)]), CQ((x,), [atom("T", x)])]
    assert same_disjunct_sets(disjuncts, expected), \
        [str(d) for d in disjuncts]
    report(1, "rewriting is exactly {P(x), T(x)}", t0, 1.0)


def test_02_linear_witness_bound():
    t0 = time.time()
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=3,
                              max_tgds=4, max_query_atoms=3,
                              target_class="L")
        omq = random_omq(cfg)
        q_atoms = max(len(d.body) for d in as_ucq(omq.query).disjuncts)
        disjuncts = xrewrite(omq)
        assert all(len(d.body) <= q_atoms for d in disjuncts), seed
        checked += 1
    report(2, f"{checked} linear rewritings respect the |q| bound", t0, 30.0)


def test_03_sticky_join_property():
    t0 = time.time()
    checked = 0
    skipped = 0
    seed = 0
    while checked < 50:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, max_query_atoms=2,
                              target_class="S")
        omq = random_omq(cfg)
        original_vars = {v.name for d in as_ucq(omq.query).disjuncts
                         for v in d.variables()}
        try:
            disjuncts = xrewrite(omq, budget=200_000)
        except BudgetExhausted:
            skipped += 1  # astronomically large sticky state space; redraw
            continue
        for d in disjuncts:
            occurs_in = {}
            for a in d.body:
                for v in a.variables():
                    occurs_in.setdefault(v, set()).add(a)
            multi = {v for v, ats in occurs_in.items() if len(ats) >= 2}
            for v in multi:
                assert v.name in original_vars, (seed, str(d), v.name)
        checked += 1
    assert skipped <= 10
    report(3, f"{checked} sticky rewritings keep join variables original "
              f"({skipped} oversize draws redrawn)", t0, 60.0)


def _ground_atom_count(schema, k):
    return sum(k ** p.arity for p in schema.predicates)


def test_04_containment_oracle_equivalence():
    t0 = time.time()
    classes = ("L", "NR", "S")
    checked = 0
    agreements = 0
    seed = 0
    while checked < 100:
        seed += 1
        pair = random_omq_pair(seed, classes[seed % 3], classes[(seed // 3) % 3])
        if pair is None:
            continue
        q1, q2 = pair
        if seed % 4 == 0:
            q2 = q1  # guarantee a steady supply of contained pairs
        try:
            p1 = prepare(q1)  # one rewriting of q1 serves every call below
        except UnsupportedClass:
            continue
        bound = witness_bound(p1).value
        if bound > 4:
            continue
        terms = max((len(d.variables()) + len(d.constants())
                     for d in p1.rewriting), default=1)
        max_constants = max(2, terms)
        if _ground_atom_count(q1.data_schema, max_constants) > 18:
            continue
        direct = contains(p1, q2)
        oracle = brute_force_contains(p1, q2, max_constants, bound)
        assert oracle.exact
        assert direct.contained == oracle.contained, seed
        agreements += 1
        checked += 1
    assert agreements == checked == 100
    report(4, "100/100 contains() verdicts match the brute-force oracle",
           t0, 600.0)


def test_05_nr_strategy_agreement():
    t0 = time.time()
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=3, target_class="NR")
        omq = random_omq(cfg)
        dbs = list(enumerate_databases(omq.data_schema, 2, 4))
        db = dbs[seed % len(dbs)]
        chase_side = certain_answers(omq, db, strategy="chase")
        rewrite_side = certain_answers(omq, db, strategy="rewriting")
        assert chase_side == rewrite_side, seed
        checked += 1
    report(5, "100/100 chase vs rewriting answer sets equal", t0, 120.0)


def test_06_reduction_equivalences():
    t0 = time.time()
    classes = ("L", "NR", "S")
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, target_class=classes[seed % 3])
        omq = random_omq(cfg)
        dbs = list(enumerate_databases(omq.data_schema, 2, 3))
        db = dbs[seed % len(dbs)]
        adom = sorted({t for a in db for t in a.args})
        if omq.arity > 0 and not adom:
            continue
        tup = tuple(adom[(seed + i) % len(adom)]
                    for i in range(omq.arity)) if omq.arity else ()
        member = eval_membership(omq, db, tup)
        q1, q2 = eval_to_containment(omq, db, tup)
        assert contains(q1, q2).contained == member, seed
        checked += 1
    forward = checked

    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, answer_arity=0,
                              target_class=("NR", "S")[seed % 2])
        omq = random_omq(cfg)
        if omq.arity != 0:
            continue
        dbs = list(enumerate_databases(omq.data_schema, 2, 3))
        db = dbs[seed % len(dbs)]
        member = eval_membership(omq, db, ())
        q1, q2 = coeval_to_cocontainment(omq, db, ())
        if not classify(q1.tgds).ucq_rewritable:
            continue
        assert (not contains(q1, q2).contained) == member, seed
        checked += 1
    assert forward == checked == 100
    report(6, "100+100 reduction biconditionals hold", t0, 300.0)


def test_07_or_gadget_equivalence():
    t0 = time.time()
    cases = 0
    preserved_or_logged = 0
    discrepancies = []
    seed = 0
    while cases < 20:
        seed += 1
        boolean = cases % 2 == 0
        source_class = ("NR", "L", "NR", "S")[cases % 4]
        if not boolean:
            source_class = "NR"  # saturation flavour needs a chase strategy
        omq = random_ucq_omq(seed, source_class, 0 if boolean else 1)
        if omq is None:
            continue
        if not boolean and not classify(omq.tgds).non_recursive:
            continue
        gadget = ucq_omq_to_cq_omq(omq)
        g_report = classify(gadget.tgds)
        strategy = "chase" if g_report.non_recursive else "rewriting"
        same = True
        for db in enumerate_databases(omq.data_schema, 2, 3):
            if certain_answers(omq, db) != certain_answers(
                    gadget, db, strategy=strategy):
                same = False
                break
        assert same, seed
        src = classify(omq.tgds)
        lost = [f for f in ("linear", "guarded", "non_recursive", "sticky")
                if getattr(src, f) and not getattr(g_report, f)]
        # structural guarantees: the acyclic shape always survives, and the
        # Boolean flavour keeps single-atom bodies
        assert "non_recursive" not in lost, seed
        if boolean:
            assert "linear" not in lost and "guarded" not in lost, seed
        if lost:
            discrepancies.append((seed, boolean, lost))
        preserved_or_logged += 1
        cases += 1
    for seed, boolean, lost in discrepancies:
        print(f"  or-gadget class discrepancy: lost {lost} "
              f"(reproduce: seed={seed}, boolean={boolean})")
    assert cases == preserved_or_logged == 20
    report(7, "20/20 or-gadget answer sets equal "
              f"({len(discrepancies)} logged class discrepancies)", t0, 300.0)


def test_08_sticky_family_floor():
    t0 = time.time()
    fam = sticky_family(3)
    s_pred = Predicate("S", 3)
    consts = [Constant(c) for c in ("0", "1", "a", "b", "c")]
    for tup in itertools.product(consts, repeat=3):
        db = Database([Atom(s_pred, tup)])
        assert not certain_answers(fam, db, strategy="chase"), tup
    assert not certain_answers(fam, Database(), strategy="chase")
    witness = sticky_family_witness(3)
    assert len(witness) >= 2
    assert certain_answers(fam, witness, strategy="chase") == {()}
    report(8, "no 1-atom database satisfies; an 8-atom pattern database does",
           t0, 60.0)


def test_09_distribution_agreement():
    t0 = time.time()
    classes = ("L", "NR", "S")
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                              max_tgds=2, max_query_atoms=4,
                              max_query_vars=3, answer_arity=(seed % 2),
                              target_class=classes[seed % 3],
                              connected_bodies=True)
        omq = random_omq(cfg)
        if any(t.constants() for t in omq.tgds):
            continue
        query = omq.query.disjuncts[0] if isinstance(omq.query, UCQ) else omq.query
        if query.constants():
            continue
        verdict = distributes(omq)
        definitional, _ = distribution_definitional_check(omq, 3, 4)
        assert verdict.distributes == definitional, seed
        checked += 1
    report(9, "50/50 distribution verdicts match the definitional check",
           t0, 600.0)


def test_10_classifier_fixtures():
    t0 = time.time()
    report41 = classify(parse_program(SECTION41).tgds)
    assert (report41.linear and report41.guarded and report41.sticky
            and not report41.non_recursive)
    # lossless rule sets are always sticky
    lossless_seen = 0
    for seed in range(400):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=3,
                              max_tgds=3, target_class="any")
        omq = random_omq(cfg)
        body_vars = lambda t: {v for a in t.body for v in a.variables()}
        head_vars = lambda t: {v for a in t.head for v in a.variables()}
        if all(body_vars(t) <= head_vars(t) for t in omq.tgds):
            lossless_seen += 1
            assert classify(omq.tgds).sticky, seed
    assert lossless_seen >= 20
    # linear implies guarded over 200 random rule sets
    for seed in range(200):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=3,
                              max_tgds=3, target_class="any")
        rep = classify(random_omq(cfg).tgds)
        if rep.linear:
            assert rep.guarded, seed
    report(10, "worked-example flags, lossless=>sticky, linear=>guarded",
           t0, 30.0)
