"""Fixture generators backing the oracles: the hard sticky witness family,
seeded random OMQs per class, and bounded database enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .classify import classify
from .errors import PreconditionViolated
from .model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Predicate,
                    Schema, Variable)

MAX_GROUND_ATOMS = 24
MAX_WITNESS_ARITY = 16  # sticky_family_witness(n) has 2^n atoms


def enumerate_databases(schema: Schema, max_constants: int,
                        max_atoms: int) -> Iterator[Database]:
    """Every database over constants c1..c<max_constants> with at most
    ``max_atoms`` atoms, each exactly once, smallest first, in a fixed order.

    Guarded against blowup: the ground-atom universe must stay at or below
    24 atoms. Negative bounds are rejected.
    """
    if max_constants < 0 or max_atoms < 0:
        raise PreconditionViolated(
            f"enumeration bounds must be non-negative, got {max_constants} "
            f"constants and {max_atoms} atoms")
    consts = [Constant(f"c{i + 1}") for i in range(max_constants)]
    ground: list[Atom] = []
    for p in schema:
        for tup in itertools.product(consts, repeat=p.arity):
            ground.append(Atom(p, tup))
    if len(ground) > MAX_GROUND_ATOMS:
        raise PreconditionViolated(
            f"{len(ground)} ground atoms exceed the enumeration guard "
            f"({MAX_GROUND_ATOMS})")
    for size in range(0, min(max_atoms, len(ground)) + 1):
        for combo in itertools.combinations(ground, size):
            yield Database._trusted(frozenset(combo))


def count_databases(schema: Schema, max_constants: int, max_atoms: int) -> int:
    """Closed-form count matching ``enumerate_databases``."""
    import math

    ground = sum(max_constants ** p.arity for p in schema.predicates)
    return sum(math.comb(ground, j) for j in range(0, min(max_atoms, ground) + 1))


def sticky_family(n: int) -> OMQ:
    """The hard sticky witness family over one n-ary data predicate.

    Rules funnel the data relation through a cascade of doubling predicates
    (arity n+2, the n original positions plus designated zero/one anchors):
    two atoms differing at position i merge into one with the zero anchor at
    position i. The Boolean query asks for the fully merged atom over the
    constants 0 and 1, which forces exponentially many data atoms: a
    satisfying database needs at least 2^(n-2) atoms.
    """
    if n < 2:
        raise PreconditionViolated("the family is defined for n >= 2")
    s_pred = Predicate("S", n)
    p_pred = [Predicate(f"P{i}", n + 2) for i in range(n + 1)]
    ans = Predicate("Ans", 2)
    xs = [Variable(f"x{i + 1}") for i in range(n)]
    z, o = Variable("z"), Variable("o")
    zero, one = Constant("0"), Constant("1")
    tgds = [TGD([Atom(s_pred, tuple(xs))],
                [Atom(p_pred[n], tuple(xs) + (zero, one))], ())]
    for i in range(n, 0, -1):
        low = [Atom(p_pred[i], tuple(xs[:i - 1]) + (z,) + tuple(xs[i:]) + (z, o))]
        high = [Atom(p_pred[i], tuple(xs[:i - 1]) + (o,) + tuple(xs[i:]) + (z, o))]
        head = [Atom(p_pred[i - 1], tuple(xs[:i - 1]) + (z,) + tuple(xs[i:]) + (z, o))]
        tgds.append(TGD(low + high, head, ()))
    tgds.append(TGD([Atom(p_pred[0], tuple([z] * n) + (z, o))],
                    [Atom(ans, (z, o))], ()))
    query = CQ((), [Atom(ans, (zero, one))])
    return OMQ(Schema([s_pred]), tuple(tgds), query)


def sticky_family_witness(n: int) -> Database:
    """A database satisfying the family query: every 0/1 pattern of the
    data relation. It has 2^n atoms, so n is capped at
    ``MAX_WITNESS_ARITY``."""
    if n > MAX_WITNESS_ARITY:
        raise PreconditionViolated(
            f"the witness of sticky-{n} has 2^{n} atoms; n is capped at "
            f"{MAX_WITNESS_ARITY}")
    s_pred = Predicate("S", n)
    zero, one = Constant("0"), Constant("1")
    atoms = [Atom(s_pred, tup)
             for tup in itertools.product((zero, one), repeat=n)]
    return Database(atoms)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_predicates: int = 2
    max_arity: int = 2
    max_tgds: int = 3
    max_body_atoms: int = 2
    max_query_atoms: int = 2
    max_query_vars: int = 3
    answer_arity: int = 1
    target_class: str = "any"  # L | NR | S | F | any
    connected_bodies: bool = False
    fact_tgds: bool = False

    def __post_init__(self):
        if self.target_class not in {"L", "NR", "S", "F", "any"}:
            raise PreconditionViolated(f"unknown class {self.target_class!r}")
        for bound in (self.max_predicates, self.max_arity, self.max_tgds,
                      self.max_body_atoms, self.max_query_atoms):
            if bound < 1:
                raise PreconditionViolated("generator bounds are positive")


_VAR_POOL = [Variable(v) for v in ("x", "y", "z", "u", "v", "w", "x1", "y1")]


def _matches(report, target: str) -> bool:
    return {
        "L": report.linear,
        "NR": report.non_recursive,
        "S": report.sticky,
        "F": report.full,
        "any": True,
    }[target]


def random_omq(cfg: GeneratorConfig) -> OMQ:
    """A reproducible random OMQ whose rule set classifies into the target
    class (generation retries on a miss, so the post-condition is checked,
    not assumed)."""
    rng = random.Random(cfg.seed)
    for _ in range(500):
        omq = _candidate(cfg, rng)
        if omq is None:
            continue
        if _matches(classify(omq.tgds), cfg.target_class):
            return omq
    raise PreconditionViolated(
        f"no {cfg.target_class} rule set found within the retry budget")


def _candidate(cfg: GeneratorConfig, rng: random.Random,
               preds: Optional[list[Predicate]] = None) -> Optional[OMQ]:
    if preds is None:
        n_preds = rng.randint(1, cfg.max_predicates)
        preds = [Predicate(f"p{i + 1}", rng.randint(1, cfg.max_arity))
                 for i in range(n_preds)]
    schema = Schema(preds)
    n_tgds = rng.randint(1, cfg.max_tgds)
    tgds = []
    for _ in range(n_tgds):
        t = _random_tgd(cfg, rng, preds)
        if t is not None:
            tgds.append(t)
    if not tgds:
        return None
    query = _random_query(cfg, rng, preds)
    try:
        return OMQ(schema, tuple(tgds), query)
    except Exception:
        return None


def random_omq_pair(seed: int, class1: str, class2: str,
                    max_predicates: int = 2, max_arity: int = 2,
                    max_tgds: int = 2, max_query_atoms: int = 2,
                    answer_arity: int = 1) -> Optional[tuple[OMQ, OMQ]]:
    """Two OMQs over one shared data schema with aligned answer arities,
    each classified into its requested class; None when the retry budget
    runs out for this seed."""
    rng = random.Random(f"pair-{seed}")
    cfg1 = GeneratorConfig(seed=seed, max_predicates=max_predicates,
                           max_arity=max_arity, max_tgds=max_tgds,
                           max_query_atoms=max_query_atoms,
                           answer_arity=answer_arity, target_class=class1)
    cfg2 = GeneratorConfig(seed=seed, max_predicates=max_predicates,
                           max_arity=max_arity, max_tgds=max_tgds,
                           max_query_atoms=max_query_atoms,
                           answer_arity=answer_arity, target_class=class2)
    n_preds = rng.randint(1, max_predicates)
    preds = [Predicate(f"p{i + 1}", rng.randint(1, max_arity))
             for i in range(n_preds)]
    for _ in range(200):
        q1 = _candidate(cfg1, rng, preds)
        q2 = _candidate(cfg2, rng, preds)
        if q1 is None or q2 is None:
            continue
        if q1.arity != q2.arity:
            continue
        if not (_matches(classify(q1.tgds), class1)
                and _matches(classify(q2.tgds), class2)):
            continue
        return q1, q2
    return None


def _random_tgd(cfg: GeneratorConfig, rng: random.Random,
                preds: list[Predicate]) -> Optional[TGD]:
    if cfg.fact_tgds and rng.random() < 0.15:
        body_atoms: list[Atom] = []
    else:
        n_body = 1 if cfg.target_class == "L" else rng.randint(1, cfg.max_body_atoms)
        body_atoms = []
        pool = _VAR_POOL[:4]
        prev_var: Optional[Variable] = None
        for _ in range(n_body):
            p = rng.choice(preds)
            args = [rng.choice(pool) for _ in range(p.arity)]
            if cfg.connected_bodies and prev_var is not None and args:
                args[rng.randrange(len(args))] = prev_var
            a = Atom(p, tuple(args))
            body_atoms.append(a)
            if a.variables():
                prev_var = rng.choice(sorted(a.variables()))
    body_vars = sorted({v for a in body_atoms for v in a.variables()})
    head_pred = rng.choice(preds)
    head_args: list = []
    exist: list[Variable] = []
    want_exist = cfg.target_class != "F" and rng.random() < 0.5
    lossless = cfg.target_class == "S"
    if lossless and body_vars and head_pred.arity < len(body_vars):
        # a lossless head must carry every body variable
        candidates = [p for p in preds if p.arity >= len(body_vars)]
        if not candidates:
            return None
        head_pred = rng.choice(candidates)
    fresh = Variable("e1")
    for k in range(head_pred.arity):
        if lossless and k < len(body_vars):
            head_args.append(body_vars[k])
        elif want_exist and not exist and (not body_vars or rng.random() < 0.4):
            head_args.append(fresh)
            exist.append(fresh)
        elif body_vars:
            head_args.append(rng.choice(body_vars))
        else:
            head_args.append(fresh)
            if not exist:
                exist.append(fresh)
    if lossless and body_vars:
        missing = set(body_vars) - set(a for a in head_args if isinstance(a, Variable))
        if missing:
            return None
    try:
        return TGD(body_atoms, [Atom(head_pred, tuple(head_args))], exist)
    except Exception:
        return None


def random_ucq_omq(seed: int, target_class: str, answer_arity: int,
                   n_disjuncts: int = 2, max_predicates: int = 2,
                   max_arity: int = 2, max_tgds: int = 2,
                   with_rules: bool = True) -> Optional[OMQ]:
    """An OMQ with a UCQ query of ``n_disjuncts`` disjuncts, suitable for
    exercising the or-gadget transformation."""
    rng = random.Random(f"ucq-{seed}")
    cfg = GeneratorConfig(seed=seed, max_predicates=max_predicates,
                          max_arity=max_arity, max_tgds=max_tgds,
                          max_query_atoms=2, answer_arity=answer_arity,
                          target_class=target_class)
    n_preds = rng.randint(1, max_predicates)
    preds = [Predicate(f"p{i + 1}", rng.randint(1, max_arity))
             for i in range(n_preds)]
    for _ in range(200):
        tgds: list[TGD] = []
        if with_rules:
            for _ in range(rng.randint(1, max_tgds)):
                t = _random_tgd(cfg, rng, preds)
                if t is not None:
                    tgds.append(t)
            if not _matches(classify(tgds), target_class):
                continue
        disjuncts = []
        ok = True
        for _ in range(n_disjuncts):
            q = _random_query(cfg, rng, preds)
            if q.arity != answer_arity:
                ok = False
                break
            disjuncts.append(q)
        if not ok:
            continue
        try:
            return OMQ(Schema(preds), tuple(tgds), UCQ(disjuncts))
        except Exception:
            continue
    return None


def _random_query(cfg: GeneratorConfig, rng: random.Random,
                  preds: list[Predicate]) -> CQ:
    pool = _VAR_POOL[:cfg.max_query_vars]
    n_atoms = rng.randint(1, cfg.max_query_atoms)
    atoms = []
    for _ in range(n_atoms):
        p = rng.choice(preds)
        atoms.append(Atom(p, tuple(rng.choice(pool) for _ in range(p.arity))))
    used = sorted({v for a in atoms for v in a.variables()})
    arity = min(cfg.answer_arity, len(used))
    answers = tuple(rng.sample(used, arity)) if arity else ()
    return CQ(answers, atoms)
