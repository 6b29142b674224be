"""The four benchmark workloads.

Each workload turns ``--seed`` into a stream of distinct inputs, produced one
round at a time, runs one op per input through the public functions of the
``omq`` modules, and checks each output against a reference that does not
share the code under test. The modules are looked up at call time, so the
tracer's wrappers see every call.

Inputs never repeat within a run: ``xrewrite`` memoizes on the OMQ, and a
repeated OMQ would time a cache lookup instead of a rewriting. Where a
workload reuses a structure (the fixed ontologies, the or-gadget sources),
each op gets a fresh predicate suffix, so every OMQ is new to the program,
as it is to a fresh ``omq`` process.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter, deque
from dataclasses import dataclass, field

from omq.model import (CQ, OMQ, UCQ, Atom, Constant, Database, Predicate,
                       Schema, Variable, as_ucq)
from omq.testkit import (GeneratorConfig, random_omq, sticky_family,
                         sticky_family_witness)

import reference

PARSER = importlib.import_module("omq.parser")
EVALUATE = importlib.import_module("omq.evaluate")
REWRITE = importlib.import_module("omq.rewrite")
CONTAIN = importlib.import_module("omq.contain")
CHASE = importlib.import_module("omq.chase")
APPS = importlib.import_module("omq.apps")

REWRITE_BUDGET = 50_000


@dataclass
class Input:
    ident: str  # names the input in failure records: kind, round, position
    seed: int  # the generator seed the input was drawn from
    payload: object
    extra: dict = field(default_factory=dict)


def _int_seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).getrandbits(48)


class Workload:
    """A seeded input stream plus the op and its reference check."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds = 0
        self.queue: deque[Input] = deque()
        self.refill()

    def refill(self):
        self.queue.extend(self.make_round(self.rounds))
        self.rounds += 1

    def next_input(self) -> Input:
        if not self.queue:
            self.refill()
        return self.queue.popleft()

    def make_round(self, r: int) -> list[Input]:
        raise NotImplementedError

    def op(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, out) -> bool:
        raise NotImplementedError


# -- answer-rewrite / answer-chase ----------------------------------------------
#
# Fixed non-recursive ontologies with existential rules and 3-atom join
# queries. ``@`` marks where each op's predicate suffix goes. The SQL gives
# the certain answers over the plain tables and was derived by hand from the
# rules; it is the reference, evaluated by sqlite3.

ONTOLOGIES = (
    {
        "name": "chain",
        "schema": {"R": 2, "S": 2, "B": 1, "T": 2},
        "weights": {"R": 4, "S": 2, "B": 1, "T": 1},
        "tgds": ("S@(x,y) -> R@(y,x).",
                 "B@(x) -> exists y . T@(x,y)."),
        "query": "q(x) :- R@(x,y), R@(y,z), T@(z,w).",
        "sql": """
            WITH RR(a, b) AS (SELECT a, b FROM R UNION SELECT b, a FROM S),
                 TT(a) AS (SELECT a FROM T UNION SELECT a FROM B)
            SELECT DISTINCT r1.a FROM RR r1
              JOIN RR r2 ON r1.b = r2.a JOIN TT ON r2.b = TT.a""",
    },
    {
        "name": "successor",
        "schema": {"E": 2, "P": 1, "C": 1},
        "weights": {"E": 5, "P": 2, "C": 1},
        "tgds": ("P@(x) -> exists y . E@(x,y).",
                 "E@(x,y) -> N@(y).",
                 "C@(x) -> N@(x)."),
        "query": "q(x,y) :- E@(x,y), E@(y,z), N@(z).",
        "sql": """
            SELECT DISTINCT a, b FROM E
            WHERE b IN (SELECT a FROM E UNION SELECT a FROM P)""",
    },
    {
        "name": "department",
        "schema": {"Emp": 2, "Dept": 1, "Works": 2, "Mgr": 1},
        "weights": {"Emp": 3, "Dept": 2, "Works": 3, "Mgr": 1},
        "tgds": ("Emp@(x,y), Dept@(y) -> Works@(x,y).",
                 "Mgr@(x) -> exists y . Works@(x,y), Dept@(y)."),
        "query": "q(x,y) :- Works@(x,z), Works@(y,z), Dept@(z).",
        "sql": """
            WITH W(a, b) AS (SELECT a, b FROM Works UNION
                             SELECT Emp.a, Emp.b FROM Emp JOIN Dept ON Emp.b = Dept.a),
                 WD(a, b) AS (SELECT W.a, W.b FROM W JOIN Dept ON W.b = Dept.a)
            SELECT DISTINCT w1.a, w2.a FROM WD w1 JOIN WD w2 ON w1.b = w2.b
            UNION SELECT a, a FROM Mgr""",
    },
)


def random_facts(onto: dict, n: int, rng: random.Random) -> list[tuple[str, tuple]]:
    """``n`` facts over the ontology's data schema, constants drawn from a
    domain of n/2 names so the joins keep a fixed fan-out as n grows."""
    preds = list(onto["weights"])
    weights = [onto["weights"][p] for p in preds]
    domain = max(4, n // 2)
    out = []
    for p in rng.choices(preds, weights, k=n):
        out.append((p, tuple(f"c{rng.randrange(domain)}"
                             for _ in range(onto["schema"][p]))))
    return out


def program_text(onto: dict, suffix: str, facts) -> str:
    schema = ", ".join(f"{p}@/{k}" for p, k in onto["schema"].items())
    lines = [f"schema {{ {schema} }}", "tgds t {"]
    lines += [f"  {t}" for t in onto["tgds"]]
    lines += ["}", f"query {onto['query']}", "database d {"]
    lines += [f"  {p}@({', '.join(args)})." for p, args in facts]
    lines.append("}")
    return "\n".join(lines).replace("@", suffix) + "\n"


class AnswerWorkload(Workload):
    """Parse a program, then ``certain_answers`` with a fixed strategy, as
    ``omq eval`` does. One round is every ontology at each of its three
    sizes, shuffled. The sizes are set per ontology so that the three ops of
    one size step cost about the same; the median and p90 then each fall
    inside one step rather than between two."""

    strategy = ""
    sizes: dict[str, tuple[int, ...]] = {}

    def make_round(self, r):
        rng = random.Random(_int_seed(self.name, self.seed, r))
        cells = [(o, n) for o in range(len(ONTOLOGIES))
                 for n in self.sizes[ONTOLOGIES[o]["name"]]]
        rng.shuffle(cells)
        out = []
        for pos, (o, n) in enumerate(cells):
            onto = ONTOLOGIES[o]
            seed = _int_seed(self.name, self.seed, r, pos)
            facts = random_facts(onto, n, random.Random(seed))
            text = program_text(onto, f"_{r}_{pos}", facts)
            out.append(Input(f"{onto['name']}-n{n}-r{r}-{pos}", seed, text,
                             {"onto": onto, "facts": facts}))
        return out

    def op(self, inp):
        program = PARSER.parse_program(inp.payload)
        return EVALUATE.certain_answers(program.omq("q"),
                                        program.databases["d"],
                                        strategy=self.strategy)

    def check(self, inp, out):
        onto = inp.extra["onto"]
        expected = reference.sql_answers(onto["schema"], inp.extra["facts"],
                                         onto["sql"])
        got = {tuple(c.name for c in row) for row in out}
        return got == expected


class AnswerRewrite(AnswerWorkload):
    name = "answer-rewrite"
    strategy = "rewriting"
    sizes = {"chain": (150, 250, 350), "successor": (120, 200, 280),
             "department": (180, 300, 420)}


class AnswerChase(AnswerWorkload):
    name = "answer-chase"
    strategy = "chase"
    sizes = {"chain": (100, 150, 200), "successor": (70, 105, 140),
             "department": (110, 165, 220)}


# -- rewrite --------------------------------------------------------------------


def gadget_source(shape: int, suffix: str) -> OMQ:
    """A rule-free Boolean one-disjunct OMQ over {P/1, T/1, R/2}: ``P(x)``
    for shape 0, ``R(x,y)`` for shape 1. Two-disjunct sources such as
    ``P(x) v T(x)`` give gadgets that take over 10 s each, too long for
    one op of a run."""
    p, t, r = (Predicate(n + suffix, k) for n, k in (("P", 1), ("T", 1), ("R", 2)))
    x, y = Variable("x"), Variable("y")
    body = [Atom(p, (x,))] if shape == 0 else [Atom(r, (x, y))]
    return OMQ(Schema([p, t, r]), (), UCQ([CQ((), body)]))


def random_database(schema: Schema, n_atoms: int, n_consts: int,
                    rng: random.Random) -> Database:
    consts = [Constant(f"c{i + 1}") for i in range(n_consts)]
    preds = sorted(schema, key=lambda q: q.name)
    return Database(Atom(q, tuple(rng.choice(consts) for _ in range(q.arity)))
                    for q in rng.choices(preds, k=n_atoms))


# Queries of 3 atoms give a tail of 1-2 s ops (about one in a few hundred),
# enough to move a run's throughput by a fifth; with 2 atoms the slowest of
# 40,000 draws took 0.3 s.
STICKY_CONFIG = dict(max_predicates=3, max_arity=3, max_tgds=3, max_body_atoms=1,
                     max_query_atoms=2, max_query_vars=4, target_class="S")
# (rules, query atoms, data predicates) of a random sticky OMQ. Op times
# differ tenfold between shapes, so each round deals out the same number of
# each, and the mix of a run does not depend on the seed. A gadget takes
# about 0.25 s and a sticky OMQ about 1 ms, so a run spends most of its time
# on gadgets, and its median and p90 both fall among the sticky OMQs.
STICKY_SHAPES = [(t, q, p) for t in (1, 2, 3) for q in (1, 2) for p in (1, 2, 3)]
STICKY_PER_SHAPE = 3


class Rewrite(Workload):
    """``xrewrite`` with a step budget. A run opens with the hard sticky family
    at n=3; every round then has one Boolean or-gadget OMQ, its source
    alternating between the two shapes of ``gadget_source``, and
    ``STICKY_PER_SHAPE`` seeded random sticky OMQs with arity-3 predicates
    of each of the ``STICKY_SHAPES``."""

    name = "rewrite"

    def __init__(self, seed):
        # hashes of the OMQs drawn so far: keeping thousands of OMQs would
        # make peak memory grow with the number of ops a run completes
        self.seen: set[int] = set()
        super().__init__(seed)

    def make_round(self, r):
        out = []
        if r == 0:
            out.append(Input("sticky-family-3", 3, sticky_family(3),
                             {"kind": "family"}))
        source = gadget_source(r % 2, f"_{r}")
        gadget = CONTAIN.ucq_omq_to_cq_omq(source)
        out.append(Input(f"gadget{r % 2}-r{r}",
                         _int_seed(self.name, self.seed, r, "gadget"), gadget,
                         {"kind": "gadget", "source": source}))
        wanted = Counter(dict.fromkeys(STICKY_SHAPES, STICKY_PER_SHAPE))
        pos = 0
        while wanted:
            seed = _int_seed(self.name, self.seed, r, pos)
            pos += 1
            omq = random_omq(GeneratorConfig(seed=seed, answer_arity=seed % 2,
                                             **STICKY_CONFIG))
            shape = (len(omq.tgds), len(omq.ucq.disjuncts[0].body),
                     len(omq.data_schema))
            if not wanted[shape] or hash(omq) in self.seen:
                continue
            wanted -= Counter([shape])
            self.seen.add(hash(omq))
            out.append(Input(f"sticky-r{r}-{pos - 1}", seed, omq,
                             {"kind": "sticky"}))
        return out

    def op(self, inp):
        return REWRITE.xrewrite(inp.payload, budget=REWRITE_BUDGET)

    def check(self, inp, out):
        omq = inp.payload
        if any(not d.predicates() <= set(omq.data_schema) for d in out):
            return False
        kind = inp.extra["kind"]
        rng = random.Random(inp.seed)
        if kind == "family":
            # no 1-atom database satisfies the query; the 8-atom witness does
            witness = sticky_family_witness(3)
            if reference.eval_ucq(out, witness.atoms) != {()}:
                return False
            s_pred = next(iter(omq.data_schema))
            consts = [Constant(c) for c in ("0", "1", "a", "b")]
            for _ in range(4):
                one = Atom(s_pred, tuple(rng.choice(consts) for _ in range(3)))
                if reference.eval_ucq(out, [one]):
                    return False
            return True
        if kind == "gadget":
            source = inp.extra["source"]
            for _ in range(4):
                db = random_database(source.data_schema, rng.randint(0, 4), 2, rng)
                if (reference.eval_ucq(out, db.atoms)
                        != reference.eval_ucq(as_ucq(source.query).disjuncts,
                                              db.atoms)):
                    return False
            return True
        if reference.is_recursive(omq.tgds):
            return True  # no terminating chase to compare against
        for _ in range(2):
            db = random_database(omq.data_schema, 6, 3, rng)
            chased = CHASE.chase_nr(db, omq.tgds).instance.atoms
            if (reference.eval_ucq(out, db.atoms)
                    != reference.eval_ucq(as_ucq(omq.query).disjuncts, chased)):
                return False
        return True


# -- verify ---------------------------------------------------------------------

VERIFY_BOUNDS = (3, 4)  # max constants, max atoms of the definitional check
# (ground atoms of the data schema over 3 constants, query atoms): one pair
# per op of a round. The definitional check enumerates every database of up
# to 4 of those atoms, so the first entry sets the op's size: 6 -> 57
# databases, 9 -> 256, 12 -> 794. A non-recursive rule set needs two
# predicates, so the NR slots take 6 and 12. Four of the six ops are of the
# steadiest kind, 12 ground atoms and a one-atom query, so that the median
# and the tail both fall among them.
VERIFY_SHAPES = {"NR": ((6, 1), (12, 1)),
                 "other": ((9, 2), (12, 1), (12, 1), (12, 1))}


class Verify(Workload):
    """``distributes`` then ``distribution_definitional_check``: the
    ``omq distributes --verify`` path.

    Inputs follow the generator settings of acceptance criterion 9, with
    three limits that keep the op cost steady enough for one run: rule
    bodies have one atom, queries at most 2 atoms, and the schema at most
    one binary predicate. Rule sets with a two-atom body give rare ops of
    18-21 s, two binary predicates (4,048 databases) take 1.5-8 s an op, and
    3-atom queries over one binary predicate spread from 0.1 to 1.4 s.
    Each round holds one OMQ per pairing of target class (L, NR, S) and
    answer arity (0, 1), with the schema sizes and query lengths of
    ``VERIFY_SHAPES`` dealt out in seeded order."""

    name = "verify"
    classes = ("L", "NR", "S")

    def __init__(self, seed):
        self.seen: set[int] = set()  # hashes of the OMQs drawn so far
        super().__init__(seed)

    def make_round(self, r):
        rng = random.Random(_int_seed(self.name, self.seed, r))
        shapes = {g: rng.sample(v, len(v)) for g, v in VERIFY_SHAPES.items()}
        out = []
        for slot, (cls, arity) in enumerate((c, a) for c in self.classes
                                            for a in range(2)):
            size, length = shapes["NR" if cls == "NR" else "other"].pop()
            k = 0
            while True:
                seed = _int_seed(self.name, self.seed, r, slot, k)
                k += 1
                cfg = GeneratorConfig(seed=seed, max_predicates=2, max_arity=2,
                                      max_tgds=2, max_body_atoms=1,
                                      max_query_atoms=2, max_query_vars=3,
                                      answer_arity=arity, target_class=cls,
                                      connected_bodies=True)
                omq = random_omq(cfg)
                if (sum(3 ** p.arity for p in omq.data_schema) == size
                        and len(omq.ucq.disjuncts[0].body) == length
                        and not any(t.constants() for t in omq.tgds)
                        and not omq.ucq.disjuncts[0].constants()
                        and hash(omq) not in self.seen):
                    break
            self.seen.add(hash(omq))
            out.append(Input(f"{cls}-a{arity}-g{size}-q{length}-r{r}", seed, omq))
        rng.shuffle(out)
        return out

    def op(self, inp):
        verdict = APPS.distributes(inp.payload)
        holds, _ = APPS.distribution_definitional_check(inp.payload,
                                                         *VERIFY_BOUNDS)
        return verdict.distributes, holds

    def check(self, inp, out):
        decided, holds = out
        return decided == holds


WORKLOADS = {w.name: w for w in (AnswerRewrite, AnswerChase, Rewrite, Verify)}
