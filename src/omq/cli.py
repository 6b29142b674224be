"""Command-line entry point.

Exit codes follow one convention across subcommands: 0 for success or a
positive verdict, 1 for a negative verdict (not contained, not distributing,
satisfiable, tuple not certain), 2 for any error. Output is JSON by default
(stable key order) or plain text with ``--format text``. The environment
variable OMQ_BUDGET overrides the default rewriting step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import apps, contain, testkit
from .chase import chase_bounded, chase_nr
from .classify import classify
from .errors import OmqError
from .evaluate import certain_answers, eval_membership, prepare
from .model import Atom, Constant, Database, OMQ, as_ucq
from .parser import (parse_program, render_database, render_query_clause,
                     serialize_program)
from .rewrite import DEFAULT_BUDGET, xrewrite

VERSION = 1


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("OMQ_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise OmqError(f"OMQ_BUDGET must be an integer, got {env!r}") from None


def _load(args):
    with open(args.program, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise OmqError(f"{args.program}: not UTF-8 ({e.reason} at byte "
                           f"{e.start})") from None
    return parse_program(text)


def _pick_query(program, name: str) -> OMQ:
    if name not in program.queries:
        raise OmqError(f"no query named {name!r} in the program")
    return program.omq(name)


def _pick_database(program, name: str) -> Database:
    if name not in program.databases:
        raise OmqError(f"no database named {name!r} in the program")
    return program.databases[name]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _publish_counterexample(db: Database, tup):
    """Relabel reserved frozen constants so the rendered text re-parses."""
    taken = {t.name for a in db for t in a.args}
    relabel: dict[Constant, Constant] = {}
    counter = 1
    for a in sorted(db.atoms):
        for t in a.args:
            if t.name.startswith("$") and t not in relabel:
                while f"k{counter}" in taken:
                    counter += 1
                relabel[t] = Constant(f"k{counter}")
                taken.add(f"k{counter}")
    pub_db = Database(Atom(a.predicate, tuple(relabel.get(t, t) for t in a.args))
                      for a in db)
    pub_tup = tuple(relabel.get(t, t) for t in tup)
    return pub_db, pub_tup


def cmd_classify(args) -> int:
    program = _load(args)
    report = classify(program.tgds)
    payload = {"version": VERSION, "flags": report.flags(),
               "witnesses": report.witnesses}
    lines = [f"{k}: {v}" for k, v in report.flags().items()]
    lines += [f"witness[{k}]: {v}" for k, v in report.witnesses.items()]
    _emit(args, payload, lines)
    return 0


def cmd_chase(args) -> int:
    program = _load(args)
    db = _pick_database(program, args.database)
    if args.require_termination or args.max_level is None:
        result = chase_nr(db, program.tgds)
    else:
        result = chase_bounded(db, program.tgds, args.max_level)
    text = render_database("result", result.instance)
    payload = {"version": VERSION, "complete": result.complete,
               "steps": result.steps, "atoms": len(result.instance),
               "instance": text}
    _emit(args, payload, [text, f"complete: {result.complete}"])
    return 0 if result.complete or not args.require_termination else 1


def cmd_rewrite(args) -> int:
    program = _load(args)
    omq = _pick_query(program, args.query)
    trace = None
    if args.trace:
        def trace(event):
            print(json.dumps({"trace": event}, sort_keys=True))
    disjuncts = xrewrite(omq, budget=_budget(args), trace=trace)
    rendered = [render_query_clause(args.query, d) for d in disjuncts]
    payload = {"version": VERSION, "count": len(rendered),
               "disjuncts": rendered}
    _emit(args, payload, rendered or ["% empty rewriting (unsatisfiable)"])
    return 0


def cmd_eval(args) -> int:
    program = _load(args)
    omq = _pick_query(program, args.query)
    db = _pick_database(program, args.database)
    if args.tuple is not None:
        tup = tuple(Constant(c.strip()) for c in args.tuple.split(",") if c.strip())
        member = eval_membership(omq, db, tup, strategy=args.strategy,
                                 budget=_budget(args))
        payload = {"version": VERSION, "member": member}
        _emit(args, payload, [f"member: {member}"])
        return 0 if member else 1
    answers = certain_answers(omq, db, strategy=args.strategy,
                              budget=_budget(args))
    listed = sorted([c.name for c in row] for row in answers)
    payload = {"version": VERSION, "answers": listed, "count": len(listed)}
    _emit(args, payload, [", ".join(t) if t else "()" for t in listed]
          or ["% no answers"])
    return 0


def cmd_contains(args) -> int:
    program = _load(args)
    q1, q2 = [_pick_query(program, q) for q in (args.query1, args.query2)]
    q1, q2 = [prepare(q, budget=_budget(args)) for q in (q1, q2)]
    verdict = contain.contains(q1, q2)
    payload = {"version": VERSION, "contained": verdict.contained}
    lines = [f"contained: {verdict.contained}"]
    if verdict.counterexample:
        db, tup = verdict.counterexample
        pub, pub_tup = _publish_counterexample(db, tup)
        payload["counterexample"] = {
            "database": render_database("counterexample", pub),
            "tuple": [c.name for c in pub_tup],
        }
        lines.append(render_database("counterexample", pub))
        lines.append("tuple: (" + ", ".join(c.name for c in pub_tup) + ")")
    if args.oracle:
        max_atoms = args.max_atoms
        if max_atoms is None:
            max_atoms = contain.witness_bound(q1).value
        max_constants = args.max_constants
        if max_constants is None:
            # enough constants to freeze the largest disjunct of q1's rewriting
            max_constants = max((len(d.variables()) + len(d.constants())
                                 for d in q1.rewriting), default=1)
        oracle = contain.brute_force_contains(q1, q2, max_constants, max_atoms)
        payload["oracleAgrees"] = oracle.contained == verdict.contained
        payload["oracleExact"] = oracle.exact
        lines.append(f"oracleAgrees: {payload['oracleAgrees']}")
    _emit(args, payload, lines)
    return 0 if verdict.contained else 1


def cmd_distributes(args) -> int:
    program = _load(args)
    omq = _pick_query(program, args.query)
    verdict = apps.distributes(omq, budget=_budget(args))
    payload = {"version": VERSION, "distributes": verdict.distributes,
               "unsatisfiable": verdict.unsatisfiable}
    lines = [f"distributes: {verdict.distributes}"]
    if verdict.witness is not None:
        payload["witness"] = render_query_clause("component", verdict.witness)
        lines.append(payload["witness"])
    if verdict.unsafe_components:
        skipped = [", ".join(str(a) for a in sorted(comp))
                   for comp in verdict.unsafe_components]
        payload["unsafeComponents"] = skipped
        lines += [f"skipped unsafe component: {s}" for s in skipped]
    if args.verify:
        ok, bad = apps.distribution_definitional_check(
            omq, args.max_constants, args.max_atoms, budget=_budget(args))
        if ok != verdict.distributes:
            raise OmqError(
                "characterization disagrees with the definitional check"
                + ("" if bad is None else f" on {render_database('d', bad)}"))
        payload["verified"] = True
        lines.append("verified: true")
    _emit(args, payload, lines)
    return 0 if verdict.distributes else 1


def cmd_unsat(args) -> int:
    program = _load(args)
    omq = _pick_query(program, args.query)
    unsat = contain.is_unsatisfiable(omq, budget=_budget(args))
    payload = {"version": VERSION, "unsatisfiable": unsat}
    _emit(args, payload, [f"unsatisfiable: {unsat}"])
    return 0 if unsat else 1


def cmd_gen(args) -> int:
    from .parser import Program

    if args.family:
        prefix, _, size = args.family.partition("-")
        if prefix != "sticky" or not size.isdigit():
            raise OmqError(f"unknown family {args.family!r}; expected sticky-<n>")
        n = int(size)
        # the witness caps n before the family builds n + 1 rules of arity n + 2
        databases = {"witness": testkit.sticky_family_witness(n)}
        omq = testkit.sticky_family(n)
    else:
        cfg = testkit.GeneratorConfig(seed=args.seed,
                                      target_class=args.target_class)
        omq = testkit.random_omq(cfg)
        databases = {}
    program = Program(schema=omq.data_schema, tgds=omq.tgds,
                      queries={"q": as_ucq(omq.query)}, databases=databases)
    print(serialize_program(program), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="omq",
        description="Reason about ontology-mediated queries over tgds.",
        epilog="Exit codes: 0 success or positive verdict (contained, "
               "distributes, unsatisfiable, member), 1 negative verdict, "
               "2 error. OMQ_BUDGET overrides the rewriting step budget.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("program", help="path to a .omq program file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="rewriting step budget: candidate subsets "
                                "tested per query disjunct (default 10^6)")

    p = sub.add_parser("classify", help="class membership flags of the rule set")
    common(p, budget=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chase", help="chase a named database under the rules")
    common(p, budget=False)
    p.add_argument("database")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--require-termination", action="store_true")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("rewrite", help="UCQ rewriting of a named query")
    common(p)
    p.add_argument("query")
    p.add_argument("--trace", action="store_true",
                   help="stream rewriting steps as JSON lines")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("eval", help="certain answers / membership")
    common(p)
    p.add_argument("query")
    p.add_argument("database")
    p.add_argument("--tuple", default=None, help="comma-separated constants")
    p.add_argument("--strategy", choices=("auto", "chase", "rewriting"),
                   default="auto",
                   help="auto means rewriting, as every non-recursive rule "
                        "set is also rewritable; chase needs a non-recursive set")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contains", help="decide Q1 <= Q2")
    common(p)
    p.add_argument("query1")
    p.add_argument("query2")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the brute-force oracle")
    p.add_argument("--max-constants", type=int, default=None)
    p.add_argument("--max-atoms", type=int, default=None)
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("distributes", help="distribution over components")
    common(p)
    p.add_argument("query")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the bounded definitional test")
    p.add_argument("--max-constants", type=int, default=3)
    p.add_argument("--max-atoms", type=int, default=4)
    p.set_defaults(func=cmd_distributes)

    p = sub.add_parser("unsat", help="is the query unsatisfiable?")
    common(p)
    p.add_argument("query")
    p.set_defaults(func=cmd_unsat)

    p = sub.add_parser("gen", help="emit fixture programs")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--family", default=None,
                   help="sticky-<n> for 2 <= n <= "
                        f"{testkit.MAX_WITNESS_ARITY}, e.g. sticky-3")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class", dest="target_class", default="any",
                   choices=("L", "NR", "S", "F", "any"))
    p.set_defaults(func=cmd_gen)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OmqError, OSError) as e:  # a ParseError is an OmqError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
