"""References for checking outputs, independent of the evaluation code under
test: a naive backtracking CQ evaluator over plain fact sets, a recursion
check on the predicate graph, and the SQL equivalents of the fixed
ontologies evaluated by sqlite3.
"""

from __future__ import annotations

import sqlite3

from omq.model import Constant, Variable


def facts_by_predicate(atoms) -> dict:
    out: dict = {}
    for a in atoms:
        out.setdefault(a.predicate, []).append(a.args)
    return out


def eval_cq(answers, body, facts: dict) -> set:
    """Constant answer tuples of one CQ over ``facts`` (predicate -> arg
    tuples), by plain backtracking in a fixed atom order."""
    body = sorted(body, key=lambda a: len(facts.get(a.predicate, ())))
    out: set = set()

    def go(i: int, bind: dict):
        if i == len(body):
            tup = tuple(bind[t] if isinstance(t, Variable) else t for t in answers)
            if all(isinstance(c, Constant) for c in tup):
                out.add(tup)
            return
        a = body[i]
        for args in facts.get(a.predicate, ()):
            added = []
            for p, f in zip(a.args, args):
                if isinstance(p, Variable):
                    if p in bind:
                        if bind[p] != f:
                            break
                    else:
                        bind[p] = f
                        added.append(p)
                elif p != f:
                    break
            else:
                go(i + 1, bind)
            for p in added:
                del bind[p]

    go(0, {})
    return out


def eval_ucq(disjuncts, atoms) -> set:
    facts = facts_by_predicate(atoms)
    out: set = set()
    for d in disjuncts:
        out |= eval_cq(d.answers, d.body, facts)
    return out


def is_recursive(tgds) -> bool:
    """Does the predicate graph (body predicate -> head predicate) have a
    cycle?"""
    edges: dict = {}
    for t in tgds:
        for b in t.body:
            edges.setdefault(b.predicate, set()).update(h.predicate for h in t.head)
    state: dict = {}
    for root in edges:
        if state.get(root):
            continue
        stack = [(root, iter(edges.get(root, ())))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return True
            elif not state.get(nxt):
                state[nxt] = 1
                stack.append((nxt, iter(edges.get(nxt, ()))))
    return False


def sql_answers(schema: dict, facts, sql: str) -> set:
    """Rows of ``sql`` over an in-memory database holding ``facts``
    ((table, args) pairs); columns of each table are named a, b, ..."""
    con = sqlite3.connect(":memory:")
    try:
        for table, arity in schema.items():
            cols = ", ".join("abcdefgh"[:arity])
            con.execute(f"CREATE TABLE {table} ({cols})")
        for table, args in facts:
            marks = ", ".join("?" * len(args))
            con.execute(f"INSERT INTO {table} VALUES ({marks})", args)
        return {tuple(row) for row in con.execute(sql)}
    finally:
        con.close()
