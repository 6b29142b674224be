"""Shared test helpers: naive oracles and structural equality mod renaming."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from omq.errors import ProgramSyntaxError
from omq.classify import MarkedVariableSet, stratify
from omq.evaluate import prepare
from omq.homs import add_fact, index_by_predicate
from omq.model import (CQ, TGD, Atom, Constant, Database, Instance, NullFactory,
                       Predicate, Substitution, Variable, active_domain,
                       sorted_atoms, term_key)
from omq.parser import _IDENT_RE, _NUMBER_RE
from omq.rewrite import RENAME_SEP, _rename_apart, cq_isomorphic, mgu
from omq.testkit import enumerate_databases


def naive_evaluate_cq(q: CQ, instance: Instance) -> frozenset:
    """Exhaustive assignment enumeration; the independent evaluation oracle."""
    if not q.body:
        return frozenset({tuple(q.answers)})
    variables = sorted(q.variables(), key=lambda v: v.name)
    domain = sorted(active_domain(instance), key=repr)
    out = set()
    for values in itertools.product(domain, repeat=len(variables)):
        h = dict(zip(variables, values))
        image = {Atom(a.predicate,
                      tuple(h[t] if isinstance(t, Variable) else t for t in a.args))
                 for a in q.body}
        if image <= instance.atoms:
            tup = tuple(h[t] if isinstance(t, Variable) else t for t in q.answers)
            if all(isinstance(c, Constant) for c in tup):
                out.add(tup)
    return frozenset(out)


def scan_homomorphisms(atoms, facts, binding=None):
    """The scan-based search ``homs`` used before its positional index: at
    each node every pending atom is matched against every fact of its
    predicate, and the atom with the fewest matches goes first."""

    def match(a, f, bind):
        new = dict(bind)
        for p, t in zip(a.args, f.args):
            ok = new.setdefault(p, t) == t if isinstance(p, Variable) else p == t
            if not ok:
                return None
        return new

    def search(pending, bind):
        if not pending:
            yield bind
            return
        options = [[m for f in facts if f.predicate == a.predicate
                    for m in [match(a, f, bind)] if m is not None]
                   for a in pending]
        i = min(range(len(pending)), key=lambda k: len(options[k]))
        for ext in options[i]:
            yield from search(pending[:i] + pending[i + 1:], ext)

    yield from search(list(atoms), dict(binding or {}))


def recursive_homomorphisms(atoms, facts, binding=None, index=None):
    """The recursive search ``homs`` ran before its compiled plans: the
    binding is a dict keyed by variable, and at every node every pending
    atom is costed by its shortest posting list and the cheapest goes
    first. A given ``index`` stands in for ``facts``."""

    def match(pattern, fact, bind):
        new: dict = {}
        for p, f in zip(pattern.args, fact.args):
            if isinstance(p, Variable):
                bound = new.get(p, bind.get(p))
                if bound is None:
                    new[p] = f
                elif bound != f:
                    return None
            elif p != f:
                return None
        return new

    def candidates(a, bind):
        entry = index.get(a.predicate)
        if entry is None:
            return ()
        best, postings = entry
        for by_term, t in zip(postings, a.args):
            if isinstance(t, Variable):
                t = bind.get(t)
                if t is None:
                    continue
            found = by_term.get(t)
            if found is None:
                return ()
            if len(found) < len(best):
                best = found
        return best

    def search(pending, bind):
        if not pending:
            yield dict(bind)
            return
        best_i, best = 0, None
        for i, a in enumerate(pending):
            cands = candidates(a, bind)
            if best is None or len(cands) < len(best):
                if not cands:
                    return
                best_i, best = i, cands
        atom = pending[best_i]
        rest = pending[:best_i] + pending[best_i + 1:]
        for fact in best:
            ext = match(atom, fact, bind)
            if ext is None:
                continue
            bind.update(ext)
            yield from search(rest, bind)
            for k in ext:
                del bind[k]

    if index is None:
        index = index_by_predicate(facts)
    yield from search(list(atoms), dict(binding) if binding else {})


class ReferenceChase(NamedTuple):
    atoms: frozenset
    steps: int
    complete: bool
    level_of: dict


def _reference_triggers(index, tgds):
    """Every trigger of the indexed tgds over ``index`` as (tgd, binding),
    in tgd order, then by binding in variable-name order."""
    out = []
    for i, t in tgds:
        found = [Substitution._resolved(h) for h in
                 recursive_homomorphisms(sorted_atoms(t.body), None, index=index)]
        found.sort(key=lambda s: sorted((v.name, term_key(x))
                                        for v, x in s.mapping.items()))
        out.extend((t, s) for s in found)
    return out


def _reference_head_satisfied(index, t, s):
    pattern = [s.apply_atom(a) for a in sorted_atoms(t.head)]
    for _ in recursive_homomorphisms(pattern, None, index=index):
        return True
    return False


def _reference_run(atoms, index, level_of, tgds, nulls, max_level):
    """``chase._run_to_fixpoint`` before compiled rules and semi-naive
    rounds: every round collects every trigger over the atoms at its start
    and fires them in order, each head checked by searching the head atoms
    with the binding applied."""
    steps = 0
    while True:
        fired_any = False
        for t, s in _reference_triggers(index, tgds):
            image = s.apply_atoms(t.body)
            new_level = 1 + max((level_of[a] for a in image), default=0)
            if max_level is not None and new_level > max_level:
                continue
            if _reference_head_satisfied(index, t, s):
                continue
            ext = dict(s.mapping)
            for z in sorted(t.exist_vars, key=lambda v: v.name):
                ext[z] = nulls.fresh()
            steps += 1
            fired_any = True
            for a in Substitution._resolved(ext).apply_atoms(t.head):
                if a not in atoms:
                    atoms.add(a)
                    add_fact(index, a)
                    level_of[a] = new_level
                elif level_of[a] > new_level:
                    level_of[a] = new_level
        if not fired_any:
            return steps


def reference_chase(db, tgds, max_level=None) -> ReferenceChase:
    """``chase_nr`` (stratum by stratum) without ``max_level``, else
    ``chase_bounded``, as they ran before compiled rules and semi-naive
    rounds."""
    tgds = list(tgds)
    atoms = set(db.atoms)
    index = index_by_predicate(atoms)
    level_of = {a: 0 for a in atoms}
    nulls = NullFactory(1)
    if max_level is None:
        strata = stratify(tgds).strata
    else:
        strata = [range(len(tgds))]
    steps = sum(_reference_run(atoms, index, level_of, [(i, tgds[i]) for i in stratum],
                               nulls, max_level)
                for stratum in strata)
    complete = all(_reference_head_satisfied(index, t, s)
                   for t, s in _reference_triggers(index, list(enumerate(tgds))))
    return ReferenceChase(frozenset(atoms), steps, complete, level_of)


def union_find_components(atoms):
    """The ``apps.components`` used before its term-only union-find: atoms
    and terms are both nodes, and each atom joins each of its args."""
    atoms = list(atoms)
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in atoms:
        parent.setdefault(a, a)
        for t in a.args:
            parent.setdefault(t, t)
            rx, ry = find(a), find(t)
            if rx != ry:
                parent[rx] = ry
    groups: dict = {}
    for a in atoms:
        groups.setdefault(find(a), set()).add(a)
    out = [frozenset(g) for g in groups.values()]
    out.sort(key=lambda g: min(a.sort_key() for a in g))
    return out


def eager_distribution_check(omq, max_constants, max_atoms, budget=None):
    """The definitional distribution check before it skipped connected
    databases and memoized components: Q(D) against the union of Q(D_i)
    over every enumerated database, every component evaluated afresh."""
    answers = prepare(omq, budget=budget)
    for db in enumerate_databases(omq.data_schema, max_constants, max_atoms):
        union: set = set()
        for comp in union_find_components(db.atoms):
            union |= answers(Database(comp))
        if answers(db) != frozenset(union):
            return False, db
    return True, None


def renamed_marked_variables(tgds) -> MarkedVariableSet:
    """``marked_variables`` as it was before marks were keyed by tgd index
    alone: every tgd renamed apart (``@i`` suffixes), the fixpoint run over
    the renamed rules, and the suffixes stripped from the marks."""
    tgds = [t.rename(f"@{i}") for i, t in enumerate(tgds)]
    marked: set = set()
    for i, t in enumerate(tgds):
        body_vars = {v for a in t.body for v in a.variables()}
        for v in body_vars:
            if any(v not in a.variables() for a in t.head):
                marked.add((i, v))
    bodies: dict = {}
    for j, t in enumerate(tgds):
        for b in t.body:
            bodies.setdefault(b.predicate, []).append((j, b))
    changed = True
    while changed:
        changed = False
        for i, t in enumerate(tgds):
            body_vars = {v for a in t.body for v in a.variables()}
            for v in body_vars:
                if (i, v) in marked:
                    continue
                for alpha in t.head:
                    if v not in alpha.variables():
                        continue
                    positions = [k for k, arg in enumerate(alpha.args) if arg == v]
                    for j, beta in bodies.get(alpha.predicate, ()):
                        if all(not isinstance(beta.args[k], Variable)
                               or (j, beta.args[k]) in marked
                               for k in positions):
                            marked.add((i, v))
                            changed = True
                            break
                    if (i, v) in marked:
                        break
    out = {(i, Variable(v.name[: v.name.rindex("@")])) for i, v in marked}
    return MarkedVariableSet(frozenset(out))


def reference_isomorphic(q1: CQ, q2: CQ) -> bool:
    """The backtracking search ``cq_isomorphic`` ran before canonical keys:
    is there a bijective variable renaming that maps q1's answers onto q2's
    position by position and q1's body onto q2's? Atoms of q1 are matched
    in sorted order against every unused atom of q2 over the same
    predicate."""
    if len(q1.answers) != len(q2.answers) or len(q1.body) != len(q2.body):
        return False
    fwd: dict = {}
    rev: dict = {}

    def bind(a, b):
        if isinstance(a, Variable) != isinstance(b, Variable):
            return None
        if not isinstance(a, Variable):
            return [] if a == b else None
        fa, rb = fwd.get(a), rev.get(b)
        if fa is None and rb is None:
            fwd[a] = b
            rev[b] = a
            return [(a, b)]
        if fa == b and rb == a:
            return []
        return None

    def unbind(added):
        for a, b in added:
            del fwd[a]
            del rev[b]

    for t1, t2 in zip(q1.answers, q2.answers):
        if bind(t1, t2) is None:
            return False
    atoms1 = sorted_atoms(q1.body)
    atoms2 = list(q2.body)

    def search(i, used):
        if i == len(atoms1):
            return True
        a = atoms1[i]
        for j, b in enumerate(atoms2):
            if j in used or b.predicate != a.predicate:
                continue
            added: list = []
            ok = True
            for s, t in zip(a.args, b.args):
                got = bind(s, t)
                if got is None:
                    ok = False
                    break
                added.extend(got)
            if ok and search(i + 1, used | {j}):
                return True
            unbind(added)
        return False

    return search(0, set())


def reference_rewrite_step(q: CQ, S, t: TGD, step_index: int) -> CQ:
    """``rewrite_step`` before it applied the unifier itself: the MGU of the
    sorted S and the step-renamed head as a normalized ``Substitution``,
    applied to the rest of q, the step-renamed body of t and the answers."""
    S = frozenset(S)
    suffix = f"{RENAME_SEP}{step_index}"
    (head,) = t.head
    unifier = mgu(sorted_atoms(S) + [_rename_apart(head, suffix)])
    if unifier is None:
        raise ValueError("rewrite_step on a non-applicable pair")
    new_body = unifier.apply_atoms(
        (q.body - S).union(_rename_apart(a, suffix) for a in t.body))
    return CQ(tuple(unifier.apply_term(t) for t in q.answers), new_body)


def reference_factorize_step(q: CQ, S) -> CQ:
    """``factorize_step`` before it applied the unifier itself: the MGU of
    the sorted S as a ``Substitution``, applied to the whole query."""
    unifier = mgu(sorted_atoms(S))
    if unifier is None:
        raise ValueError("factorize_step on a non-unifiable set")
    return unifier.apply_cq(q)


def tgd_isomorphic(t1: TGD, t2: TGD) -> bool:
    """Equality modulo bijective variable renaming, respecting the
    body/head split (and thereby frontier and existentials)."""

    def encode(t: TGD) -> CQ:
        shifted = [Atom(Predicate(a.predicate.name + "$h", a.predicate.arity),
                        a.args) for a in t.head]
        return CQ((), list(t.body) + shifted)

    return cq_isomorphic(encode(t1), encode(t2))


def same_tgd_sets(ts1, ts2) -> bool:
    ts1, ts2 = list(ts1), list(ts2)
    if len(ts1) != len(ts2):
        return False
    remaining = list(ts2)
    for t in ts1:
        for i, u in enumerate(remaining):
            if tgd_isomorphic(t, u):
                del remaining[i]
                break
        else:
            return False
    return True


def same_disjunct_sets(ds1, ds2) -> bool:
    ds1, ds2 = list(ds1), list(ds2)
    if len(ds1) != len(ds2):
        return False
    remaining = list(ds2)
    for d in ds1:
        for i, e in enumerate(remaining):
            if cq_isomorphic(d, e):
                del remaining[i]
                break
        else:
            return False
    return True


class Token(NamedTuple):
    kind: str  # 'ident' | 'number' | 'symbol' | 'eof'
    value: str
    line: int
    col: int


def char_loop_tokenize(text: str) -> list[Token]:
    """The character-loop scanner the regex scanner replaced, kept as its
    reference (it places the end of input after a trailing comment at the
    comment's ``%``)."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in ("->", ":-"):
            tokens.append(Token("symbol", two, line, col))
            i += 2
            col += 2
            continue
        if c in ".,(){}/":
            tokens.append(Token("symbol", c, line, col))
            i += 1
            col += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ProgramSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


SECTION41 = """
schema { P/1, T/1 }
tgds t {
  P(x) -> exists y . R(x,y).
  R(x,y) -> P(y).
  T(x) -> P(x).
}
query q(x) :- R(x,y), P(y).
"""

# the class-any OMQ that random_omq draws for seed 89 with at most 3
# predicates of arity at most 2, 3 rules and 2 query atoms: every rewriting
# step adds an atom, so the subsets to test double at each level and the
# rewriting never ends
SEED89 = """
schema { p1/2 }
tgds t { p1(y, u), p1(z, z) -> exists V1 . p1(V1, u). }
query q(y) :- p1(x, y), p1(z, y).
"""


def path_program(n: int) -> str:
    """A Boolean path query of ``n`` R-atoms under a rule that never meets
    it, over a database ``d`` holding a 7-cycle (the path maps around it)
    and a database ``e`` holding a 20-edge path (too short)."""
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    cycle = " ".join(f"R(c{i}, c{(i + 1) % 7})." for i in range(7))
    path = " ".join(f"R(e{i}, e{i + 1})." for i in range(20))
    return (f"schema {{ R/2, A/1, B/2 }}\n"
            f"tgds t {{ A(x) -> exists y . B(x, y). }}\n"
            f"query q() :- {body}.\n"
            f"database d {{ {cycle} A(c3). }}\n"
            f"database e {{ {path} A(e3). }}\n")
