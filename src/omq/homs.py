"""Homomorphism search from atom sets into instances, over a positional
fact index, with each pattern compiled once into a ``Plan``.

The index maps each predicate to its facts and to one posting list per
argument position: position -> term -> the facts holding that term there.
``add_fact`` extends an index in place, so a caller whose instance grows
(the chase) keeps one index instead of rebuilding it.

A ``Plan`` numbers the pattern's variables into slots, in name order, and
stores each atom as its predicate plus, per position, a constant term or a
slot number. A binding is then a list indexed by slot, so the search hashes
no variable. Callers that search one pattern many times keep its plan:
evaluation caches it on the CQ, the chase on each tgd.

The search runs from an explicit stack, so a long pattern cannot exhaust
the interpreter's recursion limit. Each pending atom carries its candidate
list: the shortest posting list over its bound positions (constants and
bound slots), or its whole predicate bucket when none is bound. At each node
the pending atom with the shortest list is matched against that list alone.
Binding slots re-costs only the pending atoms that hold one of them, and
only at those positions; the others keep their lists from the parent node.
An empty list ends the branch. Results come in no fixed order; the worst
case is inherently exponential.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

from .model import Atom, Term, Variable, atoms_variables


def add_fact(index: dict, fact: Atom) -> None:
    """Extend ``index`` in place with a fact it does not hold yet."""
    entry = index.get(fact.predicate)
    if entry is None:
        entry = index[fact.predicate] = ([], [{} for _ in fact.args])
    bucket, postings = entry
    bucket.append(fact)
    for by_term, t in zip(postings, fact.args):
        facts = by_term.get(t)
        if facts is None:
            by_term[t] = [fact]
        else:
            facts.append(fact)


def index_by_predicate(facts: Iterable[Atom]) -> dict:
    """The positional index of a set of facts:
    predicate -> (facts, [position -> term -> facts])."""
    index: dict = {}
    for f in facts:
        add_fact(index, f)
    return index


class Plan:
    """A pattern compiled for the search.

    ``variables`` lists the pattern variables by slot (in name order) and
    ``slot_of`` inverts it. ``atoms`` holds, per atom, its predicate and a
    tuple with, per position, the constant term or the slot (an ``int``).
    """

    __slots__ = ("variables", "slot_of", "atoms", "_slots", "_consts", "_uses")

    def __init__(self, atoms: Iterable[Atom]):
        atoms = list(atoms)
        self.variables = tuple(sorted(atoms_variables(atoms), key=lambda v: v.name))
        self.slot_of = {v: s for s, v in enumerate(self.variables)}
        self.atoms = tuple(
            (a.predicate, tuple(self.slot_of[t] if isinstance(t, Variable) else t
                                for t in a.args))
            for a in atoms)
        # per atom: its (position, slot) and (position, constant) pairs;
        # per slot: the (atom, position) pairs that hold it
        self._slots = tuple(tuple((k, x) for k, x in enumerate(args) if type(x) is int)
                            for _, args in self.atoms)
        self._consts = tuple(tuple((k, x) for k, x in enumerate(args)
                                   if type(x) is not int)
                             for _, args in self.atoms)
        uses: list[list] = [[] for _ in self.variables]
        for i, pairs in enumerate(self._slots):
            for k, s in pairs:
                uses[s].append((i, k))
        self._uses = tuple(map(tuple, uses))

    def match(self, i: int, fact: Atom, b: list) -> bool:
        """Bind the free slots of atom ``i`` so that it maps onto ``fact``;
        False, with ``b`` partly written, when it cannot."""
        args = fact.args
        for k, c in self._consts[i]:
            t = args[k]
            if t is not c and t != c:
                return False
        for k, s in self._slots[i]:
            t, cur = args[k], b[s]
            if cur is None:
                b[s] = t
            elif cur is not t and cur != t:
                return False
        return True

    def apply(self, b: list) -> list[Atom]:
        """The atoms of the pattern under the full binding ``b``."""
        return [Atom(p, tuple([b[x] if type(x) is int else x for x in args]))
                for p, args in self.atoms]

    def search(self, index: dict, b: list) -> Iterator[list]:
        """Every extension of the binding ``b`` (``None`` marks a free slot)
        that maps the pattern into the facts of ``index``.

        At each yield ``b`` holds the full binding and the yielded list the
        fact each atom maps to. Both are reused: copy what you keep. When
        the search runs to its end, ``b`` is as it was given.
        """
        atoms, consts, slots, uses = self.atoms, self._consts, self._slots, self._uses
        postings = []
        cands = []
        for i, (pred, _) in enumerate(atoms):
            entry = index.get(pred)
            if entry is None:
                return
            best, by_position = entry
            for k, t in consts[i]:
                facts = by_position[k].get(t)
                if facts is None:
                    return
                if len(facts) < len(best):
                    best = facts
            for k, s in slots[i]:
                t = b[s]
                if t is not None:
                    facts = by_position[k].get(t)
                    if facts is None:
                        return
                    if len(facts) < len(best):
                        best = facts
            postings.append(by_position)
            cands.append(best)
        n = len(atoms)
        if not n:
            yield []
            return
        matched: list = [None] * n
        if n == 1:
            # half the cost of the general loop on the commonest pattern:
            # head checks and many evaluated disjuncts have one atom
            free = [s for _, s in slots[0] if b[s] is None]
            for f in cands[0]:
                if self.match(0, f, b):
                    matched[0] = f
                    yield matched
                for s in free:
                    b[s] = None
            return
        match, last = self.match, n - 1
        order = list(range(n))  # order[d + 1:] are the atoms pending below depth d
        where = list(range(n))  # the position of each atom in ``order``
        tried: list = [None] * n  # per depth: the candidate list being tried
        nxt = [0] * n  # per depth: the next candidate in it
        bound: list = [None] * n  # per depth: the slots its atom binds
        saved: list = [None] * n  # per depth: (atom, its previous list) re-costed there
        d = 0
        while True:
            # choose the atom of depth d: the pending one with the shortest list
            i, size = order[d], len(cands[order[d]])
            for p in range(d + 1, n):
                j = order[p]
                if len(cands[j]) < size:
                    i, size = j, len(cands[j])
            p, j = where[i], order[d]
            order[d], order[p] = i, j
            where[i], where[j] = d, p
            tried[d], nxt[d], saved[d] = cands[i], 0, []
            bound[d] = [s for _, s in slots[i] if b[s] is None]
            # try the candidates of depth d in turn; after a descent, come
            # back here to undo the previous candidate and take the next one
            while True:
                i, free, undo = order[d], bound[d], saved[d]
                for s in free:
                    b[s] = None
                while undo:
                    j, old = undo.pop()
                    cands[j] = old
                facts, k = tried[d], nxt[d]
                found = False
                while k < len(facts):
                    f = facts[k]
                    k += 1
                    if match(i, f, b):
                        found = True
                        if d < last:
                            for s in free:
                                t = b[s]
                                for j, pos in uses[s]:
                                    if where[j] > d:
                                        shorter = postings[j][pos].get(t)
                                        if shorter is None:
                                            found = False
                                            break
                                        if len(shorter) < len(cands[j]):
                                            undo.append((j, cands[j]))
                                            cands[j] = shorter
                                if not found:
                                    break
                        if found:
                            break
                        while undo:
                            j, old = undo.pop()
                            cands[j] = old
                    for s in free:
                        b[s] = None
                nxt[d] = k
                if found:
                    matched[i] = f
                    if d < last:
                        d += 1
                        break  # choose the atom of the next depth
                    yield matched
                    continue  # the next candidate at this depth
                if not d:
                    return
                d -= 1


def homomorphisms(
    atoms: Iterable[Atom] | Plan,
    facts: AbstractSet[Atom] | Iterable[Atom],
    binding: Mapping[Variable, Term] | None = None,
    index: dict | None = None,
) -> Iterator[dict]:
    """Yield every mapping of the pattern variables into the facts.

    ``atoms`` is the pattern, or its ``Plan``. ``binding`` pre-binds some
    variables. Yielded dicts include the pre-bound entries. The empty
    pattern yields exactly the initial binding. A given ``index`` stands in
    for ``facts``.
    """
    plan = atoms if isinstance(atoms, Plan) else Plan(atoms)
    if index is None:
        index = index_by_predicate(facts)
    base = dict(binding) if binding else {}
    b: list = [None] * len(plan.variables)
    for v, t in base.items():
        s = plan.slot_of.get(v)
        if s is not None:
            b[s] = t
    for _ in plan.search(index, b):
        h = base.copy()
        h.update(zip(plan.variables, b))
        yield h


def has_homomorphism(atoms, facts, binding=None, index=None) -> bool:
    for _ in homomorphisms(atoms, facts, binding, index):
        return True
    return False
