"""Chase engine: single steps, terminating chase for non-recursive sets,
depth-bounded chase, model checking, and the head normal form transform.

The restricted (standard) chase is used throughout: a trigger is skipped
when its head is already satisfied by some extension of the binding.
Trigger order is deterministic (tgd index, then binding by variable name),
so chase results are reproducible run to run.

Each tgd is compiled once, on first use, into search plans of its body and
head (see ``homs.Plan``), kept on the tgd. A trigger is then a slot binding
of the body plan together with the facts its atoms map to, and a head check
searches the head plan with the frontier slots pre-bound. Rounds are
semi-naive: after the first round, only triggers whose image holds an atom
added by the previous round are collected. Every older trigger was collected
in an earlier round and then fired, found its head satisfied (which stays
so), or exceeded the level cap. The last stays so as well: in a capped run
(``chase_bounded``, from database atoms at level 0) the atoms that round k
adds all get level k, so a level never falls once set and an older
trigger's level never changes. The fired sequence is that of full rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import homs
from .classify import NotStratifiable, stratify
from .errors import InactiveTrigger, PreconditionViolated
from .model import (TGD, Atom, Database, Instance, NullFactory, Predicate,
                    Substitution, Variable, sorted_atoms, tgds_schema)


@dataclass(frozen=True)
class Trigger:
    """A tgd together with a body-variable binding active in some instance."""

    tgd: TGD
    tgd_index: int
    binding: Substitution


@dataclass(frozen=True)
class ChaseResult:
    instance: Instance
    steps: int
    complete: bool
    level_of: Mapping[Atom, int]
    # the fact index of ``instance`` the run kept, so that evaluation over
    # the result need not build another; not part of the result's value
    _index: Optional[dict] = field(default=None, repr=False, compare=False)


class _Rule:
    """A tgd compiled for the chase: the plans of its body and head, the
    body slot behind each frontier slot of the head, and the head slots of
    its existential variables in name order."""

    __slots__ = ("body", "head", "frontier", "exist")

    def __init__(self, t: TGD):
        self.body = homs.Plan(sorted_atoms(t.body))
        self.head = homs.Plan(sorted_atoms(t.head))
        body_slot = self.body.slot_of
        self.frontier = tuple((s, body_slot[v]) for s, v in enumerate(self.head.variables)
                              if v in body_slot)
        self.exist = tuple(s for s, v in enumerate(self.head.variables)
                           if v not in body_slot)

    def triggers(self, index: dict, delta: Optional[dict] = None) -> list[tuple]:
        """The triggers over ``index`` as (binding, image) pairs of tuples,
        sorted by the binding in variable-name order. With ``delta`` (new
        facts by predicate), only those whose image holds one of them."""
        body = self.body
        found = {}
        if delta is None:
            b = [None] * len(body.variables)
            for image in body.search(index, b):
                found[tuple(b)] = tuple(image)
        else:
            for i, (pred, _) in enumerate(body.atoms):
                for fact in delta.get(pred, ()):
                    b = [None] * len(body.variables)
                    if body.match(i, fact, b):
                        for image in body.search(index, b):
                            key = tuple(b)
                            if key not in found:
                                found[key] = tuple(image)
        # bindings are distinct tuples of terms, so they alone decide the order
        return sorted(found.items())

    def head_binding(self, b) -> list:
        """The head slots under the body binding ``b``; existentials free."""
        h = [None] * len(self.head.variables)
        for s, t in self.frontier:
            h[s] = b[t]
        return h

    def satisfied(self, index: dict, b) -> bool:
        """Restricted-chase filter: can the binding extend to the head in place?"""
        for _ in self.head.search(index, self.head_binding(b)):
            return True
        return False

    def fire(self, b, nulls: NullFactory) -> list[Atom]:
        """The head atoms under ``b``, a fresh null per existential."""
        h = self.head_binding(b)
        for s in self.exist:
            h[s] = nulls.fresh()
        return self.head.apply(h)


def _rule(t: TGD) -> _Rule:
    """The compiled form of ``t``, built on first use and cached on it."""
    rule = getattr(t, "_rule", None)
    if rule is None:
        rule = _Rule(t)
        object.__setattr__(t, "_rule", rule)
    return rule


def _trigger(t: TGD, tgd_index: int, b) -> Trigger:
    return Trigger(t, tgd_index,
                   Substitution._resolved(dict(zip(_rule(t).body.variables, b))))


def find_triggers(instance: Instance, tgd: TGD, tgd_index: int = 0,
                  index: dict | None = None) -> list[Trigger]:
    """All homomorphisms from the tgd body into the instance, in binding
    order. A fact tgd yields the single empty-binding trigger.
    """
    if index is None:
        index = homs.index_by_predicate(instance.atoms)
    return [_trigger(tgd, tgd_index, b) for b, _ in _rule(tgd).triggers(index)]


def chase_step(instance: Instance, trigger: Trigger,
               nulls: NullFactory | None = None) -> Instance:
    """Apply one trigger: head atoms join the instance, fresh nulls for
    existentials. Raises InactiveTrigger when the body image is absent."""
    if not trigger.binding.apply_atoms(trigger.tgd.body) <= instance.atoms:
        raise InactiveTrigger(f"trigger for {trigger.tgd} is not active")
    if nulls is None:
        nulls = NullFactory.after(instance.atoms)
    rule = _rule(trigger.tgd)
    mapping = trigger.binding.mapping
    b = [mapping[v] for v in rule.body.variables]
    return Instance(instance.atoms.union(rule.fire(b, nulls)))


def _run_to_fixpoint(atoms: set[Atom], index: dict, level_of: dict[Atom, int],
                     tgds: Sequence[TGD], nulls: NullFactory,
                     max_level: Optional[int]) -> int:
    """Saturate ``atoms`` under ``tgds``; returns the number of steps.

    ``index`` is the live fact index of ``atoms`` and grows with it. Each
    round first collects the triggers of every tgd over the atoms at the
    start of the round, then fires them in order; the head checks see
    every atom fired so far. The rounds after the first are semi-naive.
    A trigger whose derived atoms would exceed ``max_level`` is skipped.
    """
    rules = [_rule(t) for t in tgds]
    steps = 0
    delta = None
    while True:
        fired = False
        added: dict = {}
        triggers = [(rule, b, image) for rule in rules
                    for b, image in rule.triggers(index, delta)]
        for rule, b, image in triggers:
            new_level = 1 + max(map(level_of.__getitem__, image), default=0)
            if max_level is not None and new_level > max_level:
                continue
            if rule.satisfied(index, b):
                continue
            steps += 1
            fired = True
            for a in rule.fire(b, nulls):
                if a not in atoms:
                    atoms.add(a)
                    homs.add_fact(index, a)
                    level_of[a] = new_level
                    added.setdefault(a.predicate, []).append(a)
                elif level_of[a] > new_level:
                    level_of[a] = new_level
        if not fired:
            return steps
        delta = added


def chase_nr(db: Database, tgds: Sequence[TGD]) -> ChaseResult:
    """Terminating chase for a non-recursive rule set, stratum by stratum."""
    tgds = list(tgds)
    strat = stratify(tgds)
    if isinstance(strat, NotStratifiable):
        raise PreconditionViolated(
            "chase_nr needs a non-recursive rule set; predicate cycle "
            + " -> ".join(p.name for p in strat.cycle))
    atoms = set(db.atoms)
    index = homs.index_by_predicate(atoms)
    level_of = {a: 0 for a in atoms}
    nulls = NullFactory(1)
    steps = 0
    for stratum in strat.strata:
        steps += _run_to_fixpoint(atoms, index, level_of, [tgds[i] for i in stratum],
                                  nulls, None)
    return ChaseResult(Instance(atoms), steps, True, level_of, index)


def chase_bounded(db: Database, tgds: Sequence[TGD], max_level: int) -> ChaseResult:
    """Chase keeping every atom of derivation level <= max_level.

    The level of a derived atom is 1 + the maximum level among the trigger's
    image atoms; database atoms sit at level 0. ``complete`` is True only
    when the result already satisfies the whole rule set.
    """
    if max_level < 0:
        raise PreconditionViolated("max_level must be >= 0")
    tgds = list(tgds)
    atoms = set(db.atoms)
    index = homs.index_by_predicate(atoms)
    level_of = {a: 0 for a in atoms}
    nulls = NullFactory(1)
    steps = _run_to_fixpoint(atoms, index, level_of, tgds, nulls, max_level)
    instance = Instance(atoms)
    complete, _ = satisfies(instance, tgds)
    return ChaseResult(instance, steps, complete, level_of, index)


def satisfies(instance: Instance, tgds: Sequence[TGD]) -> tuple[bool, Optional[Trigger]]:
    """Model check: every active trigger's head has a witness in place."""
    index = homs.index_by_predicate(instance.atoms)
    for i, t in enumerate(tgds):
        rule = _rule(t)
        for b, _ in rule.triggers(index):
            if not rule.satisfied(index, b):
                return False, _trigger(t, i, b)
    return True, None


# -- head normal form --------------------------------------------------------


def _fresh_predicate_names(taken: set[str], base: str, count: int) -> list[str]:
    out = []
    k = 1
    while len(out) < count:
        name = f"{base}{k}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        k += 1
    return out


def normalize_tgds(tgds: Sequence[TGD]) -> list[TGD]:
    """Rewrite each tgd into normal form: one head atom, at most one
    occurrence of one existential variable.

    Multi-head or multi-existential tgds are split through a chain of fresh
    auxiliary predicates carrying the frontier plus the existentials
    introduced so far; certain answers over the original predicates are
    preserved on every database.
    """
    tgds = list(tgds)
    taken = {p.name for p in tgds_schema(tgds)}
    out: list[TGD] = []
    for t in tgds:
        if _is_normal(t):
            out.append(t)
            continue
        exist = sorted(t.exist_vars)
        if not exist:
            # full tgd: one rule per head atom
            for a in sorted_atoms(t.head):
                out.append(TGD(t.body, (a,), ()))
            continue
        frontier = sorted(t.frontier)
        carried: list[Variable] = list(frontier)
        body = t.body
        for z in exist:
            carried.append(z)
            (name,) = _fresh_predicate_names(taken, "NF", 1)
            head_atom = Atom(Predicate(name, len(carried)), tuple(carried))
            out.append(TGD(body, (head_atom,), (z,)))
            body = frozenset((head_atom,))
        for a in sorted_atoms(t.head):
            out.append(TGD(body, (a,), ()))
    return out


def _is_normal(t: TGD) -> bool:
    if len(t.head) != 1:
        return False
    if not t.exist_vars:
        return True
    if len(t.exist_vars) != 1:
        return False
    (z,) = t.exist_vars
    (head,) = t.head
    return sum(1 for arg in head.args if arg == z) == 1
