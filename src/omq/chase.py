"""Chase engine: single steps, terminating chase for non-recursive sets,
depth-bounded chase, model checking, and the head normal form transform.

The restricted (standard) chase is used throughout: a trigger is skipped
when its head is already satisfied by some extension of the binding.
Trigger order is deterministic (tgd index, then binding), so chase results
are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import homs
from .classify import NotStratifiable, stratify
from .errors import InactiveTrigger, PreconditionViolated
from .model import (TGD, Atom, Database, Instance, NullFactory, Predicate,
                    Substitution, Variable, sorted_atoms, tgds_schema,
                    term_key)


@dataclass(frozen=True)
class Trigger:
    """A tgd together with a body-variable binding active in some instance."""

    tgd: TGD
    tgd_index: int
    binding: Substitution

    def image(self) -> frozenset[Atom]:
        return self.binding.apply_atoms(self.tgd.body)

    def sort_key(self):
        items = sorted(((v.name, term_key(t))
                        for v, t in self.binding.mapping.items()))
        return (self.tgd_index, items)


@dataclass(frozen=True)
class ChaseResult:
    instance: Instance
    steps: int
    complete: bool
    level_of: Mapping[Atom, int]
    # the fact index of ``instance`` the run kept, so that evaluation over
    # the result need not build another; not part of the result's value
    _index: Optional[dict] = field(default=None, repr=False, compare=False)


def find_triggers(instance: Instance, tgd: TGD, tgd_index: int = 0,
                  index: dict | None = None) -> list[Trigger]:
    """All homomorphisms from the tgd body into the instance.

    A fact tgd yields the single empty-binding trigger.
    """
    out = []
    # a binding maps variables to instance terms, never to variables, so it
    # is resolved already
    for h in homs.homomorphisms(sorted_atoms(tgd.body), instance.atoms,
                                index=index):
        out.append(Trigger(tgd, tgd_index, Substitution._resolved(h)))
    out.sort(key=Trigger.sort_key)
    return out


def _head_satisfied(instance_atoms, trigger: Trigger, index=None) -> bool:
    """Restricted-chase filter: can the binding extend to the head in place?"""
    pattern = [trigger.binding.apply_atom(a) for a in sorted_atoms(trigger.tgd.head)]
    return homs.has_homomorphism(pattern, instance_atoms, index=index)


def _fire(trigger: Trigger, nulls: NullFactory) -> frozenset[Atom]:
    ext = dict(trigger.binding.mapping)
    for z in sorted(trigger.tgd.exist_vars, key=lambda v: v.name):
        ext[z] = nulls.fresh()
    return Substitution._resolved(ext).apply_atoms(trigger.tgd.head)


def chase_step(instance: Instance, trigger: Trigger,
               nulls: NullFactory | None = None) -> Instance:
    """Apply one trigger: head atoms join the instance, fresh nulls for
    existentials. Raises InactiveTrigger when the body image is absent."""
    if not trigger.image() <= instance.atoms:
        raise InactiveTrigger(f"trigger for {trigger.tgd} is not active")
    if nulls is None:
        nulls = NullFactory.after(instance.atoms)
    return Instance(instance.atoms | _fire(trigger, nulls))


def _run_to_fixpoint(atoms: set[Atom], index: dict, level_of: dict[Atom, int],
                     tgds: Sequence[tuple[int, TGD]], nulls: NullFactory,
                     max_level: Optional[int]) -> tuple[int, bool]:
    """Saturate ``atoms`` under ``tgds``; returns (steps, capped).

    ``index`` is the live fact index of ``atoms`` and grows with it. Each
    round first collects the triggers of every tgd over the atoms at the
    start of the round, then fires them in order; the head checks see
    every atom fired so far.

    ``capped`` reports that some trigger was left unfired because its derived
    atoms would exceed ``max_level``.
    """
    steps = 0
    capped = False
    while True:
        fired_any = False
        instance = Instance(atoms)
        triggers = [trigger for i, t in tgds
                    for trigger in find_triggers(instance, t, i, index=index)]
        for trigger in triggers:
            image = trigger.image()
            new_level = 1 + max((level_of[a] for a in image), default=0)
            if max_level is not None and new_level > max_level:
                capped = True
                continue
            if _head_satisfied(atoms, trigger, index=index):
                continue
            produced = _fire(trigger, nulls)
            steps += 1
            fired_any = True
            for a in produced:
                if a not in atoms:
                    atoms.add(a)
                    homs.add_fact(index, a)
                    level_of[a] = new_level
                elif level_of[a] > new_level:
                    level_of[a] = new_level
        if not fired_any:
            return steps, capped


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
        indexed = [(i, tgds[i]) for i in stratum]
        s, _ = _run_to_fixpoint(atoms, index, level_of, indexed, nulls, None)
        steps += s
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
    steps, _ = _run_to_fixpoint(atoms, index, level_of, list(enumerate(tgds)),
                                nulls, max_level)
    instance = Instance(atoms)
    complete, _ = satisfies(instance, tgds)
    return ChaseResult(instance, steps, complete, level_of, index)


def satisfies(instance: Instance, tgds: Sequence[TGD]) -> tuple[bool, Optional[Trigger]]:
    """Model check: every active trigger's head has a witness in place."""
    index = homs.index_by_predicate(instance.atoms)
    for i, t in enumerate(tgds):
        for trigger in find_triggers(instance, t, i, index=index):
            if not _head_satisfied(instance.atoms, trigger, index=index):
                return False, trigger
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
        exist = sorted(t.exist_vars, key=lambda v: v.name)
        if not exist:
            # full tgd: one rule per head atom
            for a in sorted_atoms(t.head):
                out.append(TGD(t.body, (a,), ()))
            continue
        frontier = sorted(t.frontier, key=lambda v: v.name)
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
