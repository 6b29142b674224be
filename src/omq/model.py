"""Core immutable data model: terms, atoms, queries, dependencies, substitutions.

A term is a tuple ``(rank, name)``, or ``(1, id)`` for a null, with rank 0
for a constant, 1 for a null and 2 for a variable, so terms hash, compare
and sort as tuples do, without a call into Python code: constants before
nulls before variables, then by name or id. A term therefore equals the
plain tuple of the same pair. Predicates, atoms, queries and dependencies
are frozen dataclasses; ``Schema`` and ``Substitution`` refuse assignment.
Everything is safe to share across threads; the only mutable state in the
package are the fresh-null counters, which are confined to a single run
(see ``NullFactory``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .errors import ModelError

FROZEN_PREFIX = "$frz"
NULL_PREFIX = "_:"


class _Term(tuple):
    """A term as the pair ``(rank, name or id)``; hashing, equality and
    order are ``tuple``'s."""

    __slots__ = ()

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return f"{type(self).__name__}({self[1]!r})"

    def __str__(self):
        return self[1]


class Constant(_Term):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (0, name))


class Null(_Term):
    """A labelled null; ids start at 1."""

    __slots__ = ()
    id = property(itemgetter(1))

    def __new__(cls, id: int):
        if id < 1:
            raise ModelError(f"null ids are positive, got {id}")
        return tuple.__new__(cls, (1, id))

    def __str__(self):
        return f"{NULL_PREFIX}{self[1]}"


class Variable(_Term):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (2, name))


Term = Union[Constant, Variable, Null]


@dataclass(frozen=True, order=True)
class Predicate:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ModelError(f"negative arity for {self.name}")

    def __hash__(self):
        return hash(self.name) ^ self.arity

    def __str__(self):
        return f"{self.name}/{self.arity}"


class Schema:
    """A finite set of predicates; no two share a name with different arities."""

    __slots__ = ("predicates", "_by_name")

    def __init__(self, predicates: Iterable[Predicate]):
        preds = frozenset(predicates)
        by_name = {}
        for p in preds:
            if p.name in by_name and by_name[p.name] != p:
                raise ModelError(
                    f"schema declares {p.name} with arities "
                    f"{by_name[p.name].arity} and {p.arity}"
                )
            by_name[p.name] = p
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, *a):
        raise AttributeError("Schema is immutable")

    def get(self, name: str) -> Predicate | None:
        return self._by_name.get(name)

    def __contains__(self, p: Predicate) -> bool:
        return p in self.predicates

    def __iter__(self) -> Iterator[Predicate]:
        return iter(sorted(self.predicates))

    def __len__(self) -> int:
        return len(self.predicates)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.predicates == other.predicates

    def __hash__(self) -> int:
        return hash(self.predicates)

    def __repr__(self):
        return f"Schema({{{', '.join(str(p) for p in self)}}})"

    def max_arity(self) -> int:
        return max((p.arity for p in self.predicates), default=0)


@dataclass(frozen=True)
class Atom:
    predicate: Predicate
    args: tuple[Term, ...]

    _hash = None  # the hash, computed on first use; not a field

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ModelError(
                f"{self.predicate} applied to {len(self.args)} arguments"
            )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.predicate, self.args))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # string hashes differ between processes, so a pickle or copy
        # carries no cached hash
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    def variables(self) -> frozenset[Variable]:
        cached = getattr(self, "_vars", None)
        if cached is None:
            cached = frozenset(t for t in self.args if isinstance(t, Variable))
            object.__setattr__(self, "_vars", cached)
        return cached

    def constants(self) -> set[Constant]:
        return {t for t in self.args if isinstance(t, Constant)}

    def sort_key(self):
        return (self.predicate.name, self.predicate.arity, self.args)

    def __str__(self):
        return f"{self.predicate.name}({', '.join(str(t) for t in self.args)})"

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


def atom(name: str, *args: Term) -> Atom:
    """Shorthand constructor; the predicate's arity is taken from the args."""
    return Atom(Predicate(name, len(args)), tuple(args))


def atoms_variables(atoms: Iterable[Atom]) -> set[Variable]:
    out: set[Variable] = set()
    for a in atoms:
        out.update(a.variables())
    return out


def atoms_constants(atoms: Iterable[Atom]) -> set[Constant]:
    out: set[Constant] = set()
    for a in atoms:
        out.update(a.constants())
    return out


def atoms_predicates(atoms: Iterable[Atom]) -> set[Predicate]:
    return {a.predicate for a in atoms}


def sorted_atoms(atoms: Iterable[Atom]) -> list[Atom]:
    return sorted(atoms, key=Atom.sort_key)


@dataclass(frozen=True)
class Instance:
    """A set of atoms over constants and nulls; variables never occur."""

    atoms: frozenset[Atom]

    def __init__(self, atoms: Iterable[Atom] = ()):
        atoms = frozenset(atoms)
        for a in atoms:
            if a.variables():
                raise ModelError(f"variable in instance atom {a}")
        object.__setattr__(self, "atoms", atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, a: Atom):
        return a in self.atoms


@dataclass(frozen=True)
class Database:
    """A finite set of facts: atoms over constants only."""

    atoms: frozenset[Atom]

    def __init__(self, atoms: Iterable[Atom] = ()):
        atoms = frozenset(atoms)
        for a in atoms:
            for t in a.args:
                if not isinstance(t, Constant):
                    raise ModelError(f"non-constant term {t} in database atom {a}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def _trusted(cls, atoms: frozenset[Atom]) -> "Database":
        """Wrap atoms that the caller built over constants, unchecked."""
        db = object.__new__(cls)
        object.__setattr__(db, "atoms", atoms)
        return db

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, a: Atom):
        return a in self.atoms

    def as_instance(self) -> Instance:
        return Instance(self.atoms)


@dataclass(frozen=True)
class CQ:
    """Conjunctive query: existentially closed atom conjunction with an
    ordered answer tuple.

    Answer entries are normally variables, but constants are admitted: they
    arise when rewriting binds an answer variable against a constant in a tgd
    head, and when a query is instantiated with a candidate answer tuple.
    Every answer *variable* must occur in the body (safety); the empty-body
    query is the always-true query and therefore has no answer variables.
    """

    answers: tuple[Term, ...]
    body: frozenset[Atom]

    def __init__(self, answers: Iterable[Term], body: Iterable[Atom]):
        answers = tuple(answers)
        body = frozenset(body)
        body_vars = frozenset(atoms_variables(body))
        for t in answers:
            if isinstance(t, Null):
                raise ModelError("null in answer tuple")
            if isinstance(t, Variable) and t not in body_vars:
                raise ModelError(f"unsafe answer variable {t}")
        for a in body:
            for t in a.args:
                if isinstance(t, Null):
                    raise ModelError(f"null in query atom {a}")
        object.__setattr__(self, "answers", answers)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_vars", body_vars)

    @property
    def arity(self) -> int:
        return len(self.answers)

    def is_boolean(self) -> bool:
        return not self.answers

    def is_true_query(self) -> bool:
        return not self.body

    def variables(self) -> frozenset[Variable]:
        return self._vars

    def answer_variables(self) -> set[Variable]:
        return {t for t in self.answers if isinstance(t, Variable)}

    def constants(self) -> set[Constant]:
        out = atoms_constants(self.body)
        out.update(t for t in self.answers if isinstance(t, Constant))
        return out

    def predicates(self) -> set[Predicate]:
        return atoms_predicates(self.body)

    def __str__(self):
        head = ", ".join(str(t) for t in self.answers)
        if not self.body:
            return f"({head}) :- true"
        return f"({head}) :- " + ", ".join(str(a) for a in sorted_atoms(self.body))


TRUE_CQ = CQ((), ())


@dataclass(frozen=True)
class UCQ:
    """Union of CQs sharing one answer arity."""

    disjuncts: tuple[CQ, ...]

    def __init__(self, disjuncts: Iterable[CQ]):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise ModelError("a UCQ needs at least one disjunct")
        arity = disjuncts[0].arity
        for d in disjuncts:
            if d.arity != arity:
                raise ModelError("disjuncts disagree on answer arity")
        object.__setattr__(self, "disjuncts", disjuncts)

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def predicates(self) -> set[Predicate]:
        out: set[Predicate] = set()
        for d in self.disjuncts:
            out.update(d.predicates())
        return out

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self):
        return len(self.disjuncts)


Query = Union[CQ, UCQ]


def as_ucq(q: Query) -> UCQ:
    return q if isinstance(q, UCQ) else UCQ((q,))


@dataclass(frozen=True)
class TGD:
    """body -> exists exist_vars . head; the body may be empty (fact tgd)."""

    body: frozenset[Atom]
    head: frozenset[Atom]
    exist_vars: frozenset[Variable]

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom],
                 exist_vars: Iterable[Variable] = ()):
        body = frozenset(body)
        head = frozenset(head)
        exist_vars = frozenset(exist_vars)
        if not head:
            raise ModelError("tgd with empty head")
        for a in itertools.chain(body, head):
            for t in a.args:
                if isinstance(t, Null):
                    raise ModelError(f"null in tgd atom {a}")
        body_vars = atoms_variables(body)
        head_vars = atoms_variables(head)
        if exist_vars & body_vars:
            raise ModelError("existential variable occurs in the body")
        if not exist_vars <= head_vars:
            raise ModelError("existential variable missing from the head")
        loose = head_vars - body_vars - exist_vars
        if loose:
            raise ModelError(
                f"head variables {sorted(v.name for v in loose)} neither "
                "universal (in body) nor declared existential"
            )
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "exist_vars", exist_vars)

    @staticmethod
    def of(body: Iterable[Atom], head: Iterable[Atom]) -> "TGD":
        """Infer existentials as the head variables that are not body variables."""
        body = frozenset(body)
        head = frozenset(head)
        exist = atoms_variables(head) - atoms_variables(body)
        return TGD(body, head, exist)

    @property
    def frontier(self) -> frozenset[Variable]:
        return frozenset(atoms_variables(self.body) & atoms_variables(self.head))

    def is_fact(self) -> bool:
        return not self.body

    def is_full(self) -> bool:
        return not self.exist_vars

    def variables(self) -> set[Variable]:
        return atoms_variables(self.body) | atoms_variables(self.head)

    def constants(self) -> set[Constant]:
        return atoms_constants(self.body) | atoms_constants(self.head)

    def predicates(self) -> set[Predicate]:
        return atoms_predicates(self.body) | atoms_predicates(self.head)

    def rename(self, suffix: str) -> "TGD":
        """Uniform variable renaming (used to keep tgds apart from queries)."""
        m = {v: Variable(v.name + suffix) for v in self.variables()}
        sub = Substitution(m)
        return TGD(sub.apply_atoms(self.body), sub.apply_atoms(self.head),
                   frozenset(m[v] for v in self.exist_vars))

    def __str__(self):
        body = ", ".join(str(a) for a in sorted_atoms(self.body)) or "true"
        head = ", ".join(str(a) for a in sorted_atoms(self.head))
        if self.exist_vars:
            ex = "exists " + ", ".join(sorted(v.name for v in self.exist_vars)) + " . "
        else:
            ex = ""
        return f"{body} -> {ex}{head}"


def tgds_schema(tgds: Iterable[TGD]) -> set[Predicate]:
    """sch(Sigma): the predicates occurring in a rule set."""
    out: set[Predicate] = set()
    for t in tgds:
        out.update(t.predicates())
    return out


@dataclass(frozen=True)
class OMQ:
    """Ontology-mediated query: (data schema, tgd set, query).

    The query may mention predicates outside the data schema (those of the
    rule set, and possibly others that are simply never satisfiable).
    """

    data_schema: Schema
    tgds: tuple[TGD, ...]
    query: Query

    def __init__(self, data_schema: Schema, tgds: Iterable[TGD], query: Query):
        object.__setattr__(self, "data_schema", data_schema)
        object.__setattr__(self, "tgds", tuple(tgds))
        object.__setattr__(self, "query", query)
        for p in tgds_schema(self.tgds) | self.ucq.predicates():
            declared = data_schema.get(p.name)
            if declared is not None and declared != p:
                raise ModelError(f"{p} conflicts with declared {declared}")

    @property
    def ucq(self) -> UCQ:
        return as_ucq(self.query)

    @property
    def arity(self) -> int:
        return self.ucq.arity


class Substitution:
    """A finite map from variables to terms, applied simultaneously.

    The mapping is normalized at construction: chains are resolved, variable
    cycles collapse onto their lexicographically least member, and identity
    bindings are dropped, so applying twice equals applying once.
    ``compose_substitutions`` bypasses that normalization to preserve exact
    function composition (its result can leave a composed chain in place).
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Variable, Term] = {}):
        object.__setattr__(self, "mapping", _normalize(dict(mapping)))

    @classmethod
    def _resolved(cls, mapping: dict) -> "Substitution":
        """Wrap an already-resolved mapping verbatim (identities dropped)."""
        s = object.__new__(cls)
        object.__setattr__(s, "mapping",
                           {v: t for v, t in mapping.items() if t != v})
        return s

    def __setattr__(self, *a):
        raise AttributeError("Substitution is immutable")

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __bool__(self):
        return bool(self.mapping)

    def __repr__(self):
        inner = ", ".join(f"{v}->{t}" for v, t in sorted(self.mapping.items()))
        return f"{{{inner}}}"

    def apply_term(self, t: Term) -> Term:
        if isinstance(t, Variable):
            return self.mapping.get(t, t)
        return t

    def apply_atom(self, a: Atom) -> Atom:
        return Atom(a.predicate, tuple(self.apply_term(t) for t in a.args))

    def apply_atoms(self, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(self.apply_atom(a) for a in atoms)

    def apply_cq(self, q: CQ) -> CQ:
        return CQ(tuple(self.apply_term(t) for t in q.answers),
                  self.apply_atoms(q.body))


def _normalize(mapping: dict) -> dict:
    for v, t in mapping.items():
        if not isinstance(v, Variable):
            raise ModelError(f"substitution domain contains non-variable {v}")
        if not isinstance(t, (Variable, Constant, Null)):
            raise ModelError(f"substitution range contains {t!r}")
    resolved: dict[Variable, Term] = {}

    def resolve(v: Variable) -> Term:
        path: list[Variable] = []
        t: Term = v
        while isinstance(t, Variable) and t in mapping:
            if t in resolved:
                t = resolved[t]
                break
            if t in path:
                # variable cycle: collapse onto its lexicographically least member
                cycle = path[path.index(t):]
                t = min(cycle)
                break
            path.append(t)
            t = mapping[t]
        for p in path:
            resolved[p] = t
        return t

    for v in mapping:
        resolve(v)
    return {v: t for v, t in resolved.items() if t != v}


def apply_substitution(s: Substitution, x):
    """Apply ``s`` to an Atom, a CQ, or a collection of atoms."""
    if isinstance(x, Atom):
        return s.apply_atom(x)
    if isinstance(x, CQ):
        return s.apply_cq(x)
    return s.apply_atoms(x)


def compose_substitutions(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution applying ``s1`` first, then ``s2``."""
    out: dict[Variable, Term] = {}
    for v, t in s1.mapping.items():
        out[v] = s2.apply_term(t)
    for v, t in s2.mapping.items():
        if v not in s1.mapping:
            out[v] = t
    return Substitution._resolved(out)


def active_domain(x) -> set[Term]:
    """All terms occurring as arguments in an instance, database, or atom set."""
    atoms = x.atoms if isinstance(x, (Instance, Database)) else x
    out: set[Term] = set()
    for a in atoms:
        out.update(a.args)
    return out


class NullFactory:
    """Monotone fresh-null counter, confined to one chase run."""

    __slots__ = ("_next",)

    def __init__(self, start: int = 1):
        self._next = start

    @staticmethod
    def after(atoms: Iterable[Atom]) -> "NullFactory":
        top = 0
        for a in atoms:
            for t in a.args:
                if isinstance(t, Null):
                    top = max(top, t.id)
        return NullFactory(top + 1)

    def fresh(self) -> Null:
        n = Null(self._next)
        self._next += 1
        return n


def freeze_cq(q: CQ) -> tuple[Database, tuple[Constant, ...]]:
    """Replace each variable of ``q`` with a fresh reserved constant.

    Returns the resulting database together with the image of the answer
    tuple. Fresh constants live in the parser-rejected ``$frz`` namespace, so
    they are disjoint from any constant already present in the query.
    """
    fresh = {v: Constant(f"{FROZEN_PREFIX}{i}")
             for i, v in enumerate(sorted(q.variables()))}

    def freeze_term(t: Term) -> Constant:
        return fresh[t] if isinstance(t, Variable) else t

    db = Database(Atom(a.predicate, tuple(freeze_term(t) for t in a.args))
                  for a in q.body)
    return db, tuple(freeze_term(t) for t in q.answers)
