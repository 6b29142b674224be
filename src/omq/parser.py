"""Parser and serializer for the textual program format.

A program is a sequence of blocks::

    schema { P/1, R/2 }                    % declares the data schema
    tgds t {
      P(x) -> exists y . R(x,y).
      true -> exists z . P(z).             % fact tgd
    }
    query q(x) :- R(x,y), P(y).            % repeated clauses with one name
    query q(x) :- P(x).                    %   form a UCQ, one disjunct each
    database d { P(a). R(a,b). }

Comments run from ``%`` to end of line. In term position, a token is a
variable when it starts with an uppercase letter or matches ``[u-z][0-9]*``
(logic-convention names x, y, z1, ...); numerals and all other identifiers
are constants. Predicates not declared in a schema block are inferred from
use; the declared block alone is the data schema. Names beginning with
``$`` or ``_`` are reserved (frozen constants, labeled nulls).

Program files are read as UTF-8. An error's position is the ``line:column``
of the offending token, or of the end of input for a truncated program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .errors import (ArityError, ModelError, ProgramSyntaxError,
                     ReservedNameError, SafetyError)
from .model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Instance,
                    Predicate, Schema, Term, Variable, sorted_atoms)

KEYWORDS = {"schema", "tgds", "query", "database", "exists", "true"}

_VARIABLE_RE = re.compile(r"[u-z][0-9]*\Z")
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"[0-9]+")
# One token per match, its kind the group name; only "\n" starts a line.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<skip>[^\S\n]+|%[^\n]*)|(?P<symbol>->|:-|[.,(){}/])"
    rf"|(?P<number>{_NUMBER_RE.pattern})|(?P<ident>{_IDENT_RE.pattern})")


def is_variable_token(tok: str) -> bool:
    return bool(tok) and (tok[0].isupper() or _VARIABLE_RE.match(tok) is not None)


def is_constant_name(name: str) -> bool:
    """True when ``name`` serializes to a token that re-parses as a constant."""
    if name in KEYWORDS or name.startswith(("$", "_")):
        return False
    if _NUMBER_RE.fullmatch(name):
        return True
    return bool(_IDENT_RE.fullmatch(name)) and not is_variable_token(name)


class Token(NamedTuple):
    kind: str  # 'ident' | 'number' | 'symbol' | 'eof'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    while m := _TOKEN_RE.match(text, pos):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    if pos < len(text):
        raise ProgramSyntaxError(f"unexpected character {text[pos]!r}",
                                 line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


@dataclass
class Program:
    """The parsed artifact: one schema, a rule set, named queries and databases."""

    schema: Schema
    tgds: tuple[TGD, ...] = ()
    queries: dict[str, UCQ] = field(default_factory=dict)
    databases: dict[str, Database] = field(default_factory=dict)
    inferred: Schema = field(default_factory=lambda: Schema(()))

    def omq(self, query_name: str) -> OMQ:
        """Assemble the OMQ for a named query; single-clause queries stay CQs."""
        ucq = self.queries[query_name]
        query = ucq.disjuncts[0] if len(ucq) == 1 else ucq
        return OMQ(self.schema, self.tgds, query)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.declared: dict[str, Predicate] = {}
        self.inferred: dict[str, Predicate] = {}
        self.tgds: list[TGD] = []
        self.queries: dict[str, list[CQ]] = {}
        self.databases: dict[str, list[Atom]] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def accept(self, value: str) -> bool:
        """Consume the next token when it is ``value``."""
        if self.peek().value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        t = self.next()
        if t.value != value:
            raise ProgramSyntaxError(
                f"expected {value!r}, found {t.value!r}", t.line, t.col)
        return t

    def expect_name(self) -> Token:
        t = self.next()
        if t.kind != "ident" or t.value in KEYWORDS:
            raise ProgramSyntaxError(f"expected a name, found {t.value!r}",
                                     t.line, t.col)
        return t

    def until(self, close: str, item: Callable) -> list:
        """Items up to ``close``, which is consumed; a comma may follow each."""
        items = []
        while not self.accept(close):
            items.append(item())
            self.accept(",")
        return items

    def separated(self, item: Callable) -> list:
        """One or more comma-separated items."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        blocks = {"schema": self.schema_block, "tgds": self.tgds_block,
                  "query": self.query_clause, "database": self.database_block}
        while (t := self.next()).kind != "eof":
            if t.value not in blocks:
                raise ProgramSyntaxError(
                    f"expected a block, found {t.value!r}", t.line, t.col)
            blocks[t.value]()
        return Program(
            schema=Schema(self.declared.values()),
            tgds=tuple(self.tgds),
            queries={name: UCQ(cqs) for name, cqs in self.queries.items()},
            databases={name: Database(atoms)
                       for name, atoms in self.databases.items()},
            inferred=Schema(self.inferred.values()),
        )

    def schema_block(self):
        self.expect("{")
        self.until("}", self.declaration)

    def declaration(self):
        name = self.expect_name()
        self.check_reserved(name)
        self.expect("/")
        arity_tok = self.next()
        if arity_tok.kind != "number":
            raise ProgramSyntaxError("expected an arity",
                                     arity_tok.line, arity_tok.col)
        pred = Predicate(name.value, int(arity_tok.value))
        known = self.declared.get(name.value) or self.inferred.get(name.value)
        if known is not None and known != pred:
            raise ArityError(
                f"{name.value} redeclared with arity {pred.arity}, "
                f"was {known.arity}", name.line, name.col)
        self.declared[name.value] = pred
        self.inferred.pop(name.value, None)  # used before its schema block

    def tgds_block(self):
        self.expect_name()  # block name is cosmetic
        self.expect("{")
        while not self.accept("}"):
            self.tgd()

    def tgd(self):
        start = self.peek()
        body = self.body()
        self.expect("->")
        exist_vars: list[Variable] = []
        if self.accept("exists"):
            exist_vars = self.separated(self.exist_var)
            self.expect(".")
        head = self.separated(self.atom)
        self.expect(".")
        try:
            self.tgds.append(TGD(body, head, exist_vars))
        except ModelError as e:
            raise SafetyError(str(e), start.line, start.col) from e

    def exist_var(self) -> Variable:
        t = self.next()
        if not (t.kind == "ident" and is_variable_token(t.value)):
            raise ProgramSyntaxError(
                f"expected a variable after 'exists', found {t.value!r}",
                t.line, t.col)
        return Variable(t.value)

    def query_clause(self):
        name = self.expect_name()
        self.expect("(")
        answers = self.until(")", self.term)
        self.expect(":-")
        body = self.body()
        self.expect(".")
        try:
            cq = CQ(answers, body)
        except ModelError as e:
            raise SafetyError(str(e), name.line, name.col) from e
        clauses = self.queries.setdefault(name.value, [])
        if clauses and clauses[0].arity != cq.arity:
            raise ArityError(
                f"query {name.value} has clauses of arity "
                f"{clauses[0].arity} and {cq.arity}", name.line, name.col)
        clauses.append(cq)

    def database_block(self):
        name = self.expect_name()
        self.expect("{")
        atoms = self.databases.setdefault(name.value, [])
        while not self.accept("}"):
            start = self.peek()
            a = self.atom()
            self.expect(".")
            if a.variables():
                raise SafetyError(f"variable in database fact {a}",
                                  start.line, start.col)
            atoms.append(a)

    def body(self) -> list[Atom]:
        """``true`` (the empty body) or comma-separated atoms."""
        return [] if self.accept("true") else self.separated(self.atom)

    def atom(self) -> Atom:
        name = self.expect_name()
        self.check_reserved(name)
        self.expect("(")
        args = self.until(")", self.term)
        pred = Predicate(name.value, len(args))
        known = self.declared.get(name.value) or self.inferred.get(name.value)
        if known is None:
            self.inferred[name.value] = pred
        elif known != pred:
            raise ArityError(
                f"{name.value} used with arity {pred.arity}, "
                f"declared/inferred {known.arity}", name.line, name.col)
        return Atom(pred, tuple(args))

    def term(self) -> Term:
        t = self.next()
        if t.kind == "number":
            return Constant(t.value)
        if t.kind != "ident" or t.value in KEYWORDS:
            raise ProgramSyntaxError(f"expected a term, found {t.value!r}",
                                     t.line, t.col)
        if is_variable_token(t.value):
            return Variable(t.value)
        self.check_reserved(t)
        return Constant(t.value)

    def check_reserved(self, t: Token):
        if t.value.startswith(("$", "_")):
            raise ReservedNameError(
                f"{t.value!r} is in a reserved namespace", t.line, t.col)


def parse_program(text: str) -> Program:
    return _Parser(text).program()


# -- serialization ---------------------------------------------------------


def _render_vars(variables: Iterable[Variable]) -> dict[Variable, str]:
    """Keep variable names that re-parse as variables; rename the rest."""
    variables = sorted(set(variables), key=lambda v: v.name)
    taken = {v.name for v in variables
             if is_variable_token(v.name) and _IDENT_RE.fullmatch(v.name)}
    out = {}
    counter = 1
    for v in variables:
        if v.name in taken:
            out[v] = v.name
            continue
        while f"V{counter}" in taken:
            counter += 1
        out[v] = f"V{counter}"
        taken.add(f"V{counter}")
    return out


def _render_term(t: Term, names: dict[Variable, str]) -> str:
    if isinstance(t, Variable):
        return names[t]
    if isinstance(t, Constant):
        if not is_constant_name(t.name):
            raise ModelError(f"constant {t.name!r} is not representable")
        return t.name
    return str(t)  # Null -> "_:n" (print-only; the parser rejects it)


def _render_atom(a: Atom, names: dict[Variable, str]) -> str:
    return f"{a.predicate.name}({', '.join(_render_term(t, names) for t in a.args)})"


def _render_atoms(atoms, names) -> str:
    return ", ".join(_render_atom(a, names) for a in sorted_atoms(atoms))


def render_tgd(t: TGD) -> str:
    names = _render_vars(t.variables())
    body = _render_atoms(t.body, names) if t.body else "true"
    ex = ""
    if t.exist_vars:
        ex = "exists " + ", ".join(sorted(names[v] for v in t.exist_vars)) + " . "
    return f"{body} -> {ex}{_render_atoms(t.head, names)}."


def render_query_clause(name: str, cq: CQ) -> str:
    names = _render_vars(cq.variables())
    head = ", ".join(_render_term(t, names) for t in cq.answers)
    body = _render_atoms(cq.body, names) if cq.body else "true"
    return f"query {name}({head}) :- {body}."


def render_database(name: str, db: Database | Instance) -> str:
    """A database block; an instance's nulls print as ``_:n``."""
    lines = [f"database {name} {{"]
    for a in sorted_atoms(db.atoms):
        lines.append(f"  {_render_atom(a, {})}.")
    lines.append("}")
    return "\n".join(lines)


def serialize_program(p: Program) -> str:
    parts = []
    decls = ", ".join(str(pred) for pred in p.schema)
    parts.append(f"schema {{ {decls} }}" if decls else "schema { }")
    if p.tgds:
        lines = ["tgds t {"]
        for t in p.tgds:
            lines.append(f"  {render_tgd(t)}")
        lines.append("}")
        parts.append("\n".join(lines))
    else:
        parts.append("tgds t { }")
    for name, ucq in p.queries.items():
        for cq in ucq.disjuncts:
            parts.append(render_query_clause(name, cq))
    for name in sorted(p.databases):
        parts.append(render_database(name, p.databases[name]))
    return "\n\n".join(parts) + "\n"
