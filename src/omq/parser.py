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

Scanning is one ``findall`` of one token pattern. Each match skips
whitespace and comments and captures one token's text; any other character
is captured alone and rejected before parsing, and ``""`` marks the end of
input. The grammar compares token strings, and a token's kind follows from
its first character. Positions are not kept: when an error is raised, the
text is scanned again with the same pattern up to the offending token. One
parse makes one object per distinct term text and per predicate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import (ArityError, ModelError, ParseError, ProgramSyntaxError,
                     ReservedNameError, SafetyError)
from .model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Instance,
                    Predicate, Schema, Term, Variable, sorted_atoms)

KEYWORDS = {"schema", "tgds", "query", "database", "exists", "true"}

_VARIABLE_RE = re.compile(r"[u-z][0-9]*\Z")
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"[0-9]+")
# One token per match: whitespace and comments are skipped, the token's text
# is the group; a character no token starts with is a token of its own, and
# the end of input is "". Only "\n" starts a line. The group always matches
# (its last branch is ".?"), so the greedy skip never backtracks.
_TOKEN_RE = re.compile(
    r"\s*(?:%[^\n]*\s*)*"
    rf"(->|:-|[.,(){{}}/]|{_NUMBER_RE.pattern}|{_IDENT_RE.pattern}|.?)")
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")
_WORD_START = _IDENT_START | _DIGITS
# the tokens that start with no word character, the end of input included
_SYMBOLS = frozenset(["", "->", ":-", ".", ",", "(", ")", "{", "}", "/"])


def is_variable_token(tok: str) -> bool:
    return bool(tok) and (tok[0].isupper() or _VARIABLE_RE.match(tok) is not None)


def is_constant_name(name: str) -> bool:
    """True when ``name`` serializes to a token that re-parses as a constant."""
    if name in KEYWORDS or name.startswith(("$", "_")):
        return False
    if _NUMBER_RE.fullmatch(name):
        return True
    return bool(_IDENT_RE.fullmatch(name)) and not is_variable_token(name)


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending with one ``""``."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and tokens[-2] == "":
        tokens.pop()  # the empty match after one that skipped to the end
    bad = [t for t in set(tokens) - _SYMBOLS if t[0] not in _WORD_START]
    if bad:
        i = min(map(tokens.index, bad))
        raise ProgramSyntaxError(f"unexpected character {tokens[i]!r}",
                                 *_locate(text, i))
    return tokens


def _locate(text: str, index: int) -> tuple[int, int]:
    """The ``line, column`` of the index-th token, found by scanning again."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    start = m.start(1)
    line_start = text.rfind("\n", 0, start) + 1
    return text.count("\n", 0, line_start) + 1, start - line_start + 1


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
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.declared: dict[str, Predicate] = {}
        self.inferred: dict[str, Predicate] = {}
        self.terms: dict[str, Term] = {}  # token text -> the term it made
        self.tgds: list[TGD] = []
        self.queries: dict[str, list[CQ]] = {}
        self.databases: dict[str, list[Atom]] = {}

    # -- token plumbing ----------------------------------------------------

    def fail(self, cls: type[ParseError], message: str,
             index: int | None = None) -> ParseError:
        """``cls`` located at the index-th token, by default the last one
        consumed."""
        if index is None:
            index = self.pos - 1
        return cls(message, *_locate(self.text, index))

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Consume the next token when it is ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok != value:
            raise self.fail(ProgramSyntaxError,
                            f"expected {value!r}, found {tok!r}")

    def expect_name(self) -> str:
        tok = self.next()
        if tok[:1] not in _IDENT_START or tok in KEYWORDS:
            raise self.fail(ProgramSyntaxError,
                            f"expected a name, found {tok!r}")
        return tok

    def until(self, close: str, item: Callable) -> list:
        """Items up to ``close``, which is consumed; a comma may follow each."""
        items = []
        tokens = self.tokens
        while tokens[self.pos] != close:
            items.append(item())
            if tokens[self.pos] == ",":
                self.pos += 1
        self.pos += 1
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
        while tok := self.next():
            if tok not in blocks:
                raise self.fail(ProgramSyntaxError,
                                f"expected a block, found {tok!r}")
            blocks[tok]()
        # database_block admits no variable, and the parser makes no nulls
        return Program(
            schema=Schema(self.declared.values()),
            tgds=tuple(self.tgds),
            queries={name: UCQ(cqs) for name, cqs in self.queries.items()},
            databases={name: Database._trusted(frozenset(atoms))
                       for name, atoms in self.databases.items()},
            inferred=Schema(self.inferred.values()),
        )

    def schema_block(self):
        self.expect("{")
        self.until("}", self.declaration)

    def declaration(self):
        at = self.pos
        name = self.expect_name()
        self.check_reserved(name, at)
        self.expect("/")
        arity = self.next()
        if arity[:1] not in _DIGITS:
            raise self.fail(ProgramSyntaxError, "expected an arity")
        pred = Predicate(name, int(arity))
        known = self.declared.get(name) or self.inferred.get(name)
        if known is not None and known != pred:
            raise self.fail(ArityError, f"{name} redeclared with arity "
                            f"{pred.arity}, was {known.arity}", at)
        self.declared[name] = known or pred
        self.inferred.pop(name, None)  # used before its schema block

    def tgds_block(self):
        self.expect_name()  # block name is cosmetic
        self.expect("{")
        while not self.accept("}"):
            self.tgd()

    def tgd(self):
        start = self.pos
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
            raise self.fail(SafetyError, str(e), start) from e

    def exist_var(self) -> Variable:
        tok = self.next()
        if not (tok[:1] in _IDENT_START and is_variable_token(tok)):
            raise self.fail(
                ProgramSyntaxError,
                f"expected a variable after 'exists', found {tok!r}")
        return self.terms.setdefault(tok, Variable(tok))

    def query_clause(self):
        at = self.pos
        name = self.expect_name()
        self.expect("(")
        answers = self.until(")", self.term)
        self.expect(":-")
        body = self.body()
        self.expect(".")
        try:
            cq = CQ(answers, body)
        except ModelError as e:
            raise self.fail(SafetyError, str(e), at) from e
        clauses = self.queries.setdefault(name, [])
        if clauses and clauses[0].arity != cq.arity:
            raise self.fail(ArityError, f"query {name} has clauses of arity "
                            f"{clauses[0].arity} and {cq.arity}", at)
        clauses.append(cq)

    def database_block(self):
        name = self.expect_name()
        self.expect("{")
        atoms = self.databases.setdefault(name, [])
        while not self.accept("}"):
            start = self.pos
            a = self.atom()
            self.expect(".")
            if Variable in map(type, a.args):
                raise self.fail(SafetyError, f"variable in database fact {a}",
                                start)
            atoms.append(a)

    def body(self) -> list[Atom]:
        """``true`` (the empty body) or comma-separated atoms."""
        return [] if self.accept("true") else self.separated(self.atom)

    def atom(self) -> Atom:
        at = self.pos
        name = self.tokens[at]
        # a known name was checked when it became known
        known = self.declared.get(name) or self.inferred.get(name)
        if known is None:
            self.expect_name()
            self.check_reserved(name, at)
        else:
            self.pos += 1
        self.expect("(")
        args = tuple(self.until(")", self.term))
        if known is None:
            known = self.inferred[name] = Predicate(name, len(args))
        elif known.arity != len(args):
            raise self.fail(ArityError, f"{name} used with arity {len(args)}, "
                            f"declared/inferred {known.arity}", at)
        return Atom(known, args)

    def term(self) -> Term:
        tok = self.next()
        t = self.terms.get(tok)
        if t is not None:
            return t
        if tok[:1] in _DIGITS:
            t = Constant(tok)
        elif tok[:1] not in _IDENT_START or tok in KEYWORDS:
            raise self.fail(ProgramSyntaxError,
                            f"expected a term, found {tok!r}")
        elif is_variable_token(tok):
            t = Variable(tok)
        else:
            self.check_reserved(tok, self.pos - 1)
            t = Constant(tok)
        self.terms[tok] = t
        return t

    def check_reserved(self, name: str, at: int):
        if name[0] in "$_":
            raise self.fail(ReservedNameError,
                            f"{name!r} is in a reserved namespace", at)


def parse_program(text: str) -> Program:
    return _Parser(text).program()


# -- serialization ---------------------------------------------------------


def _render_vars(variables: Iterable[Variable]) -> dict[Variable, str]:
    """Keep variable names that re-parse as variables; rename the rest."""
    variables = sorted(set(variables))
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
