import ast
import importlib
import pkgutil
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SECTION41, Token, char_loop_tokenize,
                     same_disjunct_sets, same_tgd_sets)
from omq.errors import (ArityError, ParseError, ProgramSyntaxError,
                        ReservedNameError, SafetyError)
from omq.model import (CQ, TGD, UCQ, Atom, Constant, Database, Predicate,
                       Schema, Variable, as_ucq, atoms_variables)
import omq
from omq.parser import (Program, _locate, _tokenize, parse_program,
                        serialize_program)
from omq.testkit import GeneratorConfig, random_omq


def test_parse_worked_example():
    prog = parse_program(SECTION41)
    assert {str(p) for p in prog.schema} == {"P/1", "T/1"}
    assert {str(p) for p in prog.inferred} == {"R/2"}
    assert len(prog.tgds) == 3
    fact_free = [t for t in prog.tgds if t.is_fact()]
    assert not fact_free
    q = prog.queries["q"]
    assert len(q) == 1 and q.arity == 1
    (cq,) = q.disjuncts
    assert len(cq.body) == 2
    assert cq.answers == (Variable("x"),)


def test_inferred_excludes_declared_in_either_block_order():
    first = parse_program("schema { P/1 } query q() :- P(a).")
    later = parse_program("query q() :- P(a). schema { P/1 }")
    assert first.inferred == later.inferred == Schema(())
    assert first == later


def test_parse_single_line_with_declared_derived_predicate():
    # the same rules with R declared in the schema block: the declared block
    # is the data schema verbatim, so S here is {P, R, T}
    text = ("schema { P/1, R/2, T/1 } tgds t { P(x) -> exists y . R(x,y). "
            "R(x,y) -> P(y). T(x) -> P(x). } query q(x) :- R(x,y), P(y).")
    prog = parse_program(text)
    assert {p.name for p in prog.schema} == {"P", "R", "T"}
    assert len(prog.tgds) == 3
    assert len(prog.queries["q"].disjuncts[0].body) == 2


def test_parse_boolean_constant_query():
    prog = parse_program("schema { P/1 } query q() :- P(a).")
    (cq,) = prog.queries["q"].disjuncts
    assert cq.answers == ()
    assert {t for at in cq.body for t in at.args} == {Constant("a")}


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_program("schema { P/1 } tgds t { P(x,y) -> P(x). }")


def test_parse_fact_tgd():
    prog = parse_program("schema { P/1 } tgds t { true -> exists z . P(z). }")
    (t,) = prog.tgds
    assert t.is_fact() and len(t.exist_vars) == 1


def test_parse_ucq_accumulates_clauses():
    prog = parse_program(
        "schema { P/1, T/1 } query q(x) :- P(x). query q(x) :- T(x).")
    assert len(prog.queries["q"]) == 2


def test_parse_comments_and_numerals():
    prog = parse_program(
        "% header\nschema { Ans/2 } query q() :- Ans(0, 1). % trailing\n")
    (cq,) = prog.queries["q"].disjuncts
    (at,) = cq.body
    assert at.args == (Constant("0"), Constant("1"))


def test_safety_errors():
    with pytest.raises(SafetyError):
        parse_program("schema { P/1 } query q(x) :- P(y).")
    with pytest.raises(SafetyError):
        parse_program("schema { P/1, R/2 } tgds t { P(x) -> R(x,y). }")
    with pytest.raises(SafetyError):
        parse_program("schema { P/1 } database d { P(x). }")


def test_reserved_namespaces_rejected():
    with pytest.raises(ReservedNameError):
        parse_program("schema { P/1 } database d { P($frz0). }")
    with pytest.raises(ReservedNameError):
        parse_program("schema { P/1 } database d { P(_weird). }")


def test_query_arity_conflict():
    with pytest.raises(ArityError):
        parse_program("schema { P/1, R/2 } query q(x) :- P(x). "
                      "query q(x,y) :- R(x,y).")


# forty lines of facts, so that an error after them is located by rescanning
# past many tokens
FACTS = "".join(f"P(c{i}). R(c{i}, c{i + 1}).\n" for i in range(40))

# one input per raise site of the parser: (text, error class, line, col)
ERROR_SITES = [
    ("schema { P/1 }\n  # bad", ProgramSyntaxError, 2, 3),
    ("schema { P/1 } bogus", ProgramSyntaxError, 1, 16),  # a block
    ("schema { 1/1 }", ProgramSyntaxError, 1, 10),  # a name
    ("schema { P/1 }\nquery q(->) :- P(x).", ProgramSyntaxError, 2, 9),  # a term
    ("schema { P/x }", ProgramSyntaxError, 1, 12),  # an arity
    ("tgds t {\n  P(x) -> exists a . R(x,a). }", ProgramSyntaxError, 2, 18),
    ("schema { P/1 }\nquery q(x) P(x).", ProgramSyntaxError, 2, 12),  # ':-'
    ("schema { P/1 }\nquery q(x) :- P(y).", SafetyError, 2, 7),
    ("schema { P/1, R/2 } tgds t {\n  P(x) -> R(x,y). }", SafetyError, 2, 3),
    ("schema { P/1 } database d { P(a).\n P(x). }", SafetyError, 2, 2),
    ("schema { P/1,\n P/2 }", ArityError, 2, 2),  # in the schema
    ("query q() :- P(a, b).\nschema { P/1 }", ArityError, 2, 10),
    ("schema { P/1 } tgds t { P(x,y) -> P(x). }", ArityError, 1, 25),  # in use
    ("query q(x) :- P(x).\nquery q() :- P(a).", ArityError, 2, 7),
    ("schema { P/1 } database d { P($frz0). }", ReservedNameError, 1, 31),
    ("schema { _P/1 }", ReservedNameError, 1, 10),
    ("schema { P/1", ProgramSyntaxError, 1, 13),  # end of input
    # after many facts, on line 3 or later
    ("schema { P/1, R/2 }\ndatabase d {\n" + FACTS + "  R(c1, x). }",
     SafetyError, 43, 3),
    ("schema { P/1, R/2 }\ndatabase d {\n" + FACTS.replace("\n", " ")
     + "P(c1 c2). }", ArityError, 3, 812),
    ("schema { P/1, R/2 }\ndatabase d { P(a). P(b).\n P(c). R(a, b). R(b, c)."
     "\n P(g). R(d, e).\n R(e, f). R(f, #). }", ProgramSyntaxError, 5, 16),
    # after comment lines
    ("% a comment line\nschema { P/1 }\n% more: query q(x) :- P(y).\n"
     "query q(x) :- P(y).", SafetyError, 4, 7),
    ("schema { P/1 } % trailing\n%\n\n  tgds t { P(x) -> Q(x). "
     "Q(x) -> P(x, x). }", ArityError, 4, 34),
    # on a line holding "\r" or "\xa0", which do not start a line
    ("schema { P/1 }\r\nquery\xa0q(x) :-\r P(x) Q(x).", ProgramSyntaxError,
     2, 21),
    ("schema { P/1 }\n\xa0\xa0query q(x) :- P(x).\r\rdatabase d { P(a). "
     "P($b). }", ReservedNameError, 2, 45),
    ("schema\r{ P/1 }\n\r\n\r query q(x) :- P(x). é", ProgramSyntaxError,
     3, 23),
]


def test_errors_carry_locations():
    for text, cls, line, col in ERROR_SITES:
        with pytest.raises(ParseError) as e:
            parse_program(text)
        assert (type(e.value), e.value.line, e.value.col) == (cls, line, col), text


def test_error_after_trailing_comment_is_at_end_of_input():
    for text in ("schema { P/1 % x", "query q(x) :- P(x) % no dot"):
        with pytest.raises(ProgramSyntaxError) as e:
            parse_program(text)
        assert (e.value.line, e.value.col) == (1, len(text) + 1), text


def test_one_object_per_term_text_and_predicate():
    prog = parse_program(
        "schema { P/1, R/2 } tgds t { P(x) -> exists y . R(x, y). "
        "R(x, a) -> P(x). } query q(x) :- R(x, a), P(x), R(a, 0). "
        "query q(x) :- R(x, x). database d { P(a). R(a, b). R(b, a). R(0, 0). }"
        " database e { P(a). S(a, 0). } schema { S/2 }")
    atoms = [a for t in prog.tgds for a in (*t.body, *t.head)]
    atoms += [a for ucq in prog.queries.values() for cq in ucq for a in cq.body]
    atoms += [a for db in prog.databases.values() for a in db]
    terms = [t for a in atoms for t in a.args]
    terms += [t for t in prog.tgds[0].exist_vars]
    terms += [t for ucq in prog.queries.values() for cq in ucq for t in cq.answers]
    assert len({id(t) for t in terms}) == len(set(terms)) == 5  # x y a b 0
    preds = [a.predicate for a in atoms] + list(prog.schema)
    assert len({id(p) for p in preds}) == len(set(preds)) == 3


def test_commas_optional_in_schema_answers_and_arguments():
    loose = parse_program("schema { P/1 R/2, } query q(x,) :- P(x). "
                          "query r() :- R(a b).")
    strict = parse_program("schema { P/1, R/2 } query q(x) :- P(x). "
                           "query r() :- R(a, b).")
    assert loose == strict


TOKEN_PIECES = ["schema", "tgds", "query", "database", "exists", "true", "P",
                "x", "Z9", "u1", "a_b", "$f", "_n", "0", "42", "->", ":-", ".",
                ",", "(", ")", "{", "}", "/", "-", ":", ">", "%", " ", "\n",
                "\r", "\t", "\x0b", "\xa0", "\u2028", "é", "ß", "#", "!"]


def token_kind(tok: str) -> str:
    if not tok:
        return "eof"
    if tok[0] in string.digits:
        return "number"
    return "ident" if tok[0] in string.ascii_letters + "_$" else "symbol"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join))
def test_scanner_matches_character_loop(text):
    """Token texts from the scanner, kinds from their first character and
    positions from the rescan that errors use."""
    try:
        expected = char_loop_tokenize(text)
    except ProgramSyntaxError as e:
        with pytest.raises(ProgramSyntaxError) as got:
            _tokenize(text)
        assert (got.value.message, got.value.line, got.value.col) == \
            (e.message, e.line, e.col)
        return
    tokens = [Token(token_kind(t), t, *_locate(text, i))
              for i, t in enumerate(_tokenize(text))]
    assert tokens[:-1] == expected[:-1]
    last_line = text.rsplit("\n", 1)[-1]
    assert tokens[-1] == Token("eof", "", text.count("\n") + 1,
                               len(last_line) + 1)
    if "%" not in last_line:  # a trailing comment moves the end of input
        assert tokens[-1] == expected[-1]


def _opcode_names(node, sre_parse) -> set[str]:
    """The opcode names of a parsed regular expression, nested ones too."""
    if isinstance(node, int):
        return {node.name} if hasattr(node, "name") else set()
    if isinstance(node, (list, tuple, sre_parse.SubPattern)):
        return set().union(*(_opcode_names(n, sre_parse) for n in node))
    return set()


def test_patterns_compile_on_the_oldest_supported_python():
    """pyproject.toml admits Python 3.10, whose re module has no possessive
    quantifiers and no atomic groups (both came in 3.11); a module-level
    pattern using either would make ``import omq`` fail there."""
    sre_parse = pytest.importorskip("re._parser")  # the 3.11+ name
    patterns = []
    for info in pkgutil.iter_modules(omq.__path__, "omq."):
        module = importlib.import_module(info.name)
        patterns += [v for v in vars(module).values()
                     if isinstance(v, re.Pattern)]
    assert any("%" in p.pattern for p in patterns)  # the token pattern
    for pat in patterns:
        names = _opcode_names(sre_parse.parse(pat.pattern, pat.flags),
                              sre_parse)
        assert not names & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pat.pattern


def test_modules_parse_as_the_oldest_supported_python():
    """pyproject.toml admits Python 3.10: no module may use later syntax,
    such as ``except*`` (3.11)."""
    sources = sorted(Path(omq.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source),
                  feature_version=(3, 10))


def test_roundtrip_worked_example():
    prog = parse_program(SECTION41)
    again = parse_program(serialize_program(prog))
    assert again.schema == prog.schema
    assert same_tgd_sets(again.tgds, prog.tgds)
    assert same_disjunct_sets(again.queries["q"].disjuncts,
                              prog.queries["q"].disjuncts)


def test_roundtrip_empty_blocks_and_databases():
    text = "schema { P/1 }\ntgds t { }\ndatabase d { P(a). }"
    prog = parse_program(text)
    out = serialize_program(prog)
    assert "tgds t { }" in out
    assert "database d {" in out and "P(a)." in out
    again = parse_program(out)
    assert again.databases == prog.databases


def test_roundtrip_random_programs():
    from omq.parser import Program

    for seed in range(25):
        cfg = GeneratorConfig(seed=seed, max_predicates=3, max_arity=3,
                              max_tgds=3, target_class="any")
        omq = random_omq(cfg)
        prog = Program(schema=omq.data_schema, tgds=omq.tgds,
                       queries={"q": as_ucq(omq.query)}, databases={})
        again = parse_program(serialize_program(prog))
        assert again.schema == prog.schema, seed
        assert same_tgd_sets(again.tgds, prog.tgds), seed
        assert same_disjunct_sets(again.queries["q"].disjuncts,
                                  prog.queries["q"].disjuncts), seed


# "o" and "a1" parse as constants, so the serializer renames them
RT_VARIABLES = [Variable(n) for n in ("x", "y", "Z1", "o", "a1")]
RT_CONSTANTS = [Constant(n) for n in ("a", "b1", "0", "17")]


@st.composite
def programs(draw):
    preds = [Predicate(n, draw(st.integers(0, 3))) for n in ("P", "R", "S")]

    def atoms(terms, lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            p = draw(st.sampled_from(preds))
            out.append(Atom(p, tuple(draw(st.sampled_from(terms))
                                     for _ in range(p.arity))))
        return out

    terms = RT_VARIABLES + RT_CONSTANTS
    tgds = tuple(TGD.of(atoms(terms, 0, 2), atoms(terms, 1, 2))  # 0: a fact tgd
                 for _ in range(draw(st.integers(0, 3))))
    queries = {}
    for name in ("q", "r")[:draw(st.integers(1, 2))]:
        arity, clauses = draw(st.integers(0, 2)), []
        for _ in range(draw(st.integers(1, 3))):
            body = atoms(terms, 0, 3)
            pool = sorted(atoms_variables(body)) + RT_CONSTANTS
            clauses.append(CQ([draw(st.sampled_from(pool)) for _ in range(arity)],
                              body))
        queries[name] = UCQ(clauses)
    databases = {name: Database(atoms(RT_CONSTANTS, 0, 3))
                 for name in ("d", "e")[:draw(st.integers(0, 2))]}
    schema = Schema(draw(st.lists(st.sampled_from(preds), unique=True)))
    return Program(schema=schema, tgds=tgds, queries=queries,
                   databases=databases)


@settings(max_examples=150, deadline=None)
@given(programs())
def test_roundtrip_property(prog):
    again = parse_program(serialize_program(prog))
    assert again.schema == prog.schema
    assert same_tgd_sets(again.tgds, prog.tgds)
    assert again.queries.keys() == prog.queries.keys()
    for name, ucq in prog.queries.items():
        assert same_disjunct_sets(again.queries[name].disjuncts, ucq.disjuncts)
    assert again.databases == prog.databases


def test_variables_render_as_variables():
    # "o" parses as a constant, so serialization must rename that variable
    from omq.parser import Program
    from omq.testkit import sticky_family

    fam = sticky_family(2)
    prog = Program(schema=fam.data_schema, tgds=fam.tgds,
                   queries={"q": as_ucq(fam.query)}, databases={})
    again = parse_program(serialize_program(prog))
    assert same_tgd_sets(again.tgds, prog.tgds)
