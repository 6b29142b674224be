import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SECTION41, char_loop_tokenize, same_disjunct_sets,
                     same_tgd_sets)
from omq.errors import (ArityError, ParseError, ProgramSyntaxError,
                        ReservedNameError, SafetyError)
from omq.model import (CQ, TGD, UCQ, Atom, Constant, Database, Predicate,
                       Schema, Variable, as_ucq, atoms_variables)
from omq.parser import (Program, Token, _tokenize, parse_program,
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


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join))
def test_scanner_matches_character_loop(text):
    try:
        expected = char_loop_tokenize(text)
    except ProgramSyntaxError as e:
        with pytest.raises(ProgramSyntaxError) as got:
            _tokenize(text)
        assert (got.value.message, got.value.line, got.value.col) == \
            (e.message, e.line, e.col)
        return
    tokens = _tokenize(text)
    assert tokens[:-1] == expected[:-1]
    last_line = text.rsplit("\n", 1)[-1]
    assert tokens[-1] == Token("eof", "", text.count("\n") + 1,
                               len(last_line) + 1)
    if "%" not in last_line:  # a trailing comment moves the end of input
        assert tokens[-1] == expected[-1]


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
