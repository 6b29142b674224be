import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omq

from helpers import SECTION41, SEED89, chain_program, path_program
from omq import testkit
from omq.cli import main
from omq.evaluate import eval_membership
from omq.model import Constant
from omq.parser import parse_program

FULL = SECTION41 + """
query r(x) :- P(x).
query r(x) :- T(x).
query narrower(x) :- P(x).
database d { P(a). T(b). }
"""

# no rules: here r (= P or T) is strictly wider than narrower (= P)
PLAIN = """
schema { P/1, T/1 }
query r(x) :- P(x).
query r(x) :- T(x).
query narrower(x) :- P(x).
"""


@pytest.fixture()
def prog_path(tmp_path):
    path = tmp_path / "prog.omq"
    path.write_text(FULL)
    return str(path)


@pytest.fixture()
def plain_path(tmp_path):
    path = tmp_path / "plain.omq"
    path.write_text(PLAIN)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_json(prog_path, capsys):
    code, out = run(capsys, "classify", prog_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"]["linear"] is True
    assert payload["flags"]["nonRecursive"] is False


def test_rewrite_lists_two_disjuncts(prog_path, capsys):
    code, out = run(capsys, "rewrite", prog_path, "q")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 2
    assert any(":- P(" in d for d in payload["disjuncts"])
    assert any(":- T(" in d for d in payload["disjuncts"])


def test_rewrite_trace_lines(prog_path, capsys):
    code, out = run(capsys, "rewrite", prog_path, "q", "--trace")
    lines = out.strip().splitlines()
    assert code == 0
    events = [json.loads(l) for l in lines[:-1]]
    assert all("trace" in e for e in events)
    kinds = {e["trace"]["kind"] for e in events}
    assert "rewrite" in kinds and "factorize" in kinds


def test_eval_and_membership_exit_codes(prog_path, capsys):
    code, out = run(capsys, "eval", prog_path, "q", "d")
    assert code == 0
    assert json.loads(out)["answers"] == [["a"], ["b"]]
    code, _ = run(capsys, "eval", prog_path, "q", "d", "--tuple", "b")
    assert code == 0
    code, _ = run(capsys, "eval", prog_path, "q", "d", "--tuple", "zzz")
    assert code == 1


def test_contains_verdicts_and_oracle(prog_path, plain_path, capsys):
    code, out = run(capsys, "contains", prog_path, "q", "r", "--oracle")
    payload = json.loads(out)
    assert code == 0 and payload["contained"] and payload["oracleAgrees"]
    code, out = run(capsys, "contains", plain_path, "r", "narrower")
    payload = json.loads(out)
    assert code == 1 and not payload["contained"]
    assert "counterexample" in payload


def test_counterexample_round_trips(plain_path, capsys):
    _, out = run(capsys, "contains", plain_path, "r", "narrower")
    payload = json.loads(out)
    sub = parse_program("schema { P/1, T/1 }\n"
                        + payload["counterexample"]["database"])
    db = sub.databases["counterexample"]
    tup = tuple(Constant(c) for c in payload["counterexample"]["tuple"])
    plain = parse_program(PLAIN)
    assert eval_membership(plain.omq("r"), db, tup)
    assert not eval_membership(plain.omq("narrower"), db, tup)


def test_chase_bounded_and_unsat(prog_path, capsys):
    code, out = run(capsys, "chase", prog_path, "d", "--max-level", "1")
    payload = json.loads(out)
    assert code == 0 and payload["complete"] is False
    assert "_:1" in payload["instance"]
    code, _ = run(capsys, "unsat", prog_path, "q")
    assert code == 1


def test_distributes_cli(prog_path, capsys):
    code, out = run(capsys, "distributes", prog_path, "narrower")
    assert code == 0
    assert json.loads(out)["distributes"] is True


def test_gen_family_parses(capsys):
    code, out = run(capsys, "gen", "--family", "sticky-2")
    assert code == 0
    prog = parse_program(out)
    assert len(prog.tgds) == 4
    assert "witness" in prog.databases


def test_deterministic_output(prog_path, capsys):
    first = run(capsys, "contains", prog_path, "q", "r")[1]
    second = run(capsys, "contains", prog_path, "q", "r")[1]
    assert first == second


def test_classify_empty_rules_all_true(tmp_path, capsys):
    path = tmp_path / "empty.omq"
    path.write_text("schema { P/1 } tgds t { }")
    code, out = run(capsys, "classify", str(path))
    assert code == 0
    assert all(json.loads(out)["flags"].values())


def test_rewrite_unsatisfiable_query_empty(tmp_path, capsys):
    path = tmp_path / "unsat.omq"
    path.write_text("schema { P/1 } query q() :- Hidden(x).")
    code, out = run(capsys, "rewrite", str(path), "q")
    assert code == 0 and json.loads(out)["count"] == 0
    code, _ = run(capsys, "unsat", str(path), "q")
    assert code == 0


def test_distributes_verify_flag(tmp_path, capsys):
    path = tmp_path / "split.omq"
    path.write_text("schema { R/2, T/2 }\n"
                    "query q() :- R(x,x), T(y,y).\n")
    code, out = run(capsys, "distributes", str(path), "q",
                    "--verify", "--max-constants", "2", "--max-atoms", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["distributes"] is False and payload["verified"] is True


def test_gen_random_deterministic_and_parses(capsys):
    code, first = run(capsys, "gen", "--random", "--seed", "9", "--class", "NR")
    assert code == 0
    prog = parse_program(first)
    assert prog.tgds and "q" in prog.queries
    _, second = run(capsys, "gen", "--random", "--seed", "9", "--class", "NR")
    assert first == second


def test_budget_env_override(prog_path, capsys, monkeypatch):
    monkeypatch.setenv("OMQ_BUDGET", "1")
    code = main(["rewrite", prog_path, "q"])
    capsys.readouterr()
    assert code == 2  # BudgetExhausted surfaces as an error
    monkeypatch.delenv("OMQ_BUDGET")


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.omq"
    bad.write_text("schema { P/1 } tgds t { P(x,y) -> P(x). }")
    code = main(["classify", str(bad)])
    assert code == 2
    code = main(["classify", str(tmp_path / "missing.omq")])
    assert code == 2

def run_process(*argv, env_extra=None, timeout=60, code=None):
    """The CLI in a fresh interpreter, as the ``omq`` script runs it; with
    ``code``, that code runs instead and must end by calling ``main``."""
    src = str(Path(omq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, **(env_extra or {}))
    launch = ["-m", "omq.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *launch, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_malformed_budget_env_exits_2(prog_path):
    done = run_process("rewrite", prog_path, "q", env_extra={"OMQ_BUDGET": "abc"})
    assert done.returncode == 2
    assert done.stderr.startswith("error: OMQ_BUDGET")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("family", ["sticky-x", "sticky-", "sticky", "lin-3"])
def test_malformed_family_exits_2(family):
    done = run_process("gen", "--family", family)
    assert done.returncode == 2
    assert done.stderr.startswith("error: unknown family")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("contains", "{p}", "q", "q", "--oracle", "--max-atoms", "-1"),
    ("contains", "{p}", "q", "q", "--oracle", "--max-constants", "-1"),
    ("distributes", "{p}", "narrower", "--verify", "--max-atoms", "-1"),
    ("distributes", "{p}", "narrower", "--verify", "--max-constants", "-2"),
])
def test_negative_enumeration_bound_exits_2(prog_path, argv):
    done = run_process(*(a.format(p=prog_path) for a in argv))
    assert done.returncode == 2
    assert done.stderr.startswith("error: enumeration bounds must be non-negative")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_exits_2(prog_path, budget):
    for done in (run_process("rewrite", prog_path, "q", "--budget", budget),
                 run_process("rewrite", prog_path, "q",
                             env_extra={"OMQ_BUDGET": budget})):
        assert done.returncode == 2
        assert done.stderr.startswith(
            "error: the rewriting step budget must be at least 1")
        assert "Traceback" not in done.stderr


def test_budget_bounds_a_doubling_rewriting(tmp_path):
    path = tmp_path / "seed89.omq"
    path.write_text(SEED89)
    done = run_process("rewrite", str(path), "q", "--budget", "100", timeout=10)
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: rewriting tested more than 100 candidate "
                      "subsets of query atoms"]
    assert "Traceback" not in done.stderr


def test_family_above_cap_exits_2_promptly():
    n = testkit.MAX_WITNESS_ARITY + 1
    # the 2^n witness is never built: a slow run times out and fails
    done = run_process("gen", "--family", f"sticky-{n}", timeout=20)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: the witness of sticky-{n}")
    assert "Traceback" not in done.stderr


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.omq"
    path.write_text(chain_program(10_000))
    return str(path)


def test_classify_long_rule_chain(chain_path):
    done = run_process("classify", chain_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)["flags"]["nonRecursive"] is True


@pytest.mark.parametrize("argv, key, expected", [
    (("rewrite", "{p}", "q"), "disjuncts", ["query q(x) :- P0(x)."]),
    (("eval", "{p}", "q", "d"), "answers", [["a"]]),
], ids=["rewrite", "eval"])
def test_rewrite_and_eval_long_rule_chain(chain_path, argv, key, expected):
    # the rewriting visits only the rules over each query's predicates
    done = run_process(*(a.format(p=chain_path) for a in argv), timeout=60)
    assert done.returncode in (0, 1), done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)[key] == expected


def test_rewrite_long_path_query(tmp_path):
    path = tmp_path / "path.omq"
    path.write_text(path_program(5000))
    done = run_process("rewrite", str(path), "q", timeout=60)
    assert done.returncode in (0, 1), done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)["count"] == 1


def test_eval_long_path_query(tmp_path):
    path = tmp_path / "path.omq"
    path.write_text(path_program(5000))
    for database, count in (("d", 1), ("e", 0)):
        done = run_process("eval", str(path), "q", database, timeout=120)
        assert done.returncode in (0, 1), done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout)["count"] == count


def test_oracle_rewrites_under_the_given_budget(prog_path):
    """--budget and OMQ_BUDGET also bound the oracle's rewriting of q1:
    with the library default lowered below the steps q1 needs, they alone
    let the oracle finish."""
    lowered = ("import sys, omq.rewrite; omq.rewrite.DEFAULT_BUDGET = 1; "
               "from omq.cli import main; sys.exit(main())")
    argv = ("contains", prog_path, "q", "r", "--oracle")
    for done in (run_process(*argv, "--budget", "1000", code=lowered),
                 run_process(*argv, env_extra={"OMQ_BUDGET": "1000"},
                             code=lowered)):
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["oracleAgrees"]


@pytest.mark.parametrize("bound", ["--max-atoms", "--max-constants"])
def test_oracle_keeps_explicit_zero_bounds(plain_path, bound):
    """A zero bound enumerates the empty database only, so the oracle
    misses the counterexample that the decision finds."""
    done = run_process("contains", plain_path, "r", "narrower", "--oracle",
                       bound, "0")
    assert done.returncode == 1, done.stderr
    payload = json.loads(done.stdout)
    assert not payload["contained"] and not payload["oracleAgrees"]
    assert payload["oracleExact"] == (bound == "--max-constants")


@pytest.mark.parametrize("argv", [
    ("classify",), ("chase", "d"), ("rewrite", "q"), ("eval", "q", "d"),
    ("contains", "q", "q"), ("distributes", "q"), ("unsat", "q"),
])
def test_program_not_utf8_exits_2(tmp_path, argv):
    bad = tmp_path / "bad.omq"
    bad.write_bytes(b"schema { P/1 }\xff")
    done = run_process(argv[0], str(bad), *argv[1:])
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "not UTF-8" in done.stderr and "Traceback" not in done.stderr
