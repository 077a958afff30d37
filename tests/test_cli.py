import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from superq import suites
from superq.cli import main
from superq.parser import ExprError, eval_text, parse, random_ast, to_text
from superq.algebra import Element
from superq.report import Report
from superq.scalars import Scalar

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_quotient_relation():
    el = eval_text("a*d + t*b*c")
    assert el == Element.generator("sigma")


def test_parse_sigma_square():
    assert eval_text("s^2") == Element.one()


def test_parse_zeta():
    from superq.algebra import zeta
    assert eval_text("zeta") == zeta()


def test_parse_q_elimination():
    assert eval_text("q") == Element.scalar(Scalar.q_power(1))
    assert eval_text("q^-1") == Element.scalar(Scalar.q_power(-1))
    assert eval_text("q^2") == Element.scalar(Scalar.q_power(2))


def test_parse_fraction_and_power():
    el = eval_text("1/2 * t^-2 * a^2")
    expected = (Element.generator("a") ** 2).scale(
        Scalar.from_rational("1/2") * Scalar.t_power(-2))
    assert el == expected


def test_syntax_error_position():
    with pytest.raises(ExprError) as err:
        parse("a*(")
    assert err.value.pos == 3
    with pytest.raises(ExprError):
        parse("a b")   # juxtaposition is not multiplication
    with pytest.raises(ExprError):
        parse("x + 1")
    with pytest.raises(ExprError):
        parse("a^-1")


def test_roundtrip_fixed_samples():
    for text in ("a*d + t*b*c", "-(a + b)*c^2", "1/2 - t^-3*zeta",
                 "i*(s - 1)", "(a - b)^3"):
        ast = parse(text)
        assert parse(to_text(ast)) == ast


def test_roundtrip_random_asts():
    rng = random.Random(987654)
    for _ in range(1000):
        ast = random_ast(rng, depth=3)
        printed = to_text(ast)
        assert parse(printed) == ast, printed


def test_ast_values_compare_by_tag_and_order():
    assert parse("a + b") != parse("a - b")
    assert parse("a*b") != parse("b*a")
    assert parse("a + b") != parse("b + a")
    assert parse("-a") != parse("a")
    assert parse("i") != parse("zeta")
    assert parse("a + b") == ("add", ("gen", "a"), ("gen", "b"))
    assert parse("q^-3") == ("neg", ("t", -6))
    rng = random.Random(31337)
    for _ in range(200):
        ast = random_ast(rng, depth=3)
        again = parse(to_text(ast))
        assert again == ast and hash(again) == hash(ast)
    assert len({parse("(a + b)*c"), parse("(a+b) * c"), parse("a + b*c")}) == 2


def test_import_loads_no_dataclasses():
    # pytest itself imports inspect, so the check needs a fresh interpreter
    probe = ("import sys, superq, superq.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reports_do_not_share_lists():
    one, two = Report(), Report()
    one.check("fails", False, 1, 2)
    one.note("a note")
    assert (two.checked, two.failures, two.notes) == (0, [], [])
    assert not two.ok and not one.ok


# ---------------------------------------------------------------------------
# CLI subcommands and exit codes
# ---------------------------------------------------------------------------

def test_nf_command(capsys):
    code, out, _ = run_cli(capsys, "nf", "d*a")
    assert code == 0
    # d*a in A(sigma): s - (1/t) b*c after the quotient
    assert "s" in out and "b*c" in out


def test_nf_ring_flag(capsys):
    code, out, _ = run_cli(capsys, "nf", "d*a", "--ring", "B")
    assert code == 0
    assert "a*d" in out


def test_eps_and_grade(capsys):
    code, out, _ = run_cli(capsys, "eps", "a*d")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "grade", "a")
    assert code == 0 and "(1, 1)" in out


def test_haar_command(capsys):
    code, out, _ = run_cli(capsys, "haar", "zeta")
    assert code == 0
    assert out.strip() == "t^2/(t^2 + 1)"


def test_haar_numeric(capsys):
    code, out, _ = run_cli(capsys, "haar", "zeta", "--numeric", "q=-1")
    # q=-1 lies on the unit circle: usage error
    assert code == 2
    code, out, _ = run_cli(capsys, "haar", "zeta", "--numeric", "q=-2")
    assert code == 0
    assert abs(float(complex(out.strip()).real) - 2 / 3) < 1e-9


def test_pair_command(capsys):
    code, out, _ = run_cli(capsys, "pair", "k", "a")
    assert code == 0 and out.strip() == "t"
    code, out, _ = run_cli(capsys, "pair", "k^-1", "d")
    assert code == 0 and out.strip() == "-t"
    code, out, _ = run_cli(capsys, "pair", "f", "c")
    assert code == 0 and out.strip() == "1"


def test_inner_command(capsys):
    code, out, _ = run_cli(capsys, "inner", "--form", "R", "a", "a")
    assert code == 0
    assert out.strip() == "1/(t^2 + 1)"


def test_jacobi_command(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--n", "1")
    assert code == 0
    assert "z" in out


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "nf", "a*(")[0] == 2
    assert run_cli(capsys, "nf", "a", "--ring", "Z")[0] == 2


@pytest.mark.parametrize("argv", [["haar", "--ring", "B", "a"],
                                  ["inner", "--ring", "B", "a", "a"]])
def test_haar_and_inner_take_no_ring(capsys, argv):
    # Both always work in A(sigma); a --ring they ignored printed the
    # A(sigma) value for any ring asked for.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --ring" in err


@pytest.mark.parametrize("module, name, argv", [
    ("hopf", "counit", ["eps", "a*d"]),
    ("hopf", "antipode", ["antipode", "b"]),
    ("hopf", "star", ["star", "b"]),
    ("hopf", "coproduct", ["delta", "a"]),
    ("repn", "haar", ["haar", "zeta"]),
    ("repn", "inner", ["inner", "a", "a"]),
    ("dual", "eval_functional", ["pair", "k", "a"]),
    ("qfun", "little_jacobi", ["jacobi", "--n", "1"]),
    ("repn", "matrix_coefficients", ["matcoef", "--twoL", "1"]),
    ("repn", "closed_form_matrix", ["matcoef", "--twoL", "1", "--closed-form"]),
    ("repn", "verify_peter_weyl", ["gram", "--twoL-max", "0"]),
    ("spheres", "sphere_basis_check", ["sphere", "--infinity", "--check", "basis"]),
])
def test_commands_look_library_functions_up_when_run(capsys, monkeypatch, module, name, argv):
    # A profiler (perfbench/tracing.py) swaps module attributes after
    # import; a command that held the function from import time would
    # bypass the swap.
    import importlib
    mod = importlib.import_module(f"superq.{module}")
    original, calls = getattr(mod, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    main(["nf", "a"])       # the parser is built before the swap
    monkeypatch.setattr(mod, name, counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "qfun", "--degree", "4")
    assert code == 0
    assert "pass" in out


def test_every_suite_has_a_cap():
    # so the test below refuses a degree above the cap of every suite
    assert all(isinstance(cap, int) and cap >= 1 for cap, _run in suites.SUITES.values())


@pytest.mark.parametrize("suite, cap", [(name, cap) for name, (cap, _run)
                                        in suites.SUITES.items()])
def test_verify_degree_above_cap_exits_2(capsys, suite, cap):
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--degree", str(cap + 1))
    assert code == 2 and out == ""
    assert f"suite {suite} runs --degree {cap} at most, got {cap + 1}" in err


@pytest.mark.parametrize("suite", ["matcoef", "completeness"])
def test_matrix_suites_refuse_above_the_matrix_bound_at_once(capsys, monkeypatch, suite):
    from superq import repn

    def refuse(*args):
        raise AssertionError("the suite ran")

    cap = suites.SUITES[suite][0]
    assert cap <= 2 * repn.MATRIX_BOUND
    # both suites read their matrices through repn._read_matrix
    monkeypatch.setattr(repn, "_read_matrix", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--degree", str(cap + 1))
    assert code == 2 and out == ""
    assert f"suite {suite} runs --degree {cap} at most, got {cap + 1}" in err


def test_closed_pipe_ends_quietly():
    # The reader is gone before superq writes, as after `| head -c 300`.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.Popen([sys.executable, "-m", "superq", "nf", "(a + d)^8*(b + c*s)"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


def test_verify_all_names_each_capped_suite(capsys, monkeypatch):
    # no cap is below 4; with peterweyl's set to 3 the real suite runs at 3
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--degree", "4")
    assert code == 0 and err == ""
    assert "peterweyl: pass (24225 checks)" in out
    monkeypatch.setitem(suites.SUITES, "peterweyl", (3, suites.SUITES["peterweyl"][1]))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--degree", "4")
    assert code == 0
    assert err.splitlines() == ["note: suite peterweyl runs at its cap --degree 3, not 4"]
    assert "peterweyl: pass (7225 checks)" in out
    code, _, err = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0 and err == ""


def test_verify_all_runs_a_capped_suite_at_its_cap(capsys, monkeypatch):
    # every check of a capped suite runs at min(--degree, cap), so the note
    # is true of the whole suite
    given = {}

    def stub(name):
        def run(degree):
            given[name] = degree
            rep = Report()
            rep.check(name, True)
            return rep
        return run

    monkeypatch.setattr(suites, "SUITES", {"free": (9, stub("free")),
                                           "capped": (3, stub("capped"))})
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--degree", "5")
    assert code == 0
    assert given == {"free": 5, "capped": 3}
    assert out.splitlines() == ["free: pass (1 checks)", "capped: pass (1 checks)"]
    assert err == "note: suite capped runs at its cap --degree 3, not 5\n"
    run_cli(capsys, "verify", "--suite", "all", "--degree", "2")
    assert given == {"free": 2, "capped": 2}
    run_cli(capsys, "verify", "--suite", "all")
    assert given == {"free": None, "capped": None}


@pytest.mark.parametrize("degree, checks", [([], 27), (["--degree", "5"], 38)],
                         ids=["default", "degree-5"])
def test_verify_moments_honours_degree(capsys, degree, checks):
    code, out, _ = run_cli(capsys, "verify", "--suite", "moments", "--json", *degree)
    assert code == 0
    assert json.loads(out)["checked"] == checks


def test_suite_registry_is_the_one_list(monkeypatch):
    # perfbench and README name the suites of the registry, in its order
    root = Path(__file__).resolve().parents[1]
    expected = json.loads((root / "perfbench" / "expected.json").read_text())
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import worker
    ops = list(dict.fromkeys(suite for suite, _label, _fn in worker._verify_ops(1)))
    readme = (root / "README.md").read_text().split("## Verification suites")[1]
    readme = readme.split("\n## ")[0]
    table = [line.split("`")[1] for line in readme.splitlines()
             if line.startswith("| `")]
    assert list(expected["verify_checks"]) == ops == table == list(suites.SUITES)


def test_sphere_characters_cli(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--infinity", "--check", "characters")
    assert code == 0
    assert "1" in out and "-1" in out


@pytest.mark.parametrize("argv, message", [
    (["--cache-size", "-5", "nf", "a"], "--cache-size: must be at least 0, got -5"),
    (["gram", "--twoL-max", "-1"], "--twoL-max: must be at least 0, got -1"),
    (["verify", "--degree", "-3"], "--degree: must be at least 1, got -3"),
    (["verify", "--suite", "hopf", "--degree", "0"], "--degree: must be at least 1, got 0"),
    (["sphere", "--alpha", "1,0,1", "--check", "characters"],
     "sphere --check characters is only computed for --infinity"),
    (["sphere", "--alpha", "1,0,1", "--check", "basis", "--degree", "-1"],
     "--degree: must be at least 0, got -1"),
    (["matcoef", "--twoL", "-1", "--closed-form"], "--twoL: must be at least 0, got -1"),
])
def test_bad_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_numeric_no_false_pole(capsys):
    # t^-20 at t = -1/10 is 1e20: a small denominator, not a vanishing one.
    code, out, _ = run_cli(capsys, "eps", "t^-20", "--numeric", "q=-1/100")
    assert code == 0
    assert abs(complex(out.strip()) / 1e20 - 1) < 1e-12


def test_numeric_out_of_float_range_exits_2(capsys):
    # t^-2000 at t = -1/10 is 10^2000.
    code, out, err = run_cli(capsys, "eps", "t^-2000", "--numeric", "q=-1/100")
    assert code == 2 and out == ""
    assert err == "error: the value at q = -1/100 is outside float range\n"
    # Underflow rounds to zero.
    code, out, _ = run_cli(capsys, "eps", "t^2000", "--numeric", "q=-1/100")
    assert code == 0 and out == "0j\n"


def test_numeric_size_budget_exits_2(capsys):
    # t^-1000000 at q = -10001/10000 needs powers of s = -q of about 7e6
    # bits; exact evaluation refuses them at once instead of taking 20 s.
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "eps", "t^-1000000", "--numeric", "q=-10001/10000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == ("error: exact evaluation at degree 500000 needs numbers of over "
                   "1048576 bits, the bound\n")


def test_numeric_unit_circle_check_is_exact(capsys):
    code, out, _ = run_cli(capsys, "eps", "t^2", "--numeric",
                           "q=10000000000000001/10000000000000000")
    assert code == 0 and out == "(-1+0j)\n"
    code, out, err = run_cli(capsys, "eps", "t^2", "--numeric", "q=1")
    assert code == 2 and out == ""
    assert "unit circle" in err


def test_sphere_alpha_relations_cli(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--alpha", "1,0,1",
                           "--check", "relations")
    assert code == 0
    assert "none exists" in out


# Exit codes: -1,1,2 and -.5,1,1 have no relation of any kind, so nothing
# is checked and the report is a failure, not a vacuous pass.
_NEGATIVE_ALPHA_EXIT = {"-1,1,2": 1, "-1/2,0,1": 0, "-.5,1,1": 1}


@pytest.mark.parametrize("alpha", ["-1,1,2", "-1/2,0,1", "-.5,1,1"])
def test_sphere_negative_alpha_as_separate_value(capsys, alpha):
    for tail in ([], ["--json"]):
        attached = run_cli(capsys, "sphere", f"--alpha={alpha}", "--check", "relations", *tail)
        separate = run_cli(capsys, "sphere", "--alpha", alpha, "--check", "relations", *tail)
        assert attached[0] == _NEGATIVE_ALPHA_EXIT[alpha]
        assert separate == attached


def test_sphere_alpha_without_relations_fails(capsys):
    # No witness of any kind exists for alpha = (1, 1, 2): 0 checks is a FAIL.
    code, out, _ = run_cli(capsys, "sphere", "--alpha", "1,1,2", "--check", "relations")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL: 0 checks, 0 failures"
    assert lines[1:] == [f"  note: kind {kind}: none exists"
                         for kind in ("unit", "mixed", "lower", "upper")]
    code, out, _ = run_cli(capsys, "sphere", "--alpha", "1,1,2", "--check", "relations", "--json")
    assert code == 1
    doc = json.loads(out)
    assert (doc["checked"], doc["failures"]) == (0, [])
    assert len(doc["notes"]) == 4
    _validator("report.json").validate(doc)


def test_leading_minus_expression_still_a_usage_error(capsys):
    # Only sphere's --alpha value is attached; expressions parse as before.
    assert run_cli(capsys, "nf", "-a")[0] == 2
    assert run_cli(capsys, "inner", "--form", "L", "-d", "a")[0] == 2


# ---------------------------------------------------------------------------
# JSON output against the published schemas
# ---------------------------------------------------------------------------

def _validator(schema_name):
    import jsonschema
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    return Draft202012Validator(schema, registry=registry)


@pytest.mark.parametrize("argv, schema", [
    (["nf", "d*a + zeta^2"], "element.json"),
    (["haar", "zeta^3 + s"], "scalar.json"),
    (["verify", "--suite", "moments"], "report.json"),
    (["jacobi", "--n", "2", "--alpha", "1"], "qpolynomial.json"),
    (["matcoef", "--twoL", "2"], "corepmatrix.json"),
    (["delta", "a^2*b"], "tensor.json"),
], ids=["element", "scalar", "report", "qpolynomial", "corepmatrix", "tensor"])
def test_json_output_schema(capsys, argv, schema):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    _validator(schema).validate(json.loads(out))


def test_matcoef_closed_form_agrees(capsys):
    code1, out1, _ = run_cli(capsys, "matcoef", "--twoL", "3", "--json")
    code2, out2, _ = run_cli(capsys, "matcoef", "--twoL", "3", "--closed-form",
                             "--json")
    assert code1 == code2 == 0
    assert json.loads(out1)["entries"] == json.loads(out2)["entries"]


def test_parser_built_once_gives_fresh_results(capsys):
    import os
    import subprocess
    import sys

    from superq.cli import build_arg_parser

    calls = [["nf", "d*a", "--json"], ["nf"], ["nf", "d*a", "--json"]]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert build_arg_parser() is build_arg_parser()
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "superq", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        # usage text is wrapped to the terminal width; the message is not
        assert err.splitlines()[-1:] == fresh.stderr.splitlines()[-1:]
    assert [c for c, _, _ in in_process] == [0, 2, 0]
    assert in_process[0] == in_process[2]


def _memo_tables():
    import sys
    return {f"{name}.{attr}": table
            for name, mod in list(sys.modules.items()) if name.startswith("superq.")
            for attr, table in vars(mod).items()
            if attr.endswith("_cache") and isinstance(table, dict)}


def test_every_memo_table_is_registered():
    # A *_cache dict filled by hand, outside _cache.memo, would be missing
    # from TABLES: --cache-size and _cache.clear() would not reach it.
    from superq import _cache

    found = sorted(map(id, _memo_tables().values()))
    assert found == sorted(map(id, _cache.TABLES))


def test_cache_size_applies_to_its_own_call_only(capsys):
    from superq import _cache

    previous = _cache.LIMIT
    assert main(["--cache-size", "2", "nf", "a"]) == 0
    assert _cache.LIMIT == previous
    assert main(["--cache-size", "2", "nf", "a^"]) == 2    # an error path too
    assert _cache.LIMIT == previous
    capsys.readouterr()


def test_cache_size_caps_every_memo_table():
    from superq import _cache, algebra, dual, hopf, qfun, repn

    queries = [
        lambda: repn.haar(eval_text("zeta^3*s + zeta^2*s + zeta*s + zeta^3 + a*d")),
        lambda: repn.matrix_coefficients(2, 1).entries,
        lambda: repn.matrix_coefficients(1, 0).entries,
        lambda: repn.matrix_coefficients(2, 0).entries,
        lambda: hopf.antipode(eval_text("a^2*b + c*d*s + b*c + a^3")),
        lambda: dual.eval_functional(dual.Functional.word("e", "f", "k"), eval_text("zeta^2 + a*d")),
        lambda: repn.haar_via_corep_expansion(eval_text("zeta^4*s + zeta^2 + s")),
        lambda: hopf.coaction("right", hopf.PlaneElement.monomial(3, 2)),
        # A(sigma) products no longer expand d^l a^I; B still does.
        lambda: algebra.normal_form(["d", "a"], "B"),
        # repn reads algebra.gauss_row; the quotient binomials fill _binom_cache.
        lambda: str(qfun.pascal_rule_check(3)),
    ]
    uncapped = [q() for q in queries]
    tables = _memo_tables()
    assert len(tables) == 15
    previous = _cache.LIMIT
    used = set()
    try:
        _cache.set_limit(2)
        for table in tables.values():
            table.clear()
        for q, expected in zip(queries, uncapped):
            assert q() == expected
            for name, table in tables.items():
                assert len(table) <= 3, name
                if table:
                    used.add(name)
    finally:
        _cache.set_limit(previous)
    assert used == set(tables)
