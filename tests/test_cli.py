import json
import random
from pathlib import Path

import pytest

from superq.cli import main
from superq.parser import ExprError, eval_text, parse, random_ast, to_text
from superq.algebra import Element
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
    # q=-1 is a root of unity: usage error
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


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "qfun", "--degree", "4")
    assert code == 0
    assert "pass" in out


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


def test_sphere_alpha_relations_cli(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--alpha", "1,0,1",
                           "--check", "relations")
    assert code == 0
    assert "none exists" in out


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


def test_element_json_schema(capsys):
    code, out, _ = run_cli(capsys, "nf", "d*a + zeta^2", "--json")
    assert code == 0
    _validator("element.json").validate(json.loads(out))


def test_scalar_json_schema(capsys):
    code, out, _ = run_cli(capsys, "haar", "zeta^3 + s", "--json")
    assert code == 0
    _validator("scalar.json").validate(json.loads(out))


def test_report_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "moments", "--json")
    assert code == 0
    _validator("report.json").validate(json.loads(out))


def test_qpolynomial_json_schema(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--n", "2", "--alpha", "1", "--json")
    assert code == 0
    _validator("qpolynomial.json").validate(json.loads(out))


def test_corepmatrix_json_schema(capsys):
    code, out, _ = run_cli(capsys, "matcoef", "--twoL", "2", "--json")
    assert code == 0
    _validator("corepmatrix.json").validate(json.loads(out))


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
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
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


def test_cache_size_caps_every_memo_table():
    from superq import _cache, dual, hopf, repn

    queries = [
        lambda: repn.haar(eval_text("zeta^3*s + zeta^2*s + zeta*s + zeta^3 + a*d")),
        lambda: repn.matrix_coefficients(2, 1).entries,
        lambda: repn.matrix_coefficients(1, 0).entries,
        lambda: repn.matrix_coefficients(2, 0).entries,
        lambda: hopf.antipode(eval_text("a^2*b + c*d*s + b*c + a^3")),
        lambda: dual.eval_functional(dual.Functional.word("e", "f", "k"), eval_text("zeta^2 + a*d")),
    ]
    uncapped = [q() for q in queries]
    tables = _memo_tables()
    assert len(tables) == 10
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
