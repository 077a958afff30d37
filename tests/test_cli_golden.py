"""Golden CLI corpus: stdout and exit code of fixed superq invocations.

tests/golden_cli.json holds every CLI example of README.md, in text and
--json form, and a seeded sample of nf/delta/haar/pair queries, each with
the stdout and exit code it gave when recorded.  Any change to printed
output or to an exit code fails here.  Re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

only for a change that means to alter output, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from superq.algebra import mono_degree
from superq.cli import main
from superq.parser import eval_text, random_ast, to_text

GOLDEN = Path(__file__).with_name("golden_cli.json")

README_EXAMPLES = [
    ["nf", "d*a"],
    ["nf", "a*d + t*b*c"],
    ["eps", "a*d"],
    ["delta", "a^2"],
    ["antipode", "b"],
    ["star", "b"],
    ["grade", "zeta"],
    ["haar", "zeta"],
    ["haar", "zeta", "--numeric", "q=-2"],
    ["pair", "f", "c"],
    ["pair", "k^-1", "d"],
    ["inner", "--form", "R", "a", "a"],
    ["jacobi", "--n", "1", "--alpha", "0"],
    ["matcoef", "--twoL", "2", "--s", "0"],
    ["matcoef", "--twoL", "2", "--closed-form"],
    ["gram", "--twoL-max", "2"],
    ["sphere", "--infinity", "--check", "relations"],
    ["sphere", "--alpha", "1,0,1", "--check", "relations"],
    ["sphere", "--infinity", "--check", "characters"],
    ["verify", "--suite", "all"],
    ["verify", "--suite", "hopf", "--degree", "4"],
]

# Largest monomial degree of a sampled expression, per command.
SAMPLE_DEGREE_CAP = {"nf": 8, "delta": 4, "haar": 6, "pair": 5}
SAMPLE_PER_COMMAND = 10
SAMPLE_SEED = 20061


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def sample_argvs():
    """The seeded nf/delta/haar/pair queries (used only when recording)."""
    rng = random.Random(SAMPLE_SEED)
    argvs = []
    for cmd, cap in SAMPLE_DEGREE_CAP.items():
        found = 0
        while found < SAMPLE_PER_COMMAND:
            text = to_text(random_ast(rng, 3))
            if text.startswith("-"):
                continue   # argparse would read it as an option
            el = eval_text(text)
            if max((mono_degree(m) for m in el.terms), default=0) > cap:
                continue
            if cmd == "pair":
                word = "*".join(rng.choice(("k", "k^-1", "e", "f"))
                                for _ in range(rng.randint(1, 3)))
                argvs.append(["pair", word, text])
            else:
                argvs.append([cmd, text])
            found += 1
    return argvs


def record():
    cases = []
    for argv in README_EXAMPLES + sample_argvs():
        for variant in (argv, argv + ["--json"]):
            code, out = run(variant)
            cases.append({"argv": variant, "code": code, "stdout": out})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_corpus_covers_readme_and_sample():
    argvs = [c["argv"] for c in CASES]
    for argv in README_EXAMPLES:
        assert argv in argvs and argv + ["--json"] in argvs
    assert len(CASES) == 2 * (len(README_EXAMPLES)
                              + len(SAMPLE_DEGREE_CAP) * SAMPLE_PER_COMMAND)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_golden(case):
    assert run(case["argv"]) == (case["code"], case["stdout"])


# README's expression commands once more with every memo table capped at one
# entry: a cache may change how long an answer takes, never the answer.
EXPRESSION_COMMANDS = ("nf", "eps", "delta", "antipode", "star", "haar", "pair", "inner")
UNCACHED = [c for c in CASES if c["argv"][0] in EXPRESSION_COMMANDS
            and (c["argv"] in README_EXAMPLES or c["argv"][:-1] in README_EXAMPLES)]


@pytest.mark.parametrize("case", UNCACHED, ids=[" ".join(c["argv"]) for c in UNCACHED])
def test_cli_golden_with_cache_size_0(case):
    assert run(["--cache-size", "0", *case["argv"]]) == (case["code"], case["stdout"])


if __name__ == "__main__":
    record()
