"""Seeded op lists of the superq benchmark.

Everything here is plain Python and imports nothing from superq, so the
op lists are made before the worker imports the program.  Each generator
takes the seed and returns the ops of one pass; the same seed gives the
same ops.

Where the cost of one op varies a lot (power queries, Haar degrees), the
expensive shapes are fixed and the seed draws the coefficients, the cheap
terms and, for haar_solve, the order.  That keeps a pass's total work, and
its slowest ops, comparable from one seed to the next.
"""

from __future__ import annotations

import random
from fractions import Fraction

# --------------------------------------------------------------------------
# interactive: CLI invocations as a user types them
# --------------------------------------------------------------------------

COMMANDS = ("nf", "grade", "eps", "antipode", "star", "delta", "haar", "pair",
            "inner")

# Random (non-power) queries per pass.
INTERACTIVE_RANDOM_OPS = 900

# Generator degree (a, b, c, d count 1, zeta 2) allowed per command.  The
# cap keeps a random query short, well under the power queries' 0.4 to 1 s
# at the seed commit, so that the pass's slowest ops are the power queries
# at every seed.  haar at degree 8 (zeta^3 times a generator) and pair at
# degree 6 took 0.4 to 0.7 s.
DEGREE_CAP = {"delta": 5, "pair": 5, "inner": 4, "haar": 5}
DEFAULT_DEGREE_CAP = 8

_A, _D = ("gen", "a"), ("gen", "d")
# a^m*d^m, d^m*a^m and (a + d)^m
POWER_FORMS = (
    lambda m: ("mul", [("pow", _A, m), ("pow", _D, m)]),
    lambda m: ("mul", [("pow", _D, m), ("pow", _A, m)]),
    lambda m: ("pow", ("add", [("+", _A), ("+", _D)]), m),
)

# Largest m per command and form.  At the seed commit the slowest of these
# takes about a second; one step more costs 2 to 3 times as much.  inner
# has no power queries: its second argument would either make a new,
# larger product to rewrite or send the whole (0,0) part of x to the Haar
# solve, and neither is a power query.
POWER_CAP = {
    "nf": (10, 8, 13), "grade": (10, 8, 12), "eps": (10, 8, 12),
    "antipode": (10, 8, 12), "star": (10, 8, 11), "delta": (4, 4, 6),
    "haar": (4, 4, 9), "pair": (5, 4, 7),
}
# Each (command, form) is queried at its cap and one below it, which costs
# about half as much: the 11th slowest op of a pass then falls among ~17
# power queries of 0.4 to 1 s, not at the edge of that group.

PAIR_LETTERS = ("k", "k^-1", "e", "f")
# The U_q word of every pair power query.  A random word made the cost of
# pair (a + d)^7 range from 0.05 s to 1.7 s with the seed; e*f pairs with
# weight-(0,0) elements and keeps each of these queries under about 1.2 s.
POWER_PAIR_WORD = "e*f"


def _leaf(rng):
    roll = rng.random()
    if roll < 0.40:
        return ("gen", rng.choice("abcds"))
    if roll < 0.50:
        return ("zeta",)
    if roll < 0.65:
        return ("t", rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
    if roll < 0.80:
        return ("num", Fraction(rng.randint(0, 9)))
    if roll < 0.90:
        return ("num", Fraction(rng.randint(1, 9), rng.randint(2, 9)))
    return ("i",)


def _pow_base(rng):
    """A base a user raises to a power: a generator, zeta, i, an integer or
    a parenthesised sum of two leaves."""
    roll = rng.random()
    if roll < 0.5:
        return ("gen", rng.choice("abcds"))
    if roll < 0.65:
        return ("zeta",)
    if roll < 0.75:
        return ("i",)
    if roll < 0.8:
        return ("num", Fraction(rng.randint(2, 5)))
    return ("add", [("+", _leaf(rng)), (rng.choice("+-"), _leaf(rng))])


def random_expr(rng, depth=3):
    """Expression tree of the given depth; see expr_text for the syntax."""
    if depth <= 0:
        return _leaf(rng)
    roll = rng.random()
    if roll < 0.30:
        n = rng.randint(2, 3)
        first = "-" if rng.random() < 0.06 else "+"
        signs = [first] + [rng.choice("+-") for _ in range(n - 1)]
        return ("add", [(s, random_expr(rng, depth - 1)) for s in signs])
    if roll < 0.65:
        return ("mul", [random_expr(rng, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if roll < 0.80:
        return ("pow", _pow_base(rng), rng.randint(2, 4))
    if roll < 0.84:
        return ("neg", random_expr(rng, depth - 1))
    return _leaf(rng)


def degree(node):
    """Upper bound on the generator degree of a tree."""
    kind = node[0]
    if kind == "gen":
        return 0 if node[1] == "s" else 1
    if kind == "zeta":
        return 2
    if kind == "add":
        return max(degree(n) for _, n in node[1])
    if kind == "mul":
        return sum(degree(n) for n in node[1])
    if kind == "pow":
        return degree(node[1]) * node[2]
    if kind == "neg":
        return degree(node[1])
    return 0


def expr_text(node):
    """The text a user types: explicit '*', spaces around binary + and -,
    parentheses only where the grammar needs them."""
    kind = node[0]
    if kind == "gen":
        return node[1]
    if kind == "zeta":
        return "zeta"
    if kind == "i":
        return "i"
    if kind == "t":
        return "t" if node[1] == 1 else f"t^{node[1]}"
    if kind == "num":
        return _num_text(node[1])
    if kind == "add":
        out = ""
        for k, (sign, term) in enumerate(node[1]):
            text = _wrap(term, ("add",))
            if k == 0:
                out = "-" + text if sign == "-" else text
            else:
                out += f" {sign} {text}"
        return out
    if kind == "mul":
        return "*".join(_wrap(f, ("add", "neg")) for f in node[1])
    if kind == "pow":
        base = node[1]
        text = expr_text(base)
        if base[0] == "add" or (base[0] == "num" and base[1].denominator != 1):
            text = f"({text})"
        return f"{text}^{node[2]}"
    if kind == "neg":
        return "-" + _wrap(node[1], ("add", "neg"))
    raise ValueError(f"unknown node {node!r}")


def _num_text(v):
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _wrap(node, kinds):
    text = expr_text(node)
    return f"({text})" if node[0] in kinds else text


def _random_capped(rng, cap):
    while True:
        node = random_expr(rng)
        if degree(node) <= cap:
            return node


def _pair_word(rng):
    return "*".join(rng.choice(PAIR_LETTERS) for _ in range(rng.randint(1, 3)))


def _argv(rng, cmd, text):
    if cmd == "pair":
        return ["pair", _pair_word(rng), text]
    if cmd == "inner":
        other = expr_text(_random_capped(rng, DEGREE_CAP["inner"]))
        return ["inner", "--form", rng.choice("RL"), text, other]
    return [cmd, text]


def _power_argv(cmd, text):
    return ["pair", POWER_PAIR_WORD, text] if cmd == "pair" else [cmd, text]


def interactive_ops(seed):
    """One pass of CLI invocations.

    Each op is a dict with the argv and the tree of the queried
    expression.  The pass opens with a fixed list of power queries,
    (command, form, m) for each command but inner, in a fixed order, and
    goes on with the seeded stream of random queries.
    """
    rng = random.Random(seed)
    # The power queries come first, from empty memo tables, so what they
    # find there is the same at every seed and so is their cost.  Spread
    # through the stream, they found tables filled by the random queries
    # before them, and their total moved by 20% from one seed to the next.
    ops = [{"argv": _power_argv(cmd, expr_text(form(m))), "tree": form(m)}
           for cmd, caps in POWER_CAP.items()
           for form, cap in zip(POWER_FORMS, caps)
           for m in (cap - 1, cap)]
    for _ in range(INTERACTIVE_RANDOM_OPS):
        cmd = rng.choice(COMMANDS)
        node = _random_capped(rng, DEGREE_CAP.get(cmd, DEFAULT_DEGREE_CAP))
        ops.append({"argv": _argv(rng, cmd, expr_text(node)), "tree": node})
    return ops


# --------------------------------------------------------------------------
# haar_solve: the Haar functional by its two routes
# --------------------------------------------------------------------------

# Ops per pass by top zeta degree r.  One step in r costs about 2.5 times
# as much on the corep route, so the counts fall with r.  The counts put the
# median op among the r = 2 ops and the tail op (the 11th slowest) among
# the r = 4 ops, away from the edges of a stratum.
HAAR_TOP_DEGREES = {0: 8, 1: 8, 2: 16, 3: 6, 4: 12, 5: 1}
# From this top degree on an op has one term: at r = 5 a second term can
# turn a 2 s op into a 17 s one, through the size of the solve's rational
# coefficients, which would make a pass's time depend on luck.
HAAR_SINGLE_TERM_FROM = 5
# Ops per pass of the form x*star(y), x and y corep entries of one weight
# with 2l <= 3, so that the product has a weight-(0,0) part.
HAAR_COREP_OPS = 8
HAAR_COREP_MAX_TWO_L = 3


def _gauss_coeff(rng):
    """A small Gaussian rational times a power of t, as text.  Coefficient
    size is itself a cost dimension: numerators and denominators up to 9
    make single ops take a minute, so numerators stay within 2 and
    denominators within 3."""
    den = rng.randint(1, 3)
    while True:
        re, im = Fraction(rng.randint(-2, 2), den), Fraction(rng.randint(-2, 2), den)
        if re or im:
            break
    i_text = "i" if abs(im) == 1 else f"{_num_text(abs(im))}*i"
    if not im:
        text = _num_text(re)
    elif not re:
        text = "-" + i_text if im < 0 else i_text
    else:
        text = f"({_num_text(re)} {'-' if im < 0 else '+'} {i_text})"
    k = rng.randint(-2, 2)
    if k == 0:
        return text
    tpow = expr_text(("t", k))
    return {"1": tpow, "-1": f"-{tpow}"}.get(text, f"{text}*{tpow}")


def _zeta_term(rng, r, w):
    coeff = _gauss_coeff(rng)
    parts = ["zeta" if r == 1 else f"zeta^{r}"] if r else []
    parts += ["s"] if w else []
    if not parts:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + "*".join(parts)
    return "*".join([coeff] + parts)


def _corep_pair(rng):
    """Indices (2l, 2i, 2j) of two corep entries with the same (i, j)."""
    two_l = rng.randint(0, HAAR_COREP_MAX_TWO_L)
    idx = range(-two_l, two_l + 1, 2)
    two_i, two_j = rng.choice(idx), rng.choice(idx)
    two_ls = range(max(abs(two_i), abs(two_j)), HAAR_COREP_MAX_TWO_L + 1, 2)
    return (two_l, two_i, two_j), (rng.choice(two_ls), two_i, two_j)


def haar_solve_ops(seed):
    """One pass of weight-(0,0) elements.

    An op is ("zeta", text) for a sum of 1 to 3 terms c*zeta^r*s^w, or
    ("corep", x, y) for x*star(y) with x and y corep entries given by
    their indices (2l, 2i, 2j).  Within each top degree the number of
    terms cycles through 1, 2, 3 and every other op carries s on the top
    term, so every pass needs the zeta^r*s solve of each degree.
    """
    rng = random.Random(seed)
    ops = []
    for top, count in HAAR_TOP_DEGREES.items():
        for k in range(count):
            terms = [_zeta_term(rng, top, k % 2)]
            extra = k % 3 if top < HAAR_SINGLE_TERM_FROM else 0
            terms += [_zeta_term(rng, rng.randint(0, top), rng.randint(0, 1))
                      for _ in range(extra)]
            text = terms[0]
            for term in terms[1:]:
                text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
            ops.append(("zeta", text))
    for _ in range(HAAR_COREP_OPS):
        ops.append(("corep",) + _corep_pair(rng))
    rng.shuffle(ops)
    return ops
