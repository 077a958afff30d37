"""Golden str() and to_json() output for a fixed list of scalars.

The expected strings were recorded from the Fraction-based coefficient core
that preceded the integer layouts (first one GaussRat triple per
coefficient, now Gaussian-integer numerators over one denominator per
polynomial), so they pin the printer and the canonical form (coprime, monic
denominator) to the byte across those rewrites.
Some outputs show open printer defects, recorded as printed: c/(k*t^n)
prints as c/k*t^n, and a numerator that starts and ends with a parenthesis
is not wrapped before the "/" (gauss_poly).
"""

import json
from fractions import Fraction as F

import pytest

from superq.scalars import KAPPA, ONE, Q, SQRT_1_PLUS_T2, SQRT_1_PLUS_TM2, T, T_INV, Scalar


def g(re, im=0):
    return Scalar.from_gauss(F(re), F(im))


R1 = SQRT_1_PLUS_T2
I = g(0, 1)

CASES = {
    "5/(7t^2)": lambda: g(5) / (g(7) * T ** 2),
    "3/(4t^3)": lambda: g(3) / (g(4) * T ** 3),
    "-t^-5": lambda: -(T_INV ** 5),
    "gauss_poly": lambda: g("3/5", "2/5") * T + g("1/3", "-1/3"),
    "gauss_over_monomial": lambda: (g(1, 2) * T * T + g(0, "-1/2")) / (g(2, 3) * T ** 4),
    "i_over_t": lambda: I / T,
    "half_i": lambda: g(0, "-1/2") * T ** 3 + g("1/2"),
    "rational_function": lambda: (ONE + T * T) / (T - T_INV),
    "coprime_reduce": lambda: (ONE - T_INV * T_INV) / (ONE - T_INV ** 4),
    "gauss_den": lambda: (T + g(1, 1)) / (g(2, -1) * T * T + g(0, 3) * T + g(5)),
    "q_bracket_inv": lambda: (Q - Q.inv()).inv(),
    "powers": lambda: (ONE + g(2) * T) ** 5 / (ONE - g(3) * T_INV) ** 3,
    "r1": lambda: R1,
    "r1_tm2": lambda: SQRT_1_PLUS_TM2,
    "kappa": lambda: KAPPA,
    "kappa_r1": lambda: KAPPA * R1 * g("2/3", 1),
    "radical_sum": lambda: ONE + g("1/2") * T * R1 + I * KAPPA + T_INV * KAPPA * R1,
    "inv_1_plus_r1": lambda: (ONE + R1).inv(),
    "inv_kappa_sum": lambda: (g(2) * KAPPA + T * R1).inv(),
    "inv_three_radicals": lambda: (KAPPA + SQRT_1_PLUS_TM2 + I).inv(),
    "inv_gauss_radical": lambda: (g(1, 1) * T + g("1/3") * KAPPA * R1).inv(),
    "conj_mix": lambda: ((g(1, 2) * T + I * R1) / (T + g(0, 1))).conj(),
    "zero": lambda: T - T,
    "minus_one": lambda: -ONE,
}

GOLDEN = {
    '5/(7t^2)': (
        '5/7*t^2',
        '[{"radicals": [], "num": [[0, "5"]], "den": [[2, "7"]]}]'),
    '3/(4t^3)': (
        '3/4*t^3',
        '[{"radicals": [], "num": [[0, "3"]], "den": [[3, "4"]]}]'),
    '-t^-5': (
        '(-1)/t^5',
        '[{"radicals": [], "num": [[0, "-1"]], "den": [[5, "1"]]}]'),
    'gauss_poly': (
        '(9+6i)*t + (5-5i)/15',
        '[{"radicals": [], "num": [[0, "5-5i"], [1, "9+6i"]], "den": [[0, "15"]]}]'),
    'gauss_over_monomial': (
        '(16+2i)*t^2 + (-3-2i)/26*t^4',
        '[{"radicals": [], "num": [[0, "-3-2i"], [2, "16+2i"]], "den": [[4, "26"]]}]'),
    'i_over_t': (
        'i/t',
        '[{"radicals": [], "num": [[0, "i"]], "den": [[1, "1"]]}]'),
    'half_i': (
        '(-i*t^3 + 1)/2',
        '[{"radicals": [], "num": [[0, "1"], [3, "-i"]], "den": [[0, "2"]]}]'),
    'rational_function': (
        '(t^3 + t)/(t^2 - 1)',
        '[{"radicals": [], "num": [[1, "1"], [3, "1"]], "den": [[0, "-1"], [2, "1"]]}]'),
    'coprime_reduce': (
        't^2/(t^2 + 1)',
        '[{"radicals": [], "num": [[2, "1"]], "den": [[0, "1"], [2, "1"]]}]'),
    'gauss_den': (
        '(2+i)*t + (1+3i)/(5*t^2 + (-3+6i)*t + (10+5i))',
        '[{"radicals": [], "num": [[0, "1+3i"], [1, "2+i"]], "den": [[0, "10+5i"], [1, "-3+6i"], [2, "5"]]}]'),
    'q_bracket_inv': (
        '(-t^2)/(t^4 - 1)',
        '[{"radicals": [], "num": [[2, "-1"]], "den": [[0, "-1"], [4, "1"]]}]'),
    'powers': (
        '(32*t^8 + 80*t^7 + 80*t^6 + 40*t^5 + 10*t^4 + t^3)/(t^3 - 9*t^2 + 27*t - 27)',
        '[{"radicals": [], "num": [[3, "1"], [4, "10"], [5, "40"], [6, "80"], [7, "80"], [8, "32"]], "den": [[0, "-27"], [1, "27"], [2, "-9"], [3, "1"]]}]'),
    'r1': (
        'sqrt(1+t^2)',
        '[{"radicals": ["sqrt(1+t^2)"], "num": [[0, "1"]], "den": [[0, "1"]]}]'),
    'r1_tm2': (
        '1/t*sqrt(1+t^2)',
        '[{"radicals": ["sqrt(1+t^2)"], "num": [[0, "1"]], "den": [[1, "1"]]}]'),
    'kappa': (
        'kappa',
        '[{"radicals": ["kappa"], "num": [[0, "1"]], "den": [[0, "1"]]}]'),
    'kappa_r1': (
        '((2+3i)/3)*sqrt(1+t^2)*kappa',
        '[{"radicals": ["sqrt(1+t^2)", "kappa"], "num": [[0, "2+3i"]], "den": [[0, "3"]]}]'),
    'radical_sum': (
        '1 + t/2*sqrt(1+t^2) + i*kappa + 1/t*sqrt(1+t^2)*kappa',
        '[{"radicals": [], "num": [[0, "1"]], "den": [[0, "1"]]}, {"radicals": ["sqrt(1+t^2)"], "num": [[1, "1"]], "den": [[0, "2"]]}, {"radicals": ["kappa"], "num": [[0, "i"]], "den": [[0, "1"]]}, {"radicals": ["sqrt(1+t^2)", "kappa"], "num": [[0, "1"]], "den": [[1, "1"]]}]'),
    'inv_1_plus_r1': (
        '(-1)/t^2 + 1/t^2*sqrt(1+t^2)',
        '[{"radicals": [], "num": [[0, "-1"]], "den": [[2, "1"]]}, {"radicals": ["sqrt(1+t^2)"], "num": [[0, "1"]], "den": [[2, "1"]]}]'),
    'inv_kappa_sum': (
        '(t^3 - t)/(t^6 - 5*t^2 - 4)*sqrt(1+t^2) + (-2*t^2 + 2)/(t^6 - 5*t^2 - 4)*kappa',
        '[{"radicals": ["sqrt(1+t^2)"], "num": [[1, "-1"], [3, "1"]], "den": [[0, "-4"], [2, "-5"], [6, "1"]]}, {"radicals": ["kappa"], "num": [[0, "2"], [2, "-2"]], "den": [[0, "-4"], [2, "-5"], [6, "1"]]}]'),
    'inv_three_radicals': (
        '(-3i*t^8 + 3i*t^6 + i*t^4 - i*t^2)/(5*t^8 - 4*t^6 - 2*t^4 + 4*t^2 + 1) + (t^7 - 3*t^5 + t^3 + t)/(5*t^8 - 4*t^6 - 2*t^4 + 4*t^2 + 1)*sqrt(1+t^2) + (t^8 - t^6 + t^4 - t^2)/(5*t^8 - 4*t^6 - 2*t^4 + 4*t^2 + 1)*kappa + (2i*t^7 - 4i*t^5 + 2i*t^3)/(5*t^8 - 4*t^6 - 2*t^4 + 4*t^2 + 1)*sqrt(1+t^2)*kappa',
        '[{"radicals": [], "num": [[2, "-i"], [4, "i"], [6, "3i"], [8, "-3i"]], "den": [[0, "1"], [2, "4"], [4, "-2"], [6, "-4"], [8, "5"]]}, {"radicals": ["sqrt(1+t^2)"], "num": [[1, "1"], [3, "1"], [5, "-3"], [7, "1"]], "den": [[0, "1"], [2, "4"], [4, "-2"], [6, "-4"], [8, "5"]]}, {"radicals": ["kappa"], "num": [[2, "-1"], [4, "1"], [6, "-1"], [8, "1"]], "den": [[0, "1"], [2, "4"], [4, "-2"], [6, "-4"], [8, "5"]]}, {"radicals": ["sqrt(1+t^2)", "kappa"], "num": [[3, "2i"], [5, "-4i"], [7, "2i"]], "den": [[0, "1"], [2, "4"], [4, "-2"], [6, "-4"], [8, "5"]]}]'),
    'inv_gauss_radical': (
        '((153-171i)*t^3 + (-153+171i)*t)/(325*t^4 + (-322+54i)*t^2 + (1+18i)) + (3+54i)*t^2 + (-3-54i)/(325*t^4 + (-322+54i)*t^2 + (1+18i))*sqrt(1+t^2)*kappa',
        '[{"radicals": [], "num": [[1, "-153+171i"], [3, "153-171i"]], "den": [[0, "1+18i"], [2, "-322+54i"], [4, "325"]]}, {"radicals": ["sqrt(1+t^2)", "kappa"], "num": [[0, "-3-54i"], [2, "3+54i"]], "den": [[0, "1+18i"], [2, "-322+54i"], [4, "325"]]}]'),
    'conj_mix': (
        '((1-2i)*t)/(t - i) + (-i)/(t - i)*sqrt(1+t^2)',
        '[{"radicals": [], "num": [[1, "1-2i"]], "den": [[0, "-i"], [1, "1"]]}, {"radicals": ["sqrt(1+t^2)"], "num": [[0, "-i"]], "den": [[0, "-i"], [1, "1"]]}]'),
    'zero': (
        '0',
        '[]'),
    'minus_one': (
        '-1',
        '[{"radicals": [], "num": [[0, "-1"]], "den": [[0, "1"]]}]'),
}


def test_golden_cases_cover_the_list():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_golden_output(name):
    value = CASES[name]()
    text, js = GOLDEN[name]
    assert str(value) == text
    assert json.dumps(value.to_json()) == js
