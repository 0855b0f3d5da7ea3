import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from critcurves import (
    ParameterError,
    continued_fraction,
    farey_bracket,
    farey_neighbours,
    farey_sequence,
    format_rational,
    parse_rational,
    rational,
)
from critcurves.verify import standard_continued_fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_rational_constructors():
    assert rational(3, 4) == Fraction(3, 4)
    assert rational(5) == 5
    with pytest.raises(ParameterError):
        rational(1, 0)


@pytest.mark.parametrize(
    "text,value",
    [("3/4", Fraction(3, 4)), ("0", Fraction(0)), ("2", Fraction(2)), ("-1/2", Fraction(-1, 2))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "0.5", "1e3", "3 / 4", "", "a/b", "1/0", "1_0/30", "３/４", "3/-4", "1/2/3",
        # more digits than Python converts from a string to an int
        pytest.param("1/" + "9" * 5000, id="5000-digit-denominator"),
    ],
)
def test_parse_rational_rejects_inexact(text):
    with pytest.raises(ParameterError):
        parse_rational(text)


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(1)) == "1/1"


@given(unit_fractions)
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# ---------------------------------------------------------------------------
# continued fractions


@pytest.mark.parametrize(
    "x,coeffs",
    [
        (Fraction(0), (0,)),
        (Fraction(1), (0, 1)),
        (Fraction(3, 5), (0, 1, 1, 1, 1)),
        (Fraction(3, 7), (0, 2, 2, 1)),
        (Fraction(1, 2), (0, 1, 1)),
        (Fraction(2, 5), (0, 2, 1, 1)),
    ],
)
def test_continued_fraction_unit_last_coefficient(x, coeffs):
    assert continued_fraction(x).coefficients == coeffs


@pytest.mark.parametrize(
    "x,coeffs",
    [
        (Fraction(3, 5), (0, 1, 1, 2)),
        (Fraction(1, 2), (0, 2)),
        (Fraction(3, 7), (0, 2, 3)),
        (Fraction(2, 5), (0, 2, 2)),
    ],
)
def test_standard_continued_fraction(x, coeffs):
    assert standard_continued_fraction(x).coefficients == coeffs


def test_convergent_seeds():
    cf = continued_fraction(Fraction(3, 5))
    assert (cf.p(-1), cf.q(-1)) == (1, 0)
    assert (cf.p(-2), cf.q(-2)) == (0, 1)
    assert (cf.p(cf.n), cf.q(cf.n)) == (3, 5)
    # [0; 1, 1, 1, 1] walks the Fibonacci convergents
    assert cf.convergents == ((0, 1), (1, 1), (1, 2), (2, 3), (3, 5))


@given(unit_fractions)
def test_continued_fraction_conventions_agree_on_value(x):
    canonical = continued_fraction(x)
    standard = standard_continued_fraction(x)
    assert canonical.value == x
    assert standard.value == x
    if x not in (0,):
        assert canonical.coefficients[-1] == 1
    if x.denominator >= 2:
        assert standard.coefficients[-1] >= 2
        # the two differ exactly by splitting the last coefficient
        assert canonical.n == standard.n + 1


@given(unit_fractions)
def test_successive_convergents_are_unimodular(x):
    cf = continued_fraction(x)
    for k in range(cf.n + 1):
        det = cf.p(k) * cf.q(k - 1) - cf.p(k - 1) * cf.q(k)
        assert det == (-1) ** (k - 1)


# ---------------------------------------------------------------------------
# Farey machinery


def test_farey_sequence_endpoints_and_windows():
    assert farey_sequence(1, Fraction(0), Fraction(1)) == [0, 1]
    assert farey_sequence(5, Fraction(3, 5), Fraction(3, 5)) == [Fraction(3, 5)]
    assert farey_sequence(5, Fraction(0), Fraction(1)) == [
        Fraction(0),
        Fraction(1, 5),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(1),
    ]


def test_farey_sequence_rejects_bad_windows():
    with pytest.raises(ParameterError):
        farey_sequence(0, Fraction(0), Fraction(1))
    with pytest.raises(ParameterError):
        farey_sequence(3, Fraction(1, 2), Fraction(1, 3))


window_ends = st.fractions(min_value=-1, max_value=2, max_denominator=60)


@given(st.integers(min_value=1, max_value=30), window_ends, window_ends)
@example(5, Fraction(5, 8), Fraction(9, 10))  # lo outside F_5
@example(5, Fraction(-1, 2), Fraction(1, 3))  # lo < 0
@example(5, Fraction(2, 3), Fraction(3, 2))  # hi > 1
@example(5, Fraction(5, 4), Fraction(3, 2))  # lo > 1: empty
def test_farey_sequence_windows_match_the_full_sequence(n, a, b):
    lo, hi = min(a, b), max(a, b)
    full = farey_sequence(n, Fraction(0), Fraction(1))
    assert farey_sequence(n, lo, hi) == [x for x in full if lo <= x <= hi]


def test_farey_neighbours_examples():
    assert farey_neighbours(Fraction(3, 4), 7) == (Fraction(5, 7), Fraction(4, 5))
    assert farey_neighbours(Fraction(0), 5) == (None, Fraction(1, 5))
    assert farey_neighbours(Fraction(1), 5) == (Fraction(4, 5), None)
    with pytest.raises(ParameterError):
        farey_neighbours(Fraction(3, 4), 3)


@given(st.integers(min_value=1, max_value=30))
def test_farey_neighbours_match_the_sequence(n):
    seq = farey_sequence(n, Fraction(0), Fraction(1))
    for k, x in enumerate(seq):
        left, right = farey_neighbours(x, n)
        assert left == (seq[k - 1] if k > 0 else None)
        assert right == (seq[k + 1] if k + 1 < len(seq) else None)


def test_farey_bracket_examples():
    assert farey_bracket(Fraction(5, 8), 5) == (Fraction(3, 5), Fraction(2, 3))
    assert farey_bracket(Fraction(7, 10), 6) == (Fraction(2, 3), Fraction(3, 4))
    with pytest.raises(ParameterError):
        farey_bracket(Fraction(1, 2), 4)  # already a member


@given(unit_fractions, st.integers(min_value=1, max_value=40))
def test_farey_bracket_is_tight(x, n):
    if x.denominator <= n or x in (0, 1):
        return
    a, b = farey_bracket(x, n)
    assert a < x < b
    assert a.denominator <= n and b.denominator <= n
    assert b.numerator * a.denominator - a.numerator * b.denominator == 1
    # adjacency in F_n: the mediant is the first fraction to split the gap
    assert a.denominator + b.denominator > n


@given(st.integers(min_value=1, max_value=25))
def test_farey_sequence_cardinality(n):
    phi_sum = sum(
        sum(1 for p in range(1, q) if math.gcd(p, q) == 1) for q in range(2, n + 1)
    )
    assert len(farey_sequence(n, Fraction(0), Fraction(1))) == phi_sum + 2
