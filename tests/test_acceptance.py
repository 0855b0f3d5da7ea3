"""End-to-end acceptance criteria.

Each test covers one numbered criterion, prints a single PASS line with
the measured runtime, and enforces an explicit time budget.  Everything
is exact rational arithmetic except the statistical criterion 10.
Criteria 2–9 run the sweeps behind `critcurves verify`, at larger
bounds than `verify` uses by default; criteria 5 and 6 share one pencil
sweep, held to the smaller budget of the two.
"""

import math
import time
import timeit
from fractions import Fraction as F

import pytest

from critcurves import (
    approach_sequence,
    chain_new,
    cli,
    critical_point,
    curve_count,
    decompose,
    triple_points,
    verify,
)


def _report(num: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {num:2d}: {detail} [{elapsed:.2f}s < {budget:g}s]")


def _timed(func, *bounds):
    t0 = time.perf_counter()
    result = func(*bounds)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_golden_decomposition(capsys):
    t0 = time.perf_counter()
    dec = decompose(chain_new(7, 5))
    assert [fp.theta for fp in dec.farey_points] == [
        F(5, 7), F(3, 4), F(4, 5), F(5, 6), F(6, 7),
    ]
    assert [fp.boundary_word for fp in dec.farey_points] == [
        "bbbbbbb", "abbbabb", "abbaaab", "abaaaaa", "aaaaaaa",
    ]
    assert [c.word for c in dec.curves] == [
        "abbbbbb", "abbaabb", "abaaaab", "aaaaaaa",
    ]
    assert [fp.critical_word for fp in dec.farey_points] == [
        "", "abb", "ab", "a", "",
    ]

    assert cli.main(["decompose", "7", "5"]) == 0
    assert capsys.readouterr().out == (
        "L(7,5): rho = 7*theta - (5) for theta in [5/7, 6/7]\n"
        "farey theta=5/7 boundary=b^7 critical=ε\n"
        "curve (5/7, 3/4) word=ab^6\n"
        "farey theta=3/4 boundary=ab^3ab^2 critical=ab^2\n"
        "curve (3/4, 4/5) word=ab^2a^2b^2\n"
        "farey theta=4/5 boundary=ab^2a^3b critical=ab\n"
        "curve (4/5, 5/6) word=aba^4b\n"
        "farey theta=5/6 boundary=aba^5 critical=a\n"
        "curve (5/6, 6/7) word=a^7\n"
        "farey theta=6/7 boundary=a^7 critical=ε\n"
    )

    per_call = min(timeit.repeat(lambda: decompose(chain_new(7, 5)),
                                 number=5, repeat=3)) / 5
    assert per_call < 1e-3, f"decompose took {per_call * 1e3:.3f} ms"
    _report(1, time.perf_counter() - t0, 5.0,
            f"L(7,5) golden rows exact, {per_call * 1e6:.0f} us/decompose")


def test_criterion_02_recursion_matches_orbit_coding():
    detail, elapsed = _timed(verify.check_decomposition_oracle, 12)
    _report(2, elapsed, 10.0, f"{detail}, |i| <= 12")


def test_criterion_03_residue_cover():
    detail, elapsed = _timed(verify.check_residue_cover, 100)
    _report(3, elapsed, 10.0, f"complete residue systems, {detail}")


def test_criterion_04_farey_point_tests_agree():
    (farey, other), elapsed = _timed(verify._farey_point_sweep, 10, 20)
    _report(4, elapsed, 10.0, f"three predicates agree at {farey} Farey and "
            f"{other} other points, F_20 x |i| <= 10")


@pytest.fixture(scope="module")
def pencil_sweep():
    """The pencil sweep of criteria 5 and 6, run once: q <= 20, l <= 6."""
    return _timed(verify._pencil_sweep, 20, 6)


def test_criterion_05_pencil_structure(pencil_sweep):
    # the witness checks at q <= 20
    t0 = time.perf_counter()
    minimal = verify.check_dominant_minimality(20)
    words = verify.check_brute_word_structure(20)
    witness_s = time.perf_counter() - t0
    endpoints, sweep_s = pencil_sweep
    _report(5, witness_s + sweep_s, 10.0,
            f"{endpoints} endpoints on neighbour dominants, q <= 20, l <= 6; "
            f"{minimal}; {words}")


def test_criterion_06_boundary_clauses(pencil_sweep):
    endpoints, elapsed = pencil_sweep
    _report(6, elapsed, 10.0,
            f"missing-pencil matrix, rows, special rows and corners in the "
            f"sweep of {endpoints} endpoints")


def test_criterion_07_pencil_words():
    t0 = time.perf_counter()
    verify.check_brute_word_structure(12)  # the dominant words u+ and u-
    words = verify._pencil_word_sweep(12, 3)
    _report(7, time.perf_counter() - t0, 10.0,
            f"{words} pencil words vs formula and coding, q <= 12")


def test_criterion_08_triple_points():
    detail, elapsed = _timed(verify.check_triple_points, 30)
    fig = triple_points(critical_point(F(3, 5), F(2, 5)))
    assert fig.kind == "I"
    assert [(pt.location.theta, pt.location.rho) for pt in fig.points] == [
        (F(2, 3), F(1, 3)), (F(1, 2), F(1, 2)),
    ]
    fig = triple_points(critical_point(F(3, 7), F(2, 7)))
    assert fig.kind == "II"
    assert [(pt.location.theta, pt.location.rho) for pt in fig.points] == [
        (F(1, 2), F(1, 2)), (F(1, 2), F(0)),
    ]
    _report(8, elapsed, 60.0, f"{detail}, 2 <= q <= 30, both figures exact")


def test_criterion_09_triple_farey_floor():
    detail, elapsed = _timed(verify.check_triple_points, 15)
    _report(9, elapsed, 10.0, f"Farey floor holds: {detail}, q <= 15")


def test_criterion_10_mean_curve_count():
    t0 = time.perf_counter()
    n = 500
    plus = sum(curve_count(chain_new(n, j)) for j in range(n))
    minus = sum(curve_count(chain_new(-n, j)) for j in range(-n, 0))
    # exact: the windows [j/n, (j+1)/n] tile [0, 1], so either sign's
    # chains carry |F_n| − 1 = φ(1) + … + φ(n) curves
    phi_sum = sum(math.gcd(p, q) == 1 for q in range(1, n + 1) for p in range(1, q + 1))
    assert plus == minus == phi_sum, (plus, minus, phi_sum)
    mean = (plus + minus) / (2 * n)
    expected = 3 * n / math.pi**2
    assert abs(mean - expected) <= 0.05 * expected, (mean, expected)
    _report(10, time.perf_counter() - t0, 30.0,
            f"mean M = {mean:.2f} vs 3*500/pi^2 = {expected:.2f} (5% band)")


def test_criterion_11_approach_sequences():
    t0 = time.perf_counter()
    targets = [
        (0,) + (1,) * 15,
        (0,) + (2,) * 15,
        (0,) + (1, 2) * 7,
        (0,) + (1, 1, 2) * 5,
        (0, 3, 1, 2, 1, 1, 4, 1, 2, 1, 3, 1, 1, 2, 1, 1),
    ]
    runs = 0
    for coefficients in targets:
        for i in (1, 2, 3):
            steps = approach_sequence(coefficients, i, 12)
            onset = [s.k for s in steps if s.dominant]
            assert onset, f"never dominant for {coefficients} i={i}"
            first = onset[0]
            assert first <= 12
            assert all(s.dominant for s in steps if s.k >= first)
            runs += 1
    _report(11, time.perf_counter() - t0, 5.0,
            f"{runs} target/slope runs dominant from k <= 3 onward")
