"""End-to-end acceptance criteria.

Each test covers one numbered criterion, prints a single PASS line with
the measured runtime, and enforces an explicit time budget.  Everything
is exact rational arithmetic except the statistical criterion 10.
"""

import math
import time
import timeit
from fractions import Fraction as F

import pytest

from critcurves import (
    DomainError,
    available_quadrants,
    brute_force_critical_word,
    chain_new,
    cli,
    code_orbit,
    concurrency_oracle,
    continued_fraction,
    critical_point,
    curve_count,
    decompose,
    dominant_params,
    farey_neighbours,
    farey_sequence,
    farey_point_tests,
    approach_sequence,
    neighbours,
    pencil_endpoint,
    pencil_params,
    pencil_word,
    point_context,
    residue_cover,
    scan_witness,
    switch_first,
    triple_point_farey_status,
    triple_points,
)

QUADRANTS = ("I", "II", "III", "IV")


def _report(num: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {num:2d}: {detail} [{elapsed:.2f}s < {budget:g}s]")


def _thetas(max_q, ends=False):
    """All reduced fractions p/q with q <= max_q in (0, 1), plus the two
    integers when ends=True."""
    out = [F(0), F(1)] if ends else []
    out += [
        F(p, q)
        for q in range(2, max_q + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]
    return out


def _interior_points(max_q):
    for theta in _thetas(max_q):
        q = theta.denominator
        for k in range(1, q):
            yield critical_point(theta, F(k, q))


def _mediant(a, b):
    return F(a.numerator + b.numerator, a.denominator + b.denominator)


def _reference_word(zeta, sign):
    """`brute_force_critical_word`, asserted against the orbit scan: the
    same witness (i, j), and the word codes |i| steps from 0 (sign +1)
    or ρ (sign −1).  The boundary rows keep their trivial slots."""
    theta, rho = zeta.theta, zeta.rho
    result = brute_force_critical_word(zeta, sign)
    if (rho, sign) in ((0, 1), (1, -1)):
        assert result == ("", 0, -int(rho))
    else:
        i, j = scan_witness(theta, rho, sign)
        start = F(0) if sign > 0 else rho
        assert result == (code_orbit(theta, rho, start, abs(i)), i, j)
    return result


def _all_chains(max_order):
    chains = [chain_new(0, -1), chain_new(0, 0)]
    for i in range(1, max_order + 1):
        chains += [chain_new(i, j) for j in range(i)]
        chains += [chain_new(-i, j) for j in range(-i, 0)]
    return chains


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
    _report(1, t0, 5.0, f"L(7,5) golden rows exact, {per_call * 1e6:.0f} us/decompose")


def test_criterion_02_recursion_matches_orbit_coding():
    t0 = time.perf_counter()
    words = 0
    for chain in _all_chains(12):
        dec = decompose(chain)
        n = chain.order
        start = (lambda r: F(0)) if chain.sign >= 0 else (lambda r: r)
        for fp in dec.farey_points:
            rho = chain.rho_at(fp.theta)
            assert fp.boundary_word == code_orbit(fp.theta, rho, start(rho), n)
            words += 1
        for curve in dec.curves:
            mid = _mediant(curve.theta_lo, curve.theta_hi)
            rho = chain.rho_at(mid)
            assert curve.word == code_orbit(mid, rho, start(rho), n)
            words += 1
    _report(2, t0, 10.0, f"{words} decomposition words vs direct coding, |i| <= 12")


def test_criterion_03_residue_cover():
    t0 = time.perf_counter()
    covers = 0
    for n in range(1, 101):
        for m in range(n):
            # double or missing coverage raises inside
            assert set(residue_cover(n, m)) == set(range(n))
            covers += 1
    _report(3, t0, 10.0, f"{covers} complete residue systems, n <= 100")


def test_criterion_04_farey_point_tests_agree():
    t0 = time.perf_counter()
    checked = 0
    for chain in _all_chains(10):
        for theta in farey_sequence(20, chain.theta_minus, chain.theta_plus):
            zeta = critical_point(theta, chain.rho_at(theta))
            tests = farey_point_tests(chain, zeta)  # raises on disagreement
            expected = chain.i != 0 and theta.denominator <= chain.order
            assert tests.is_farey == tests.short_word == expected
            assert tests.transversal_witness == expected
            assert (tests.witness is not None) == expected
            checked += 1
    _report(4, t0, 10.0, f"three predicates agree at {checked} points, F_20 x |i| <= 10")


def test_criterion_05_pencil_structure():
    t0 = time.perf_counter()
    endpoints = 0
    for zeta in _interior_points(20):
        theta, rho = zeta.theta, zeta.rho
        q = theta.denominator

        w_plus, ip, jp = _reference_word(zeta, 1)
        w_minus, im, jm = _reference_word(zeta, -1)
        assert dominant_params(zeta) == ((ip, jp), (im, jm))

        up, down = neighbours(zeta)
        dom_up, dom_down = dominant_params(up), dominant_params(down)
        ctx = point_context(zeta)
        bold = {
            "I": q * (ctx.tau_plus - math.floor(ctx.tau_plus)),
            "II": -q * (-ctx.tau_plus - math.floor(-ctx.tau_plus)),
            "III": q * (ctx.tau_minus - math.floor(ctx.tau_minus)),
            "IV": -q * (-ctx.tau_minus - math.floor(-ctx.tau_minus)),
        }
        for sigma in QUADRANTS:
            target = up if sigma in ("I", "II") else down
            slots = dom_up if sigma in ("I", "II") else dom_down
            prev = None
            prev_gap = None
            for ell in range(1, 7):
                i_l, j_l = pencil_params(zeta, sigma, ell)
                end = pencil_endpoint(zeta, sigma, ell)
                endpoints += 1
                assert i_l * end.theta - j_l == end.rho

                left, right = farey_neighbours(theta, abs(i_l))
                assert end.theta == (right if sigma in ("I", "IV") else left)

                matched = slots[0] if sigma in ("I", "III") else slots[1]
                on_matched = (
                    matched is not None
                    and matched[0] * end.theta - matched[1] == end.rho
                )
                if not on_matched:
                    # boundary escape: the endpoint sits on the row
                    # through the neighbour, which is its other dominant
                    assert end.rho in (0, 1)
                    other = slots[1] if sigma in ("I", "III") else slots[0]
                    assert other is not None
                    assert other[0] * end.theta - other[1] == end.rho

                if prev is not None:
                    d_theta = end.theta - prev.theta
                    assert d_theta != 0
                    assert (end.rho - prev.rho) / d_theta == bold[sigma]

                gap = max(abs(end.theta - target.theta), abs(end.rho - target.rho))
                if prev_gap is not None:
                    assert gap <= prev_gap
                    assert gap <= F(1, q * (ell - 1))
                prev, prev_gap = end, gap
    _report(5, t0, 30.0,
            f"{endpoints} endpoints on neighbour dominants, q <= 20, l <= 6")


def test_criterion_06_boundary_clauses():
    t0 = time.perf_counter()
    corner_pencils = {
        (F(0), F(0)): "I",
        (F(1), F(0)): "II",
        (F(0), F(1)): "IV",
        (F(1), F(1)): "III",
    }

    # rows: exactly the upper/lower pencil pair, endpoints on the
    # neighbour's dominant lines (with the row escape)
    checked = 0
    for theta in _thetas(20):
        q = theta.denominator
        for rho, avail in ((F(0), ("I", "II")), (F(1), ("III", "IV"))):
            zeta = critical_point(theta, rho)
            assert available_quadrants(zeta) == avail
            for sigma in set(QUADRANTS) - set(avail):
                with pytest.raises(DomainError):
                    pencil_params(zeta, sigma, 1)
            neighbour = neighbours(zeta)[0 if rho == 0 else 1]
            slots = dominant_params(neighbour)
            for sigma in avail:
                for ell in range(1, 7):
                    i_l, j_l = pencil_params(zeta, sigma, ell)
                    end = pencil_endpoint(zeta, sigma, ell)
                    assert i_l * end.theta - j_l == end.rho
                    left, right = farey_neighbours(theta, abs(i_l))
                    assert end.theta == (right if sigma in ("I", "IV") else left)
                    matched = slots[0] if sigma in ("I", "III") else slots[1]
                    hit = (matched is not None
                           and matched[0] * end.theta - matched[1] == end.rho)
                    if not hit:
                        assert end.rho in (0, 1)
                        other = slots[1] if sigma in ("I", "III") else slots[0]
                        assert other[0] * end.theta - other[1] == end.rho
                    checked += 1

    # special rows: the affected pencils run into the horizontal segments
    for theta in _thetas(20):
        q = theta.denominator
        low, high = critical_point(theta, F(1, q)), critical_point(theta, F(q - 1, q))
        for ell in range(1, 7):
            for sigma in ("III", "IV"):
                i_l, j_l = pencil_params(low, sigma, ell)
                end = pencil_endpoint(low, sigma, ell)
                assert (end.theta, end.rho) == (F(j_l, i_l), F(0))
                checked += 1
            for sigma in ("I", "II"):
                i_l, j_l = pencil_params(high, sigma, ell)
                end = pencil_endpoint(high, sigma, ell)
                assert (end.theta, end.rho) == (F(j_l + 1, i_l), F(1))
                checked += 1

    # corners: exactly one pencil each, ending on the opposite row
    for (theta, rho), sigma in corner_pencils.items():
        zeta = critical_point(theta, rho)
        assert available_quadrants(zeta) == (sigma,)
        for missing in set(QUADRANTS) - {sigma}:
            with pytest.raises(DomainError):
                pencil_params(zeta, missing, 1)
        for ell in range(1, 7):
            end = pencil_endpoint(zeta, sigma, ell)
            assert end.rho == (F(1) if rho == 0 else F(0))
            assert end.theta == (F(1, ell) if theta == 0 else F(ell, ell + 1))
            checked += 1
    _report(6, t0, 10.0, f"{checked} boundary endpoints and the missing-pencil matrix")


def test_criterion_07_pencil_words():
    t0 = time.perf_counter()
    words = 0
    for theta in _thetas(12, ends=True):
        q = theta.denominator
        for k in range(q + 1):
            zeta = critical_point(theta, F(k, q))
            u_plus, _, _ = _reference_word(zeta, 1)
            u_minus, _, _ = _reference_word(zeta, -1)
            assert len(u_plus) + len(u_minus) == q
            v_plus = switch_first(u_plus) if u_plus else ""
            v_minus = switch_first(u_minus) if u_minus else ""
            for sigma in available_quadrants(zeta):
                for ell in range(4):
                    word = pencil_word(zeta, sigma, ell)
                    i_l, j_l = pencil_params(zeta, sigma, ell)
                    assert len(word) == abs(i_l)
                    if sigma == "I":
                        rebuilt = u_plus + (v_minus + u_plus) * ell
                    elif sigma == "II":
                        rebuilt = u_minus + (u_plus + v_minus) * ell
                    elif sigma == "III":
                        rebuilt = u_plus + (u_minus + v_plus) * ell
                    else:
                        rebuilt = u_minus + (v_plus + u_minus) * ell
                    assert word == rebuilt
                    sample = (zeta.theta if ell == 0 else
                              _mediant(zeta.theta,
                                       pencil_endpoint(zeta, sigma, ell).theta))
                    rho_s = i_l * sample - j_l
                    start = F(0) if sigma in ("I", "III") else rho_s
                    assert word == code_orbit(sample, rho_s, start, abs(i_l))
                    words += 1
    _report(7, t0, 10.0, f"{words} pencil words vs formula and coding, q <= 12")


def test_criterion_08_triple_points():
    t0 = time.perf_counter()
    points = 0
    for zeta in _interior_points(30):
        report = triple_points(zeta)
        assert report.oracle == concurrency_oracle(zeta)
        zeros = {e.signs: e.point for e in report.oracle if e.determinant == 0}
        assert len(zeros) == 2
        cf = continued_fraction(zeta.theta)
        allowed = {
            F(cf.p(cf.n - 1), cf.q(cf.n - 1)),
            F(cf.p(cf.n - 2), cf.q(cf.n - 2)),
        }
        for pt in report.points:
            assert zeros[pt.sign_triple] == (pt.location.theta, pt.location.rho)
            assert pt.location.theta in allowed
        points += 1

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
    _report(8, t0, 60.0, f"{points} interior points, 2 <= q <= 30, both figures exact")


def test_criterion_09_triple_farey_floor():
    t0 = time.perf_counter()
    checked = 0
    for zeta in _interior_points(15):
        report = triple_points(zeta)
        needed = 1 if report.kind == "I" else 2
        for status in triple_point_farey_status(zeta):
            assert status.farey_count >= needed
            checked += 1
    _report(9, t0, 10.0, f"Farey floor holds at {checked} triple points, q <= 15")


def test_criterion_10_mean_curve_count():
    t0 = time.perf_counter()
    n = 500
    total = sum(curve_count(chain_new(n, j)) for j in range(n))
    total += sum(curve_count(chain_new(-n, j)) for j in range(-n, 0))
    mean = total / (2 * n)
    expected = 3 * n / math.pi**2
    assert abs(mean - expected) <= 0.05 * expected, (mean, expected)
    _report(10, t0, 30.0,
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
    _report(11, t0, 5.0, f"{runs} target/slope runs dominant from k <= 3 onward")
