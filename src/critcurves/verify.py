"""Verification sweeps: every structural claim the package relies on,
re-checked against brute force at a configurable scale.

Each check is a plain function taking the sweep bound and returning a
human-readable detail string; any exception marks the check failed.
The functions are module-level so a process pool can ship them to
workers for the larger sweeps.  The acceptance criteria in
tests/test_acceptance.py run these checks, or the private sweeps behind
them, at larger bounds; so each sweep is written once.

The checks, with their cases at bound max_q (ζ = (p/q, k/q), rows and
corners included unless the line says otherwise), caps and floors:
- farey-adjacency: consecutive members of F_1..F_max_q.
- cf-conventions: every p/q in (0, 1) with q ≤ max_q, both conventions.
- farey-neighbours: every member of F_1..F_max_q.
- coding-periodicity: every ζ with 0 < p/q < 1 and q ≤ max_q.
- brute-word-structure: every ζ with q ≤ max_q, both signs.
- decomposition-oracle: every chain with |i| ≤ max_q; cap 12.
- residue-cover: every window (n, m) with n ≤ max_q; floor 30.
- farey-point-tests: Farey points and midpoints of chains |i| ≤ max_q; cap 8.
- dominant-minimality: every ζ with q ≤ max_q.
- pencil-endpoints: every ζ with q ≤ max_q, 1 ≤ ℓ ≤ 4.
- pencil-words: every ζ with q ≤ max_q, 0 ≤ ℓ ≤ 2; cap 10.
- triple-points: every interior ζ with q ≤ max_q.
- net-cardinality: every net of order ≤ max_q; floor 40.
- render-determinism: fixed inputs; the bound is ignored.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import render as render_mod
from .chains import chain_new, curve_count, decompose
from .errors import DomainError, ParameterError
from .exact import (
    ContinuedFraction,
    _convergents,
    _euclid,
    continued_fraction,
    farey_neighbours,
    farey_sequence,
    format_rational,
)
from .net import net
from .oracles import concurrency_oracle, farey_point_tests, residue_cover, scan_witness
from .orbit import (
    brute_force_critical_word,
    code_orbit,
    critical_point,
    is_critical,
    switch_first,
)
from .points import (
    QUADRANTS,
    available_quadrants,
    dominant_params,
    dominant_words,
    neighbours,
    pencil_descriptor,
    pencil_word,
    point_context,
)
from .triples import psi, triple_points


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _coprime_pairs(max_q: int):
    """(p, q) with 0 < p < q ≤ max_q and gcd(p, q) = 1."""
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def _theta_values(max_q: int):
    """Reduced θ values as (p, q): 0 and 1, then every p/q in (0, 1)."""
    yield 0, 1
    yield 1, 1
    yield from _coprime_pairs(max_q)


def _valid_rhos(q: int):
    """Every ρ = r/s with s | q, 0 ≤ ρ ≤ 1: each is some k/q."""
    return [Fraction(k, q) for k in range(q + 1)]


def _points(max_q: int):
    """Every critical point ζ = (p/q, ρ) with q ≤ max_q, rows and corners
    included, column by column in `_theta_values` order."""
    for p, q in _theta_values(max_q):
        theta = Fraction(p, q)
        for rho in _valid_rhos(q):
            yield critical_point(theta, rho)


def standard_continued_fraction(x: Fraction) -> ContinuedFraction:
    """Euclidean expansion of x in [0, 1] (last coefficient ≥ 2 when
    possible), the convention `continued_fraction` is checked against."""
    if not 0 <= x <= 1:
        raise ParameterError(f"expected a rational in [0, 1], got {x}")
    coeffs = tuple(_euclid(x))
    return ContinuedFraction(coeffs, _convergents(coeffs))


def all_chain_params(zeta, t: int) -> tuple[int, int]:
    """The t-th solution (i_t, j_t) of i·θ − j = ρ at an interior point,
    from the point context alone."""
    ctx = point_context(zeta)
    ru = ctx.r * ctx.u
    return ru * ctx.q_prime + t * ctx.q, ru * ctx.p_prime + t * ctx.p


def _word_start(sign: int, rho: Fraction) -> Fraction:
    return Fraction(0) if sign > 0 else rho


def _mediant(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


def _chains(max_order: int):
    """Every chain with |i| ≤ max_order: the two horizontal ones, then
    L(n, ·) and L(−n, ·) for n = 1..max_order."""
    yield chain_new(0, -1)
    yield chain_new(0, 0)
    for n in range(1, max_order + 1):
        yield from (chain_new(n, j) for j in range(n))
        yield from (chain_new(-n, j) for j in range(-n, 0))


def _oracle_witness(theta: Fraction, rho: Fraction, sign: int):
    """Minimal same-sign witness (i, j) from the orbit scan, with the
    trivial boundary slots: (0, 0) at ρ = 0 for +, (0, −1) at ρ = 1 for −."""
    if rho == 0 and sign > 0:
        return 0, 0
    if rho == 1 and sign < 0:
        return 0, -1
    return scan_witness(theta, rho, sign)


# ---------------------------------------------------------------------------
# exact


def check_farey_adjacency(max_q: int) -> str:
    phi = _totients(max_q)
    pairs = 0
    for n in range(1, max_q + 1):
        seq = farey_sequence(n, Fraction(0), Fraction(1))
        assert len(seq) == 2 + sum(phi[2 : n + 1]), f"|F_{n}| wrong"
        for a, b in zip(seq, seq[1:]):
            assert b.numerator * a.denominator - a.numerator * b.denominator == 1
            pairs += 1
    return f"{pairs} adjacent pairs across F_1..F_{max_q}"


def check_cf_conventions(max_q: int) -> str:
    count = 0
    for p, q in _coprime_pairs(max_q):
        x = Fraction(p, q)
        for cf in (continued_fraction(x), standard_continued_fraction(x)):
            assert cf.value == x
            assert cf.coefficients[0] == 0
            for (pa, qa), (pb, qb) in zip(cf.convergents, cf.convergents[1:]):
                assert abs(pb * qa - pa * qb) == 1
        assert continued_fraction(x).coefficients[-1] == 1
        assert standard_continued_fraction(x).coefficients[-1] >= 2
        count += 1
    return f"{count} fractions, both conventions"


def check_farey_neighbours(max_q: int) -> str:
    checked = 0
    for n in range(1, max_q + 1):
        seq = farey_sequence(n, Fraction(0), Fraction(1))
        for k, x in enumerate(seq):
            left, right = farey_neighbours(x, n)
            assert left == (seq[k - 1] if k > 0 else None)
            assert right == (seq[k + 1] if k + 1 < len(seq) else None)
            checked += 1
    return f"{checked} members matched against full sequences, n ≤ {max_q}"


# ---------------------------------------------------------------------------
# orbit


def check_coding_periodicity(max_q: int) -> str:
    count = 0
    for p, q in _coprime_pairs(max_q):
        theta = Fraction(p, q)
        for rho in _valid_rhos(q):
            w = code_orbit(theta, rho, Fraction(0), q)
            assert code_orbit(theta, rho, Fraction(0), 2 * q) == w + w
            count += 1
    return f"{count} codings doubled"


def check_brute_word_structure(max_q: int) -> str:
    values = [Fraction(p, q) for p, q in _theta_values(max_q)]
    # the closed-form criticality test against the orbit scan, at every
    # (θ, ρ) with denominators <= max_q, critical or not
    for theta in values:
        for rho in values:
            ok, witness = is_critical(theta, rho)
            scanned = scan_witness(theta, rho, 1)
            if 0 < rho < 1:
                assert ok == (scanned is not None), f"({theta}, {rho})"
                assert witness == scanned, f"({theta}, {rho}): {witness} vs scan {scanned}"
            else:
                assert ok and scanned is not None
    count = 0
    for zeta in _points(max_q):
        theta, rho = zeta.theta, zeta.rho
        for sign in (1, -1):
            word, i, j = brute_force_critical_word(zeta, sign)
            assert i * theta - j == rho
            assert len(word) == abs(i)
            if word:
                assert word == code_orbit(theta, rho, _word_start(sign, rho), abs(i))
            # minimality: the orbit scan finds nothing shorter of the same sign
            assert (i, j) == _oracle_witness(theta, rho, sign), f"{zeta} sign {sign:+d}"
            count += 1
    return f"{count} (point, sign) pairs, minimality confirmed"


# ---------------------------------------------------------------------------
# chains


def _assert_segment_rows(dec) -> None:
    """The CSV rows, which come from integer pairs, against the Fraction
    route through the decomposition's curves."""
    chain = dec.chain
    assert render_mod.segment_rows(chain) == [
        (
            str(chain.i),
            str(chain.j),
            format_rational(curve.theta_lo),
            format_rational(curve.theta_hi),
            format_rational(chain.rho_at(curve.theta_lo)),
            format_rational(chain.rho_at(curve.theta_hi)),
            curve.word,
        )
        for curve in dec.curves
    ]


def check_decomposition_oracle(max_q: int) -> str:
    """Every word of every chain with |i| ≤ min(max_q, 12) against direct
    coding: curve words at the midpoint and the mediant of their ends."""
    flip_pairs = {1: ("b", "a"), -1: ("a", "b")}
    bound = min(max_q, 12)
    chains = curves = 0
    totals = Counter()
    for chain in _chains(bound):
        dec = decompose(chain)
        _assert_segment_rows(dec)
        chains += 1
        if chain.i == 0:
            assert dec.farey_points == ()
            assert len(dec.curves) == 1 and dec.curves[0].word == ""
            continue
        if chain.i < 0:
            # the sweep codes a negative chain through this partner
            partner = chain_new(-chain.i, -chain.j - 1)
            assert (partner.theta_minus, partner.theta_plus) == (
                chain.theta_minus,
                chain.theta_plus,
            ), f"{chain}: mirror partner spans a different θ-range"
        n = chain.order

        def coding(theta, length=n):
            rho = chain.rho_at(theta)
            return code_orbit(theta, rho, _word_start(chain.sign, rho), length)

        assert len(dec.farey_points) == len(dec.curves) + 1
        words = [dec.farey_points[0].boundary_word]
        for curve, fp in zip(dec.curves, dec.farey_points[1:]):
            lo, hi = curve.theta_lo, curve.theta_hi
            assert curve.word == coding((lo + hi) / 2) == coding(_mediant(lo, hi)), (
                f"{chain}: curve ({lo}, {hi})"
            )
            words += [curve.word, fp.boundary_word]
            curves += 1
        for fp in dec.farey_points:
            assert fp.boundary_word == coding(fp.theta)
            rho = chain.rho_at(fp.theta)
            expected = (
                ""
                if rho in (0, 1)
                else coding(fp.theta, abs(scan_witness(fp.theta, rho, chain.sign)[0]))
            )
            assert fp.critical_word == expected
        # endpoint words and the single-flip law
        start_letter, end_letter = flip_pairs[chain.sign]
        assert words[0] == start_letter * n
        assert words[-1] == end_letter * n
        for pos in range(n):
            flips = sum(1 for wa, wb in zip(words, words[1:]) if wa[pos] != wb[pos])
            assert flips == 1, f"index {pos} flips {flips} times"
        assert curve_count(chain) == len(dec.curves)
        totals[n, chain.sign] += len(dec.curves)
    # the windows [j/n, (j+1)/n] tile [0, 1], so for either sign the
    # chains of order n carry |F_n| − 1 = φ(1) + … + φ(n) curves in all
    phi = _totients(bound)
    for (n, sign), total in totals.items():
        assert total == sum(phi[1 : n + 1]), f"L({sign * n}, ·): {total} curves"
    return f"{chains} chains, {curves} curve words matched against direct coding"


def check_residue_cover(max_q: int) -> str:
    bound = max(max_q, 30)
    cells = 0
    for n in range(1, bound + 1):
        for m in range(0, n):
            cover = residue_cover(n, m)
            assert set(cover) == set(range(n))
            cells += 1
    return f"n ≤ {bound}, {cells} windows covered"


def _farey_point_sweep(max_order: int, window: int) -> tuple[int, int]:
    """`farey_point_tests` on every chain with |i| ≤ max_order: at its
    Farey points (all three true), at the midpoints between them (all
    false) and, for window ≥ 1, at every member of F_window in its
    θ-range (true iff q ≤ |i|).  Returns the (true, false) case counts."""
    counts = [0, 0]
    for chain in _chains(max_order):
        points = [fp.theta for fp in decompose(chain).farey_points]
        cases = [(theta, True) for theta in points]
        cases += [((a + b) / 2, False) for a, b in zip(points, points[1:])]
        if window:
            cases += [
                (theta, chain.i != 0 and theta.denominator <= chain.order)
                for theta in farey_sequence(window, chain.theta_minus, chain.theta_plus)
            ]
        for theta, expected in cases:
            t = farey_point_tests(chain, critical_point(theta, chain.rho_at(theta)))
            assert (
                t.is_farey
                == t.short_word
                == t.transversal_witness
                == (t.witness is not None)
                == expected
            ), f"{chain} at θ = {theta}: {t}"
            counts[not expected] += 1
    return counts[0], counts[1]


def check_farey_point_tests(max_q: int) -> str:
    positives, negatives = _farey_point_sweep(min(max_q, 8), 0)
    return f"{positives} Farey points all-true, {negatives} interior points all-false"


# ---------------------------------------------------------------------------
# points


def check_dominant_minimality(max_q: int) -> str:
    count = 0
    for zeta in _points(max_q):
        plus, minus = dominant_params(zeta)
        for sign, slot in ((1, plus), (-1, minus)):
            if slot is not None:
                brute = _oracle_witness(zeta.theta, zeta.rho, sign)
                assert slot == brute, f"{zeta}: {slot} vs brute {brute}"
                count += 1
        if 0 < zeta.rho < 1:
            ctx = point_context(zeta)
            assert plus == all_chain_params(zeta, ctx.t_plus)
            assert minus == all_chain_params(zeta, ctx.t_minus)
    return f"{count} dominant slots equal the brute-force minima"


# the pencils at the corners (θ, ρ) ∈ {0, 1}²
_CORNER_PENCILS = {(0, 0): ("I",), (1, 0): ("II",), (0, 1): ("IV",), (1, 1): ("III",)}


def _pencil_sweep(max_q: int, max_ell: int) -> int:
    """Every pencil endpoint with 1 ≤ ℓ ≤ max_ell at every ζ with
    q ≤ max_q, rows and corners included; returns how many.

    At each ζ: the available pencils and a `DomainError` for each missing
    one.  At each endpoint: its line, the Farey neighbour on its side,
    the neighbour's matched dominant line or the row escape, the gap to
    the neighbour (monotone, ≤ 1/(q(ℓ−1))), the bold slope inside, the
    landing row on the special rows ρ = 1/q, (q−1)/q and at the corners.
    """
    count = 0
    for zeta in _points(max_q):
        theta, rho, q = zeta.theta, zeta.rho, zeta.theta.denominator
        available = available_quadrants(zeta)
        if q == 1:
            expected = _CORNER_PENCILS[theta, rho]
        else:
            expected = {0: ("I", "II"), 1: ("III", "IV")}.get(rho, QUADRANTS)
        assert available == expected, f"{zeta}: pencils {available}"
        for sigma in set(QUADRANTS) - set(available):
            try:
                pencil_descriptor(zeta, sigma, 1)
            except DomainError:
                continue
            raise AssertionError(f"{zeta}: missing pencil {sigma} has parameters")
        up, down = neighbours(zeta)
        slots = [dominant_params(t) if t is not None else None for t in (up, down)]
        bold = None
        if 0 < rho < 1:
            ctx = point_context(zeta)
            bold = {
                "I": ctx.q * (ctx.tau_plus - math.floor(ctx.tau_plus)),
                "II": -ctx.q * (-ctx.tau_plus - math.floor(-ctx.tau_plus)),
                "III": ctx.q * (ctx.tau_minus - math.floor(ctx.tau_minus)),
                "IV": -ctx.q * (-ctx.tau_minus - math.floor(-ctx.tau_minus)),
            }
        low_row = q > 1 and rho == Fraction(1, q)
        high_row = q > 1 and rho == Fraction(q - 1, q)
        for sigma in available:
            upper = sigma in ("I", "II")
            target = up if upper else down
            t_plus, t_minus = slots[not upper]
            matched, other = (
                (t_plus, t_minus) if sigma in ("I", "III") else (t_minus, t_plus)
            )
            prev = prev_gap = None
            for ell in range(1, max_ell + 1):
                desc = pencil_descriptor(zeta, sigma, ell)
                (i_l, j_l), end = desc.chain_params, desc.endpoint
                assert i_l * end.theta - j_l == end.rho
                left, right = farey_neighbours(theta, abs(i_l))
                assert end.theta == (right if sigma in ("I", "IV") else left)
                on_matched = (
                    matched is not None
                    and matched[0] * end.theta - matched[1] == end.rho
                )
                if not on_matched:
                    # endpoints pushed onto a boundary row sit on the
                    # row itself, the neighbour's other dominant line
                    assert end.rho in (0, 1), (
                        f"{zeta} {sigma} ℓ={ell}: endpoint off the "
                        "neighbour's dominant lines"
                    )
                    assert other is not None
                    assert other[0] * end.theta - other[1] == end.rho, (
                        f"{zeta} {sigma} ℓ={ell}: endpoint off the "
                        "neighbour's dominant lines"
                    )
                gap = max(abs(end.theta - target.theta), abs(end.rho - target.rho))
                if prev is not None:
                    # monotone, and gap ≤ 1/(q(ℓ−1)) in integers
                    assert gap <= prev_gap
                    assert gap.numerator * q * (ell - 1) <= gap.denominator
                    if bold is not None:
                        # consecutive endpoints line up along the bold slope
                        d_theta = end.theta - prev.theta
                        assert d_theta != 0
                        assert (end.rho - prev.rho) / d_theta == bold[sigma]
                if q == 1:
                    # a corner's one pencil ends on the opposite row
                    corner = Fraction(1, ell) if theta == 0 else Fraction(ell, ell + 1)
                    assert (end.theta, end.rho) == (corner, 1 - rho)
                elif low_row and not upper:
                    assert (end.theta, end.rho) == (Fraction(j_l, i_l), 0)
                elif high_row and upper:
                    assert (end.theta, end.rho) == (Fraction(j_l + 1, i_l), 1)
                prev, prev_gap = end, gap
                count += 1
    return count


def check_pencil_endpoints(max_q: int) -> str:
    count = _pencil_sweep(max_q, 4)
    return f"{count} endpoints on the matching neighbour dominant lines"


def _pencil_word_sweep(max_q: int, max_ell: int) -> int:
    """Every pencil word with 0 ≤ ℓ ≤ max_ell at every ζ with q ≤ max_q,
    rows and corners included, against the switch-first formula and the
    direct coding beside ζ; returns how many."""
    count = 0
    for zeta in _points(max_q):
        theta, rho, q = zeta.theta, zeta.rho, zeta.theta.denominator
        u_plus, u_minus = dominant_words(zeta)
        assert (u_plus, u_minus) == tuple(
            brute_force_critical_word(zeta, sign)[0] for sign in (1, -1)
        ), f"{zeta} dominant words"
        assert len(u_plus) + len(u_minus) == q
        if 0 < rho < 1:
            assert u_plus + u_minus == code_orbit(theta, rho, Fraction(0), q)
            assert u_minus + u_plus == code_orbit(theta, rho, rho, q)
        v_plus, v_minus = (switch_first(u) if u else "" for u in (u_plus, u_minus))
        formula = {
            "I": (u_plus, v_minus + u_plus),
            "II": (u_minus, u_plus + v_minus),
            "III": (u_plus, u_minus + v_plus),
            "IV": (u_minus, v_plus + u_minus),
        }
        for sigma in available_quadrants(zeta):
            sign = 1 if sigma in ("I", "III") else -1
            head, period = formula[sigma]
            for ell in range(0, max_ell + 1):
                word = pencil_word(zeta, sigma, ell)
                desc = pencil_descriptor(zeta, sigma, ell)
                i_l, j_l = desc.chain_params
                assert len(word) == abs(i_l)
                assert word == head + period * ell, f"{zeta} {sigma} ℓ={ell}"
                if ell == 0:
                    sample, s_rho = theta, rho
                else:
                    sample = _mediant(theta, desc.endpoint.theta)
                    s_rho = i_l * sample - j_l
                assert word == code_orbit(
                    sample, s_rho, _word_start(sign, s_rho), abs(i_l)
                )
                count += 1
    return count


def check_pencil_words(max_q: int) -> str:
    count = _pencil_word_sweep(min(max_q, 10), 2)
    return f"{count} pencil words equal the direct coding beside the base point"


# ---------------------------------------------------------------------------
# triples


def _alternate_triple_locations(report) -> tuple[tuple[Fraction, Fraction], ...]:
    """Recompute the triple-point locations of a report in the other
    continued-fraction convention (last coefficient ≥ 2).

    Switching conventions exchanges the roles of the χ kinds: what χ⁽¹⁾
    computes from […, a−1, 1] is produced by the χ⁽²⁾ shape over the
    difference of the last two convergents of […, a], and vice versa.
    """
    zeta = report.zeta
    cf = standard_continued_fraction(zeta.theta)
    n = cf.n
    parity = -1 if n % 2 == 0 else 1
    r, s = zeta.rho.numerator, zeta.rho.denominator
    tau_bar = parity * cf.q(n - 1) * zeta.rho
    out = []
    for pt in report.points:
        level = psi(pt.psi_sign, tau_bar) * parity
        if pt.chi_kind == "chi1":
            dq = cf.q(n) - cf.q(n - 1)
            dp = cf.p(n) - cf.p(n - 1)
            theta = Fraction(dp, dq)
            rho_val = Fraction(r * cf.q(n), s * dq) - Fraction(level, dq)
        else:
            theta = Fraction(cf.p(n - 1), cf.q(n - 1))
            rho_val = Fraction(level, cf.q(n - 1))
        out.append((theta, rho_val))
    return tuple(out)


def check_triple_points(max_q: int) -> str:
    points = 0
    for zeta in _points(max_q):
        theta, rho, q = zeta.theta, zeta.rho, zeta.theta.denominator
        if rho == 0 or rho == 1:
            continue
        report = triple_points(zeta)
        assert report.oracle == concurrency_oracle(report)
        assert report.mu in (-1, 0, 1)
        if rho not in (Fraction(1, q), Fraction(q - 1, q)):
            assert report.mu == -report.determinant_table[0], f"μ ≠ −D(+,+,+) at {zeta}"
        assert report.determinant_table.count(0) == 2
        zeros = {e.signs: e.point for e in report.oracle if e.determinant == 0}
        cf = continued_fraction(theta)
        convergent_thetas = {
            Fraction(cf.p(cf.n - 1), cf.q(cf.n - 1)),
            Fraction(cf.p(cf.n - 2), cf.q(cf.n - 2)),
        }
        needed = 1 if report.kind == "I" else 2
        for pt in report.points:
            assert pt.location.theta in convergent_thetas
            assert zeros[pt.sign_triple] == (pt.location.theta, pt.location.rho)
            # the order-test count against all three characterizations
            lines = (
                pair[0] if mu == 1 else pair[1]
                for pair, mu in zip(report.column, pt.sign_triple)
            )
            count = sum(
                farey_point_tests(chain_new(i, j), pt.location).is_farey for i, j in lines
            )
            assert pt.farey_count == count >= needed, f"{zeta}: {pt}"
        alt = _alternate_triple_locations(report)
        assert alt == tuple(
            (pt.location.theta, pt.location.rho) for pt in report.points
        )
        points += 2
    return f"{points} triple points cross-checked, convention-independent"


# ---------------------------------------------------------------------------
# net / render


def check_net_cardinality(max_q: int) -> str:
    bound = max(max_q, 40)
    for n in range(0, bound + 1):
        chains = net(n).chains
        assert len(chains) == n * (n + 1) + 2
        keys = [(c.i, c.j) for c in chains]
        assert keys == sorted(keys)
    return f"orders 0..{bound}, cardinality n(n+1)+2 and (i, j) ordering"


def check_render_determinism(max_q: int) -> str:
    del max_q
    net6 = net(6)
    assert render_mod.render_net(net6) == render_mod.render_net(net6)
    chain = chain_new(7, 5)
    dec = decompose(chain)
    assert render_mod.render_decomposition(dec) == render_mod.render_decomposition(dec)
    assert render_mod.segments_csv([chain]) == render_mod.segments_csv([chain])
    zeta = critical_point(Fraction(3, 5), Fraction(2, 5))
    assert render_mod.render_pencils(zeta) == render_mod.render_pencils(zeta)
    assert render_mod.render_triples(zeta, normalized=True) == render_mod.render_triples(
        zeta, normalized=True
    )
    doc = render_mod.decomposition_document(dec)
    dumped = json.dumps(doc, indent=2, sort_keys=True)
    assert json.dumps(json.loads(dumped), indent=2, sort_keys=True) == dumped
    return "SVG, CSV and JSON byte-stable; JSON round-trips"


_SUITES: dict[str, tuple] = {
    "exact": (
        ("farey-adjacency", check_farey_adjacency),
        ("cf-conventions", check_cf_conventions),
        ("farey-neighbours", check_farey_neighbours),
    ),
    "orbit": (
        ("coding-periodicity", check_coding_periodicity),
        ("brute-word-structure", check_brute_word_structure),
    ),
    "chains": (
        ("decomposition-oracle", check_decomposition_oracle),
        ("residue-cover", check_residue_cover),
        ("farey-point-tests", check_farey_point_tests),
    ),
    "points": (
        ("dominant-minimality", check_dominant_minimality),
        ("pencil-endpoints", check_pencil_endpoints),
        ("pencil-words", check_pencil_words),
    ),
    "triples": (("triple-points", check_triple_points),),
    "net": (
        ("net-cardinality", check_net_cardinality),
        ("render-determinism", check_render_determinism),
    ),
}

SUITE_NAMES = (*_SUITES, "all")


def _checks_for(suite: str):
    if suite == "all":
        return tuple(
            (name, func, group)
            for group, checks in _SUITES.items()
            for name, func in checks
        )
    if suite not in _SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return tuple((name, func, suite) for name, func in _SUITES[suite])


def _run_check(item) -> CheckResult:
    name, func, group, max_q = item
    try:
        return CheckResult(group, name, True, func(max_q))
    except Exception as exc:  # a failing check is a result, not a crash
        return CheckResult(group, name, False, f"{type(exc).__name__}: {exc}")


def worker_count(jobs: int, checks: int) -> int:
    """Pool size for `jobs` requested workers over `checks` checks:
    never more than the CPUs or the checks; 1 means run serially."""
    if jobs < 1:
        raise ParameterError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, checks)


def run_suite(suite: str, max_q: int = 12, jobs: int = 1) -> list[CheckResult]:
    if max_q < 2:
        raise ParameterError(f"--max-q must be at least 2, got {max_q}")
    items = [(name, func, group, max_q) for name, func, group in _checks_for(suite)]
    workers = worker_count(jobs, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_check, items))
    return [_run_check(item) for item in items]
