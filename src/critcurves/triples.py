"""Triple points of the dominant lines at ζ and its two neighbours.

Six lines pass through the column of ζ = (p/q, r/s): the positive and
negative dominant lines of ζ↓, ζ and ζ↑.  Choosing one line per point
gives eight sign-triples (μ1, μ2, μ3); the triple is concurrent exactly
when the integer determinant

    D(μ1, μ2, μ3) = ψ_{μ1}(τ⁻) − 2 ψ_{μ2}(τ) + ψ_{μ3}(τ⁺)

vanishes, where ψ₊ = floor and ψ₋ = ceil.  Exactly two of the eight
vanish, and the two concurrency points have closed forms χ⁽¹⁾/χ⁽²⁾ over
the last two convergents of θ.  Everything here is checked on the spot
against brute-force line intersections, so a formula slip cannot
propagate silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .chains import chain_new, farey_point_tests
from .errors import ConsistencyError, DomainError
from .exact import Rational, standard_continued_fraction
from .orbit import CriticalPoint, critical_point
from .points import PointContext, dominant_params, neighbours, point_context

SIGN_TRIPLES = tuple(itertools.product((1, -1), repeat=3))


def psi(mu: int, x: Rational) -> int:
    """ψ₊₁ = floor, ψ₋₁ = ceil."""
    if mu == 1:
        return math.floor(x)
    if mu == -1:
        return math.ceil(x)
    raise DomainError(f"psi sign must be +1 or -1, got {mu!r}")


def _context_with_neighbours(zeta: CriticalPoint):
    up, down = neighbours(zeta)
    if up is None or down is None:
        raise DomainError(
            f"({zeta.theta}, {zeta.rho}) is missing a neighbour; triple-point "
            "structure needs both"
        )
    return point_context(zeta), up, down


def _mu(ctx: PointContext) -> int:
    return 2 * math.floor(ctx.tau) - math.floor(ctx.tau_minus) - math.floor(ctx.tau_plus)


def mu_of(zeta: CriticalPoint) -> int:
    """μ = 2⌊τ⌋ − ⌊τ⁻⌋ − ⌊τ⁺⌋ (always one of −1, 0, +1)."""
    ctx, _, _ = _context_with_neighbours(zeta)
    return _mu(ctx)


@dataclass(frozen=True)
class ConcurrencyEntry:
    signs: tuple[int, int, int]
    determinant: int
    point: tuple[Rational, Rational] | None


def concurrency_oracle(zeta: CriticalPoint) -> tuple[ConcurrencyEntry, ...]:
    """Brute-force concurrency over all eight sign-triples.

    The determinant is evaluated as (−i₁ + 2 i₂ − i₃)/q over the actual
    dominant slopes — which agrees with the ψ-form in the interior and
    stays valid on the special rows where a neighbour sits on ρ = 0 or
    ρ = 1 and the interior formulas break down.  Each triple's lines are
    also intersected directly; D = 0 must coincide with concurrency.
    """
    _, up, down = _context_with_neighbours(zeta)
    q = zeta.theta.denominator
    by_point = (dominant_params(down), dominant_params(zeta), dominant_params(up))
    entries = []
    for signs in SIGN_TRIPLES:
        lines = []
        for params, mu in zip(by_point, signs):
            chosen = params[0] if mu == 1 else params[1]
            if chosen is None:
                raise ConsistencyError(
                    "missing dominant line away from the corners"
                )
            lines.append(chosen)
        (i1, j1), (i2, j2), (i3, j3) = lines
        det = Fraction(-i1 + 2 * i2 - i3, q)
        if det.denominator != 1:
            raise ConsistencyError(
                f"determinant {det} is not an integer at ({zeta.theta}, {zeta.rho})"
            )
        if i1 == i2:
            raise ConsistencyError(
                "dominant lines of ζ and ζ↓ can never be parallel"
            )
        x = Fraction(j1 - j2, i1 - i2)
        y = i1 * x - j1
        concurrent = i3 * x - j3 == y
        if concurrent != (det == 0):
            raise ConsistencyError(
                f"determinant/intersection mismatch for signs {signs} at "
                f"({zeta.theta}, {zeta.rho})"
            )
        entries.append(
            ConcurrencyEntry(signs, int(det), (x, y) if concurrent else None)
        )
    return tuple(entries)


@dataclass(frozen=True)
class TriplePoint:
    location: CriticalPoint
    chi_kind: str  # "chi1" or "chi2"
    psi_sign: int
    sign_triple: tuple[int, int, int]


@dataclass(frozen=True)
class TriplePointReport:
    zeta: CriticalPoint
    mu: int
    kind: str  # "I" or "II"
    points: tuple[TriplePoint, TriplePoint]
    oracle: tuple[ConcurrencyEntry, ...]

    @property
    def determinant_table(self) -> tuple[int, ...]:
        return tuple(entry.determinant for entry in self.oracle)


def _chi(ctx, which: int, mu_sign: int) -> tuple[Rational, Rational]:
    """Closed-form triple point over the convergents of θ.

    χ⁽¹⁾_μ = (p_{n−1}/q_{n−1}, ψ_μ(τ)(−1)^{n−1}/q_{n−1})
    χ⁽²⁾_μ = (p_{n−2}/q_{n−2}, r·q_n/(s·q_{n−2}) − ψ_μ(τ)(−1)^{n−1}/q_{n−2})
    """
    cf = ctx.cf
    n = cf.n
    parity = -1 if n % 2 == 0 else 1
    level = psi(mu_sign, ctx.tau) * parity
    if which == 1:
        pd, qd = cf.p(n - 1), cf.q(n - 1)
        return Fraction(pd, qd), Fraction(level, qd)
    pd, qd = cf.p(n - 2), cf.q(n - 2)
    rho_val = Fraction(ctx.r * cf.q(n), ctx.s * qd) - Fraction(level, qd)
    return Fraction(pd, qd), rho_val


def triple_points(zeta: CriticalPoint) -> TriplePointReport:
    """Both triple points of ζ with their closed-form provenance.

    The case split: q = 2 and the rows ρ = 1/q, (q−1)/q key on the
    parity of n (the interior τ± turn integer there); otherwise μ ≠ 0
    gives a type-I pair χ⁽¹⁾_μ, χ⁽²⁾_μ and μ = 0 the type-II pair
    χ⁽²⁾₊, χ⁽²⁾₋.  Locations must match the concurrency oracle exactly.
    """
    ctx, _, _ = _context_with_neighbours(zeta)
    q, rho = ctx.q, zeta.rho
    n = ctx.cf.n
    mu = _mu(ctx)
    if q == 2:
        kind, specs = "II", ((2, 1), (2, -1))
    elif rho == Fraction(1, q):
        if n % 2 == 1:
            kind, specs = "I", ((1, -1), (2, -1))
        else:
            kind, specs = "II", ((2, 1), (2, -1))
    elif rho == Fraction(q - 1, q):
        if n % 2 == 1:
            kind, specs = "I", ((1, 1), (2, 1))
        else:
            kind, specs = "II", ((2, 1), (2, -1))
    elif mu != 0:
        kind, specs = "I", ((1, mu), (2, mu))
    else:
        kind, specs = "II", ((2, 1), (2, -1))

    locations = [_chi(ctx, which, sign) for which, sign in specs]
    distinct_theta = locations[0][0] != locations[1][0]
    if distinct_theta != (kind == "I"):
        raise ConsistencyError(
            f"type {kind} dispatch contradicts the locations {locations}"
        )

    oracle = concurrency_oracle(zeta)
    vanishing = [entry for entry in oracle if entry.determinant == 0]
    if len(vanishing) != 2:
        raise ConsistencyError(
            f"{len(vanishing)} of 8 sign-triples vanish at "
            f"({zeta.theta}, {zeta.rho}); expected exactly 2"
        )
    points = []
    remaining = list(vanishing)
    for (which, sign), loc in zip(specs, locations):
        match = next((e for e in remaining if e.point == loc), None)
        if match is None:
            raise ConsistencyError(
                f"closed-form point {loc} not among the oracle's "
                f"concurrency points at ({zeta.theta}, {zeta.rho})"
            )
        remaining.remove(match)
        points.append(
            TriplePoint(critical_point(*loc), f"chi{which}", sign, match.signs)
        )
    return TriplePointReport(zeta, mu, kind, (points[0], points[1]), oracle)


@dataclass(frozen=True)
class TripleFareyStatus:
    location: CriticalPoint
    farey_count: int


def triple_point_farey_status(zeta: CriticalPoint) -> tuple[TripleFareyStatus, ...]:
    """How many of the three concurrent chains have the triple point as
    a Farey point: at least one for type I, at least two for type II."""
    report = triple_points(zeta)
    _, up, down = _context_with_neighbours(zeta)
    by_point = (dominant_params(down), dominant_params(zeta), dominant_params(up))
    needed = 1 if report.kind == "I" else 2
    out = []
    for pt in report.points:
        count = 0
        for params, mu in zip(by_point, pt.sign_triple):
            i, j = params[0] if mu == 1 else params[1]
            if farey_point_tests(chain_new(i, j), pt.location).is_farey:
                count += 1
        if count < needed:
            raise ConsistencyError(
                f"type {report.kind} point ({pt.location.theta}, "
                f"{pt.location.rho}) is a Farey point of only {count} of its "
                f"three concurrent chains"
            )
        out.append(TripleFareyStatus(pt.location, count))
    return tuple(out)


def _alternate_triple_locations(
    zeta: CriticalPoint,
) -> tuple[tuple[Rational, Rational], ...]:
    """Recompute the triple-point locations in the other continued-
    fraction convention (last coefficient ≥ 2).

    Switching conventions exchanges the roles of the χ kinds: what χ⁽¹⁾
    computes from […, a−1, 1] is produced by the χ⁽²⁾ shape over the
    difference of the last two convergents of […, a], and vice versa.
    Test support for the representation-independence property; not used
    by the production path.
    """
    report = triple_points(zeta)
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
