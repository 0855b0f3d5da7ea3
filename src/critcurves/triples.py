"""Triple points of the dominant lines at ζ and its two neighbours.

Six lines pass through the column ζ↓, ζ, ζ↑ of ζ = (p/q, r/s): the
positive and negative signed witnesses of each of the three points.
Choosing one line per point gives eight sign-triples (μ1, μ2, μ3); over
the slopes i₁, i₂, i₃ of the chosen lines the triple is concurrent
exactly when the integer determinant

    D(μ1, μ2, μ3) = (−i₁ + 2 i₂ − i₃)/q

vanishes.  Exactly two of the eight vanish, and the two concurrency
points have closed forms χ⁽¹⁾_±/χ⁽²⁾_± over the last two convergents of
θ.  D(+,+,+) alone picks the pair:

    D(+,+,+) = −1   type I,  χ⁽¹⁾₊ and χ⁽²⁾₊
    D(+,+,+) =  0   type II, χ⁽²⁾₊ and χ⁽²⁾₋
    D(+,+,+) = +1   type I,  χ⁽¹⁾₋ and χ⁽²⁾₋

Each located point is checked on the spot to lie on the three lines of
its own vanishing triple, so a formula slip cannot propagate silently.
`oracles.concurrency_oracle` recomputes the determinants and intersects
the lines of every triple; `verify` and the tests hold the report to it.

A triple point θ = p/q is a Farey point of a concurrent chain L(i, j)
exactly when q ≤ |i| (characterization (i) of `farey_point_tests`, in
`oracles`), so each point carries its `farey_count` over its three lines
from that order test alone: at least 1 for type I, at least 2 for type II.
`verify` holds every count to all three characterizations.

`_column` builds the six lines and the eight determinants, once per
`triple_points` call.  The report keeps the lines as `column`, which
`render_triples` draws without building it again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .exact import Rational
from .orbit import CriticalPoint, critical_point, signed_witness
from .points import PointContext, neighbours, point_context

SIGN_TRIPLES = tuple(itertools.product((1, -1), repeat=3))

# D(+,+,+) -> (type, ((χ kind, ψ sign) of each triple point))
_PAIRS = {
    -1: ("I", ((1, 1), (2, 1))),
    0: ("II", ((2, 1), (2, -1))),
    1: ("I", ((1, -1), (2, -1))),
}


def psi(mu: int, x: Rational) -> int:
    """ψ₊₁ = floor, ψ₋₁ = ceil."""
    if mu == 1:
        return math.floor(x)
    if mu == -1:
        return math.ceil(x)
    raise DomainError(f"psi sign must be +1 or -1, got {mu!r}")


def _lines(column, signs: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
    """The line of ζ↓, ζ, ζ↑ that each sign of `signs` picks from `column`."""
    return tuple(pair[0] if mu == 1 else pair[1] for pair, mu in zip(column, signs))


def _column(zeta: CriticalPoint):
    """The point context of ζ, the (+, −) dominant lines of ζ↓, ζ, ζ↑,
    and D of each sign-triple in `SIGN_TRIPLES` order."""
    up, down = neighbours(zeta)
    if up is None or down is None:
        raise DomainError(
            f"({zeta.theta}, {zeta.rho}) is missing a neighbour; triple-point "
            "structure needs both"
        )
    ctx = point_context(zeta)
    column = tuple(
        (signed_witness(base, 1), signed_witness(base, -1)) for base in (down, zeta, up)
    )
    dets = []
    for signs in SIGN_TRIPLES:
        (i1, _), (i2, _), (i3, _) = _lines(column, signs)
        det, rem = divmod(-i1 + 2 * i2 - i3, ctx.q)
        if rem:
            raise ConsistencyError(
                f"determinant {det + Fraction(rem, ctx.q)} is not an integer at "
                f"({zeta.theta}, {zeta.rho})"
            )
        dets.append(det)
    return ctx, column, dets


def _mu(ctx: PointContext) -> int:
    return 2 * math.floor(ctx.tau) - math.floor(ctx.tau_minus) - math.floor(ctx.tau_plus)


def mu_of(zeta: CriticalPoint) -> int:
    """μ = 2⌊τ⌋ − ⌊τ⁻⌋ − ⌊τ⁺⌋ (always one of −1, 0, +1)."""
    return _mu(point_context(zeta))


@dataclass(frozen=True)
class ConcurrencyEntry:
    signs: tuple[int, int, int]
    determinant: int
    point: tuple[Rational, Rational] | None


@dataclass(frozen=True)
class TriplePoint:
    location: CriticalPoint
    chi_kind: str  # "chi1" or "chi2"
    psi_sign: int
    sign_triple: tuple[int, int, int]
    farey_count: int  # how many of the three lines have it as a Farey point


@dataclass(frozen=True)
class TriplePointReport:
    zeta: CriticalPoint
    mu: int
    kind: str  # "I" or "II"
    points: tuple[TriplePoint, TriplePoint]
    oracle: tuple[ConcurrencyEntry, ...]
    # the (+, −) dominant lines (i, j) of ζ↓, ζ, ζ↑
    column: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

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

    D(+,+,+) of the three positive dominant lines picks the type and
    the χ pair (see the module docstring).  Each point must lie on the
    three lines of one of the two vanishing sign-triples, which becomes
    its `sign_triple`, and counts its Farey lines by the order test into
    `farey_count`; `oracle` lists every triple's signs, determinant
    and matched point, and `column` the six lines.  `mu` is the ψ-form
    2⌊τ⌋ − ⌊τ⁻⌋ − ⌊τ⁺⌋; it equals −D(+,+,+) away from the rows
    ρ = 1/q, (q−1)/q and can differ on them.
    """
    ctx, column, dets = _column(zeta)
    if dets[0] not in _PAIRS:
        raise ConsistencyError(
            f"D(+,+,+) = {dets[0]} at ({zeta.theta}, {zeta.rho}); expected -1, 0 or 1"
        )
    kind, specs = _PAIRS[dets[0]]
    locations = [_chi(ctx, which, sign) for which, sign in specs]
    if (locations[0][0] != locations[1][0]) != (kind == "I"):
        raise ConsistencyError(
            f"type {kind} dispatch contradicts the locations {locations}"
        )
    vanishing = [signs for signs, det in zip(SIGN_TRIPLES, dets) if det == 0]
    if len(vanishing) != 2:
        raise ConsistencyError(
            f"{len(vanishing)} of 8 sign-triples vanish at "
            f"({zeta.theta}, {zeta.rho}); expected exactly 2"
        )
    matched = {}
    points = []
    for (which, sign), (x, y) in zip(specs, locations):
        on = [
            signs
            for signs in vanishing
            if signs not in matched
            and all(i * x - j == y for i, j in _lines(column, signs))
        ]
        if not on:
            raise ConsistencyError(
                f"closed-form point {(x, y)} not among the oracle's "
                f"concurrency points at ({zeta.theta}, {zeta.rho})"
            )
        matched[on[0]] = (x, y)
        count = sum(x.denominator <= abs(i) for i, _ in _lines(column, on[0]))
        if count < (1 if kind == "I" else 2):
            raise ConsistencyError(
                f"type {kind} point ({x}, {y}) "
                f"is a Farey point of only {count} of its three concurrent chains"
            )
        points.append(TriplePoint(critical_point(x, y), f"chi{which}", sign, on[0], count))
    oracle = tuple(
        ConcurrencyEntry(signs, det, matched.get(signs))
        for signs, det in zip(SIGN_TRIPLES, dets)
    )
    return TriplePointReport(zeta, _mu(ctx), kind, tuple(points), oracle, column)


def triple_point_farey_status(zeta: CriticalPoint) -> tuple[TriplePoint, TriplePoint]:
    """`triple_points(zeta).points`, each with its `farey_count`."""
    return triple_points(zeta).points
