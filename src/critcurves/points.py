"""Local structure at a rational critical point ζ = (p/q, r/s).

Two laws give the chains and pencils through ζ:

1. Every chain through ζ is (i₀ + tq, j₀ + tp).  The two *dominant*
   chains are the minimal signed witnesses `orbit.signed_witness(ζ, ±1)`,
   and the ℓ-th curve of a pencil is the witness of its sign plus
   sign·ℓ·(q, p).  Pencils I and III take the positive sign, II and IV
   the negative one; on the rows ρ = 0, 1 the trivial witnesses (0, 0)
   and (0, −1) are the dominant chains.
2. The ℓ-th curve (ℓ ≥ 1) ends at the right (I, IV) or left (II, III)
   neighbour θ′ of θ in F_{|i|}, at ρ′ = i·θ′ − j: a point on a dominant
   line of the upper neighbour ζ↑ (I, II) or the lower one ζ↓ (III, IV).

A pencil exists where both of its neighbours do: ζ↑ or ζ↓ in the
square, and a Farey neighbour of θ on its side.  All four exist inside,
I and II on ρ = 0, III and IV on ρ = 1, and one at each corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chains import _j_range_ok
from .errors import ConsistencyError, DomainError, ParameterError
from .exact import (
    ContinuedFraction,
    Rational,
    _convergents,
    continued_fraction,
    farey_neighbours,
)
from .orbit import (
    CriticalPoint,
    Word,
    code_orbit,
    critical_point,
    is_critical,
    signed_witness,
    switch_first,
)

# σ ↦ (sign of its chains, endpoints right of θ, endpoints beside ζ↑)
_QUADRANTS = {
    "I": (1, True, True),
    "II": (-1, False, True),
    "III": (1, False, False),
    "IV": (-1, True, False),
}
QUADRANTS = tuple(_QUADRANTS)


@dataclass(frozen=True)
class PointContext:
    """Derived quantities at an interior rational critical point.

    q′ = (−1)^{n−1} q_{n−1} and p′ likewise, built from the continued
    fraction of θ with last coefficient 1, so that p·q′ − q·p′ = 1.
    τ = q′·r/s and τ± = q′·(r/s ± 1/q) are never integers away from the
    rows ρ = 1/q, (q−1)/q; t⁺ = ⌈−τ⌉ and t⁻ = t⁺ − 1 are the parameter
    slots of the two dominant chains.
    """

    zeta: CriticalPoint
    cf: ContinuedFraction
    p: int
    q: int
    r: int
    s: int
    u: int
    p_prime: int
    q_prime: int
    tau: Rational
    tau_minus: Rational
    tau_plus: Rational
    t_plus: int
    t_minus: int


def point_context(zeta: CriticalPoint) -> PointContext:
    # ζ validated itself on construction, so this check cannot fail.  It
    # stays because perfbench/test_perfbench.py pins it: the tracer must
    # see `point_context` call `is_critical` through this module's binding.
    is_critical(zeta.theta, zeta.rho)
    if zeta.rho == 0 or zeta.rho == 1:
        raise DomainError(
            "point_context needs 0 < rho < 1; the rows rho = 0, 1 are served "
            "by the explicit boundary conventions"
        )
    theta, rho = zeta.theta, zeta.rho
    p, q = theta.numerator, theta.denominator
    r, s = rho.numerator, rho.denominator
    cf = continued_fraction(theta)
    n = cf.n
    sign = -1 if n % 2 == 0 else 1
    q_prime = sign * cf.q(n - 1)
    p_prime = sign * cf.p(n - 1)
    if p * q_prime - q * p_prime != 1:
        raise ConsistencyError(f"unimodularity failed at theta = {theta}")
    tau = Fraction(q_prime) * rho
    tau_plus = q_prime * (rho + Fraction(1, q))
    tau_minus = q_prime * (rho - Fraction(1, q))
    t_plus = -math.floor(tau)
    return PointContext(
        zeta=zeta,
        cf=cf,
        p=p,
        q=q,
        r=r,
        s=s,
        u=q // s,
        p_prime=p_prime,
        q_prime=q_prime,
        tau=tau,
        tau_minus=tau_minus,
        tau_plus=tau_plus,
        t_plus=t_plus,
        t_minus=t_plus - 1,
    )


def neighbours(
    zeta: CriticalPoint,
) -> tuple[CriticalPoint | None, CriticalPoint | None]:
    """(ζ↑, ζ↓) = ζ ± (0, 1/q); a side is None where it would leave the
    square."""
    step = Fraction(1, zeta.theta.denominator)
    up = zeta.rho + step
    down = zeta.rho - step
    return (
        CriticalPoint(zeta.theta, up) if up <= 1 else None,
        CriticalPoint(zeta.theta, down) if down >= 0 else None,
    )


def dominant_params(
    zeta: CriticalPoint,
) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """Minimal-|i| chain parameters through ζ, one per sign: the two
    signed witnesses.  A witness that is no admissible chain, which
    happens only at the left corners (0, 0) and (0, 1), becomes None.
    """
    plus, minus = signed_witness(zeta, 1), signed_witness(zeta, -1)
    return (
        plus if _j_range_ok(*plus) else None,
        minus if _j_range_ok(*minus) else None,
    )


def _exists(zeta: CriticalPoint, right: bool, upper: bool) -> bool:
    theta, rho = zeta.theta, zeta.rho
    return (rho < 1 if upper else rho > 0) and (theta < 1 if right else theta > 0)


def available_quadrants(zeta: CriticalPoint) -> tuple[str, ...]:
    """Which pencils exist at ζ: σ needs ζ↑ (I, II) or ζ↓ (III, IV) and
    a Farey neighbour of θ on its right (I, IV) or left (II, III).  All
    four exist inside, two on the rows ρ = 0 (I, II) and ρ = 1
    (III, IV), exactly one at each corner."""
    return tuple(
        sigma for sigma, (_, right, upper) in _QUADRANTS.items()
        if _exists(zeta, right, upper)
    )


def _check_pencil_args(zeta: CriticalPoint, sigma: str, ell: int) -> tuple[int, bool, bool]:
    """σ's row of `_QUADRANTS`, once ℓ ≥ 0 and pencil σ exists at ζ."""
    if sigma not in _QUADRANTS:
        raise ParameterError(f"unknown pencil quadrant {sigma!r}")
    if ell < 0:
        raise ParameterError("pencil index ell must be non-negative")
    row = _QUADRANTS[sigma]
    if not _exists(zeta, *row[1:]):
        raise DomainError(
            f"pencil {sigma} does not exist at ({zeta.theta}, {zeta.rho}); "
            f"available: {', '.join(available_quadrants(zeta))}"
        )
    return row


@dataclass(frozen=True)
class PencilDescriptor:
    sigma: str
    ell: int
    chain_params: tuple[int, int]
    endpoint: CriticalPoint | None


def pencil_descriptor(zeta: CriticalPoint, sigma: str, ell: int) -> PencilDescriptor:
    """The ℓ-th curve of pencil σ: its chain parameters and, for ℓ ≥ 1,
    its Farey point ζ^σ(ℓ) distinct from ζ.  ℓ = 0 is the dominant
    curve, which has no endpoint of its own.

    The chain (i, j) is the signed witness of σ's sign plus
    sign·ℓ·(q, p).  θ^σ(ℓ) is the right (σ = I, IV) or left (σ = II, III)
    neighbour of θ in F_{|i|}, and ρ^σ(ℓ) = i·θ^σ(ℓ) − j.  The same law
    covers the interior, the rows, the corners and the special rows
    ρ = 1/q, (q−1)/q, where the endpoints of III, IV or I, II land on the
    row ρ = 0 or ρ = 1.
    """
    sign, right, _ = _check_pencil_args(zeta, sigma, ell)
    i, j = signed_witness(zeta, sign)
    i, j = i + sign * ell * zeta.theta.denominator, j + sign * ell * zeta.theta.numerator
    endpoint = None
    if ell >= 1:
        end_theta = farey_neighbours(zeta.theta, abs(i))[right]
        endpoint = critical_point(end_theta, i * end_theta - j)
    return PencilDescriptor(sigma, ell, (i, j), endpoint)


def dominant_words(zeta: CriticalPoint) -> tuple[Word, Word]:
    """(u⁺, u⁻): critical words of the two dominant curves, the codings
    of the two signed witnesses.

    They split one period of the orbit of 0: after i⁺ steps the orbit
    reaches ρ, where u⁻ starts, so u⁺u⁻ = code_orbit(θ, ρ, 0, q) cut
    after i⁺ letters.  On ρ = 0 these are (ε, b^q) and on ρ = 1
    (a^q, ε) — covering the corners via q = 1 — so the pencil word
    formulas below never need a special case.
    """
    period = code_orbit(zeta.theta, zeta.rho, 0, zeta.theta.denominator)
    i_plus = signed_witness(zeta, 1)[0]
    return period[:i_plus], period[i_plus:]


def pencil_word(zeta: CriticalPoint, sigma: str, ell: int) -> Word:
    """Word of the ℓ-th curve of pencil σ.

    With u± the dominant words and v± = u± with the first letter
    switched:  I: u⁺(v⁻u⁺)^ℓ, II: u⁻(u⁺v⁻)^ℓ, III: u⁺(u⁻v⁺)^ℓ,
    IV: u⁻(v⁺u⁻)^ℓ.  The head is u^sign; the period pairs v⁻ (I, II) or
    v⁺ (III, IV) with the other dominant word, v first on the right
    side (I, IV).  ℓ = 0 returns the dominant word itself.
    """
    sign, right, upper = _check_pencil_args(zeta, sigma, ell)
    u_plus, u_minus = dominant_words(zeta)
    head = u_plus if sign > 0 else u_minus
    switched, other = (u_minus, u_plus) if upper else (u_plus, u_minus)
    v = switch_first(switched)
    return head + (v + other if right else other + v) * ell


@dataclass(frozen=True)
class ApproachStep:
    k: int
    theta: Rational
    rho: Rational
    valid: bool
    dominant: bool


def approach_sequence(
    coefficients: tuple[int, ...], i: int, count: int
) -> list[ApproachStep]:
    """Follow ζ_k = (p_k/q_k, i·p_k/q_k − j) along the convergents of a
    continued-fraction target.

    j = ⌊i·θ⌋ is computed from the exact value of the full coefficient
    list, which must be at least count + 2 long so the target outlasts
    the reported convergents.  Steps whose ρ falls outside [0, 1] are
    marked invalid; (i, j) should become and stay dominant as k grows.
    """
    coefficients = tuple(coefficients)
    if count < 1:
        raise ParameterError("count must be at least 1")
    if len(coefficients) < count + 2:
        raise ParameterError(
            f"need at least {count + 2} coefficients for {count} steps"
        )
    if coefficients[0] != 0:
        raise ParameterError("targets lie in [0, 1]: the expansion starts with 0")
    if any(a < 1 for a in coefficients[1:]):
        raise ParameterError("continued-fraction coefficients past a0 must be >= 1")
    convergents = _convergents(coefficients)
    theta = Fraction(*convergents[-1])
    j = math.floor(i * theta)
    steps = []
    for k in range(1, count + 1):
        p_k, q_k = convergents[k]
        theta_k = Fraction(p_k, q_k)
        rho_k = i * theta_k - j
        valid = 0 <= rho_k <= 1
        dominant = False
        if valid:
            pair = dominant_params(CriticalPoint(theta_k, rho_k))
            dominant = (i, j) in [entry for entry in pair if entry is not None]
        steps.append(ApproachStep(k, theta_k, rho_k, valid, dominant))
    return steps
