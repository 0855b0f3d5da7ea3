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
    brute_force_critical_word,
    critical_point,
    is_critical,
    signed_witness,
    switch_first,
)

QUADRANTS = ("I", "II", "III", "IV")


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


def all_chain_params(zeta: CriticalPoint, t: int) -> tuple[int, int]:
    """The t-th solution (i_t, j_t) of i·θ − j = ρ at an interior point."""
    ctx = point_context(zeta)
    ru = ctx.r * ctx.u
    i_t = ru * ctx.q_prime + t * ctx.q
    j_t = ru * ctx.p_prime + t * ctx.p
    return i_t, j_t


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


def available_quadrants(zeta: CriticalPoint) -> tuple[str, ...]:
    """Which pencils exist at ζ: σ needs ζ↑ (I, II) or ζ↓ (III, IV) and
    a Farey neighbour of θ on its right (I, IV) or left (II, III).  All
    four exist inside, two on the rows ρ = 0 (I, II) and ρ = 1
    (III, IV), exactly one at each corner."""
    theta, rho = zeta.theta, zeta.rho
    return tuple(
        sigma
        for sigma in QUADRANTS
        if (rho < 1 if sigma in ("I", "II") else rho > 0)
        and (theta < 1 if sigma in ("I", "IV") else theta > 0)
    )


def _check_pencil_args(zeta: CriticalPoint, sigma: str, ell: int) -> None:
    if sigma not in QUADRANTS:
        raise ParameterError(f"unknown pencil quadrant {sigma!r}")
    if ell < 0:
        raise ParameterError("pencil index ell must be non-negative")
    available = available_quadrants(zeta)
    if sigma not in available:
        raise DomainError(
            f"pencil {sigma} does not exist at ({zeta.theta}, {zeta.rho}); "
            f"available: {', '.join(available)}"
        )


def pencil_params(zeta: CriticalPoint, sigma: str, ell: int) -> tuple[int, int]:
    """Chain parameters of the ℓ-th curve of pencil σ: the signed
    witness of σ's sign (+ for I, III; − for II, IV) plus sign·ℓ·(q, p).
    ℓ = 0 is the dominant chain."""
    _check_pencil_args(zeta, sigma, ell)
    sign = 1 if sigma in ("I", "III") else -1
    i, j = signed_witness(zeta, sign)
    p, q = zeta.theta.numerator, zeta.theta.denominator
    return i + sign * ell * q, j + sign * ell * p


def pencil_endpoint(zeta: CriticalPoint, sigma: str, ell: int) -> CriticalPoint:
    """The Farey point ζ^σ(ℓ) of the ℓ-th pencil curve distinct from ζ.

    With (i, j) the curve's chain parameters, θ^σ(ℓ) is the right
    (σ = I, IV) or left (σ = II, III) neighbour of θ in F_{|i|}, and
    ρ^σ(ℓ) = i·θ^σ(ℓ) − j.  The same law covers the interior, the rows,
    the corners and the special rows ρ = 1/q, (q−1)/q, where the
    endpoints of III, IV or I, II land on the row ρ = 0 or ρ = 1.
    """
    if ell < 1:
        raise ParameterError("pencil endpoints exist for ell >= 1")
    return _endpoint(zeta, sigma, pencil_params(zeta, sigma, ell))


def _endpoint(zeta: CriticalPoint, sigma: str, params: tuple[int, int]) -> CriticalPoint:
    i, j = params
    left, right = farey_neighbours(zeta.theta, abs(i))
    end_theta = right if sigma in ("I", "IV") else left
    return critical_point(end_theta, i * end_theta - j)


@dataclass(frozen=True)
class PencilDescriptor:
    sigma: str
    ell: int
    chain_params: tuple[int, int]
    endpoint: CriticalPoint | None


def pencil_descriptor(zeta: CriticalPoint, sigma: str, ell: int) -> PencilDescriptor:
    """Bundle of the ℓ-th pencil curve's data; ℓ = 0 (the dominant
    curve) has no endpoint of its own."""
    params = pencil_params(zeta, sigma, ell)
    endpoint = _endpoint(zeta, sigma, params) if ell >= 1 else None
    return PencilDescriptor(sigma, ell, params, endpoint)


def dominant_words(zeta: CriticalPoint) -> tuple[Word, Word]:
    """(u⁺, u⁻): critical words of the two dominant curves, the codings
    of the two signed witnesses.

    On ρ = 0 these are (ε, b^q) and on ρ = 1 (a^q, ε) — covering the
    corners via q = 1 — so the pencil word formulas below never need a
    special case.
    """
    plus, _, _ = brute_force_critical_word(zeta, 1)
    minus, _, _ = brute_force_critical_word(zeta, -1)
    return plus, minus


def pencil_word(zeta: CriticalPoint, sigma: str, ell: int) -> Word:
    """Word of the ℓ-th curve of pencil σ.

    With u± the dominant words and v± = u± with the first letter
    switched:  I: u⁺(v⁻u⁺)^ℓ, II: u⁻(u⁺v⁻)^ℓ, III: u⁺(u⁻v⁺)^ℓ,
    IV: u⁻(v⁺u⁻)^ℓ.  ℓ = 0 returns the dominant word itself.
    """
    _check_pencil_args(zeta, sigma, ell)
    u_plus, u_minus = dominant_words(zeta)
    if ell == 0:
        return u_plus if sigma in ("I", "III") else u_minus
    if sigma == "I":
        return u_plus + (switch_first(u_minus) + u_plus) * ell
    if sigma == "II":
        return u_minus + (u_plus + switch_first(u_minus)) * ell
    if sigma == "III":
        return u_plus + (u_minus + switch_first(u_plus)) * ell
    return u_minus + (switch_first(u_plus) + u_minus) * ell


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
