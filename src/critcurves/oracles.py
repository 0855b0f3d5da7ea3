"""Brute-force oracles: the independent routes that `verify` and the
tests hold the closed forms to.  Only they import this module; no query
module does, so no query path can reach an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chains import Chain, _j_range_ok, chain_new
from .errors import ConsistencyError, DomainError, ParameterError
from .exact import Rational, farey_sequence
from .orbit import CriticalPoint, brute_force_critical_word
from .triples import SIGN_TRIPLES, ConcurrencyEntry, TriplePointReport


def scan_witness(theta: Rational, rho: Rational, sign: int) -> tuple[int, int] | None:
    """Oracle for the closed form: the solution (i, j) of
    i*theta = j + rho with |i| >= 1 minimal among those of the given
    sign, or None, found by walking the orbit of 0 forwards (sign +1) or
    backwards (sign -1) for up to q steps, until it lands on rho.

    The walk runs over integers scaled by the common denominator, like
    `code_orbit`, and assumes nothing about which rho can be hit.
    """
    if sign not in (1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign!r}")
    if not 0 <= theta <= 1 or not 0 <= rho <= 1:
        raise ParameterError("theta and rho must lie in [0, 1]")
    q = theta.denominator
    den = lcm(q, rho.denominator)
    step = theta.numerator * (den // q)
    cut = rho.numerator * (den // rho.denominator)
    target = cut % den
    x = 0
    for size in range(1, q + 1):
        x = (x + sign * step) % den
        if x == target:
            i = sign * size
            return i, (i * step - cut) // den
    return None


def residue_cover(n: int, m: int) -> dict[int, Rational]:
    """Witness map for the flip-congruence corollary on the chain L_{n,m}.

    For every fraction p/q of F_n in [m/n, (m+1)/n] the classes
    x ≡ 0 and x ≡ n (mod q) are solved over 0..n−1.  Together they cover
    every residue, and each non-zero residue comes from exactly one
    congruence; 0 satisfies x ≡ 0 for every q and is assigned to the
    left endpoint.  Returns {residue: producing fraction}.
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    if not 0 <= m < n:
        raise ParameterError(f"m = {m} outside 0..{n - 1}")
    lo, hi = Fraction(m, n), Fraction(m + 1, n)
    cover: dict[int, Rational] = {0: lo}
    for frac in farey_sequence(n, lo, hi):
        q = frac.denominator
        for residue_class in {0, n % q}:
            first = residue_class if residue_class else q
            for x in range(first, n, q):
                if x in cover:
                    raise ConsistencyError(
                        f"residue {x} produced by both {cover[x]} and {frac}"
                    )
                cover[x] = frac
    if set(cover) != set(range(n)):
        missing = sorted(set(range(n)) - set(cover))
        raise ConsistencyError(f"residues {missing} not covered for (n={n}, m={m})")
    return cover


@dataclass(frozen=True)
class FareyPointTests:
    is_farey: bool
    short_word: bool
    transversal_witness: bool
    witness: tuple[int, int] | None


def farey_point_tests(chain: Chain, zeta: CriticalPoint) -> FareyPointTests:
    """The three equivalent characterizations of a Farey point of a chain.

    (i)   membership in the decomposition's Farey points, i.e. θ ∈ F_{|i|}
          (q ≤ |i|; ζ is already known to lie in the chain's θ-range);
    (ii)  the critical word in the chain's sign is shorter than |i|;
    (iii) a strictly smaller same-sign chain through ζ exists for which
          ζ is not a Farey point — witness (i′, j′) with c = ⌊|i|/q⌋,
          i′ = i − sign(i)·c·q, j′ = j − sign(i)·c·p.

    The booleans are computed independently and must agree; i′ = 0
    counts as either sign since the empty word is both.
    """
    if not chain.contains(zeta):
        raise DomainError(f"({zeta.theta}, {zeta.rho}) does not lie on {chain}")
    theta, rho = zeta.theta, zeta.rho

    is_farey = theta.denominator <= chain.order

    if rho == 0 or rho == 1:
        word_len = 0  # empty centre: the critical word is ε in both signs
    else:
        word_len = len(brute_force_critical_word(zeta, chain.sign)[0])
    short_word = word_len < chain.order

    witness = None
    transversal = False
    if chain.i != 0:
        p, q = theta.numerator, theta.denominator
        s = chain.sign
        c = chain.order // q
        i_prime = chain.i - s * c * q
        j_prime = chain.j - s * c * p
        same_sign = i_prime == 0 or (i_prime > 0) == (s > 0)
        if abs(i_prime) < chain.order and same_sign and _j_range_ok(i_prime, j_prime):
            smaller = chain_new(i_prime, j_prime)
            if smaller.contains(zeta):
                # ζ is a Farey point of the smaller chain iff θ belongs
                # to F_{|i′|}; horizontal chains have no Farey points
                not_farey_there = i_prime == 0 or q > abs(i_prime)
                if not_farey_there:
                    transversal = True
                    witness = (i_prime, j_prime)

    if not (is_farey == short_word == transversal):
        raise ConsistencyError(
            f"Farey-point tests disagree on {chain} at ({theta}, {rho}): "
            f"membership={is_farey}, short word={short_word}, "
            f"transversal={transversal}"
        )
    return FareyPointTests(is_farey, short_word, transversal, witness)


def concurrency_oracle(report: TriplePointReport) -> tuple[ConcurrencyEntry, ...]:
    """Brute-force concurrency over all eight sign-triples of a report.

    Reads only ζ and the six lines of `report.column`: each triple's
    determinant D = (−i₁ + 2 i₂ − i₃)/q is recomputed here, its lines
    are intersected directly, and D = 0 must coincide with concurrency.
    """
    q, at = report.zeta.theta.denominator, f"({report.zeta.theta}, {report.zeta.rho})"
    entries = []
    for signs in SIGN_TRIPLES:
        (i1, j1), (i2, j2), (i3, j3) = (
            plus if mu == 1 else minus for (plus, minus), mu in zip(report.column, signs)
        )
        det, rem = divmod(-i1 + 2 * i2 - i3, q)
        if rem:
            raise ConsistencyError(f"D = {det + Fraction(rem, q)} is not an integer at {at}")
        if i1 == i2:
            raise ConsistencyError("dominant lines of ζ and ζ↓ can never be parallel")
        x = Fraction(j1 - j2, i1 - i2)
        y = i1 * x - j1
        concurrent = i3 * x - j3 == y
        if concurrent != (det == 0):
            raise ConsistencyError(f"determinant/intersection mismatch for signs {signs} at {at}")
        entries.append(ConcurrencyEntry(signs, det, (x, y) if concurrent else None))
    return tuple(entries)
