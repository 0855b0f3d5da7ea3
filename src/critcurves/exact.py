"""Exact rational arithmetic: fractions, continued fractions, Farey tools.

Everything downstream works over `fractions.Fraction`; no floats enter
any computation (rendering converts to float only at pixel projection).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

Rational = Fraction

_EXACT_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational(numerator: int, denominator: int = 1) -> Rational:
    """Build an exact rational, rejecting a zero denominator."""
    if denominator == 0:
        raise ParameterError("zero denominator")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Rational:
    """Parse 'p/q' or a plain integer string into a Rational.

    Only ASCII `[+-]?digits(/digits)?` is accepted, after stripping
    surrounding whitespace.  Floating-point syntax is rejected: the whole
    pipeline is exact and a decimal literal would silently lie about the
    user's intent; so are the digit separators and non-ASCII digits that
    `int()` would let through.
    """
    text = text.strip()
    match = _EXACT_FRACTION.fullmatch(text)
    if match is None:
        raise ParameterError(f"not an exact fraction: {text!r}")
    num, den = match.groups()
    return rational(int(num), int(den or 1))


def format_rational(x: Rational) -> str:
    """Render as 'p/q', keeping the denominator even when it is 1."""
    return f"{x.numerator}/{x.denominator}"


def fractional_part(x: Rational) -> Rational:
    """{x} = x - floor(x), always in [0, 1)."""
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class ContinuedFraction:
    """Continued fraction [a0; a1, ..., an] of a rational in [0, 1].

    The canonical convention used throughout fixes the *last* coefficient
    to 1 (so 3/5 is [0; 1, 1, 1, 1], not [0; 1, 1, 2]).  `convergents`
    stores (p_k, q_k) for k = 0..n; the recurrence seeds p_{-1} = 1,
    q_{-1} = 0, p_{-2} = 0, q_{-2} = 1 are reachable through `p(k)` and
    `q(k)` with negative indices.
    """

    coefficients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        """Index of the last coefficient (the expansion is [a0; ... an])."""
        return len(self.coefficients) - 1

    @property
    def value(self) -> Rational:
        p, q = self.convergents[-1]
        return Fraction(p, q)

    def p(self, k: int) -> int:
        if k == -1:
            return 1
        if k == -2:
            return 0
        return self.convergents[k][0]

    def q(self, k: int) -> int:
        if k == -1:
            return 0
        if k == -2:
            return 1
        return self.convergents[k][1]


def _convergents(coefficients: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    out = []
    p_prev2, q_prev2 = 0, 1
    p_prev, q_prev = 1, 0
    for a in coefficients:
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        out.append((p, q))
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q
    return tuple(out)


def _euclid(x: Rational) -> list[int]:
    # plain Euclidean expansion: last coefficient >= 2 unless x is an integer
    coeffs = []
    num, den = x.numerator, x.denominator
    while den:
        a, rem = divmod(num, den)
        coeffs.append(a)
        num, den = den, rem
    return coeffs


def continued_fraction(x: Rational) -> ContinuedFraction:
    """Canonical expansion of x in [0, 1] with last coefficient 1.

    0 -> [0]; 1 -> [0; 1]; otherwise the Euclidean expansion with its
    final coefficient a_n >= 2 rewritten as [..., a_n - 1, 1].
    """
    if not 0 <= x <= 1:
        raise ParameterError(f"expected a rational in [0, 1], got {x}")
    if x == 1:
        coeffs = [0, 1]
    else:
        coeffs = _euclid(x)
        if len(coeffs) > 1 and coeffs[-1] >= 2:
            coeffs[-1] -= 1
            coeffs.append(1)
    return ContinuedFraction(tuple(coeffs), _convergents(tuple(coeffs)))


def standard_continued_fraction(x: Rational) -> ContinuedFraction:
    """Euclidean expansion (last coefficient >= 2 when possible).

    Kept as the alternate convention for representation-independence
    checks; the rest of the package uses `continued_fraction`.
    """
    if not 0 <= x <= 1:
        raise ParameterError(f"expected a rational in [0, 1], got {x}")
    coeffs = tuple(_euclid(x))
    return ContinuedFraction(coeffs, _convergents(coeffs))


def farey_bracket(x: Rational, n: int) -> tuple[Rational, Rational]:
    """Neighbours of x in the Farey sequence F_n when x is NOT in F_n.

    Returns (left, right) with left < x < right, both in F_n and adjacent
    there.  Walks the Stern-Brocot tree with batched steps, so the cost
    is O(log) rather than O(n).
    """
    if n < 1:
        raise ParameterError("Farey order must be >= 1")
    if x.denominator <= n:
        raise ParameterError(f"{x} already belongs to F_{n}")
    if not 0 < x < 1:
        raise ParameterError(f"interior x required, got {x}")
    # (a/b, c/d) is the enclosing Stern-Brocot interval; each pass takes
    # a whole run of same-direction mediant steps at once.  Both run
    # lengths are >= 1 inside the loop, and b + d grows every pass, so
    # termination is immediate from the loop condition.
    a, b, c, d = 0, 1, 1, 1
    num, den = x.numerator, x.denominator
    while b + d <= n:
        if den * (a + c) < num * (b + d):
            # x right of the mediant: left endpoint walks toward x.
            # After t steps left = (a+tc)/(b+td); stay strictly below x
            # and keep the denominator within n.
            t = min((num * b - den * a - 1) // (den * c - num * d),
                    (n - b) // d)
            a, b = a + t * c, b + t * d
        else:
            t = min((den * c - num * d - 1) // (num * b - den * a),
                    (n - d) // b)
            c, d = t * a + c, t * b + d
    return Fraction(a, b), Fraction(c, d)


def farey_neighbours(x: Rational, n: int) -> tuple[Rational | None, Rational | None]:
    """Adjacent fractions of x inside F_n, for x itself a member of F_n.

    Closed form via the modular inverse of the numerator: the left
    neighbour is (pb-1)/q / b for the largest admissible b, mirrored on
    the right.  At the ends of [0, 1] the missing side is None.
    """
    if n < 1:
        raise ParameterError("Farey order must be >= 1")
    p, q = x.numerator, x.denominator
    if q > n:
        raise ParameterError(f"{x} is not a member of F_{n}")
    if not 0 <= x <= 1:
        raise ParameterError(f"expected x in [0, 1], got {x}")
    if x == 0:
        return None, Fraction(1, n)
    if x == 1:
        return Fraction(n - 1, n), None
    inv = pow(p, -1, q)
    b = n - (n - inv) % q          # largest b <= n with b = p^{-1} (mod q)
    left = Fraction(p * b - 1, q) / b
    d = n - (n - (q - inv)) % q    # largest d <= n with d = -p^{-1} (mod q)
    right = Fraction(p * d + 1, q) / d
    return left, right


def _farey_pairs(n: int, lo: Rational, hi: Rational) -> Iterator[tuple[int, int]]:
    """Members of F_n in [lo, hi], ascending, as (numerator, denominator)
    pairs from the next-term recurrence, in O(1) memory."""
    if n < 1:
        raise ParameterError("Farey order must be >= 1")
    if lo > hi:
        raise ParameterError("empty interval")
    lo = max(lo, Fraction(0))
    hi = min(hi, Fraction(1))
    if lo > hi:
        return
    # first member >= lo: lo itself, or the right end of its bracket in F_n
    first = Fraction(lo) if lo.denominator <= n else farey_bracket(lo, n)[1]
    if first > hi:
        return
    yield first.numerator, first.denominator
    # the right neighbour of `first` in F_n seeds the next-term recurrence
    right = farey_neighbours(first, n)[1]
    if right is None:
        return
    a, b = first.numerator, first.denominator
    c, d = right.numerator, right.denominator
    while c * hi.denominator <= hi.numerator * d:
        yield c, d
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey_sequence(n: int, lo: Rational, hi: Rational) -> list[Rational]:
    """All members of F_n in [lo, hi], ascending (next-term recurrence)."""
    return [Fraction(num, den) for num, den in _farey_pairs(n, lo, hi)]
