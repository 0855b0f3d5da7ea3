"""Chains L_{i,j} and their decomposition into critical curves.

A chain is the segment ρ = iθ − j inside the unit square.  The Farey
fractions of order |i| inside its θ-range split it into critical curves
(open arcs on which the symbolic word is constant) separated by Farey
points.  Words along a positive chain follow a flip recursion: starting
from b^n at θ⁻, each Farey fraction p/q flips a fixed congruence class
of letter positions from b to a, and by the time θ⁺ is reached every
position has flipped exactly once, ending at a^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError, ParameterError
from .exact import Rational, _farey_pairs, farey_sequence
from .orbit import CriticalPoint, Word, brute_force_critical_word


@dataclass(frozen=True)
class Chain:
    i: int
    j: int
    theta_minus: Rational
    theta_plus: Rational

    @property
    def order(self) -> int:
        return abs(self.i)

    @property
    def sign(self) -> int:
        """+1 / −1 by slope; 0 for the two horizontal chains."""
        return (self.i > 0) - (self.i < 0)

    def rho_at(self, theta: Rational) -> Rational:
        if self.i == 0:
            return Fraction(-self.j)
        return self.i * theta - self.j

    def contains(self, zeta: CriticalPoint) -> bool:
        if not self.theta_minus <= zeta.theta <= self.theta_plus:
            return False
        return self.rho_at(zeta.theta) == zeta.rho

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return f"L({self.i},{self.j})"


def _j_range_ok(i: int, j: int) -> bool:
    if i > 0:
        return 0 <= j <= i - 1
    if i == 0:
        return j in (0, -1)
    return i <= j <= -1


def chain_new(i: int, j: int) -> Chain:
    """Construct L_{i,j}, computing its θ-range from (i, j).

    Admissible intercepts: 0 ≤ j ≤ i−1 for i > 0, i ≤ j ≤ −1 for i < 0,
    and j ∈ {0, −1} for the two horizontal chains ρ = 0 and ρ = 1.
    """
    if not _j_range_ok(i, j):
        raise ParameterError(f"j = {j} is not admissible for i = {i}")
    if i == 0:
        return Chain(0, j, Fraction(0), Fraction(1))
    if i > 0:
        lo = Fraction(j, i)
    else:
        lo = Fraction(j + 1, i)
    return Chain(i, j, lo, lo + Fraction(1, abs(i)))


@dataclass(frozen=True)
class FareyPoint:
    theta: Rational
    boundary_word: Word
    critical_word: Word


@dataclass(frozen=True)
class CurveSegment:
    theta_lo: Rational
    theta_hi: Rational
    word: Word


@dataclass(frozen=True)
class ChainDecomposition:
    chain: Chain
    farey_points: tuple[FareyPoint, ...]
    curves: tuple[CurveSegment, ...]


def _flip(word: str, residue: int, q: int, include_zero: bool) -> str:
    """Flip b→a at positions k ≡ residue (mod q) of `word`.

    Each position along a chain flips exactly once, so hitting anything
    but 'b' means the recursion went wrong.
    """
    symbols = list(word)
    start = residue % q
    if start == 0 and not include_zero:
        start = q
    for k in range(start, len(symbols), q):
        if symbols[k] != "b":
            raise ConsistencyError(
                f"position {k} flipped twice while decomposing (word {word!r})"
            )
        symbols[k] = "a"
    return "".join(symbols)


def _positive_words(n: int, fractions: list[Rational]) -> tuple[list[str], list[str]]:
    """Boundary and curve words of a positive chain of order n, swept
    left to right across its Farey fractions."""
    boundary = ["b" * n]
    curves = []
    word = boundary[0]
    for idx, frac in enumerate(fractions[:-1]):
        q = frac.denominator
        if idx == 0:
            # leaving θ⁻: the k ≡ 0 class flips including k = 0
            word = _flip(word, 0, q, include_zero=True)
        else:
            # leaving an interior fraction to the right: k ≡ n (mod q);
            # n is never divisible by an interior denominator
            word = _flip(word, n, q, include_zero=True)
        curves.append(word)
        # arriving at the next fraction from the left: k ≡ 0, k ≥ 1
        word = _flip(word, 0, fractions[idx + 1].denominator, include_zero=False)
        boundary.append(word)
    return boundary, curves


_SWAP = str.maketrans("ab", "ba")


def decompose(chain: Chain) -> ChainDecomposition:
    """Split a chain into Farey points and critical curves with words.

    The horizontal chains are a single curve with the empty word and no
    Farey points.  A negative chain is the vertical mirror (ρ ↦ 1−ρ) of
    the positive chain L_{−i, −j−1} over the same θ-range, which swaps
    the two partition letters; its words are the letter-swapped words of
    that partner.  The critical word at a Farey point codes the signed
    witness of the chain's own sign there, except on the rows ρ ∈ {0, 1}
    where the centre is empty and the critical word is ε.
    """
    if chain.i == 0:
        return ChainDecomposition(
            chain, (), (CurveSegment(Fraction(0), Fraction(1), ""),)
        )
    n = chain.order
    fractions = farey_sequence(n, chain.theta_minus, chain.theta_plus)
    if chain.i > 0:
        boundary, curves = _positive_words(n, fractions)
    else:
        partner = chain_new(-chain.i, -chain.j - 1)
        if (partner.theta_minus, partner.theta_plus) != (
            chain.theta_minus,
            chain.theta_plus,
        ):
            raise ConsistencyError("mirror partner spans a different θ-range")
        pos_boundary, pos_curves = _positive_words(n, fractions)
        boundary = [w.translate(_SWAP) for w in pos_boundary]
        curves = [w.translate(_SWAP) for w in pos_curves]

    points = []
    for frac, bword in zip(fractions, boundary):
        rho = chain.rho_at(frac)
        if rho == 0 or rho == 1:
            critical = ""
        else:
            critical, _, _ = brute_force_critical_word(
                CriticalPoint(frac, rho), chain.sign
            )
        points.append(FareyPoint(frac, bword, critical))
    segments = tuple(
        CurveSegment(fractions[k], fractions[k + 1], curves[k])
        for k in range(len(curves))
    )
    return ChainDecomposition(chain, tuple(points), segments)


def curve_count(chain: Chain) -> int:
    """Number of critical curves: |F_{|i|} ∩ [θ⁻, θ⁺]| − 1 (1 when i = 0)."""
    if chain.i == 0:
        return 1
    return sum(1 for _ in _farey_pairs(chain.order, chain.theta_minus, chain.theta_plus)) - 1


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
