"""Chains L_{i,j} and their decomposition into critical curves.

A chain is the segment ρ = iθ − j inside the unit square.  The Farey
fractions of order |i| inside its θ-range split it into critical curves
(open arcs on which the symbolic word is constant) separated by Farey
points.  Words along a positive chain follow a flip recursion: starting
from b^n at θ⁻, each Farey fraction p/q flips a fixed congruence class
of letter positions from b to a, and by the time θ⁺ is reached every
position has flipped exactly once, ending at a^n.

One private sweep runs that recursion for every consumer.  It walks the
Farey fractions as integer pairs (p, q) and holds the word in a
`bytearray`, so each congruence class flips with one slice assignment,
word[start::q] = a…a; a position that would flip twice raises
`ConsistencyError`.  `decompose` builds `Fraction`s only for its public
fields.  Its critical words obey a prefix law: at an interior Farey
point a/b the critical word is the first (|i| − 1) mod b + 1 letters of
the boundary word, so no orbit is coded per point.  Each point checks
the witness congruence in integers, and only the chain's first interior
point codes its critical word directly, as a check.  The CSV rows of
`render.segment_rows` come straight from the pairs and the curve words.
`oracles` holds the brute-force checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, ParameterError
from .exact import Rational, _farey_pairs
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
        return Chain(i, j, Fraction(j, i), Fraction(j + 1, i))
    return Chain(i, j, Fraction(j + 1, i), Fraction(j, i))


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


_SWAP = bytes.maketrans(b"ab", b"ba")


def _sweep(chain: Chain, boundaries: bool) -> Iterator[tuple[int, int, str | None, str | None]]:
    """Walk a chain of order n ≥ 1 across its Farey fractions a/b, left
    to right, as integer pairs.

    Yields (a, b, curve, boundary) at each Farey point: `curve` is the
    word of the curve that ends there (None at θ⁻) and `boundary` the
    word at the point itself (None unless `boundaries` is set).  Leaving
    a/b flips k ≡ n (mod b), which at θ⁻ is k ≡ 0 including k = 0;
    arriving at a/b flips k ≡ 0 (mod b) for k ≥ 1.  A negative chain's
    words are those of its mirror partner L_{−i, −j−1}, which spans the
    same θ-range (`verify`'s decomposition-oracle check holds it to
    that), with a and b swapped.
    """
    n = chain.order
    swap = _SWAP if chain.i < 0 else None
    word = bytearray(b"b") * n

    def flip(start: int, q: int) -> None:
        if b"a" in word[start::q]:
            k = start + q * word[start::q].index(b"a")
            raise ConsistencyError(
                f"position {k} flipped twice while decomposing {chain} "
                f"(word {word.decode()!r})"
            )
        word[start::q] = b"a" * len(range(start, n, q))

    prev = 0
    for a, b in _farey_pairs(n, chain.theta_minus, chain.theta_plus):
        curve = None
        if prev:
            flip(n % prev, prev)
            curve = word.translate(swap).decode()
            flip(b, b)
        yield a, b, curve, word.translate(swap).decode() if boundaries else None
        prev = b


def decompose(chain: Chain) -> ChainDecomposition:
    """Split a chain into Farey points and critical curves with words.

    The horizontal chains are a single curve with the empty word and no
    Farey points.  A negative chain is the vertical mirror (ρ ↦ 1−ρ) of
    the positive chain L_{−i, −j−1} over the same θ-range, which swaps
    the two partition letters; its words are the letter-swapped words of
    that partner.  The critical word at a Farey point codes the signed
    witness i′ of the chain's own sign there, except on the rows
    ρ ∈ {0, 1} where the centre is empty and the critical word is ε.

    Prefix law: at an interior Farey point a/b the critical word is the
    first |i′| = (|i| − 1) mod b + 1 letters of the boundary word, since
    both code the same orbit from the same start (0 on a positive chain,
    ρ on a negative one) and i′ ≡ i (mod b).  Each point checks the
    congruence i′·a ≡ i·a − j·b (mod b); the chain's first interior point
    also codes its critical word directly and compares.  Either check
    failing raises `ConsistencyError`.
    """
    if chain.i == 0:
        return ChainDecomposition(
            chain, (), (CurveSegment(Fraction(0), Fraction(1), ""),)
        )
    i, j, sign, n = chain.i, chain.j, chain.sign, chain.order
    checked = False
    points: list[FareyPoint] = []
    segments: list[CurveSegment] = []
    for a, b, curve, boundary in _sweep(chain, boundaries=True):
        theta = Fraction(a, b)
        num = i * a - j * b          # ρ = num/b
        critical = ""
        if 0 < num < b:
            size = (n - 1) % b + 1   # |i′|
            if (sign * size * a - num) % b:
                raise ConsistencyError(
                    f"witness size {size} fails the congruence at "
                    f"({theta}, {num}/{b}) on {chain}"
                )
            critical = boundary[:size]
            if not checked:
                # One direct coding per chain.  It also keeps the span
                # chains.decompose → orbit.brute_force_critical_word that
                # perfbench/test_perfbench.py pins, until a revision of
                # the benchmark releases that pin.
                direct, _, _ = brute_force_critical_word(
                    CriticalPoint(theta, Fraction(num, b)), sign
                )
                if direct != critical:
                    raise ConsistencyError(
                        f"critical word {critical!r} at ({theta}, {num}/{b}) on "
                        f"{chain} is not the direct coding {direct!r}"
                    )
                checked = True
        if curve is not None:
            segments.append(CurveSegment(points[-1].theta, theta, curve))
        points.append(FareyPoint(theta, boundary, critical))
    return ChainDecomposition(chain, tuple(points), tuple(segments))


def curve_count(chain: Chain) -> int:
    """Number of critical curves: |F_{|i|} ∩ [θ⁻, θ⁺]| − 1 (1 when i = 0)."""
    if chain.i == 0:
        return 1
    return sum(1 for _ in _farey_pairs(chain.order, chain.theta_minus, chain.theta_plus)) - 1
