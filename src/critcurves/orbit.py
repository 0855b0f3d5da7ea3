"""Circle-rotation codings and the critical-point witnesses.

The unit circle is split at rho into I_a = [0, rho) and I_b = [rho, 1);
coding an orbit over {a, b} is the ground truth that every closed-form
result elsewhere in the package is tested against.  A point (theta, rho)
is *critical* when some iterate of one partition endpoint hits the
other, i.e. i*theta = j + rho has an integer solution (i, j).  The
shortest such orbit segment (the centre) codes to the critical word.

For theta = p/q and rho = r/s the witness has a closed form: the point
is critical iff s | q, and the minimal positive size is
(r*(q/s)*p^-1) mod q, or q when that residue is 0.  A `CriticalPoint`
validates itself with it once, on construction, and carries the
witness; `signed_witness` reads both signed slots off it and
`brute_force_critical_word` codes the centre of one.  The orbit-walking
oracle for the witnesses, `scan_witness`, lives in `oracles`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, CriticalityError, ParameterError
from .exact import Rational

# Words are plain strings over {a, b}; "" is the empty word.
Word = str

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point; constructing one runs `is_critical` once and
    keeps its witness, which equality, hashing and repr ignore.  Raises
    `ParameterError` unless θ and ρ are `int` or `Fraction` in the unit
    square, `CriticalityError` when the point is not critical."""

    theta: Rational
    rho: Rational
    _witness: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ok, witness = is_critical(self.theta, self.rho)
        if not ok:
            raise CriticalityError(f"({self.theta}, {self.rho}) is not a critical point")
        object.__setattr__(self, "_witness", witness)

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return f"({self.theta}, {self.rho})"


def critical_point(theta: Rational, rho: Rational) -> CriticalPoint:
    """The critical point (theta, rho); the type validates itself, so
    this raises exactly when `CriticalPoint(theta, rho)` does."""
    return CriticalPoint(theta, rho)


def switch_first(word: Word) -> Word:
    if not word:
        raise ParameterError("cannot switch the first letter of the empty word")
    head = "a" if word[0] == "b" else "b"
    return head + word[1:]


_RUN = re.compile(r"a{2,}|b{2,}")


def format_word(word: Word) -> str:
    """Compact power notation: 'abbbabb' -> 'ab^3ab^2', '' -> 'ε'."""
    if not word:
        return "ε"
    return _RUN.sub(lambda run: f"{run[0][0]}^{len(run[0])}", word)


def parse_word(text: str) -> Word:
    """Inverse of format_word; also accepts plain 'abb' strings.
    Exponents are ASCII digits, as in `parse_rational`."""
    text = text.strip()
    if text in ("", "ε"):
        return ""
    out = []
    idx = 0
    while idx < len(text):
        letter = text[idx]
        if letter not in "ab":
            raise ParameterError(f"invalid word symbol {letter!r}")
        idx += 1
        if idx < len(text) and text[idx] == "^":
            idx += 1
            start = idx
            while idx < len(text) and text[idx] in "0123456789":
                idx += 1
            if start == idx:
                raise ParameterError(f"missing exponent in {text!r}")
            out.append(letter * int(text[start:idx]))
        else:
            out.append(letter)
    return "".join(out)


def code_orbit(theta: Rational, rho: Rational, x0: Rational, length: int) -> Word:
    """Code `length` steps of the orbit of x0 under rotation by theta.

    Symbol t is 'a' when x_t < rho, else 'b'.  x0 = 1 is the same circle
    point as 0 and is normalized on input.  The loop runs over integers
    scaled by the common denominator, which keeps long codings cheap.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    for value, name in ((theta, "theta"), (rho, "rho"), (x0, "x0")):
        if not 0 <= value <= 1:
            raise ParameterError(f"{name} = {value} outside [0, 1]")
    if x0 == 1:
        x0 = Fraction(0)
    den = lcm(theta.denominator, rho.denominator, x0.denominator)
    step = theta.numerator * (den // theta.denominator)
    cut = rho.numerator * (den // rho.denominator)
    x = x0.numerator * (den // x0.denominator)
    symbols = []
    for _ in range(length):
        symbols.append("a" if x < cut else "b")
        x = (x + step) % den
    return "".join(symbols)


def _closed_form_witness(theta: Rational, rho: Rational) -> tuple[int, int] | None:
    """Minimal solution (i, j), i >= 1, of i*theta = j + rho from the
    modular inverse of p; None when s does not divide q."""
    p, q = theta.numerator, theta.denominator
    r, s = rho.numerator, rho.denominator
    if q % s:
        return None
    u = q // s
    size = (r * u * pow(p, -1, q)) % q if q > 1 else 0
    i = size or q
    j, rem = divmod(i * p - r * u, q)
    if rem:
        raise ConsistencyError(
            f"closed-form witness i = {i} at ({theta}, {rho}) leaves "
            f"j = ({i}*{p} - {r * u})/{q} fractional"
        )
    return i, j


def is_critical(theta: Rational, rho: Rational) -> tuple[bool, tuple[int, int] | None]:
    """Decide i*theta = j + rho and hand back the witness (i, j).

    rho = 0 and rho = 1 carry the trivial solutions (0, 0) and (0, -1);
    otherwise the witness is the minimal i >= 1, from the closed form.
    Raises `ParameterError` unless theta and rho are `int` or `Fraction`.
    """
    if not isinstance(theta, (int, Fraction)) or not isinstance(rho, (int, Fraction)):
        kinds = f"{type(theta).__name__} and {type(rho).__name__}"
        raise ParameterError(f"theta and rho must be int or Fraction, got {kinds}")
    if not 0 <= theta <= 1 or not 0 <= rho <= 1:
        raise ParameterError("theta and rho must lie in [0, 1]")
    if rho == 0:
        return True, (0, 0)
    if rho == 1:
        return True, (0, -1)
    witness = _closed_form_witness(theta, rho)
    return witness is not None, witness


def signed_witness(zeta: CriticalPoint, sign: int) -> tuple[int, int]:
    """Minimal-|i| solution (i, j) of i*theta = j + rho with the given
    sign, read off the witness zeta carries.

    That witness fills the + slot, except on rho = 1 where it is the
    trivial (0, -1) in the - slot; the other slot lies one period (q, p)
    away: (-q, -p) on rho = 0, (q, p - 1) on rho = 1, i+ - q inside.
    Every chain through zeta is this witness plus a multiple of (q, p).
    """
    if sign not in (1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign!r}")
    i, j = zeta._witness
    if (sign > 0) == (zeta.rho != 1):
        return i, j
    return i + sign * zeta.theta.denominator, j + sign * zeta.theta.numerator


def brute_force_critical_word(zeta: CriticalPoint, sign: int) -> tuple[Word, int, int]:
    """The signed witness (i, j) of zeta together with the coding of its
    centre: positive words code the orbit of 0, negative words the orbit
    of rho.  The trivial row slots of `signed_witness` code to ε; the
    opposite slots come out as b^q and a^q.
    """
    i, j = signed_witness(zeta, sign)
    start = _ZERO if sign > 0 else zeta.rho
    return code_orbit(zeta.theta, zeta.rho, start, abs(i)), i, j
