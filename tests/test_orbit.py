import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from critcurves import (
    ConsistencyError,
    CriticalityError,
    CriticalPoint,
    ParameterError,
    brute_force_critical_word,
    code_orbit,
    critical_point,
    dominant_params,
    farey_sequence,
    format_word,
    is_critical,
    orbit,
    parse_word,
    scan_witness,
    signed_witness,
    switch_first,
    word_sign,
)


@st.composite
def critical_pairs(draw):
    """(θ, ρ) with θ = p/q reduced and ρ a multiple of 1/q."""
    q = draw(st.integers(min_value=1, max_value=24))
    p = draw(st.integers(min_value=0, max_value=q))
    theta = Fraction(p, q)
    den = theta.denominator
    num = draw(st.integers(min_value=0, max_value=den))
    return theta, Fraction(num, den)


def test_word_sign():
    assert word_sign("abb") == 1
    assert word_sign("ba") == -1
    assert word_sign("") == 0


def test_switch_first():
    assert switch_first("abb") == "bbb"
    assert switch_first("b") == "a"
    with pytest.raises(ParameterError):
        switch_first("")


def test_format_word_power_notation():
    assert format_word("abbbabb") == "ab^3ab^2"
    assert format_word("aaaaaaa") == "a^7"
    assert format_word("ab") == "ab"
    assert format_word("") == "ε"


@pytest.mark.parametrize("text,word", [("ab^3ab^2", "abbbabb"), ("ε", ""), ("", ""), ("abb", "abb")])
def test_parse_word(text, word):
    assert parse_word(text) == word


def test_parse_word_rejects_garbage():
    with pytest.raises(ParameterError):
        parse_word("abc")
    with pytest.raises(ParameterError):
        parse_word("a^")


@given(st.text(alphabet="ab", max_size=40))
def test_word_format_round_trip(word):
    assert parse_word(format_word(word)) == word


def test_code_orbit_examples():
    assert code_orbit(Fraction(3, 5), Fraction(2, 5), Fraction(0), 5) == "ababb"
    assert code_orbit(Fraction(3, 4), Fraction(1, 4), Fraction(0), 7) == "abbbabb"
    # ρ = 0 puts the whole circle in the b-interval, ρ = 1 in the a-interval
    assert code_orbit(Fraction(2, 7), Fraction(0), Fraction(0), 4) == "bbbb"
    assert code_orbit(Fraction(2, 7), Fraction(1), Fraction(0), 4) == "aaaa"
    # the starting point 1 is the same circle point as 0
    assert code_orbit(Fraction(3, 5), Fraction(2, 5), Fraction(1), 5) == "ababb"


def test_code_orbit_validates():
    with pytest.raises(ParameterError):
        code_orbit(Fraction(6, 5), Fraction(1, 2), Fraction(0), 3)
    with pytest.raises(ParameterError):
        code_orbit(Fraction(1, 2), Fraction(1, 2), Fraction(0), -1)


@given(critical_pairs())
def test_code_orbit_is_q_periodic(pair):
    theta, rho = pair
    q = theta.denominator
    w = code_orbit(theta, rho, Fraction(0), q)
    assert code_orbit(theta, rho, Fraction(0), 2 * q) == w + w


def test_is_critical():
    ok, witness = is_critical(Fraction(3, 4), Fraction(1, 4))
    assert ok and witness == (3, 2)
    assert is_critical(Fraction(3, 4), Fraction(1, 3))[0] is False
    assert is_critical(Fraction(2, 5), Fraction(0))[0] is True
    assert is_critical(Fraction(2, 5), Fraction(1))[0] is True


def test_critical_point_factory_validates():
    with pytest.raises(CriticalityError):
        critical_point(Fraction(3, 4), Fraction(1, 3))
    zeta = critical_point(Fraction(3, 4), Fraction(1, 4))
    assert (zeta.theta, zeta.rho) == (Fraction(3, 4), Fraction(1, 4))


def test_brute_force_critical_word_interior():
    z = critical_point(Fraction(3, 4), Fraction(1, 4))
    assert brute_force_critical_word(z, 1) == ("abb", 3, 2)
    z = critical_point(Fraction(3, 5), Fraction(2, 5))
    assert brute_force_critical_word(z, 1) == ("abab", 4, 2)
    assert brute_force_critical_word(z, -1) == ("b", -1, -1)


def test_brute_force_critical_word_boundary_rows():
    # the four boundary conventions: empty words sit where the connecting
    # segment degenerates, the non-empty ones are full-period powers
    z0 = critical_point(Fraction(3, 5), Fraction(0))
    assert brute_force_critical_word(z0, 1) == ("", 0, 0)
    assert brute_force_critical_word(z0, -1) == ("bbbbb", -5, -3)
    z1 = critical_point(Fraction(3, 5), Fraction(1))
    assert brute_force_critical_word(z1, 1) == ("aaaaa", 5, 2)
    assert brute_force_critical_word(z1, -1) == ("", 0, -1)


def test_brute_force_critical_word_rejects_bad_sign():
    z = critical_point(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ParameterError):
        brute_force_critical_word(z, 0)
    with pytest.raises(ParameterError):
        brute_force_critical_word(z, 2)


@given(critical_pairs(), st.sampled_from([1, -1]))
def test_brute_force_word_is_minimal_and_coded(pair, sign):
    theta, rho = pair
    zeta = critical_point(theta, rho)
    word, i, j = brute_force_critical_word(zeta, sign)
    assert i * theta - j == rho
    assert len(word) == abs(i)
    assert word_sign(word) in (0, sign)
    if word:
        start = Fraction(0) if sign > 0 else rho
        assert word == code_orbit(theta, rho, start, abs(i))
    for smaller in range(1, abs(i)):
        assert (sign * smaller * theta - rho).denominator != 1


def test_scan_witness_examples():
    assert scan_witness(Fraction(3, 4), Fraction(1, 4), 1) == (3, 2)
    assert scan_witness(Fraction(3, 5), Fraction(2, 5), 1) == (4, 2)
    assert scan_witness(Fraction(3, 5), Fraction(2, 5), -1) == (-1, -1)
    # the rows: no trivial solution, the first return of 0 instead
    assert scan_witness(Fraction(3, 5), Fraction(0), 1) == (5, 3)
    assert scan_witness(Fraction(3, 5), Fraction(1), -1) == (-5, -4)
    assert scan_witness(Fraction(3, 4), Fraction(1, 3), 1) is None
    assert scan_witness(Fraction(0), Fraction(1, 2), -1) is None


def test_scan_witness_validates():
    with pytest.raises(ParameterError):
        scan_witness(Fraction(1, 2), Fraction(1, 2), 0)
    with pytest.raises(ParameterError):
        scan_witness(Fraction(3, 2), Fraction(1, 2), 1)


def test_signed_witness_validates():
    zeta = critical_point(Fraction(3, 5), Fraction(2, 5))
    for sign in (0, 2):
        with pytest.raises(ParameterError):
            signed_witness(zeta, sign)
    with pytest.raises(ParameterError):
        signed_witness(CriticalPoint(Fraction(3, 2), Fraction(1, 2)), 1)
    with pytest.raises(CriticalityError):
        signed_witness(CriticalPoint(Fraction(3, 4), Fraction(1, 3)), -1)


def test_critical_point_validates_on_construction():
    with pytest.raises(CriticalityError, match=r"^\(3/4, 1/3\) is not a critical point$"):
        CriticalPoint(Fraction(3, 4), Fraction(1, 3))
    with pytest.raises(ParameterError, match=r"^theta and rho must lie in \[0, 1\]$"):
        CriticalPoint(Fraction(3, 2), Fraction(1, 2))


def test_critical_point_witness_stays_out_of_equality_hash_and_repr():
    (spec,) = [f for f in dataclasses.fields(CriticalPoint) if f.name == "_witness"]
    assert not (spec.init or spec.repr or spec.compare)
    for theta, rho in [(Fraction(3, 5), Fraction(2, 5)), (Fraction(1, 2), Fraction(0)),
                       (Fraction(1, 3), Fraction(1))]:
        zeta = CriticalPoint(theta, rho)
        assert zeta._witness == is_critical(theta, rho)[1]
        twin = critical_point(theta, rho)
        object.__setattr__(twin, "_witness", (7, 7))
        assert zeta == twin and hash(zeta) == hash(twin)
        assert repr(zeta) == repr(twin) == f"CriticalPoint(theta={theta!r}, rho={rho!r})"


def test_closed_forms_match_orbit_scan():
    """Every (θ, ρ) with both denominators ≤ 40: `is_critical` against
    the scan, and at each critical point both `signed_witness` slots,
    the witnesses of `brute_force_critical_word` and the dominant chains
    against the scan of that sign or the trivial row slot."""
    members = farey_sequence(40, Fraction(0), Fraction(1))
    critical = 0
    for theta in members:
        for rho in members:
            ok, witness = is_critical(theta, rho)
            scanned = scan_witness(theta, rho, 1)
            if rho in (0, 1):
                assert ok and witness == (0, -int(rho)) and scanned is not None
            else:
                assert (ok, witness) == (scanned is not None, scanned), (theta, rho)
            if not ok:
                continue
            critical += 1
            zeta = critical_point(theta, rho)
            for sign, dominant in zip((1, -1), dominant_params(zeta)):
                witness = signed_witness(zeta, sign)
                if (rho, sign) in ((0, 1), (1, -1)):
                    assert witness == (0, -int(rho))
                else:
                    assert witness == scan_witness(theta, rho, sign), (theta, rho, sign)
                assert brute_force_critical_word(zeta, sign)[1:] == witness
                # the two left corners: the witness is no admissible chain
                if (theta, rho, sign) in ((0, 0, -1), (0, 1, 1)):
                    assert dominant is None
                else:
                    assert dominant == witness, (theta, rho, sign)
    assert (len(members) ** 2, critical) == (241_081, 13_603)


def test_closed_form_consistency_check_is_live(monkeypatch):
    # a wrong inverse gives a size whose j is fractional: that is a bug,
    # so it must surface as ConsistencyError, not as a wrong witness
    monkeypatch.setattr(orbit, "pow", lambda *args: 1, raising=False)
    with pytest.raises(ConsistencyError):
        is_critical(Fraction(3, 5), Fraction(2, 5))
