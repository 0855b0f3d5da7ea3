from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from critcurves import (
    DomainError,
    ParameterError,
    approach_sequence,
    available_quadrants,
    chain_new,
    code_orbit,
    critical_point,
    dominant_params,
    dominant_words,
    farey_neighbours,
    neighbours,
    pencil_descriptor,
    pencil_word,
    point_context,
)
from critcurves import orbit, points
from critcurves.verify import all_chain_params

CORNERS = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def interior_points(max_q=12):
    @st.composite
    def build(draw):
        q = draw(st.integers(min_value=2, max_value=max_q))
        p = draw(st.integers(min_value=1, max_value=q - 1))
        theta = F(p, q)
        q = theta.denominator
        k = draw(st.integers(min_value=1, max_value=q - 1))
        return critical_point(theta, F(k, q))

    return build()


# ---------------------------------------------------------------------------
# point context


def test_point_context_examples():
    ctx = point_context(critical_point(F(3, 5), F(2, 5)))
    assert (ctx.p, ctx.q, ctx.r, ctx.s, ctx.u) == (3, 5, 2, 5, 1)
    assert (ctx.q_prime, ctx.p_prime) == (-3, -2)
    assert (ctx.tau, ctx.tau_minus, ctx.tau_plus) == (F(-6, 5), F(-3, 5), F(-9, 5))
    assert (ctx.t_plus, ctx.t_minus) == (2, 1)

    ctx = point_context(critical_point(F(3, 7), F(2, 7)))
    assert (ctx.q_prime, ctx.p_prime) == (5, 2)
    assert (ctx.tau, ctx.tau_minus, ctx.tau_plus) == (F(10, 7), F(5, 7), F(15, 7))
    assert (ctx.t_plus, ctx.t_minus) == (-1, -2)

    ctx = point_context(critical_point(F(1, 2), F(1, 2)))
    assert (ctx.q_prime, ctx.p_prime) == (-1, -1)
    assert ctx.tau == F(-1, 2)
    assert (ctx.t_plus, ctx.t_minus) == (1, 0)


def test_point_context_rejects_rows():
    for rho in (F(0), F(1)):
        with pytest.raises(DomainError):
            point_context(critical_point(F(2, 5), rho))


@settings(max_examples=80)
@given(interior_points())
def test_point_context_unimodular(zeta):
    ctx = point_context(zeta)
    assert ctx.p * ctx.q_prime - ctx.q * ctx.p_prime == 1
    assert 0 < abs(ctx.q_prime) <= ctx.q
    assert ctx.tau == ctx.q_prime * zeta.rho
    assert ctx.t_plus == ctx.t_minus + 1


def test_neighbours():
    up, down = neighbours(critical_point(F(3, 5), F(2, 5)))
    assert (up.theta, up.rho) == (F(3, 5), F(3, 5))
    assert (down.theta, down.rho) == (F(3, 5), F(1, 5))
    up, down = neighbours(critical_point(F(2, 5), F(0)))
    assert (up.rho, down) == (F(1, 5), None)
    up, down = neighbours(critical_point(F(2, 5), F(1)))
    assert (up, down.rho) == (None, F(4, 5))
    up, down = neighbours(critical_point(F(0), F(0)))
    assert (up.rho, down) == (F(1), None)


@settings(max_examples=60)
@given(interior_points())
def test_interior_points_have_both_neighbours(zeta):
    up, down = neighbours(zeta)
    assert up is not None and down is not None


# ---------------------------------------------------------------------------
# chains through a point


def test_all_chain_params_example():
    zeta = critical_point(F(3, 5), F(2, 5))
    assert all_chain_params(zeta, 2) == (4, 2)
    assert all_chain_params(zeta, 1) == (-1, -1)
    assert all_chain_params(zeta, 0) == (-6, -4)


@settings(max_examples=60)
@given(interior_points(), st.integers(min_value=-5, max_value=5))
def test_all_chain_params_pass_through_point(zeta, t):
    i, j = all_chain_params(zeta, t)
    assert i * zeta.theta - j == zeta.rho


def test_dominant_params_interior():
    assert dominant_params(critical_point(F(3, 5), F(2, 5))) == ((4, 2), (-1, -1))
    assert dominant_params(critical_point(F(1, 2), F(1, 2))) == ((1, 0), (-1, -1))
    assert dominant_params(critical_point(F(3, 7), F(2, 7))) == ((3, 1), (-4, -2))


def test_dominant_params_rows_and_corners():
    assert dominant_params(critical_point(F(2, 5), F(0))) == ((0, 0), (-5, -2))
    assert dominant_params(critical_point(F(2, 5), F(1))) == ((5, 1), (0, -1))
    assert dominant_params(critical_point(F(0), F(0))) == ((0, 0), None)
    assert dominant_params(critical_point(F(1), F(0))) == ((0, 0), (-1, -1))
    assert dominant_params(critical_point(F(0), F(1))) == (None, (0, -1))
    assert dominant_params(critical_point(F(1), F(1))) == ((1, 0), (0, -1))


@settings(max_examples=60)
@given(interior_points())
def test_dominant_params_are_dominant_slots(zeta):
    ctx = point_context(zeta)
    plus, minus = dominant_params(zeta)
    assert plus == all_chain_params(zeta, ctx.t_plus)
    assert minus == all_chain_params(zeta, ctx.t_minus)
    assert 0 < plus[0] <= ctx.q and -ctx.q <= minus[0] < 0
    # chains with smaller |i| of the same sign miss the point entirely
    for i, j in (plus, minus):
        for smaller in range(1, abs(i)):
            assert (smaller * (1 if i > 0 else -1) * zeta.theta - zeta.rho
                    ).denominator > 1


# ---------------------------------------------------------------------------
# pencils


def test_available_quadrants():
    assert available_quadrants(critical_point(F(3, 5), F(2, 5))) == (
        "I", "II", "III", "IV",
    )
    assert available_quadrants(critical_point(F(2, 5), F(0))) == ("I", "II")
    assert available_quadrants(critical_point(F(2, 5), F(1))) == ("III", "IV")
    corner_map = {
        (F(0), F(0)): ("I",),
        (F(1), F(0)): ("II",),
        (F(0), F(1)): ("IV",),
        (F(1), F(1)): ("III",),
    }
    for (theta, rho), expected in corner_map.items():
        assert available_quadrants(critical_point(theta, rho)) == expected


def test_pencil_argument_validation():
    zeta = critical_point(F(3, 5), F(2, 5))
    with pytest.raises(ParameterError):
        pencil_descriptor(zeta, "V", 1)
    with pytest.raises(ParameterError):
        pencil_descriptor(zeta, "I", -1)
    with pytest.raises(DomainError):
        pencil_descriptor(critical_point(F(2, 5), F(0)), "III", 1)
    with pytest.raises(DomainError):
        pencil_word(critical_point(F(0), F(0)), "II", 1)


def test_pencil_params_level_zero_is_dominant():
    for theta, rho in [(F(3, 5), F(2, 5)), (F(2, 5), F(0)), (F(2, 5), F(1))] + CORNERS:
        zeta = critical_point(theta, rho)
        plus, minus = dominant_params(zeta)
        for sigma in available_quadrants(zeta):
            expected = plus if sigma in ("I", "III") else minus
            assert pencil_descriptor(zeta, sigma, 0).chain_params == expected


def test_pencil_params_interior_example():
    zeta = critical_point(F(3, 5), F(2, 5))
    assert pencil_descriptor(zeta, "I", 1).chain_params == (9, 5)
    assert pencil_descriptor(zeta, "III", 1).chain_params == (9, 5)
    assert pencil_descriptor(zeta, "II", 1).chain_params == (-6, -4)
    assert pencil_descriptor(zeta, "IV", 1).chain_params == (-6, -4)
    assert pencil_descriptor(zeta, "I", 2).chain_params == (14, 8)


def test_pencil_endpoints_interior():
    zeta = critical_point(F(3, 5), F(2, 5))
    expected = {
        "I": (F(5, 8), F(5, 8)),
        "II": (F(1, 2), F(1)),
        "III": (F(4, 7), F(1, 7)),
        "IV": (F(2, 3), F(0)),
    }
    for sigma, (theta, rho) in expected.items():
        end = pencil_descriptor(zeta, sigma, 1).endpoint
        assert (end.theta, end.rho) == (theta, rho)

    zeta = critical_point(F(1, 2), F(1, 2))
    expected = {
        "I": (F(2, 3), F(1)),
        "II": (F(1, 3), F(1)),
        "III": (F(1, 3), F(0)),
        "IV": (F(2, 3), F(0)),
    }
    for sigma, (theta, rho) in expected.items():
        end = pencil_descriptor(zeta, sigma, 1).endpoint
        assert (end.theta, end.rho) == (theta, rho)


def test_pencil_endpoints_rows_and_corners():
    cases = [
        (F(2, 5), F(0), "I", 1, (F(1, 2), F(1, 2))),
        (F(2, 5), F(0), "II", 1, (F(3, 8), F(1, 4))),
        (F(1, 2), F(0), "I", 1, (F(1), F(1))),
        (F(2, 5), F(1), "III", 1, (F(3, 8), F(3, 4))),
        (F(2, 5), F(1), "IV", 1, (F(1, 2), F(1, 2))),
        (F(1, 2), F(1), "III", 1, (F(1, 3), F(1, 3))),
        (F(1, 2), F(1), "IV", 1, (F(1), F(0))),
        (F(0), F(0), "I", 1, (F(1), F(1))),
        (F(0), F(0), "I", 3, (F(1, 3), F(1))),
        (F(1), F(0), "II", 1, (F(1, 2), F(1))),
        (F(0), F(1), "IV", 1, (F(1), F(0))),
        (F(1), F(1), "III", 1, (F(1, 2), F(0))),
        (F(1), F(1), "III", 4, (F(4, 5), F(0))),
    ]
    for theta, rho, sigma, ell, (end_theta, end_rho) in cases:
        end = pencil_descriptor(critical_point(theta, rho), sigma, ell).endpoint
        assert (end.theta, end.rho) == (end_theta, end_rho), (theta, rho, sigma, ell)


@settings(max_examples=60)
@given(interior_points(max_q=10), st.sampled_from(["I", "II", "III", "IV"]),
       st.integers(min_value=1, max_value=4))
def test_pencil_endpoint_laws(zeta, sigma, ell):
    desc = pencil_descriptor(zeta, sigma, ell)
    (i, j), end = desc.chain_params, desc.endpoint
    # the endpoint lies on the pencil chain, strictly past its level-0 word
    assert i * end.theta - j == end.rho
    assert end.theta != zeta.theta
    # its θ is the order-|i| Farey neighbour on the pencil's side
    left, right = farey_neighbours(zeta.theta, abs(i))
    assert end.theta == (right if sigma in ("I", "IV") else left)


def test_pencil_descriptor_bundles():
    zeta = critical_point(F(3, 5), F(2, 5))
    d = pencil_descriptor(zeta, "I", 0)
    assert (d.sigma, d.ell, d.chain_params, d.endpoint) == ("I", 0, (4, 2), None)
    d = pencil_descriptor(zeta, "II", 1)
    assert d.chain_params == (-6, -4)
    assert (d.endpoint.theta, d.endpoint.rho) == (F(1, 2), F(1))


# ---------------------------------------------------------------------------
# words


def test_dominant_words():
    assert dominant_words(critical_point(F(3, 5), F(2, 5))) == ("abab", "b")
    assert dominant_words(critical_point(F(1, 2), F(1, 2))) == ("a", "b")
    assert dominant_words(critical_point(F(2, 5), F(0))) == ("", "bbbbb")
    assert dominant_words(critical_point(F(2, 5), F(1))) == ("aaaaa", "")
    assert dominant_words(critical_point(F(0), F(0))) == ("", "b")
    assert dominant_words(critical_point(F(1), F(1))) == ("a", "")


@settings(max_examples=60)
@given(interior_points())
def test_dominant_word_concatenations(zeta):
    u_plus, u_minus = dominant_words(zeta)
    q = zeta.theta.denominator
    assert len(u_plus) + len(u_minus) == q
    assert u_plus + u_minus == code_orbit(zeta.theta, zeta.rho, F(0), q)
    assert u_minus + u_plus == code_orbit(zeta.theta, zeta.rho, zeta.rho, q)


def test_pencil_words_interior_example():
    zeta = critical_point(F(3, 5), F(2, 5))
    assert pencil_word(zeta, "I", 0) == "abab"
    assert pencil_word(zeta, "II", 0) == "b"
    assert pencil_word(zeta, "I", 1) == "ababaabab"
    assert pencil_word(zeta, "II", 1) == "bababa"
    assert pencil_word(zeta, "III", 1) == "ababbbbab"
    assert pencil_word(zeta, "IV", 1) == "bbbabb"


def test_pencil_words_rows_and_corners():
    assert pencil_word(critical_point(F(2, 5), F(0)), "I", 1) == "abbbb"
    assert pencil_word(critical_point(F(2, 5), F(0)), "II", 1) == "bbbbbabbbb"
    assert pencil_word(critical_point(F(2, 5), F(1)), "III", 1) == "aaaaabaaaa"
    assert pencil_word(critical_point(F(2, 5), F(1)), "IV", 1) == "baaaa"
    assert pencil_word(critical_point(F(0), F(0)), "I", 1) == "a"
    assert pencil_word(critical_point(F(1), F(0)), "II", 1) == "ba"
    assert pencil_word(critical_point(F(0), F(1)), "IV", 1) == "b"
    assert pencil_word(critical_point(F(1), F(1)), "III", 1) == "ab"


@settings(max_examples=40)
@given(interior_points(max_q=10), st.sampled_from(["I", "II", "III", "IV"]),
       st.integers(min_value=0, max_value=3))
def test_pencil_word_matches_coding_oracle(zeta, sigma, ell):
    word = pencil_word(zeta, sigma, ell)
    desc = pencil_descriptor(zeta, sigma, ell)
    i, j = desc.chain_params
    assert len(word) == abs(i)
    if ell == 0:
        sample = zeta.theta
    else:
        end = desc.endpoint
        a, b = sorted([zeta.theta, end.theta])
        sample = F(a.numerator + b.numerator, a.denominator + b.denominator)
    rho = i * sample - j
    start = F(0) if sigma in ("I", "III") else rho
    assert word == code_orbit(sample, rho, start, abs(i))


# ---------------------------------------------------------------------------
# approach sequences


def test_approach_sequence_golden_ratio_like_target():
    steps = approach_sequence((0, 1, 1, 1, 1, 1, 1, 1, 1), 2, 6)
    assert [(s.k, s.theta, s.rho) for s in steps] == [
        (1, F(1), F(1)),
        (2, F(1, 2), F(0)),
        (3, F(2, 3), F(1, 3)),
        (4, F(3, 5), F(1, 5)),
        (5, F(5, 8), F(1, 4)),
        (6, F(8, 13), F(3, 13)),
    ]
    assert [s.valid for s in steps] == [True] * 6
    assert [s.dominant for s in steps] == [False, False, True, True, True, True]


def test_approach_sequence_invalid_steps():
    steps = approach_sequence((0, 1, 1, 1, 1, 1, 1, 1, 1), 3, 3)
    assert steps[0].rho == F(2) and not steps[0].valid and not steps[0].dominant
    assert steps[1].valid


def test_approach_sequence_validation():
    with pytest.raises(ParameterError):
        approach_sequence((0, 1, 1, 1), 1, 0)
    with pytest.raises(ParameterError):
        approach_sequence((0, 1, 1), 1, 2)
    with pytest.raises(ParameterError):
        approach_sequence((1, 1, 1, 1, 1), 1, 2)
    with pytest.raises(ParameterError):
        approach_sequence((0, 1, 0, 1, 1), 1, 2)


def _critical_points(max_q):
    for q in range(1, max_q + 1):
        for p in range(q + 1):
            theta = F(p, q)
            if theta.denominator == q:
                for k in range(q + 1):
                    yield theta, F(k, q)


def test_closed_form_runs_once_per_constructed_point(monkeypatch):
    """ζ validates itself once; signed witnesses, dominant chains,
    quadrants and pencil chains reuse the witness it carries, and each
    pencil endpoint costs one check, made when it is constructed."""
    calls = []
    real = orbit._closed_form_witness

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbit, "_closed_form_witness", counting)
    critical_point(F(3, 5), F(2, 5))
    assert len(calls) == 1
    for theta, rho in _critical_points(7):
        zeta = critical_point(theta, rho)
        calls.clear()
        for sign in (1, -1):
            orbit.signed_witness(zeta, sign)
        dominant_params(zeta)
        for sigma in available_quadrants(zeta):
            pencil_descriptor(zeta, sigma, 0)
        assert calls == [], (theta, rho)
        sides = [side for side in neighbours(zeta) if side is not None]
        assert len(calls) == sum(0 < side.rho < 1 for side in sides)
        calls.clear()
        for sigma in available_quadrants(zeta):
            for ell in range(1, 4):
                end = pencil_descriptor(zeta, sigma, ell).endpoint
                assert len(calls) == (0 < end.rho < 1), (theta, rho, sigma, ell)
                calls.clear()


def test_pencil_descriptor_checks_its_arguments_once(monkeypatch):
    calls = []
    real = points._check_pencil_args

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(points, "_check_pencil_args", counting)
    zeta = critical_point(F(3, 5), F(2, 5))
    desc = pencil_descriptor(zeta, "I", 2)
    assert len(calls) == 1
    assert (desc.endpoint.theta, desc.endpoint.rho) == (F(8, 13), F(8, 13))
