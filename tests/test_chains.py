import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from critcurves import (
    ConsistencyError,
    CriticalPoint,
    DomainError,
    ParameterError,
    brute_force_critical_word,
    chain_new,
    code_orbit,
    critical_point,
    curve_count,
    decompose,
    farey_sequence,
    segments_csv,
    switch_first,
)
from critcurves import chains
from critcurves.oracles import farey_point_tests, residue_cover


def small_chains():
    @st.composite
    def build(draw):
        i = draw(st.integers(min_value=-8, max_value=8))
        if i > 0:
            j = draw(st.integers(min_value=0, max_value=i - 1))
        elif i < 0:
            j = draw(st.integers(min_value=i, max_value=-1))
        else:
            j = draw(st.sampled_from([0, -1]))
        return chain_new(i, j)

    return build()


def test_chain_new_geometry():
    chain = chain_new(7, 5)
    assert (chain.theta_minus, chain.theta_plus) == (Fraction(5, 7), Fraction(6, 7))
    assert chain.order == 7 and chain.sign == 1
    assert chain.rho_at(Fraction(3, 4)) == Fraction(1, 4)

    mirror = chain_new(-7, -3)
    assert (mirror.theta_minus, mirror.theta_plus) == (Fraction(2, 7), Fraction(3, 7))
    assert mirror.rho_at(Fraction(2, 7)) == 1 and mirror.rho_at(Fraction(3, 7)) == 0

    flat = chain_new(0, -1)
    assert (flat.theta_minus, flat.theta_plus) == (0, 1)
    assert flat.rho_at(Fraction(1, 3)) == 1


@pytest.mark.parametrize("i,j", [(3, 3), (3, -1), (-3, 0), (-3, -4), (0, 1), (0, -2)])
def test_chain_new_rejects_out_of_range_j(i, j):
    with pytest.raises(ParameterError):
        chain_new(i, j)


def test_chain_contains():
    chain = chain_new(7, 5)
    assert chain.contains(critical_point(Fraction(3, 4), Fraction(1, 4)))
    assert not chain.contains(critical_point(Fraction(1, 2), Fraction(1, 2)))


# ---------------------------------------------------------------------------
# the decomposition golden rows


def test_decompose_golden_l75():
    dec = decompose(chain_new(7, 5))
    assert [fp.theta for fp in dec.farey_points] == [
        Fraction(5, 7),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(5, 6),
        Fraction(6, 7),
    ]
    assert [fp.boundary_word for fp in dec.farey_points] == [
        "bbbbbbb",
        "abbbabb",
        "abbaaab",
        "abaaaaa",
        "aaaaaaa",
    ]
    assert [fp.critical_word for fp in dec.farey_points] == ["", "abb", "ab", "a", ""]
    assert [(c.theta_lo, c.theta_hi, c.word) for c in dec.curves] == [
        (Fraction(5, 7), Fraction(3, 4), "abbbbbb"),
        (Fraction(3, 4), Fraction(4, 5), "abbaabb"),
        (Fraction(4, 5), Fraction(5, 6), "abaaaab"),
        (Fraction(5, 6), Fraction(6, 7), "aaaaaaa"),
    ]


def test_decompose_negative_chain():
    dec = decompose(chain_new(-7, -3))
    assert [fp.theta for fp in dec.farey_points] == [
        Fraction(2, 7),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(3, 7),
    ]
    assert [fp.boundary_word for fp in dec.farey_points] == [
        "aaaaaaa",
        "baabaab",
        "bbabbbb",
        "bbbbbbb",
    ]
    assert [c.word for c in dec.curves] == ["baaaaaa", "bbabbab", "bbbbbbb"]


def test_decompose_order_one_chains():
    dec = decompose(chain_new(-1, -1))
    assert [fp.theta for fp in dec.farey_points] == [0, 1]
    assert [fp.boundary_word for fp in dec.farey_points] == ["a", "b"]
    assert [fp.critical_word for fp in dec.farey_points] == ["", ""]
    assert [c.word for c in dec.curves] == ["b"]


def test_decompose_horizontal_chains():
    for j in (0, -1):
        dec = decompose(chain_new(0, j))
        assert dec.farey_points == ()
        assert len(dec.curves) == 1
        assert (dec.curves[0].theta_lo, dec.curves[0].theta_hi) == (0, 1)
        assert dec.curves[0].word == ""


@settings(max_examples=60)
@given(small_chains())
def test_decompose_words_match_direct_coding(chain):
    dec = decompose(chain)
    n = chain.order
    if n == 0:
        return
    start = (lambda rho: Fraction(0)) if chain.sign > 0 else (lambda rho: rho)
    for fp in dec.farey_points:
        rho = chain.rho_at(fp.theta)
        assert fp.boundary_word == code_orbit(fp.theta, rho, start(rho), n)
    for curve in dec.curves:
        mid = (curve.theta_lo + curve.theta_hi) / 2
        rho = chain.rho_at(mid)
        assert curve.word == code_orbit(mid, rho, start(rho), n)


@settings(max_examples=60)
@given(small_chains())
def test_single_flip_law(chain):
    if chain.order == 0:
        return
    dec = decompose(chain)
    words = []
    for fp, curve in zip(dec.farey_points, dec.curves):
        words += [fp.boundary_word, curve.word]
    words.append(dec.farey_points[-1].boundary_word)
    for pos in range(chain.order):
        assert sum(1 for wa, wb in zip(words, words[1:]) if wa[pos] != wb[pos]) == 1


def test_curve_count():
    assert curve_count(chain_new(7, 3)) == 2
    assert curve_count(chain_new(0, 0)) == 1
    for n in (2, 5, 9):
        assert curve_count(chain_new(n, 0)) == 1
        assert curve_count(chain_new(n, n - 1)) == 1
        assert curve_count(chain_new(-n, -n)) == 1
    for n in (3, 5, 7, 9):
        assert curve_count(chain_new(n, (n - 1) // 2)) == 2


def test_curve_count_lists_no_members():
    chain = chain_new(100000, 3)
    tracemalloc.start()
    try:
        count = curve_count(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 33333
    assert peak < 64 * 1024


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 50, 97, 100])
@pytest.mark.parametrize("sign", [1, -1])
def test_curve_counts_of_an_order_sum_to_the_farey_size(n, sign):
    # the windows [j/n, (j+1)/n] tile [0, 1], so the chains of one order
    # and sign carry |F_n| − 1 = φ(1) + … + φ(n) curves in all
    phi_sum = sum(math.gcd(p, q) == 1 for q in range(1, n + 1) for p in range(1, q + 1))
    js = range(n) if sign > 0 else range(-n, 0)
    assert sum(curve_count(chain_new(sign * n, j)) for j in js) == phi_sum


@given(small_chains())
def test_curve_count_matches_decomposition(chain):
    assert curve_count(chain) == len(decompose(chain).curves)


# ---------------------------------------------------------------------------
# residue cover


def test_residue_cover_l75_window():
    cover = residue_cover(7, 5)
    assert cover == {
        0: Fraction(5, 7),
        3: Fraction(3, 4),
        4: Fraction(3, 4),
        2: Fraction(4, 5),
        5: Fraction(4, 5),
        1: Fraction(5, 6),
        6: Fraction(5, 6),
    }


def test_residue_cover_validates():
    with pytest.raises(ParameterError):
        residue_cover(5, 5)
    with pytest.raises(ParameterError):
        residue_cover(0, 0)


@given(st.integers(min_value=1, max_value=40))
def test_residue_cover_complete(n):
    for m in range(n):
        cover = residue_cover(n, m)
        assert set(cover) == set(range(n))
        assert cover[0] == Fraction(m, n)
        for residue, frac in cover.items():
            assert Fraction(m, n) <= frac <= Fraction(m + 1, n)
            assert residue % frac.denominator in (0, n % frac.denominator)


# ---------------------------------------------------------------------------
# the three Farey point tests


def test_farey_point_tests_golden():
    chain = chain_new(7, 5)
    t = farey_point_tests(chain, critical_point(Fraction(3, 4), Fraction(1, 4)))
    assert (t.is_farey, t.short_word, t.transversal_witness) == (True, True, True)
    assert t.witness == (3, 2)
    t = farey_point_tests(chain, critical_point(Fraction(5, 7), Fraction(0)))
    assert (t.is_farey, t.short_word, t.transversal_witness) == (True, True, True)
    assert t.witness == (0, 0)
    t = farey_point_tests(chain, critical_point(Fraction(6, 7), Fraction(1)))
    assert (t.is_farey, t.short_word, t.transversal_witness) == (True, True, True)
    assert t.witness == (0, -1)


def test_farey_point_tests_negative_case():
    chain = chain_new(3, 2)
    t = farey_point_tests(chain, critical_point(Fraction(7, 8), Fraction(5, 8)))
    assert (t.is_farey, t.short_word, t.transversal_witness) == (False, False, False)
    assert t.witness is None


def test_farey_point_tests_requires_containment():
    chain = chain_new(7, 5)
    with pytest.raises(DomainError):
        farey_point_tests(chain, critical_point(Fraction(1, 2), Fraction(1, 2)))


@settings(max_examples=40)
@given(small_chains())
def test_farey_point_tests_agree_everywhere(chain):
    if chain.order == 0:
        return
    dec = decompose(chain)
    for fp in dec.farey_points:
        zeta = critical_point(fp.theta, chain.rho_at(fp.theta))
        t = farey_point_tests(chain, zeta)
        assert t.is_farey and t.short_word and t.transversal_witness
        i, j = t.witness
        assert abs(i) < chain.order
        assert i * fp.theta - j == zeta.rho
    for a, b in zip(dec.farey_points, dec.farey_points[1:]):
        mid = (a.theta + b.theta) / 2
        t = farey_point_tests(chain, critical_point(mid, chain.rho_at(mid)))
        assert not (t.is_farey or t.short_word or t.transversal_witness)


def test_farey_points_are_farey_sequence_members():
    chain = chain_new(9, 4)
    dec = decompose(chain)
    assert [fp.theta for fp in dec.farey_points] == farey_sequence(
        9, chain.theta_minus, chain.theta_plus
    )


def test_flipping_a_position_twice_is_a_consistency_error(monkeypatch):
    farey_pairs = chains._farey_pairs

    def doubled(n, lo, hi):
        pairs = list(farey_pairs(n, lo, hi))
        return iter(pairs[:2] + pairs[1:])  # the second member twice

    monkeypatch.setattr(chains, "_farey_pairs", doubled)
    for chain in (chain_new(7, 5), chain_new(-7, -3)):
        with pytest.raises(ConsistencyError, match="flipped twice"):
            decompose(chain)
        with pytest.raises(ConsistencyError, match="flipped twice"):
            segments_csv([chain])


# ---------------------------------------------------------------------------
# critical words as prefixes of the boundary word


def _prefix_law_chains():
    for n in range(1, 41):
        yield from ((n, j) for j in range(n))
        yield from ((-n, j) for j in range(-n, 0))
    yield from ((768, j) for j in (0, 1, 300, 767))
    yield from ((-768, j) for j in (-768, -300, -1))
    yield -4096, -1365


def test_critical_words_are_prefixes_of_boundary_words():
    interior = 0
    for i, j in _prefix_law_chains():
        chain = chain_new(i, j)
        for fp in decompose(chain).farey_points:
            rho = chain.rho_at(fp.theta)
            if rho in (0, 1):
                assert fp.critical_word == ""
                continue
            interior += 1
            zeta = CriticalPoint(fp.theta, rho)
            assert fp.critical_word == brute_force_critical_word(zeta, chain.sign)[0]
            assert len(fp.critical_word) == (abs(i) - 1) % fp.theta.denominator + 1
            assert fp.boundary_word.startswith(fp.critical_word)
    assert interior > 10_000


def test_decompose_codes_one_critical_word_per_chain(monkeypatch):
    original_word, original_point = chains.brute_force_critical_word, chains.CriticalPoint
    calls = {"word": 0, "point": 0}

    def counted_word(zeta, sign):
        calls["word"] += 1
        return original_word(zeta, sign)

    def counted_point(theta, rho):
        calls["point"] += 1
        return original_point(theta, rho)

    monkeypatch.setattr(chains, "brute_force_critical_word", counted_word)
    monkeypatch.setattr(chains, "CriticalPoint", counted_point)
    dec = decompose(chain_new(-768, -300))
    assert calls == {"word": 1, "point": 1}
    assert len(dec.farey_points) > 100

    def switched(zeta, sign):
        word, i, j = original_word(zeta, sign)
        return switch_first(word), i, j

    monkeypatch.setattr(chains, "brute_force_critical_word", switched)
    for chain in (chain_new(-768, -300), chain_new(7, 5)):
        with pytest.raises(ConsistencyError, match="direct coding"):
            decompose(chain)
