import dataclasses
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from critcurves import (
    SIGN_TRIPLES,
    ConsistencyError,
    DomainError,
    ParameterError,
    critical_point,
    dominant_params,
    mu_of,
    neighbours,
    psi,
    render_triples,
    triple_point_farey_status,
    triple_points,
)
from critcurves import cli, oracles, orbit, triples, verify
from critcurves.oracles import concurrency_oracle
from critcurves.verify import _alternate_triple_locations


def interior_points(max_q=14):
    @st.composite
    def build(draw):
        q = draw(st.integers(min_value=2, max_value=max_q))
        p = draw(st.integers(min_value=1, max_value=q - 1))
        theta = F(p, q)
        q = theta.denominator
        k = draw(st.integers(min_value=1, max_value=q - 1))
        return critical_point(theta, F(k, q))

    return build()


def test_sign_triples_order():
    assert SIGN_TRIPLES[0] == (1, 1, 1)
    assert SIGN_TRIPLES[-1] == (-1, -1, -1)
    assert len(set(SIGN_TRIPLES)) == 8


def test_psi():
    assert psi(1, F(7, 5)) == 1
    assert psi(-1, F(7, 5)) == 2
    assert psi(1, F(-7, 5)) == -2
    assert psi(-1, F(3)) == psi(1, F(3)) == 3
    with pytest.raises(DomainError):
        psi(0, F(1, 2))


def test_mu_examples():
    assert mu_of(critical_point(F(3, 5), F(2, 5))) == -1
    assert mu_of(critical_point(F(3, 7), F(2, 7))) == 0
    assert mu_of(critical_point(F(1, 2), F(1, 2))) == -1


def test_mu_needs_both_neighbours():
    with pytest.raises(DomainError):
        mu_of(critical_point(F(2, 5), F(0)))
    with pytest.raises(DomainError):
        mu_of(critical_point(F(1), F(1)))


@settings(max_examples=80)
@given(interior_points())
def test_mu_range(zeta):
    assert mu_of(zeta) in (-1, 0, 1)


def test_mu_builds_no_column(monkeypatch):
    def no_column(zeta):
        raise AssertionError(f"mu_of built the triple-point column of {zeta}")

    monkeypatch.setattr(triples, "_column", no_column)
    assert mu_of(critical_point(F(3, 5), F(2, 5))) == -1


@settings(max_examples=50, deadline=None)
@given(interior_points())
def test_report_column_holds_the_dominant_lines(zeta):
    report = triple_points(zeta)
    up, down = neighbours(zeta)
    assert report.column == tuple(dominant_params(base) for base in (down, zeta, up))
    assert report.points == triple_point_farey_status(zeta)


def test_triple_queries_call_no_farey_point_oracle(tmp_path, capsys, monkeypatch):
    calls = []
    oracle = oracles.farey_point_tests

    def counting(chain, zeta):
        calls.append((chain, zeta))
        return oracle(chain, zeta)

    # every binding of the oracle in the package, whichever module holds it
    for name, module in list(sys.modules.items()):
        if name.startswith("critcurves") and getattr(module, "farey_point_tests", None) is oracle:
            monkeypatch.setattr(module, "farey_point_tests", counting)
    zeta = critical_point(F(3, 5), F(2, 5))
    triple_points(zeta)
    triple_point_farey_status(zeta)
    assert cli.main(["triples", "3/5", "2/5"]) == 0
    assert cli.main(["render", "triples", "3/5", "2/5", "--out", str(tmp_path / "t.svg")]) == 0
    capsys.readouterr()
    assert calls == []


def test_check_triple_points_catches_a_wrong_farey_count(monkeypatch):
    right = verify.triple_points

    def off_by_one(zeta):
        report = right(zeta)
        first, second = report.points
        first = dataclasses.replace(first, farey_count=first.farey_count + 1)
        return dataclasses.replace(report, points=(first, second))

    monkeypatch.setattr(verify, "triple_points", off_by_one)
    with pytest.raises(AssertionError, match="farey_count="):
        verify.check_triple_points(6)


def test_render_triples_draws_the_report_column(monkeypatch):
    zeta = critical_point(F(3, 5), F(2, 5))
    calls = []
    witness = orbit._closed_form_witness

    def counting(theta, rho):
        calls.append((theta, rho))
        return witness(theta, rho)

    monkeypatch.setattr(orbit, "_closed_form_witness", counting)
    render_triples(zeta)
    # ζ↑ and ζ↓, `point_context`'s check of ζ, and the two triple points
    assert len(calls) == 5


def test_concurrency_oracle_table():
    entries = concurrency_oracle(triple_points(critical_point(F(3, 7), F(2, 7))))
    assert tuple(e.signs for e in entries) == SIGN_TRIPLES
    assert tuple(e.determinant for e in entries) == (0, 1, -2, -1, 1, 2, -1, 0)
    for e in entries:
        assert (e.point is None) == (e.determinant != 0)
    assert entries[0].point == (F(1, 2), F(1, 2))
    assert entries[-1].point == (F(1, 2), F(0))


@settings(max_examples=60)
@given(interior_points())
def test_concurrency_oracle_two_triples(zeta):
    entries = concurrency_oracle(triple_points(zeta))
    zeros = [e for e in entries if e.determinant == 0]
    assert len(zeros) == 2
    for e in zeros:
        assert e.point is not None


GOLDEN = {
    (F(3, 5), F(2, 5)): dict(
        mu=-1,
        kind="I",
        points=[
            ((F(2, 3), F(1, 3)), "chi1", -1, (1, -1, -1)),
            ((F(1, 2), F(1, 2)), "chi2", -1, (-1, -1, 1)),
        ],
        dets=(1, 2, -1, 0, 2, 3, 0, 1),
        farey=[1, 1],
    ),
    (F(3, 7), F(2, 7)): dict(
        mu=0,
        kind="II",
        points=[
            ((F(1, 2), F(1, 2)), "chi2", 1, (1, 1, 1)),
            ((F(1, 2), F(0)), "chi2", -1, (-1, -1, -1)),
        ],
        dets=(0, 1, -2, -1, 1, 2, -1, 0),
        farey=[2, 3],
    ),
    (F(1, 2), F(1, 2)): dict(
        mu=-1,
        kind="II",
        points=[
            ((F(0), F(0)), "chi2", 1, (1, 1, 1)),
            ((F(0), F(1)), "chi2", -1, (-1, -1, -1)),
        ],
        dets=(0, 1, -2, -1, 1, 2, -1, 0),
        farey=[2, 2],
    ),
    (F(1, 3), F(1, 3)): dict(
        mu=0,
        kind="II",
        points=[
            ((F(0), F(0)), "chi2", 1, (1, 1, 1)),
            ((F(0), F(1)), "chi2", -1, (-1, -1, -1)),
        ],
        dets=(0, 1, -2, -1, 1, 2, -1, 0),
        farey=[2, 3],
    ),
    # mu = +1
    (F(2, 5), F(2, 5)): dict(
        mu=1,
        kind="I",
        points=[
            ((F(1, 3), F(1, 3)), "chi1", 1, (-1, 1, 1)),
            ((F(1, 2), F(1, 2)), "chi2", 1, (1, 1, -1)),
        ],
        dets=(-1, 0, -3, -2, 0, 1, -2, -1),
        farey=[1, 1],
    ),
    # rho = 1/q with n odd
    (F(2, 5), F(1, 5)): dict(
        mu=-1,
        kind="I",
        points=[
            ((F(1, 3), F(1, 3)), "chi1", -1, (-1, -1, 1)),
            ((F(1, 2), F(0)), "chi2", -1, (1, -1, -1)),
        ],
        dets=(1, 2, -1, 0, 2, 3, 0, 1),
        farey=[1, 2],
    ),
    # type II with mu = -1 (rho = (q-1)/q, n even)
    (F(3, 5), F(4, 5)): dict(
        mu=-1,
        kind="II",
        points=[
            ((F(1, 2), F(1, 2)), "chi2", 1, (1, 1, 1)),
            ((F(1, 2), F(1)), "chi2", -1, (-1, -1, -1)),
        ],
        dets=(0, 1, -2, -1, 1, 2, -1, 0),
        farey=[2, 2],
    ),
    # type I with mu = 0 (rho = (q-1)/q, n odd)
    (F(2, 5), F(4, 5)): dict(
        mu=0,
        kind="I",
        points=[
            ((F(1, 3), F(2, 3)), "chi1", 1, (-1, 1, 1)),
            ((F(1, 2), F(1)), "chi2", 1, (1, 1, -1)),
        ],
        dets=(-1, 0, -3, -2, 0, 1, -2, -1),
        farey=[1, 2],
    ),
}


@pytest.mark.parametrize("theta,rho", sorted(GOLDEN), ids=str)
def test_triple_points_golden(theta, rho):
    want = GOLDEN[(theta, rho)]
    report = triple_points(critical_point(theta, rho))
    assert (report.mu, report.kind) == (want["mu"], want["kind"])
    got = [
        ((pt.location.theta, pt.location.rho), pt.chi_kind, pt.psi_sign,
         pt.sign_triple)
        for pt in report.points
    ]
    assert got == want["points"]
    assert report.determinant_table == want["dets"]
    assert [pt.farey_count for pt in report.points] == want["farey"]


def test_triple_points_reject_rows():
    with pytest.raises(DomainError):
        triple_points(critical_point(F(2, 5), F(0)))


def test_wrong_closed_form_is_caught(monkeypatch):
    right = triples._chi

    def shifted(ctx, which, sign):
        # one step of 1/q_k up: still a critical point, on none of the lines
        theta, rho = right(ctx, which, sign)
        return theta, rho + F(1, theta.denominator)

    monkeypatch.setattr(triples, "_chi", shifted)
    zeta = critical_point(F(3, 5), F(2, 5))
    with pytest.raises(ConsistencyError, match="not among"):
        triple_points(zeta)
    with pytest.raises(ConsistencyError, match="not among"):
        triple_point_farey_status(zeta)


@settings(max_examples=50, deadline=None)
@given(interior_points())
def test_triple_points_structure(zeta):
    report = triple_points(zeta)
    assert report.oracle == concurrency_oracle(triple_points(zeta))
    # the two located points are exactly the oracle's concurrent triples
    zeros = {e.signs: e.point for e in report.oracle if e.determinant == 0}
    assert len(zeros) == 2
    for pt in report.points:
        assert zeros[pt.sign_triple] == (pt.location.theta, pt.location.rho)
    # type I separates the points in θ, type II stacks them
    thetas = {pt.location.theta for pt in report.points}
    assert len(thetas) == (2 if report.kind == "I" else 1)
    # Farey-point counts meet the per-kind floor
    needed = 1 if report.kind == "I" else 2
    for status in triple_point_farey_status(zeta):
        assert status.farey_count >= needed


@settings(max_examples=50, deadline=None)
@given(interior_points(max_q=12))
def test_alternate_convention_agrees(zeta):
    report = triple_points(zeta)
    alternate = _alternate_triple_locations(report)
    assert alternate == tuple(
        (pt.location.theta, pt.location.rho) for pt in report.points
    )
