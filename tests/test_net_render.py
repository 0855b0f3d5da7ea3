import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from critcurves import (
    ParameterError,
    chain_new,
    critical_point,
    decompose,
    decomposition_document,
    net,
    render_decomposition,
    render_net,
    render_pencils,
    render_triples,
    segments_csv,
)
from critcurves import cli
from critcurves.render import _Frame, segment_rows


def test_net_smallest():
    assert [(c.i, c.j) for c in net(0).chains] == [(0, -1), (0, 0)]


def test_net_order_two():
    assert [(c.i, c.j) for c in net(2).chains] == [
        (-2, -2), (-2, -1), (-1, -1),
        (0, -1), (0, 0),
        (1, 0), (2, 0), (2, 1),
    ]


def test_net_rejects_negative_order():
    with pytest.raises(ParameterError):
        net(-1)


@given(st.integers(min_value=0, max_value=100))
def test_net_cardinality(n):
    chains = net(n).chains
    assert len(chains) == n * (n + 1) + 2
    assert sorted(chains, key=lambda c: (c.i, c.j)) == list(chains)


def test_segments_csv_golden_chain():
    text = segments_csv([chain_new(7, 5)])
    assert text.splitlines() == [
        "i,j,theta_lo,theta_hi,rho_lo,rho_hi,word",
        "7,5,5/7,3/4,0/1,1/4,abbbbbb",
        "7,5,3/4,4/5,1/4,3/5,abbaabb",
        "7,5,4/5,5/6,3/5,5/6,abaaaab",
        "7,5,5/6,6/7,5/6,1/1,aaaaaaa",
    ]


def test_segment_rows_horizontal_chain():
    rows = segment_rows(chain_new(0, -1))
    assert rows == [("0", "-1", "0/1", "1/1", "1/1", "1/1", "")]


def test_decomposition_document_structure():
    doc = decomposition_document(decompose(chain_new(-1, -1)))
    assert doc == [
        {"type": "farey", "theta": "0/1", "word": "a", "critical_word": ""},
        {"type": "curve", "interval": ["0/1", "1/1"], "word": "b"},
        {"type": "farey", "theta": "1/1", "word": "b", "critical_word": ""},
    ]
    assert json.loads(json.dumps(doc)) == doc


def test_decomposition_document_alternates():
    doc = decomposition_document(decompose(chain_new(7, 5)))
    assert [item["type"] for item in doc] == ["farey", "curve"] * 4 + ["farey"]
    doc = decomposition_document(decompose(chain_new(0, 0)))
    assert [item["type"] for item in doc] == ["curve"]


def test_frame_rejects_tiny_scale():
    with pytest.raises(ParameterError):
        _Frame((F(0), F(1)), (F(0), F(1)), 8)


def test_renders_are_deterministic_svg():
    zeta = critical_point(F(3, 5), F(2, 5))
    pages = [
        render_net(net(3)),
        render_decomposition(decompose(chain_new(7, 5))),
        render_pencils(zeta, depth=2),
        render_triples(zeta),
        render_triples(zeta, normalized=True),
    ]
    again = [
        render_net(net(3)),
        render_decomposition(decompose(chain_new(7, 5))),
        render_pencils(zeta, depth=2),
        render_triples(zeta),
        render_triples(zeta, normalized=True),
    ]
    assert pages == again
    for page in pages:
        assert page.startswith("<svg ")
        assert page.rstrip().endswith("</svg>")


def test_render_groups_present():
    zeta = critical_point(F(3, 5), F(2, 5))
    dec_svg = render_decomposition(decompose(chain_new(7, 5)))
    assert 'id="curves"' in dec_svg and 'id="farey-points"' in dec_svg
    pencil_svg = render_pencils(zeta, depth=2)
    for sigma in ("I", "II", "III", "IV"):
        assert f'id="pencil-{sigma}"' in pencil_svg
    triple_svg = render_triples(zeta)
    assert 'id="triple-points"' in triple_svg
    assert "chi1" in triple_svg and "chi2" in triple_svg


def test_render_pencils_row_point():
    svg = render_pencils(critical_point(F(2, 5), F(0)), depth=2)
    assert 'id="pencil-I"' in svg and 'id="pencil-II"' in svg
    assert 'id="pencil-III"' not in svg


# SHA-256 of outputs recorded before the chain sweep moved to integer
# pairs; the CSV, the net SVG and `decompose --json` must stay byte-identical.
NET_DIGESTS = {
    0: ("1a72a91def5048c9686f604c35ed3bb276c7589cafd7b9c6167059368881c49d",
        "223836d0fb1e8a603fd554edf987d3bbbf4898ce0a32334d582a162cbd509331"),
    1: ("6182993fc518e153ae90b8ae511ae018d989a5624d6eab32156d664cb1fec8ef",
        "6f79ccab5c32eecd21b5c9dda25605e7a7fe6d0e3d44b26844d2457c40787d2a"),
    7: ("bd541156d0fbd830a9003cd51f393499bf9fb419e5babd0545fb19e37fc40874",
        "46ecca13e1936fe947fbf9be1a49cb637adc87c26d0b8585b230cc8241359252"),
    20: ("06204a71367ce844572e5aaa52297cd6e347f96db6e7ebe2a3a80521370e4391",
         "0d6446e5b8348c70e342e8204315998f5e807651d27ee72c3ceccd054e405b81"),
    32: ("69e024e3ffc09fbc387fea46bd17b1ac78024376eaf533c3339e4ef0ee38152e",
         "77af33bc778054acfbfee6a28a9c812027497d8d975b62113d9a604c228acc9c"),
}
DECOMPOSE_JSON_DIGESTS = {
    (7, 5): "00b85d17b32be804350b2363dda11ee10f7225f1fac0a8bff210854aa7e544d5",
    (-7, -3): "6012dd4efb46823fd95529a4560c98ba1fc1c32baf972cb79865df952c1f20b0",
    (48, 17): "473b59cfed6e77e4907d6b4bcfe501b0dd698e56f93d1bc1a2e4fa5539295bf0",
    (-97, -40): "7d3b0df24b693e76492a38adbdbcdbe78e4ad1c3537307051cb197b343baa6b5",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_digests(capsys):
    for n, (csv_digest, svg_digest) in NET_DIGESTS.items():
        result = net(n)
        assert _sha256(segments_csv(result.chains)) == csv_digest, n
        assert _sha256(render_net(result)) == svg_digest, n
    for (i, j), digest in DECOMPOSE_JSON_DIGESTS.items():
        assert cli.main(["decompose", str(i), str(j), "--json"]) == 0
        assert _sha256(capsys.readouterr().out) == digest, (i, j)


def _points_up_to(max_q: int):
    """Every critical point (p/q, r/s) with q ≤ max_q and s | q, the
    rows ρ = 0, 1 and the ends θ = 0, 1 included."""
    thetas = sorted({F(p, q) for q in range(1, max_q + 1) for p in range(q + 1)})
    for theta in thetas:
        q = theta.denominator
        rhos = sorted({F(r, s) for s in range(1, q + 1) if q % s == 0 for r in range(s + 1)})
        for rho in rhos:
            yield theta, rho


def _triples_digests(capsys, max_q: int) -> tuple[str, ...]:
    """SHA-256 over `triples` (text, --json: exit code, stdout, stderr) at
    every point, and over `render_triples` (plain, normalized) at every
    interior point."""
    streams = [hashlib.sha256() for _ in range(4)]
    for theta, rho in _points_up_to(max_q):
        args = [f"{theta.numerator}/{theta.denominator}", f"{rho.numerator}/{rho.denominator}"]
        for stream, extra in zip(streams, ([], ["--json"])):
            code = cli.main(["triples", *args, *extra])
            out, err = capsys.readouterr()
            stream.update(f"{args} {code}\n{out}{err}".encode())
        if 0 < rho < 1:
            zeta = critical_point(theta, rho)
            streams[2].update(render_triples(zeta).encode())
            streams[3].update(render_triples(zeta, normalized=True).encode())
    return tuple(stream.hexdigest() for stream in streams)


# SHA-256 of the `triples` CLI output and the `render_triples` SVGs at
# q ≤ 12, recorded before the triple-point report carried its column.
TRIPLES_DIGESTS_12 = (
    "57dc8fe99cfe2d6e57a39ff8a44382811c1f0ebc3eba9875d680ce8ecae21402",
    "1eeb2eafff7615ee19914da893a0f921e4e4cdcf1e8ed6ea664ff4f79ab57f99",
    "4419751cc9116822b3fd2e73b3e2b1dfd2075e9a55782ebd603dc2df124d5e28",
    "ec731b8e1f9b6da2d8bf8498846d67e1424bce98fcda3453a7c645d021a80154",
)


def test_triples_golden_digests(capsys):
    assert _triples_digests(capsys, 12) == TRIPLES_DIGESTS_12


# SHA-256 of `render_pencils(ζ, depth=3)` at every critical point with
# q ≤ 12, rows and corners included, recorded before the pencil
# functions read one quadrant table.
PENCILS_SVG_DIGEST_12 = "3753c2cbaca4d9ab36d6e8dc81bbfb0d384c3857cf90aa56166624e705236ae4"


def test_render_pencils_golden_digest():
    stream = hashlib.sha256()
    for theta, rho in _points_up_to(12):
        stream.update(render_pencils(critical_point(theta, rho), depth=3).encode())
    assert stream.hexdigest() == PENCILS_SVG_DIGEST_12


def _cli_digest(capsys, commands) -> str:
    """SHA-256 over exit code, stdout and stderr of each command, as
    text and with --json."""
    stream = hashlib.sha256()
    for argv in commands:
        for extra in ([], ["--json"]):
            code = cli.main([*argv, *extra])
            out, err = capsys.readouterr()
            stream.update(f"{argv + extra} {code}\n{out}{err}".encode())
    return stream.hexdigest()


def _cli_commands(max_q: int) -> dict[str, list[list[str]]]:
    """`point` and `pencils --depth 3` at every critical point with
    q ≤ max_q and one non-critical point; `chain` and `decompose` at
    every admissible (i, j) with |i| ≤ max_q and one inadmissible j per
    i; `net` 0..3, two `word` calls and `verify --max-q 4`."""
    points = [
        [f"{t.numerator}/{t.denominator}", f"{r.numerator}/{r.denominator}"]
        for t, r in _points_up_to(max_q)
    ] + [["1/2", "1/3"]]
    chains = []
    for i in range(-max_q, max_q + 1):
        admissible = range(i) if i > 0 else range(i, 0) if i < 0 else (-1, 0)
        chains += [[str(i), str(j)] for j in (*admissible, abs(i) + 1)]
    return {
        "point": [["point", *args] for args in points],
        "pencils": [["pencils", *args, "--depth", "3"] for args in points],
        "chain": [["chain", *args] for args in chains],
        "decompose": [["decompose", *args] for args in chains],
        "net": [["net", str(n)] for n in range(4)],
        "word": [
            ["word", "3/7", "2/7"],
            ["word", "2/5", "1/5", "--start", "1/5", "--len", "12"],
        ],
        "verify": [["verify", "--max-q", "4"]],
    }


# SHA-256 of every CLI command's text and --json output at q, |i| ≤ 12,
# recorded before each handler built its output document once.
CLI_DIGESTS_12 = {
    "point": "402368865b1fd08ef63ea4349ee416797631fc9b560feeb65bed0898623d114c",
    "pencils": "06c110d7b9f25db37701b3b3849ca2f51740f4868986cd7129bfba6b0c2eaf93",
    "chain": "ee644eb58fcb2a46be5b578210a724308ec5cae705451b45232f41b3cc4172b0",
    "decompose": "deb177686461042b8b22c0e97947c08b39c50e5e953c12c1b1663820609cc6d4",
    "net": "4a2a93ba96393329454aaac42875f4fbaadf75a4786b1c96c32a5fc11b56acb0",
    "word": "0c1a617d88567af97bee78d5a7afb9a88c09bbcc40fb86cd627ecc5161bb4e43",
    "verify": "0467a65d66deeb778e7912f3ebd581503f4501b8b870c658c47e11f9be04c6a4",
}


def test_cli_golden_digests(capsys):
    digests = {
        name: _cli_digest(capsys, argvs) for name, argvs in _cli_commands(12).items()
    }
    assert digests == CLI_DIGESTS_12
