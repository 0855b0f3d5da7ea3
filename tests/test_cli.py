import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from critcurves import ParameterError, chains, cli, points, switch_first, triples

GOLDEN_DECOMPOSE_7_5 = """\
L(7,5): rho = 7*theta - (5) for theta in [5/7, 6/7]
farey theta=5/7 boundary=b^7 critical=ε
curve (5/7, 3/4) word=ab^6
farey theta=3/4 boundary=ab^3ab^2 critical=ab^2
curve (3/4, 4/5) word=ab^2a^2b^2
farey theta=4/5 boundary=ab^2a^3b critical=ab
curve (4/5, 5/6) word=aba^4b
farey theta=5/6 boundary=aba^5 critical=a
curve (5/6, 6/7) word=a^7
farey theta=6/7 boundary=a^7 critical=ε
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word(capsys):
    code, out, _ = run(capsys, "word", "3/4", "1/4", "--len", "3")
    assert (code, out) == (0, "ab^2\n")
    code, out, _ = run(capsys, "word", "3/5", "2/5")
    assert (code, out) == (0, "abab^2\n")
    code, out, _ = run(capsys, "word", "3/5", "2/5", "--start", "2/5")
    assert (code, out) == (0, "babab\n")


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "7", "5")
    assert code == 0
    assert out == GOLDEN_DECOMPOSE_7_5


def test_decompose_json_round_trip(capsys):
    code, out, _ = run(capsys, "decompose", "7", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"] == {
        "i": 7, "j": 5, "theta_minus": "5/7", "theta_plus": "6/7",
    }
    assert doc["items"][0] == {
        "type": "farey", "theta": "5/7", "word": "bbbbbbb", "critical_word": "",
    }
    assert [item["type"] for item in doc["items"]] == (
        ["farey", "curve"] * 4 + ["farey"]
    )
    # stable serialization: keys sorted, two-space indent, trailing newline
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "7", "5")
    assert (code, out) == (0, (
        "L(7,5): rho = 7*theta - (5) for theta in [5/7, 6/7]\n"
        "order 7, 5 Farey points, 4 curves\n"
    ))
    code, out, _ = run(capsys, "chain", "0", "0")
    assert (code, out) == (0, (
        "L(0,0): rho = 0*theta - (0) for theta in [0/1, 1/1]\n"
        "order 0, 0 Farey points, 1 curves\n"
    ))
    code, out, _ = run(capsys, "chain", "7", "5", "--json")
    assert code == 0
    assert json.loads(out) == {
        "i": 7, "j": 5, "theta_minus": "5/7", "theta_plus": "6/7",
        "order": 7, "farey_points": 5, "curves": 4,
    }
    code, out, _ = run(capsys, "chain", "0", "0", "--json")
    assert code == 0
    assert json.loads(out) == {
        "i": 0, "j": 0, "theta_minus": "0/1", "theta_plus": "1/1",
        "order": 0, "farey_points": 0, "curves": 1,
    }


def test_python_dash_m_runs_from_a_source_tree():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "critcurves", "chain", "7", "5", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {
        "i": 7, "j": 5, "theta_minus": "5/7", "theta_plus": "6/7",
        "order": 7, "farey_points": 5, "curves": 4,
    }


def test_chain_counts_without_decomposing(capsys):
    # the words of L(100000, 3) hold over 3·10^9 letters; only counts print
    start = time.monotonic()
    code, out, _ = run(capsys, "chain", "100000", "3", "--json")
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(out) == {
        "i": 100000, "j": 3, "theta_minus": "3/100000", "theta_plus": "1/25000",
        "order": 100000, "farey_points": 33334, "curves": 33333,
    }
    assert elapsed < 30.0


def test_chain_counts_a_narrow_window_quickly(capsys):
    # L(10^6, 0) spans [0, 1/10^6], one curve between two Farey points;
    # finding the window's first member must not walk all of F_{10^6}
    start = time.monotonic()
    code, out, _ = run(capsys, "chain", "1000000", "0", "--json")
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(out) == {
        "i": 1000000, "j": 0, "theta_minus": "0/1", "theta_plus": "1/1000000",
        "order": 1000000, "farey_points": 2, "curves": 1,
    }
    assert elapsed < 1.0


def test_point(capsys):
    code, out, _ = run(capsys, "point", "3/5", "2/5")
    assert code == 0
    assert out.splitlines() == [
        "zeta = (3/5, 2/5)",
        "dominant+: L(4,2)",
        "dominant-: L(-1,-1)",
        "neighbours: up=(3/5, 3/5) down=(3/5, 1/5)",
        "pencils: I II III IV",
        "tau = -6/5 (q' = -3, p' = -2)",
    ]


def test_point_json_on_row(capsys):
    code, out, _ = run(capsys, "point", "2/5", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dominant_plus"] == [0, 0]
    assert doc["dominant_minus"] == [-5, -2]
    assert doc["quadrants"] == ["I", "II"]
    assert doc["tau"] is None and doc["down"] is None


def test_pencils(capsys):
    code, out, _ = run(capsys, "pencils", "3/5", "2/5", "--depth", "1")
    assert code == 0
    assert "pencil I:" in out
    assert "  l=1 L(9,5) endpoint=(5/8, 5/8) word=ababa^2bab" in out
    assert "  l=1 L(-6,-4) endpoint=(1/2, 1/1) word=bababa" in out


def test_triples(capsys):
    code, out, _ = run(capsys, "triples", "3/5", "2/5")
    assert code == 0
    assert out.splitlines() == [
        "zeta = (3/5, 2/5)",
        "mu = -1, type I",
        "point (2/3, 1/3) chi1 psi=- signs=+-- farey_count=1",
        "point (1/2, 1/2) chi2 psi=- signs=--+ farey_count=1",
        "determinants +++:1 ++-:2 +-+:-1 +--:0 -++:2 -+-:3 --+:0 ---:1",
    ]


def test_net(capsys):
    code, out, _ = run(capsys, "net", "1")
    assert code == 0
    assert out.splitlines() == [
        "L(-1,-1) theta in [0/1, 1/1]",
        "L(0,-1) theta in [0/1, 1/1]",
        "L(0,0) theta in [0/1, 1/1]",
        "L(1,0) theta in [0/1, 1/1]",
        "4 chains of order <= 1",
    ]


def test_render_outputs_deterministic(tmp_path, capsys):
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    csv_path = tmp_path / "segments.csv"
    code, _, _ = run(capsys, "render", "decomposition", "7", "5",
                     "--out", str(svg1), "--csv", str(csv_path))
    assert code == 0
    code, _, _ = run(capsys, "render", "decomposition", "7", "5",
                     "--out", str(svg2))
    assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert csv_path.read_text().splitlines()[0] == (
        "i,j,theta_lo,theta_hi,rho_lo,rho_hi,word"
    )

    out_net = tmp_path / "net.svg"
    code, _, _ = run(capsys, "render", "net", "2", "--out", str(out_net))
    assert code == 0
    assert out_net.read_text().startswith("<svg ")

    out_pencils = tmp_path / "pencils.svg"
    code, _, _ = run(capsys, "render", "pencils", "3/5", "2/5",
                     "--depth", "2", "--out", str(out_pencils))
    assert code == 0

    out_triples = tmp_path / "triples.svg"
    code, _, _ = run(capsys, "render", "triples", "3/5", "2/5",
                     "--normalized", "--out", str(out_triples))
    assert code == 0


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exact", "--max-q", "6")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok   exact:") for line in lines[:-1])
    assert lines[-1] == "3 checks, 3 passed"


def test_verify_full_sweep_within_budget(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-q", "12",
                       "--jobs", "2")
    elapsed = time.monotonic() - start
    assert code == 0
    assert out.splitlines()[-1] == "14 checks, 14 passed"
    assert elapsed < 60.0


def test_verify_reports_failures(capsys, monkeypatch):
    from critcurves import verify

    def broken(max_q):
        raise AssertionError("planted failure")

    monkeypatch.setitem(verify._SUITES, "exact", (("broken", broken),))
    code, out, _ = run(capsys, "verify", "--suite", "exact")
    assert code == 2
    assert "FAIL exact:broken  AssertionError: planted failure" in out
    assert out.splitlines()[-1] == "1 checks, 0 passed"


def _wrong_side_endpoint(monkeypatch):
    for sigma, (sign, right, upper) in list(points._QUADRANTS.items()):
        monkeypatch.setitem(points._QUADRANTS, sigma, (sign, not right, upper))


def _one_curve_letter_switched(monkeypatch):
    sweep = chains._sweep

    def faulty(chain, boundaries):
        for k, (a, b, curve, boundary) in enumerate(sweep(chain, boundaries)):
            if (chain.i, chain.j, k) == (5, 2, 1):
                curve = switch_first(curve)
            yield a, b, curve, boundary

    monkeypatch.setattr(chains, "_sweep", faulty)


def _dominant_words_switched(monkeypatch):
    words = points.dominant_words
    monkeypatch.setattr(
        points, "dominant_words",
        lambda zeta: tuple(switch_first(u) if u else u for u in words(zeta)),
    )


@pytest.mark.parametrize(
    "plant, suite, name",
    [
        (_wrong_side_endpoint, "points", "pencil-endpoints"),
        (_one_curve_letter_switched, "chains", "decomposition-oracle"),
        (_dominant_words_switched, "points", "pencil-words"),
    ],
)
def test_verify_catches_planted_faults(monkeypatch, plant, suite, name):
    from critcurves import verify

    plant(monkeypatch)
    results = {r.name: r for r in verify.run_suite(suite, 8)}
    assert not results[name].passed, results[name].detail


@pytest.mark.parametrize(
    "argv",
    [
        ("word", "0.5", "1/2"),          # not an exact fraction
        ("decompose", "9", "9"),         # j out of range
        ("triples", "2/5", "0"),         # missing neighbour on the row
        ("word", "3/5", "7/5"),          # rho outside the square
        ("frobnicate",),                 # unknown command
        ("decompose", "7", "5", "--bogus"),
        ("word", "1_0/30", "1/2"),       # digit separator
        ("word", "３/４", "1/2"),         # full-width digits
        ("pencils", "3/5", "2/5", "--depth", "-1"),
        ("verify", "--suite", "exact", "--jobs", "0"),
    ],
)
def test_error_exits(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.strip()


def test_render_pencils_rejects_negative_depth(tmp_path, capsys):
    out = tmp_path / "pencils.svg"
    code, _, err = run(capsys, "render", "pencils", "3/5", "2/5",
                       "--depth", "-1", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


def test_render_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "net.svg"
    code, out, err = run(capsys, "render", "net", "3", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target}")


def test_verify_worker_count():
    from critcurves.verify import worker_count

    cpus = os.cpu_count() or 1
    assert worker_count(1, 14) == 1
    assert worker_count(10**6, 14) == min(cpus, 14)
    assert worker_count(10**6, 3) == min(cpus, 3)
    for jobs in (0, -1):
        with pytest.raises(ParameterError):
            worker_count(jobs, 14)


@pytest.mark.parametrize(
    "argv",
    [
        ("word", "1/2", "1/2", "--len", "1000000000000"),
        ("word", "1/100000000000", "1/2"),           # default length q
        ("decompose", "1000000000", "0"),
        ("decompose", "-1000000000", "-1"),
        ("net", "1000000000"),
        ("render", "net", "1000000000", "--out", "{tmp}/net.svg", "--csv", "{tmp}/net.csv"),
        ("render", "decomposition", "1000000000", "0", "--out", "{tmp}/dec.svg"),
        ("pencils", "1/7", "1/7", "--depth", "3000"),
        ("pencils", "1/100000", "1/100000", "--depth", "20"),  # 21·q letters
        ("render", "pencils", "1/7", "1/7", "--depth", "20000", "--out", "{tmp}/pencils.svg"),
        ("chain", "1000000000", "0"),
        ("chain", "-1000000000", "-1"),
        ("pencils", "1/4096", "1/4096", "--depth", "63"),  # 2·q·64² letters in all
        ("verify", "--max-q", "1000000000"),
    ],
)
def test_oversized_requests_fail_before_building(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "exceeds the limit" in err
    assert list(tmp_path.iterdir()) == []


_HUGE = str(10**400)
_TOO_LARGE = str(cli.MAX_SCALE + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("point", "1/" + "9" * 5000, "0"),  # past Python's str -> int digit limit
        ("render", "net", "2", "--scale", _HUGE, "--out", "{tmp}/net.svg"),
        ("render", "decomposition", "7", "5", "--scale", _HUGE, "--out", "{tmp}/dec.svg"),
        ("render", "pencils", "3/5", "2/5", "--scale", _HUGE, "--out", "{tmp}/pencils.svg"),
        ("render", "triples", "3/5", "2/5", "--scale", _HUGE, "--out", "{tmp}/triples.svg"),
        # the figure's height grows with q
        ("render", "triples", f"1/{10**310}", f"1/{10**310}", "--out", "{tmp}/triples.svg"),
        # one pixel past the scale cap, for each figure
        ("render", "net", "30", "--scale", _TOO_LARGE, "--out", "{tmp}/net.svg"),
        ("render", "decomposition", "7", "5", "--scale", _TOO_LARGE, "--out", "{tmp}/dec.svg"),
        ("render", "pencils", "3/5", "2/5", "--scale", _TOO_LARGE, "--out", "{tmp}/pencils.svg"),
        ("render", "triples", "3/5", "2/5", "--scale", _TOO_LARGE, "--out", "{tmp}/triples.svg"),
    ],
)
def test_oversized_numbers_fail_with_one_error_line(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_output_caps_admit_the_documented_sizes():
    # the tests, `verify` and the benchmark use nets up to n = 100,
    # chains up to |i| = 2000 and pencils up to ℓ = 6 at q < 49
    assert cli.MAX_NET_ORDER >= 100
    assert cli.MAX_CHAIN_ORDER >= 2000
    assert cli.MAX_WORD_LENGTH >= 2000
    assert cli.MAX_PENCIL_DEPTH >= 6
    assert (6 + 1) * 48 <= cli.MAX_WORD_LENGTH
    assert cli.MAX_COUNT_ORDER >= cli.MAX_CHAIN_ORDER
    assert cli.MAX_VERIFY_Q >= 30  # the acceptance criteria sweep up to q = 30
    parser = cli._build_parser()
    for argv in (
        ("render", "net", "2"),
        ("render", "decomposition", "7", "5"),
        ("render", "pencils", "3/5", "2/5"),
        ("render", "triples", "3/5", "2/5"),
    ):
        args = parser.parse_args([*argv, "--out", "figure.svg"])
        assert 1 <= args.scale <= cli.MAX_SCALE


@pytest.mark.parametrize(
    "argv",
    [
        ("triples", "3/5", "2/5"),
        ("render", "triples", "3/5", "2/5", "--out", "{tmp}/triples.svg"),
    ],
    ids=["triples", "render-triples"],
)
def test_triples_builds_its_column_once(tmp_path, capsys, monkeypatch, argv):
    calls = []
    column = triples._column

    def counting(zeta):
        calls.append(zeta)
        return column(zeta)

    monkeypatch.setattr(triples, "_column", counting)
    code, _, _ = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 0
    assert len(calls) == 1


# `run_suite("all", 12)` as recorded before the checks and the acceptance
# criteria were merged into shared sweeps.  The benchmark hashes these
# detail strings into its verify-sweep digest.
VERIFY_ALL_12 = [
    ("exact", "farey-adjacency", True, "223 adjacent pairs across F_1..F_12"),
    ("exact", "cf-conventions", True, "45 fractions, both conventions"),
    ("exact", "farey-neighbours", True,
     "235 members matched against full sequences, n ≤ 12"),
    ("orbit", "coding-periodicity", True, "419 codings doubled"),
    ("orbit", "brute-word-structure", True,
     "846 (point, sign) pairs, minimality confirmed"),
    ("chains", "decomposition-oracle", True,
     "158 chains, 446 curve words matched against direct coding"),
    ("chains", "residue-cover", True, "n ≤ 30, 465 windows covered"),
    ("chains", "farey-point-tests", True,
     "222 Farey points all-true, 150 interior points all-false"),
    ("points", "dominant-minimality", True,
     "844 dominant slots equal the brute-force minima"),
    ("points", "pencil-endpoints", True,
     "6000 endpoints on the matching neighbour dominant lines"),
    ("points", "pencil-words", True,
     "2604 pencil words equal the direct coding beside the base point"),
    ("triples", "triple-points", True,
     "658 triple points cross-checked, convention-independent"),
    ("net", "net-cardinality", True,
     "orders 0..40, cardinality n(n+1)+2 and (i, j) ordering"),
    ("net", "render-determinism", True,
     "SVG, CSV and JSON byte-stable; JSON round-trips"),
]


def test_verify_contract_is_pinned():
    import inspect

    from critcurves import verify

    results = verify.run_suite("all", 12)
    assert [(r.suite, r.name, r.passed, r.detail) for r in results] == VERIFY_ALL_12
    # the benchmark looks every check up by this name and calls it with
    # the sweep bound alone
    for checks in verify._SUITES.values():
        for name, func in checks:
            assert getattr(verify, "check_" + name.replace("-", "_")) is func
            assert list(inspect.signature(func).parameters) == ["max_q"]


def _readme_transcripts() -> dict[str, str]:
    """Each `$ critcurves …` line of README.md mapped to the lines shown
    under it, up to a blank line, the next prompt or the end of the block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    transcripts, command = {}, None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ critcurves "):
            command = line.removeprefix("$ critcurves ")
            transcripts[command] = ""
        elif command is not None and line and line != "```":
            transcripts[command] += line + "\n"
        else:
            command = None
    return transcripts


@pytest.mark.parametrize("command", ["decompose 7 5", "point 3/5 2/5", "triples 3/5 2/5"])
def test_readme_transcripts_replay(capsys, command):
    expected = _readme_transcripts()[command]
    assert run(capsys, *command.split()) == (0, expected, "")
