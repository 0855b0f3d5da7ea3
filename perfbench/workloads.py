"""The four benchmark workloads: seeded inputs, the op each input drives,
the check of each op's output, and the canonical bytes that go into the
output digest.

Inputs come in *rounds*.  A round is stratified over the input property
that sets an op's cost (q for points, the order |i| for chains, n for
nets), so every seed runs the same mix of sizes and a run that ends on
a round boundary measures that mix, not the luck of the draw.  Within a
round the order is shuffled and the remaining choices are uniform.

This module does not import `critcurves`, nor any module the package
imports (json, fractions, ...) before an op needs it: ops and checks
receive the package as their `cc` argument and build rationals as
`cc.Rational`, so the benchmark times the package's whole import, and
the traced run can patch the names the ops call through.
"""

import math
import random

QUADRANT_SIGNS = {"I": 1, "II": -1, "III": 1, "IV": -1}
PENCIL_DEPTH = 3            # `pencils --depth 3`
VERIFY_MAX_Q = 12
VERIFY_JOBS = 2
VERIFY_CHECKS = (
    "farey-adjacency",
    "cf-conventions",
    "farey-neighbours",
    "coding-periodicity",
    "brute-word-structure",
    "decomposition-oracle",
    "residue-cover",
    "farey-point-tests",
    "dominant-minimality",
    "pencil-endpoints",
    "pencil-words",
    "triple-points",
    "net-cardinality",
    "render-determinism",
)
WORD_SAMPLES = 4            # curve and boundary words recoded per chain op
CSV_ROW_SAMPLES = 24        # CSV rows recoded per net op


class CheckFailed(AssertionError):
    """An op's output disagrees with the benchmark's own check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def fr(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _word_start(cc, sign: int, rho):
    return cc.Rational(0) if sign > 0 else rho


def _canonical(obj) -> bytes:
    import json

    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _lines(text: str):
    """The lines of `text`, one at a time, without a list of all of them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def _order_bin(order: int) -> str:
    lo = 48
    while order >= 2 * lo and lo < 384:
        lo *= 2
    return f"{lo}-{2 * lo - 1 if lo < 384 else 768}"


# ---------------------------------------------------------------------------
# point-queries


class PointQueries:
    """`point`, `pencils --depth 3` and `triples` on one critical point."""

    name = "point-queries"
    q_range = range(3, 49)

    def _point(self, rng: random.Random, q: int) -> tuple[int, int, int]:
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        return p, q, rng.randint(0, q)

    def rounds(self, seed: int):
        rng = rng_for(self.name, seed, "ops")
        while True:
            qs = list(self.q_range)
            rng.shuffle(qs)
            yield [self._point(rng, q) for q in qs]

    def warmup(self, seed: int) -> list:
        rng = rng_for(self.name, seed, "warmup")
        return [self._point(rng, q) for q in (5, 12, 20)]

    def run(self, cc, inp):
        p, q, k = inp
        zeta = cc.critical_point(cc.Rational(p, q), cc.Rational(k, q))
        ctx = None if zeta.rho in (0, 1) else cc.point_context(zeta)
        dominant = cc.dominant_params(zeta)
        up, down = cc.neighbours(zeta)
        pencils = []
        for sigma in cc.available_quadrants(zeta):
            for ell in range(PENCIL_DEPTH + 1):
                desc = cc.pencil_descriptor(zeta, sigma, ell)
                pencils.append((desc, cc.pencil_word(zeta, sigma, ell)))
        triples = None
        if up is not None and down is not None:
            triples = (cc.triple_points(zeta), cc.triple_point_farey_status(zeta))
        return zeta, ctx, dominant, (up, down), pencils, triples

    def check(self, cc, inp, out, rng: random.Random) -> None:
        p, q, k = inp
        zeta, ctx, dominant, (up, down), pencils, triples = out
        theta, rho = cc.Rational(p, q), cc.Rational(k, q)
        expect((zeta.theta, zeta.rho) == (theta, rho), "critical_point moved ζ")
        if ctx is not None:
            expect(ctx.p * ctx.q_prime - ctx.q * ctx.p_prime == 1,
                   "p·q′ − q·p′ ≠ 1")
            expect(ctx.tau == ctx.q_prime * rho, "τ ≠ q′ρ")
        for sign, params in zip((1, -1), dominant):
            expect(params is not None, "dominant chain missing off the corners")
            i, j = params
            expect(i * sign >= 0 and i * theta - j == rho,
                   f"dominant {params} does not pass through ζ")
        step = cc.Rational(1, q)
        expect(up == (None if rho == 1 else cc.CriticalPoint(theta, rho + step)),
               "wrong upper neighbour")
        expect(down == (None if rho == 0 else cc.CriticalPoint(theta, rho - step)),
               "wrong lower neighbour")
        for desc, word in pencils:
            i, j = desc.chain_params
            expect(i * theta - j == rho, f"pencil chain {desc} misses ζ")
            expect(len(word) == abs(i), f"pencil word length ≠ |i| in {desc}")
            end = desc.endpoint
            expect((end is None) == (desc.ell == 0), "endpoint presence")
            if end is None:
                sample, s_rho = theta, rho
            else:
                expect(0 <= end.theta <= 1 and 0 <= end.rho <= 1,
                       f"endpoint {end} outside the square")
                expect(i * end.theta - j == end.rho,
                       f"endpoint {end} off its pencil chain L({i},{j})")
                # the pencil word codes the curve just beside ζ
                sample = cc.Rational(theta.numerator + end.theta.numerator,
                                  theta.denominator + end.theta.denominator)
                s_rho = i * sample - j
            sign = QUADRANT_SIGNS[desc.sigma]
            expect(word == cc.code_orbit(sample, s_rho, _word_start(cc, sign, s_rho), abs(i)),
                   f"pencil word of {desc} differs from direct coding")
        expect((triples is not None) == (0 < rho < 1), "triple points presence")
        if triples is not None:
            report, status = triples
            lines = (cc.dominant_params(down), dominant, cc.dominant_params(up))
            needed = 1 if report.kind == "I" else 2
            for pt, st in zip(report.points, status):
                loc = pt.location
                expect(st.location == loc and st.farey_count >= needed,
                       f"Farey status of triple point {loc}")
                for base, params, mu in zip((down, zeta, up), lines, pt.sign_triple):
                    i, j = params[0] if mu == 1 else params[1]
                    expect(i * base.theta - j == base.rho and i * loc.theta - j == loc.rho,
                           f"triple point {loc} off the line L({i},{j})")

    def canon(self, out):
        zeta, ctx, dominant, (up, down), pencils, triples = out
        pt = (lambda z: None if z is None else [fr(z.theta), fr(z.rho)])
        doc = {
            "zeta": pt(zeta),
            "ctx": None if ctx is None else [fr(ctx.tau), ctx.q_prime, ctx.p_prime],
            "dominant": [list(d) if d else None for d in dominant],
            "neighbours": [pt(up), pt(down)],
            "pencils": [[d.sigma, d.ell, list(d.chain_params), pt(d.endpoint), w]
                        for d, w in pencils],
        }
        if triples is not None:
            report, status = triples
            doc["triples"] = [
                report.mu, report.kind, list(report.determinant_table),
                [[pt(p.location), p.chi_kind, p.psi_sign, list(p.sign_triple)]
                 for p in report.points],
                [[pt(s.location), s.farey_count] for s in status],
            ]
        yield _canonical(doc)

    def properties(self, inputs: list) -> dict:
        n = len(inputs)
        rows = sum(1 for p, q, k in inputs if k in (0, q))
        special = sum(1 for p, q, k in inputs if k in (1, q - 1))
        s_lt_q = sum(1 for p, q, k in inputs if math.gcd(k, q) > 1)
        return {
            "ops": n,
            "share_rows_0_1": rows / n,
            "share_special_rows": special / n,
            "share_s_lt_q": s_lt_q / n,
            "mean_q": sum(q for _, q, _ in inputs) / n,
        }


# ---------------------------------------------------------------------------
# chain-decompose


class ChainDecompose:
    """`decompose --json` on one chain L(i, j)."""

    name = "chain-decompose"
    min_order, max_order = 48, 768
    strata = 64

    def _chain(self, rng: random.Random, order: int) -> tuple[int, int]:
        i = order if rng.random() < 0.5 else -order
        j = rng.randrange(0, i) if i > 0 else rng.randrange(i, 0)
        return i, j

    def rounds(self, seed: int):
        rng = rng_for(self.name, seed, "ops")
        ratio = self.max_order / self.min_order
        while True:
            # one log-uniform draw from each of `strata` equal-mass strata
            orders = [int(self.min_order * ratio ** ((s + rng.random()) / self.strata))
                      for s in range(self.strata)]
            rng.shuffle(orders)
            yield [self._chain(rng, order) for order in orders]

    def warmup(self, seed: int) -> list:
        rng = rng_for(self.name, seed, "warmup")
        return [self._chain(rng, order) for order in (48, 60, 96)]

    def run(self, cc, inp):
        import json

        chain = cc.chain_new(*inp)
        doc = {
            "chain": {
                "i": chain.i,
                "j": chain.j,
                "theta_minus": cc.format_rational(chain.theta_minus),
                "theta_plus": cc.format_rational(chain.theta_plus),
            },
            "items": cc.decomposition_document(cc.decompose(chain)),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def check(self, cc, inp, out, rng: random.Random) -> None:
        import json

        i, j = inp
        n, sign = abs(i), (1 if i > 0 else -1)
        doc = json.loads(out)
        lo = cc.Rational(j, i) if i > 0 else cc.Rational(j + 1, i)
        hi = lo + cc.Rational(1, n)
        expect(doc["chain"] == {"i": i, "j": j, "theta_minus": fr(lo),
                                "theta_plus": fr(hi)}, "chain header")
        items = doc["items"]
        farey = [cc.Rational(it["theta"]) for it in items[0::2]]
        curves = items[1::2]
        expect([it["type"] for it in items[0::2]] == ["farey"] * len(farey)
               and [it["type"] for it in curves] == ["curve"] * len(curves)
               and len(farey) == len(curves) + 1 >= 2, "item layout")
        expect(farey[0] == lo and farey[-1] == hi, "Farey points miss the chain ends")
        expect(all(a < b for a, b in zip(farey, farey[1:])), "Farey points out of order")
        expect(all(f.denominator <= n for f in farey), "Farey point of order > |i|")
        for k, curve in enumerate(curves):
            expect([cc.Rational(x) for x in curve["interval"]] == farey[k:k + 2],
                   "curve interval does not join its Farey points")
        for k in rng.sample(range(len(curves)), min(WORD_SAMPLES, len(curves))):
            mid = (farey[k] + farey[k + 1]) / 2
            rho = i * mid - j
            expect(curves[k]["word"] == cc.code_orbit(mid, rho, _word_start(cc, sign, rho), n),
                   f"curve word {k} of L({i},{j}) differs from direct coding")
        for k in rng.sample(range(len(farey)), min(WORD_SAMPLES, len(farey))):
            theta, item = farey[k], items[2 * k]
            rho = i * theta - j
            start = _word_start(cc, sign, rho)
            expect(item["word"] == cc.code_orbit(theta, rho, start, n),
                   f"boundary word at {theta} on L({i},{j}) differs from direct coding")
            crit = item["critical_word"]
            if rho in (0, 1):
                expect(crit == "", "critical word on a boundary row is not ε")
                continue
            size = len(crit)
            expect(0 < size < n and (sign * size * theta - rho).denominator == 1,
                   f"critical word at {theta} is no short same-sign witness")
            expect(all((sign * m * theta - rho).denominator != 1 for m in range(1, size)),
                   f"critical word at {theta} is not minimal")
            expect(crit == cc.code_orbit(theta, rho, start, size),
                   f"critical word at {theta} differs from direct coding")

    def canon(self, out):
        yield out.encode()

    def properties(self, inputs: list) -> dict:
        histogram: dict[str, int] = {}
        for i, _ in inputs:
            key = _order_bin(abs(i))
            histogram[key] = histogram.get(key, 0) + 1
        return {
            "ops": len(inputs),
            "share_negative": sum(1 for i, _ in inputs if i < 0) / len(inputs),
            "mean_order": sum(abs(i) for i, _ in inputs) / len(inputs),
            "order_histogram": histogram,
        }


# ---------------------------------------------------------------------------
# net-render


def net_chain_keys(n: int) -> list[tuple[int, int]]:
    """(i, j) of every chain of N_n in the documented order."""
    keys = []
    for i in range(-n, n + 1):
        js = range(0, i) if i > 0 else (-1, 0) if i == 0 else range(i, 0)
        keys.extend((i, j) for j in js)
    return keys


class NetRender:
    """`render net n --csv`, output held in memory."""

    name = "net-render"
    n_range = range(16, 33)

    def rounds(self, seed: int):
        rng = rng_for(self.name, seed, "ops")
        while True:
            ns = list(self.n_range)
            rng.shuffle(ns)
            yield ns

    def warmup(self, seed: int) -> list:
        return [6, 10]

    def run(self, cc, n):
        result = cc.net(n)
        return cc.render_net(result), cc.segments_csv(result.chains)

    def check(self, cc, n, out, rng: random.Random) -> None:
        svg, csv_text = out
        keys = net_chain_keys(n)
        expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), "SVG envelope")
        expect(svg.count("<line ") == len(keys), "one SVG line per chain")
        # walk the rows one at a time, so the check holds less than the op did
        rows = _lines(csv_text)
        expect(next(rows) == "i,j,theta_lo,theta_hi,rho_lo,rho_hi,word", "CSV header")
        n_rows = csv_text.count("\n") - 1
        sampled = set(rng.sample(range(n_rows), min(CSV_ROW_SAMPLES, n_rows)))
        # rows of one chain are consecutive and tile its θ-range
        seen, prev, last_hi = [], None, None
        for index, line in enumerate(rows):
            row = line.split(",")
            expect(len(row) == 7, "CSV row width")
            key = (int(row[0]), int(row[1]))
            if key != prev:
                seen.append(key)
                expect(row[2] == fr(self._theta_minus(cc, key)),
                       f"first segment of L{key} does not start at θ⁻")
            else:
                expect(row[2] == last_hi, f"gap between segments of L{key}")
            prev, last_hi = key, row[3]
            if index in sampled:
                self._check_row(cc, row)
        expect(seen == keys, "CSV chains differ from N_n")

    @staticmethod
    def _check_row(cc, row: list[str]) -> None:
        """Recode one CSV row's word and put its ends on its line."""
        i, j = int(row[0]), int(row[1])
        lo, hi, rho_lo, rho_hi = (cc.Rational(x) for x in row[2:6])
        if i == 0:
            expect(rho_lo == rho_hi == -j and row[6] == "", "horizontal chain row")
            return
        expect(i * lo - j == rho_lo and i * hi - j == rho_hi,
               f"CSV row of L({i},{j}) off its line")
        mid = (lo + hi) / 2
        rho = i * mid - j
        sign = 1 if i > 0 else -1
        expect(row[6] == cc.code_orbit(mid, rho, _word_start(cc, sign, rho), abs(i)),
               f"CSV word of L({i},{j}) on ({lo}, {hi}) differs from direct coding")

    @staticmethod
    def _theta_minus(cc, key: tuple[int, int]):
        i, j = key
        if i == 0:
            return cc.Rational(0)
        return cc.Rational(j, i) if i > 0 else cc.Rational(j + 1, i)

    def canon(self, out):
        svg, csv_text = out
        yield svg.encode()
        yield b"\0"
        yield csv_text.encode()

    def properties(self, inputs: list) -> dict:
        histogram: dict[str, int] = {}
        for n in inputs:
            histogram[str(n)] = histogram.get(str(n), 0) + 1
        return {
            "ops": len(inputs),
            "chains_per_op": sum(n * (n + 1) + 2 for n in inputs) / len(inputs),
            "order_histogram": histogram,
        }


# ---------------------------------------------------------------------------
# verify-sweep


class VerifySweep:
    """`verify --suite all --max-q 12 --jobs 2`; the suite ignores the seed."""

    name = "verify-sweep"

    def rounds(self, seed: int):
        while True:
            yield [(VERIFY_MAX_Q, VERIFY_JOBS)]

    def warmup(self, seed: int) -> list:
        return [(2, VERIFY_JOBS)]

    def run(self, cc, inp):
        max_q, jobs = inp
        return cc.run_suite("all", max_q=max_q, jobs=jobs)

    def check(self, cc, inp, out, rng: random.Random) -> None:
        expect([r.name for r in out] == list(VERIFY_CHECKS), "check names")
        failed = [f"{r.name}: {r.detail}" for r in out if not r.passed]
        expect(not failed, f"checks failed: {failed}")

    def canon(self, out):
        yield _canonical([[r.suite, r.name, r.passed, r.detail] for r in out])

    def properties(self, inputs: list) -> dict:
        return {"ops": len(inputs), "max_q": VERIFY_MAX_Q, "jobs": VERIFY_JOBS}

    @staticmethod
    def check_functions(cc) -> list:
        """The public `verify.check_*` functions, in suite order."""
        return [(name, getattr(cc.verify, "check_" + name.replace("-", "_")))
                for name in VERIFY_CHECKS]


WORKLOADS = {w.name: w for w in (PointQueries(), ChainDecompose(), NetRender(), VerifySweep())}
