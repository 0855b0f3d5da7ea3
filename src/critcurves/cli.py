"""Command-line interface.

Exit codes: 0 on success, 1 for usage or domain errors, 2 when a
verification suite reports a failure.  Fractions are read and printed
exactly ("3/4"); human-readable words use power notation (ab^3ab^2)
while JSON carries raw letter strings.

Each command builds one document: `--json` prints it, and the text form
is read off it.

Commands whose output grows without bound with their arguments are
capped by the constants below.  Each cap is checked from the arguments
alone, before anything is built, and a larger request fails with a
`ParameterError` (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .chains import chain_new, curve_count, decompose
from .errors import DomainError, ParameterError
from .exact import format_rational, parse_rational
from .net import net
from .orbit import code_orbit, critical_point, format_word
from .points import (
    available_quadrants,
    dominant_params,
    neighbours,
    pencil_descriptor,
    pencil_word,
    point_context,
)
from .render import (
    decomposition_document,
    render_decomposition,
    render_net,
    render_pencils,
    render_triples,
    segments_csv,
)
from .triples import triple_points
from .verify import SUITE_NAMES, run_suite


MAX_WORD_LENGTH = 1 << 20  # letters: `word` (--len, or q by default), a `pencils` word
MAX_CHAIN_ORDER = 4096     # |i| for `decompose` and `render decomposition`
MAX_COUNT_ORDER = 1 << 22  # |i| for `chain`, which enumerates F_|i| to count
MAX_NET_ORDER = 128        # n for `net` and `render net`
MAX_PENCIL_DEPTH = 64      # --depth for `pencils` and `render pencils`
MAX_PENCIL_LETTERS = 1 << 23  # letters in the whole `pencils` table
MAX_VERIFY_Q = 64          # --max-q for `verify`, whose sweeps grow about as q³
MAX_SCALE = 1 << 16        # --scale, in pixels, for every `render` figure


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(args, doc, text) -> int:
    """Print `doc` as JSON with --json, else the lines of `text(doc)`; exit 0."""
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text(doc):
            print(line)
    return 0


def _bounded(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ParameterError(f"{what} {value} exceeds the limit of {limit}")


def _point_args(args):
    return critical_point(parse_rational(args.theta), parse_rational(args.rho))


def _point_doc(zeta) -> dict:
    return {"theta": format_rational(zeta.theta), "rho": format_rational(zeta.rho)}


def _point_str(doc) -> str:
    return f"({doc['theta']}, {doc['rho']})"


def _chain_doc(chain) -> dict:
    return {
        "i": chain.i,
        "j": chain.j,
        "theta_minus": format_rational(chain.theta_minus),
        "theta_plus": format_rational(chain.theta_plus),
    }


def _chain_label(i: int, j: int) -> str:
    return f"L({i},{j})"


def _chain_header(doc) -> str:
    return (
        f"{_chain_label(doc['i'], doc['j'])}: rho = {doc['i']}*theta - ({doc['j']}) for "
        f"theta in [{doc['theta_minus']}, {doc['theta_plus']}]"
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_word(args) -> int:
    theta = parse_rational(args.theta)
    rho = parse_rational(args.rho)
    start = parse_rational(args.start)
    length = args.length if args.length is not None else theta.denominator
    _bounded(length, MAX_WORD_LENGTH, "word length")
    doc = {
        "theta": format_rational(theta),
        "rho": format_rational(rho),
        "start": format_rational(start),
        "length": length,
        "word": code_orbit(theta, rho, start, length),
    }
    return _emit(args, doc, lambda doc: [format_word(doc["word"])])


def _chain_text(doc):
    yield _chain_header(doc)
    yield (
        f"order {doc['order']}, {doc['farey_points']} Farey points, "
        f"{doc['curves']} curves"
    )


def _cmd_chain(args) -> int:
    _bounded(abs(args.i), MAX_COUNT_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    curves = curve_count(chain)
    doc = _chain_doc(chain)
    doc["order"] = chain.order
    # a chain of order >= 1 has one Farey point more than curves; the
    # horizontal chains have none
    doc["farey_points"] = curves + 1 if chain.i else 0
    doc["curves"] = curves
    return _emit(args, doc, _chain_text)


def _decompose_text(doc):
    yield _chain_header(doc["chain"])
    for item in doc["items"]:
        if item["type"] == "farey":
            yield (
                f"farey theta={item['theta']} boundary={format_word(item['word'])} "
                f"critical={format_word(item['critical_word'])}"
            )
        else:
            lo, hi = item["interval"]
            yield f"curve ({lo}, {hi}) word={format_word(item['word'])}"


def _cmd_decompose(args) -> int:
    _bounded(abs(args.i), MAX_CHAIN_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    doc = {"chain": _chain_doc(chain), "items": decomposition_document(decompose(chain))}
    return _emit(args, doc, _decompose_text)


def _point_text(doc):
    plus, minus = doc["dominant_plus"], doc["dominant_minus"]
    yield f"zeta = {_point_str(doc)}"
    yield f"dominant+: {_chain_label(*plus) if plus else 'none'}"
    yield f"dominant-: {_chain_label(*minus) if minus else 'none'}"
    yield f"neighbours: up={doc['up'] or 'none'} down={doc['down'] or 'none'}"
    yield f"pencils: {' '.join(doc['quadrants'])}"
    if doc["tau"] is not None:
        yield f"tau = {doc['tau']} (q' = {doc['q_prime']}, p' = {doc['p_prime']})"


def _cmd_point(args) -> int:
    zeta = _point_args(args)
    plus, minus = dominant_params(zeta)
    up, down = neighbours(zeta)
    try:
        ctx = point_context(zeta)
    except DomainError:
        ctx = None
    doc = {
        **_point_doc(zeta),
        "dominant_plus": list(plus) if plus else None,
        "dominant_minus": list(minus) if minus else None,
        "up": _point_str(_point_doc(up)) if up else None,
        "down": _point_str(_point_doc(down)) if down else None,
        "quadrants": list(available_quadrants(zeta)),
        "tau": format_rational(ctx.tau) if ctx else None,
        "q_prime": ctx.q_prime if ctx else None,
        "p_prime": ctx.p_prime if ctx else None,
    }
    return _emit(args, doc, _point_text)


def _pencil_doc(desc, word) -> dict:
    i, j = desc.chain_params
    end = _point_str(_point_doc(desc.endpoint)) if desc.endpoint else None
    return {"ell": desc.ell, "i": i, "j": j, "endpoint": end, "word": word}


def _pencils_text(doc):
    yield f"zeta = {_point_str(doc)}"
    for sigma, rows in doc["pencils"].items():
        yield f"pencil {sigma}:"
        for row in rows:
            end = f" endpoint={row['endpoint']}" if row["endpoint"] else ""
            label = _chain_label(row["i"], row["j"])
            yield f"  l={row['ell']} {label}{end} word={format_word(row['word'])}"


def _cmd_pencils(args) -> int:
    zeta = _point_args(args)
    if args.depth < 0:
        raise ParameterError(f"pencil depth must be non-negative, got {args.depth}")
    _bounded(args.depth, MAX_PENCIL_DEPTH, "pencil depth")
    # a pencil's ℓ-th word codes ≤ (ℓ + 1)·q letters, the four ℓ-th words 2(2ℓ + 1)·q
    q = zeta.theta.denominator
    _bounded((args.depth + 1) * q, MAX_WORD_LENGTH, "pencil word length")
    _bounded(2 * q * (args.depth + 1) ** 2, MAX_PENCIL_LETTERS, "pencil table letters")
    pencils = {
        sigma: [
            _pencil_doc(pencil_descriptor(zeta, sigma, ell), pencil_word(zeta, sigma, ell))
            for ell in range(args.depth + 1)
        ]
        for sigma in available_quadrants(zeta)
    }
    doc = {**_point_doc(zeta), "pencils": pencils}
    return _emit(args, doc, _pencils_text)


def _signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _triples_text(doc):
    yield f"zeta = {_point_str(doc)}"
    yield f"mu = {doc['mu']}, type {doc['kind']}"
    for pt in doc["points"]:
        yield (
            f"point {_point_str(pt)} {pt['chi']} psi={'+' if pt['psi'] > 0 else '-'} "
            f"signs={pt['signs']} farey_count={pt['farey_count']}"
        )
    dets = " ".join(f"{signs}:{det}" for signs, det in doc["determinants"].items())
    yield f"determinants {dets}"


def _cmd_triples(args) -> int:
    zeta = _point_args(args)
    report = triple_points(zeta)
    doc = {
        **_point_doc(zeta),
        "mu": report.mu,
        "kind": report.kind,
        "points": [
            {
                **_point_doc(pt.location),
                "chi": pt.chi_kind,
                "psi": pt.psi_sign,
                "signs": _signs_str(pt.sign_triple),
                "farey_count": pt.farey_count,
            }
            for pt in report.points
        ],
        "determinants": {_signs_str(e.signs): e.determinant for e in report.oracle},
    }
    return _emit(args, doc, _triples_text)


def _net_text(doc):
    for chain in doc["chains"]:
        label = _chain_label(chain["i"], chain["j"])
        yield f"{label} theta in [{chain['theta_minus']}, {chain['theta_plus']}]"
    yield f"{doc['count']} chains of order <= {doc['order']}"


def _cmd_net(args) -> int:
    _bounded(args.n, MAX_NET_ORDER, "net order")
    result = net(args.n)
    doc = {
        "order": result.order,
        "count": len(result.chains),
        "chains": [_chain_doc(c) for c in result.chains],
    }
    return _emit(args, doc, _net_text)


def _written_text(doc):
    for path, size in doc["written"].items():
        yield f"wrote {path} ({size} bytes)"


def _write_files(args, files: dict[str, str]) -> int:
    """Write each file in order, then report the bytes written."""
    written = {}
    for path, content in files.items():
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        except OSError as exc:
            raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc
        written[path] = len(content.encode("utf-8"))
    return _emit(args, {"written": written}, _written_text)


def _cmd_render_net(args) -> int:
    _bounded(args.scale, MAX_SCALE, "figure scale")
    _bounded(args.n, MAX_NET_ORDER, "net order")
    result = net(args.n)
    files = {args.out: render_net(result, scale=args.scale)}
    if args.csv:
        files[args.csv] = segments_csv(result.chains)
    return _write_files(args, files)


def _cmd_render_decomposition(args) -> int:
    _bounded(args.scale, MAX_SCALE, "figure scale")
    _bounded(abs(args.i), MAX_CHAIN_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    files = {args.out: render_decomposition(decompose(chain), scale=args.scale)}
    if args.csv:
        files[args.csv] = segments_csv([chain])
    return _write_files(args, files)


def _cmd_render_pencils(args) -> int:
    _bounded(args.scale, MAX_SCALE, "figure scale")
    zeta = _point_args(args)
    _bounded(args.depth, MAX_PENCIL_DEPTH, "pencil depth")
    svg = render_pencils(zeta, depth=args.depth, scale=args.scale)
    return _write_files(args, {args.out: svg})


def _cmd_render_triples(args) -> int:
    _bounded(args.scale, MAX_SCALE, "figure scale")
    zeta = _point_args(args)
    svg = render_triples(zeta, scale=args.scale, normalized=args.normalized)
    return _write_files(args, {args.out: svg})


def _verify_text(doc):
    for r in doc:
        mark = "ok  " if r["passed"] else "FAIL"
        yield f"{mark} {r['suite']}:{r['name']}  {r['detail']}"
    yield f"{len(doc)} checks, {sum(r['passed'] for r in doc)} passed"


def _cmd_verify(args) -> int:
    _bounded(args.max_q, MAX_VERIFY_Q, "verify bound")
    doc = [asdict(r) for r in run_suite(args.suite, max_q=args.max_q, jobs=args.jobs)]
    _emit(args, doc, _verify_text)
    return 0 if all(r["passed"] for r in doc) else 2


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    point = _Parser(add_help=False, parents=[common])
    point.add_argument("theta")
    point.add_argument("rho")
    chain = _Parser(add_help=False, parents=[common])
    chain.add_argument("i", type=int)
    chain.add_argument("j", type=int)
    order = _Parser(add_help=False, parents=[common])
    order.add_argument("n", type=int)
    # no --json, which each positional parent brings; no --scale, whose
    # Action (and so its default) every child would share
    figure = _Parser(add_help=False)
    figure.add_argument("--out", required=True)

    parser = _Parser(prog="critcurves", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("word", parents=[point], help="code an orbit segment")
    p.add_argument("--start", default="0", help="starting point (default 0)")
    p.add_argument("--len", dest="length", type=int, help="letters to emit")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("chain", parents=[chain], help="summarize a chain")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("decompose", parents=[chain], help="Farey decomposition of a chain")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("point", parents=[point], help="describe a critical point")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("pencils", parents=[point], help="pencils through a critical point")
    p.add_argument("--depth", type=int, default=3, help="largest pencil index")
    p.set_defaults(func=_cmd_pencils)

    p = sub.add_parser(
        "triples", parents=[point], help="triple points above a critical point"
    )
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("net", parents=[order], help="list the net of chains")
    p.set_defaults(func=_cmd_net)

    render = sub.add_parser("render", help="write SVG/CSV figures")
    rsub = render.add_subparsers(dest="target", required=True, parser_class=_Parser)

    p = rsub.add_parser("net", parents=[order, figure])
    p.add_argument("--csv", help="also write the curve segments as CSV")
    p.add_argument("--scale", type=int, default=480)
    p.set_defaults(func=_cmd_render_net)

    p = rsub.add_parser("decomposition", parents=[chain, figure])
    p.add_argument("--csv", help="also write the curve segments as CSV")
    p.add_argument("--scale", type=int, default=640)
    p.set_defaults(func=_cmd_render_decomposition)

    p = rsub.add_parser("pencils", parents=[point, figure])
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--scale", type=int, default=560)
    p.set_defaults(func=_cmd_render_pencils)

    p = rsub.add_parser("triples", parents=[point, figure])
    p.add_argument("--normalized", action="store_true",
                   help="blow up around the base point")
    p.add_argument("--scale", type=int, default=560)
    p.set_defaults(func=_cmd_render_triples)

    p = sub.add_parser("verify", parents=[common], help="run verification sweeps")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p.add_argument("--max-q", type=int, default=12, dest="max_q")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
