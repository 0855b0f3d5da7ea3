"""Command-line interface.

Exit codes: 0 on success, 1 for usage or domain errors, 2 when a
verification suite reports a failure.  Fractions are read and printed
exactly ("3/4"); human-readable words use power notation (ab^3ab^2)
while JSON carries raw letter strings.

Commands whose output grows without bound with their arguments are
capped by the constants below.  Each cap is checked from the arguments
alone, before anything is built, and a larger request fails with a
`ParameterError` (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys

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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _print_doc(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _bounded(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ParameterError(f"{what} {value} exceeds the limit of {limit}")


def _point_args(args):
    return critical_point(parse_rational(args.theta), parse_rational(args.rho))


def _chain_doc(chain) -> dict:
    return {
        "i": chain.i,
        "j": chain.j,
        "theta_minus": format_rational(chain.theta_minus),
        "theta_plus": format_rational(chain.theta_plus),
    }


def _chain_label(chain) -> str:
    return f"L({chain.i},{chain.j})"


def _chain_header(chain) -> str:
    return (
        f"{_chain_label(chain)}: rho = {chain.i}*theta - ({chain.j}) for "
        f"theta in [{format_rational(chain.theta_minus)}, "
        f"{format_rational(chain.theta_plus)}]"
    )


def _point_str(theta, rho) -> str:
    return f"({format_rational(theta)}, {format_rational(rho)})"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_word(args) -> int:
    theta = parse_rational(args.theta)
    rho = parse_rational(args.rho)
    start = parse_rational(args.start)
    length = args.length if args.length is not None else theta.denominator
    _bounded(length, MAX_WORD_LENGTH, "word length")
    word = code_orbit(theta, rho, start, length)
    if args.json:
        _print_doc(
            {
                "theta": format_rational(theta),
                "rho": format_rational(rho),
                "start": format_rational(start),
                "length": length,
                "word": word,
            }
        )
    else:
        print(format_word(word))
    return 0


def _cmd_chain(args) -> int:
    _bounded(abs(args.i), MAX_COUNT_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    curves = curve_count(chain)
    # a chain of order >= 1 has one Farey point more than curves; the
    # horizontal chains have none
    farey_points = curves + 1 if chain.i else 0
    if args.json:
        doc = _chain_doc(chain)
        doc["order"] = chain.order
        doc["farey_points"] = farey_points
        doc["curves"] = curves
        _print_doc(doc)
    else:
        print(_chain_header(chain))
        print(f"order {chain.order}, {farey_points} Farey points, {curves} curves")
    return 0


def _cmd_decompose(args) -> int:
    _bounded(abs(args.i), MAX_CHAIN_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    items = decomposition_document(decompose(chain))
    if args.json:
        _print_doc({"chain": _chain_doc(chain), "items": items})
        return 0
    print(_chain_header(chain))
    for item in items:
        if item["type"] == "farey":
            print(
                f"farey theta={item['theta']} "
                f"boundary={format_word(item['word'])} "
                f"critical={format_word(item['critical_word'])}"
            )
        else:
            lo, hi = item["interval"]
            print(f"curve ({lo}, {hi}) word={format_word(item['word'])}")
    return 0


def _cmd_point(args) -> int:
    zeta = _point_args(args)
    plus, minus = dominant_params(zeta)
    up, down = neighbours(zeta)
    quads = available_quadrants(zeta)
    try:
        ctx = point_context(zeta)
    except DomainError:
        ctx = None
    if args.json:
        doc = {
            "theta": format_rational(zeta.theta),
            "rho": format_rational(zeta.rho),
            "dominant_plus": list(plus) if plus else None,
            "dominant_minus": list(minus) if minus else None,
            "up": _point_str(up.theta, up.rho) if up else None,
            "down": _point_str(down.theta, down.rho) if down else None,
            "quadrants": list(quads),
            "tau": format_rational(ctx.tau) if ctx else None,
            "q_prime": ctx.q_prime if ctx else None,
            "p_prime": ctx.p_prime if ctx else None,
        }
        _print_doc(doc)
        return 0
    print(f"zeta = {_point_str(zeta.theta, zeta.rho)}")
    print(f"dominant+: {_chain_label(chain_new(*plus)) if plus else 'none'}")
    print(f"dominant-: {_chain_label(chain_new(*minus)) if minus else 'none'}")
    print(
        f"neighbours: up={_point_str(up.theta, up.rho) if up else 'none'} "
        f"down={_point_str(down.theta, down.rho) if down else 'none'}"
    )
    print(f"pencils: {' '.join(quads)}")
    if ctx is not None:
        print(
            f"tau = {format_rational(ctx.tau)} "
            f"(q' = {ctx.q_prime}, p' = {ctx.p_prime})"
        )
    return 0


def _cmd_pencils(args) -> int:
    zeta = _point_args(args)
    if args.depth < 0:
        raise ParameterError(f"pencil depth must be non-negative, got {args.depth}")
    _bounded(args.depth, MAX_PENCIL_DEPTH, "pencil depth")
    # a pencil's ℓ-th word codes ≤ (ℓ + 1)·q letters, the four ℓ-th words 2(2ℓ + 1)·q
    q = zeta.theta.denominator
    _bounded((args.depth + 1) * q, MAX_WORD_LENGTH, "pencil word length")
    _bounded(2 * q * (args.depth + 1) ** 2, MAX_PENCIL_LETTERS, "pencil table letters")
    quads = available_quadrants(zeta)
    table: dict[str, list] = {}
    for sigma in quads:
        rows = []
        for ell in range(args.depth + 1):
            desc = pencil_descriptor(zeta, sigma, ell)
            word = pencil_word(zeta, sigma, ell)
            rows.append((desc, word))
        table[sigma] = rows
    if args.json:
        doc = {
            "theta": format_rational(zeta.theta),
            "rho": format_rational(zeta.rho),
            "pencils": {
                sigma: [
                    {
                        "ell": desc.ell,
                        "i": desc.chain_params[0],
                        "j": desc.chain_params[1],
                        "endpoint": (
                            _point_str(desc.endpoint.theta, desc.endpoint.rho)
                            if desc.endpoint
                            else None
                        ),
                        "word": word,
                    }
                    for desc, word in rows
                ]
                for sigma, rows in table.items()
            },
        }
        _print_doc(doc)
        return 0
    print(f"zeta = {_point_str(zeta.theta, zeta.rho)}")
    for sigma, rows in table.items():
        print(f"pencil {sigma}:")
        for desc, word in rows:
            chain = chain_new(*desc.chain_params)
            end = (
                f" endpoint={_point_str(desc.endpoint.theta, desc.endpoint.rho)}"
                if desc.endpoint
                else ""
            )
            print(f"  l={desc.ell} {_chain_label(chain)}{end} word={format_word(word)}")
    return 0


def _signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _cmd_triples(args) -> int:
    zeta = _point_args(args)
    report = triple_points(zeta)
    if args.json:
        doc = {
            "theta": format_rational(zeta.theta),
            "rho": format_rational(zeta.rho),
            "mu": report.mu,
            "kind": report.kind,
            "points": [
                {
                    "theta": format_rational(pt.location.theta),
                    "rho": format_rational(pt.location.rho),
                    "chi": pt.chi_kind,
                    "psi": pt.psi_sign,
                    "signs": _signs_str(pt.sign_triple),
                    "farey_count": pt.farey_count,
                }
                for pt in report.points
            ],
            "determinants": {
                _signs_str(e.signs): e.determinant for e in report.oracle
            },
        }
        _print_doc(doc)
        return 0
    print(f"zeta = {_point_str(zeta.theta, zeta.rho)}")
    print(f"mu = {report.mu}, type {report.kind}")
    for pt in report.points:
        print(
            f"point {_point_str(pt.location.theta, pt.location.rho)} "
            f"{pt.chi_kind} psi={'+' if pt.psi_sign > 0 else '-'} "
            f"signs={_signs_str(pt.sign_triple)} "
            f"farey_count={pt.farey_count}"
        )
    dets = " ".join(f"{_signs_str(e.signs)}:{e.determinant}" for e in report.oracle)
    print(f"determinants {dets}")
    return 0


def _cmd_net(args) -> int:
    _bounded(args.n, MAX_NET_ORDER, "net order")
    result = net(args.n)
    if args.json:
        doc = {
            "order": result.order,
            "count": len(result.chains),
            "chains": [_chain_doc(c) for c in result.chains],
        }
        _print_doc(doc)
        return 0
    for chain in result.chains:
        print(
            f"{_chain_label(chain)} theta in "
            f"[{format_rational(chain.theta_minus)}, "
            f"{format_rational(chain.theta_plus)}]"
        )
    print(f"{len(result.chains)} chains of order <= {result.order}")
    return 0


def _write_file(path: str, content: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return len(content.encode("utf-8"))


def _render_report(args, written: dict[str, int]) -> int:
    if args.json:
        _print_doc({"written": written})
    else:
        for path, size in written.items():
            print(f"wrote {path} ({size} bytes)")
    return 0


def _cmd_render_net(args) -> int:
    _bounded(args.n, MAX_NET_ORDER, "net order")
    result = net(args.n)
    written = {args.out: _write_file(args.out, render_net(result, scale=args.scale))}
    if args.csv:
        written[args.csv] = _write_file(args.csv, segments_csv(result.chains))
    return _render_report(args, written)


def _cmd_render_decomposition(args) -> int:
    _bounded(abs(args.i), MAX_CHAIN_ORDER, "chain order")
    chain = chain_new(args.i, args.j)
    dec = decompose(chain)
    written = {
        args.out: _write_file(args.out, render_decomposition(dec, scale=args.scale))
    }
    if args.csv:
        written[args.csv] = _write_file(args.csv, segments_csv([chain]))
    return _render_report(args, written)


def _cmd_render_pencils(args) -> int:
    zeta = _point_args(args)
    _bounded(args.depth, MAX_PENCIL_DEPTH, "pencil depth")
    svg = render_pencils(zeta, depth=args.depth, scale=args.scale)
    return _render_report(args, {args.out: _write_file(args.out, svg)})


def _cmd_render_triples(args) -> int:
    zeta = _point_args(args)
    svg = render_triples(zeta, scale=args.scale, normalized=args.normalized)
    return _render_report(args, {args.out: _write_file(args.out, svg)})


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, max_q=args.max_q, jobs=args.jobs)
    failed = [r for r in results if not r.passed]
    if args.json:
        _print_doc(
            [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            mark = "ok  " if r.passed else "FAIL"
            print(f"{mark} {r.suite}:{r.name}  {r.detail}")
        print(f"{len(results)} checks, {len(results) - len(failed)} passed")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")

    parser = _Parser(prog="critcurves", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("word", parents=[common], help="code an orbit segment")
    p.add_argument("theta")
    p.add_argument("rho")
    p.add_argument("--start", default="0", help="starting point (default 0)")
    p.add_argument("--len", dest="length", type=int, help="letters to emit")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("chain", parents=[common], help="summarize a chain")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser(
        "decompose", parents=[common], help="Farey decomposition of a chain"
    )
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("point", parents=[common], help="describe a critical point")
    p.add_argument("theta")
    p.add_argument("rho")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser(
        "pencils", parents=[common], help="pencils through a critical point"
    )
    p.add_argument("theta")
    p.add_argument("rho")
    p.add_argument("--depth", type=int, default=3, help="largest pencil index")
    p.set_defaults(func=_cmd_pencils)

    p = sub.add_parser(
        "triples", parents=[common], help="triple points above a critical point"
    )
    p.add_argument("theta")
    p.add_argument("rho")
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("net", parents=[common], help="list the net of chains")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_net)

    render = sub.add_parser("render", help="write SVG/CSV figures")
    rsub = render.add_subparsers(dest="target", required=True, parser_class=_Parser)

    p = rsub.add_parser("net", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write the curve segments as CSV")
    p.add_argument("--scale", type=int, default=480)
    p.set_defaults(func=_cmd_render_net)

    p = rsub.add_parser("decomposition", parents=[common])
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write the curve segments as CSV")
    p.add_argument("--scale", type=int, default=640)
    p.set_defaults(func=_cmd_render_decomposition)

    p = rsub.add_parser("pencils", parents=[common])
    p.add_argument("theta")
    p.add_argument("rho")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=int, default=560)
    p.set_defaults(func=_cmd_render_pencils)

    p = rsub.add_parser("triples", parents=[common])
    p.add_argument("theta")
    p.add_argument("rho")
    p.add_argument("--normalized", action="store_true",
                   help="blow up around the base point")
    p.add_argument("--out", required=True)
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
