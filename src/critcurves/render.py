"""Deterministic SVG / CSV / JSON views of nets, decompositions,
pencils and triple points.

All geometry is carried exactly, as fractions or integer pairs;
floating point enters only at the final pixel projection, so identical
inputs always render to identical bytes.  The net figure and the
segment CSV read the chains' integers (i, j) and the chain sweep's
Farey pairs directly and build no `Fraction` per chain or row.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import gcd

from .chains import Chain, ChainDecomposition, _sweep, chain_new
from .errors import ParameterError
from .exact import format_rational
from .net import Net
from .orbit import CriticalPoint, format_word
from .points import available_quadrants, dominant_params, neighbours, pencil_descriptor
from .triples import triple_points

# ---------------------------------------------------------------------------
# tabular exports


def segment_rows(chain: Chain):
    """CSV rows (all exact strings) for the curve segments of a chain,
    read off the chain sweep's integer pairs: θ = a/b and
    ρ = (i·a − j·b)/b."""
    i, j = chain.i, chain.j
    ij = (str(i), str(j))
    if i == 0:
        return [(*ij, "0/1", "1/1", f"{-j}/1", f"{-j}/1", "")]
    rows = []
    for a, b, curve, _ in _sweep(chain, boundaries=False):
        num = i * a - j * b
        g = gcd(num, b)
        end = (f"{a}/{b}", f"{num // g}/{b // g}")
        if curve is not None:
            rows.append((*ij, start[0], end[0], start[1], end[1], curve))
        start = end
    return rows


def segments_csv(chains) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("i", "j", "theta_lo", "theta_hi", "rho_lo", "rho_hi", "word"))
    for chain in chains:
        writer.writerows(segment_rows(chain))
    return buf.getvalue()


def decomposition_document(dec: ChainDecomposition) -> list[dict]:
    """Ordered farey/curve items with exact fraction strings.

    Words are raw letter strings ("" for the empty word); presentation
    concerns like power notation stay out of the data format.
    """
    farey = [
        {
            "type": "farey",
            "theta": format_rational(fp.theta),
            "word": fp.boundary_word,
            "critical_word": fp.critical_word,
        }
        for fp in dec.farey_points
    ]
    # Farey points, when there are any, bracket every curve
    items: list[dict] = []
    for k, curve in enumerate(dec.curves):
        items += farey[k : k + 1]
        items.append(
            {
                "type": "curve",
                "interval": [
                    format_rational(curve.theta_lo),
                    format_rational(curve.theta_hi),
                ],
                "word": curve.word,
            }
        )
    items += farey[len(dec.curves) :]
    return items


# ---------------------------------------------------------------------------
# pixel projection

_MARGIN = 40


class _Frame:
    """Projection of an exact coordinate window onto pixels.

    With `render_net`'s integer projection, the only place in the
    package where floats appear.
    """

    def __init__(self, x_span, y_span, scale: int):
        if scale < 16:
            raise ParameterError(f"scale too small to render: {scale}")
        self.x0, self.x1 = x_span
        self.y0, self.y1 = y_span
        try:
            aspect = float((self.y1 - self.y0) / (self.x1 - self.x0))
            self.inner_h = max(16, int(round(scale * aspect)))
        except OverflowError:  # a pixel size past the float range
            raise ParameterError("figure too large to render") from None
        self.inner_w = scale
        self.width = 2 * _MARGIN + self.inner_w
        self.height = 2 * _MARGIN + self.inner_h

    def x(self, v) -> float:
        return _MARGIN + float((v - self.x0) / (self.x1 - self.x0)) * self.inner_w

    def y(self, v) -> float:
        return _MARGIN + (1.0 - float((v - self.y0) / (self.y1 - self.y0))) * self.inner_h


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _pixel_line(a, b, style: str) -> str:
    return (
        f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
        f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" {style}/>'
    )


def _line(frame: _Frame, a, b, style: str) -> str:
    return _pixel_line(
        (frame.x(a[0]), frame.y(a[1])), (frame.x(b[0]), frame.y(b[1])), style
    )


def _circle(frame: _Frame, c, r: float, style: str) -> str:
    return (
        f'<circle cx="{_fmt(frame.x(c[0]))}" cy="{_fmt(frame.y(c[1]))}" '
        f'r="{_fmt(r)}" {style}/>'
    )


def _text(frame: _Frame, pos, s: str, dy: float = 0.0, style: str = "") -> str:
    return (
        f'<text x="{_fmt(frame.x(pos[0]))}" y="{_fmt(frame.y(pos[1]) + dy)}" '
        f'font-family="monospace" font-size="11" text-anchor="middle" '
        f"{style}>{s}</text>"
    )


def _document(frame: _Frame, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}" '
        f'height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">'
    )
    border = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{frame.inner_w}" '
        f'height="{frame.inner_h}" fill="white" stroke="#808080" stroke-width="1"/>'
    )
    return "\n".join([head, border, *body, "</svg>"]) + "\n"


def _chain_ends(chain: Chain):
    a = (chain.theta_minus, chain.rho_at(chain.theta_minus))
    b = (chain.theta_plus, chain.rho_at(chain.theta_plus))
    return a, b


# ---------------------------------------------------------------------------
# figures

_QUADRANT_COLOURS = {
    "I": "#1f77b4",
    "II": "#d62728",
    "III": "#2ca02c",
    "IV": "#9467bd",
}


def render_net(net_obj: Net, scale: int = 480) -> str:
    frame = _Frame((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), scale)
    width, height = frame.inner_w, frame.inner_h

    def pixel(num: int, den: int, rho: int):
        # the unit-square frame maps (θ, ρ) to these pixels; num/den is
        # correctly rounded, exactly like float(Fraction(num, den))
        return _MARGIN + num / den * width, _MARGIN + (1.0 - rho) * height

    body = ['<g id="chains">']
    for chain in net_obj.chains:
        i, j = chain.i, chain.j
        # each chain runs between the rows ρ = 0 and ρ = 1
        if i > 0:
            colour = "#1f77b4"
            a, b = pixel(j, i, 0), pixel(j + 1, i, 1)
        elif i < 0:
            colour = "#d62728"
            a, b = pixel(j + 1, i, 1), pixel(j, i, 0)
        else:
            colour = "#444444"
            a, b = pixel(0, 1, -j), pixel(1, 1, -j)
        body.append(
            _pixel_line(a, b, f'stroke="{colour}" stroke-width="0.8" opacity="0.8"')
        )
    body.append("</g>")
    return _document(frame, body)


def render_decomposition(dec: ChainDecomposition, scale: int = 640) -> str:
    chain = dec.chain
    frame = _Frame((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), scale)
    body = ['<g id="curves">']
    for curve in dec.curves:
        a = (curve.theta_lo, chain.rho_at(curve.theta_lo))
        b = (curve.theta_hi, chain.rho_at(curve.theta_hi))
        body.append(_line(frame, a, b, 'stroke="#1f77b4" stroke-width="1.6"'))
        mid_theta = (curve.theta_lo + curve.theta_hi) / 2
        mid = (mid_theta, chain.rho_at(mid_theta))
        body.append(_text(frame, mid, format_word(curve.word), dy=-8.0))
    body.append("</g>")
    body.append('<g id="farey-points">')
    for fp in dec.farey_points:
        pos = (fp.theta, chain.rho_at(fp.theta))
        body.append(_circle(frame, pos, 3.0, 'fill="#d62728"'))
        body.append(_text(frame, pos, format_rational(fp.theta), dy=16.0))
        body.append(
            _text(frame, pos, format_word(fp.critical_word), dy=28.0, style='fill="#606060"')
        )
    body.append("</g>")
    return _document(frame, body)


def render_pencils(zeta: CriticalPoint, depth: int = 3, scale: int = 560) -> str:
    if depth < 0:
        raise ParameterError(f"pencil depth must be non-negative, got {depth}")
    frame = _Frame((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), scale)
    body = ['<g id="neighbour-dominants">']
    up, down = neighbours(zeta)
    for nb in (down, up):
        if nb is None:
            continue
        for params in dominant_params(nb):
            if params is None:
                continue
            a, b = _chain_ends(chain_new(*params))
            body.append(
                _line(
                    frame, a, b,
                    'stroke="#a0a0a0" stroke-width="0.8" stroke-dasharray="4 3"',
                )
            )
    body.append("</g>")
    for sigma in available_quadrants(zeta):
        colour = _QUADRANT_COLOURS[sigma]
        body.append(f'<g id="pencil-{sigma}">')
        for ell in range(depth + 1):
            desc = pencil_descriptor(zeta, sigma, ell)
            a, b = _chain_ends(chain_new(*desc.chain_params))
            width = "1.6" if ell == 0 else "1.0"
            body.append(_line(frame, a, b, f'stroke="{colour}" stroke-width="{width}"'))
            if desc.endpoint is not None:
                end = (desc.endpoint.theta, desc.endpoint.rho)
                body.append(_circle(frame, end, 2.4, f'fill="{colour}"'))
        body.append("</g>")
    body.append('<g id="base-point">')
    pos = (zeta.theta, zeta.rho)
    body.append(_circle(frame, pos, 3.4, 'fill="#000000"'))
    body.append(
        _text(frame, pos, f"({format_rational(zeta.theta)}, {format_rational(zeta.rho)})", dy=-10.0)
    )
    for nb in (down, up):
        if nb is not None:
            body.append(_circle(frame, (nb.theta, nb.rho), 2.4, 'fill="#404040"'))
    body.append("</g>")
    return _document(frame, body)


def _clip_chain(chain: Chain, window):
    """Exact intersection of a chain with a coordinate window."""
    (x0, x1), (y0, y1) = window
    lo = max(chain.theta_minus, x0)
    hi = min(chain.theta_plus, x1)
    if chain.i > 0:
        lo = max(lo, (y0 + chain.j) / chain.i)
        hi = min(hi, (y1 + chain.j) / chain.i)
    elif chain.i < 0:
        lo = max(lo, (y1 + chain.j) / chain.i)
        hi = min(hi, (y0 + chain.j) / chain.i)
    elif not y0 <= -chain.j <= y1:
        return None
    if lo >= hi:
        return None
    return (lo, chain.rho_at(lo)), (hi, chain.rho_at(hi))


def render_triples(zeta: CriticalPoint, scale: int = 560, normalized: bool = False) -> str:
    """The six dominant lines of ζ, ζ↑, ζ↓ and their two triple points.

    With ``normalized`` the figure is drawn in the blown-up coordinates
    u = q²(θ − p/q), v = q(ρ − r/s) that make the local structure
    comparable across base points.
    """
    report = triple_points(zeta)
    q = zeta.theta.denominator
    # ζ↓, ζ, ζ↑: the points whose dominant lines `report.column` holds
    bases = [(zeta.theta, zeta.rho + k * Fraction(1, q)) for k in (-1, 0, 1)]

    marks = bases + [(pt.location.theta, pt.location.rho) for pt in report.points]
    xs = sorted(p[0] for p in marks)
    ys = sorted(p[1] for p in marks)
    pad_x = (xs[-1] - xs[0]) * Fraction(3, 10)
    pad_y = (ys[-1] - ys[0]) * Fraction(3, 10)
    window = ((xs[0] - pad_x, xs[-1] + pad_x), (ys[0] - pad_y, ys[-1] + pad_y))

    if normalized:
        def transform(p):
            return (q * q * (p[0] - zeta.theta), q * (p[1] - zeta.rho))
    else:
        def transform(p):
            return p

    (wx0, wx1), (wy0, wy1) = window
    t_lo = transform((wx0, wy0))
    t_hi = transform((wx1, wy1))
    frame = _Frame((t_lo[0], t_hi[0]), (t_lo[1], t_hi[1]), scale)

    body = []
    for lines, gid, colour in zip(
        report.column, ("down", "self", "up"), ("#2ca02c", "#1f77b4", "#d62728")
    ):
        body.append(f'<g id="dominant-{gid}">')
        for params in lines:
            clipped = _clip_chain(chain_new(*params), window)
            if clipped is None:
                continue
            a, b = (transform(p) for p in clipped)
            body.append(_line(frame, a, b, f'stroke="{colour}" stroke-width="1.1"'))
        body.append("</g>")
    body.append('<g id="critical-points">')
    for base in bases:
        body.append(_circle(frame, transform(base), 2.6, 'fill="#404040"'))
    body.append("</g>")
    body.append('<g id="triple-points">')
    for pt in report.points:
        pos = transform((pt.location.theta, pt.location.rho))
        body.append(_circle(frame, pos, 3.4, 'fill="#000000"'))
        label = (
            f"{pt.chi_kind} ({format_rational(pt.location.theta)}, "
            f"{format_rational(pt.location.rho)})"
        )
        body.append(_text(frame, pos, label, dy=-10.0))
    body.append("</g>")
    return _document(frame, body)
