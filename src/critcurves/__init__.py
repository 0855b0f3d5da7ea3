"""Exact arithmetic for critical curves of circle rotations.

The parameter square holds a rotation number θ on the horizontal axis
and a partition point ρ on the vertical one.  This package computes the
lines of critical parameter pairs (chains), their Farey decomposition
into curves carrying symbolic words, the pencils of chains through a
rational critical point, and the triple points where dominant lines of
neighbouring critical points meet — everything over exact fractions.
The constructions use closed forms.  Their brute-force oracles (orbit
scans, residue covers, determinant geometry) live in `critcurves.oracles`,
outside `__all__`; only `critcurves verify` and the tests run them.
"""

from .chains import (
    Chain,
    ChainDecomposition,
    CurveSegment,
    FareyPoint,
    chain_new,
    curve_count,
    decompose,
)
from .errors import ConsistencyError, CriticalityError, DomainError, ParameterError
from .exact import (
    ContinuedFraction,
    Rational,
    continued_fraction,
    farey_bracket,
    farey_neighbours,
    farey_sequence,
    format_rational,
    parse_rational,
    rational,
)
from .net import Net, net
from .orbit import (
    CriticalPoint,
    Word,
    brute_force_critical_word,
    code_orbit,
    critical_point,
    format_word,
    is_critical,
    parse_word,
    signed_witness,
    switch_first,
)
from .points import (
    QUADRANTS,
    ApproachStep,
    PencilDescriptor,
    PointContext,
    approach_sequence,
    available_quadrants,
    dominant_params,
    dominant_words,
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
from .triples import (
    SIGN_TRIPLES,
    ConcurrencyEntry,
    TriplePoint,
    TriplePointReport,
    mu_of,
    psi,
    triple_point_farey_status,
    triple_points,
)
from .verify import CheckResult, SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "ApproachStep",
    "Chain",
    "ChainDecomposition",
    "CheckResult",
    "ConcurrencyEntry",
    "ConsistencyError",
    "ContinuedFraction",
    "CriticalPoint",
    "CriticalityError",
    "CurveSegment",
    "DomainError",
    "FareyPoint",
    "Net",
    "ParameterError",
    "PencilDescriptor",
    "PointContext",
    "QUADRANTS",
    "Rational",
    "SIGN_TRIPLES",
    "SUITE_NAMES",
    "TriplePoint",
    "TriplePointReport",
    "Word",
    "approach_sequence",
    "available_quadrants",
    "brute_force_critical_word",
    "chain_new",
    "code_orbit",
    "continued_fraction",
    "critical_point",
    "curve_count",
    "decompose",
    "decomposition_document",
    "dominant_params",
    "dominant_words",
    "farey_bracket",
    "farey_neighbours",
    "farey_sequence",
    "format_rational",
    "format_word",
    "is_critical",
    "mu_of",
    "neighbours",
    "net",
    "parse_rational",
    "parse_word",
    "pencil_descriptor",
    "pencil_word",
    "point_context",
    "psi",
    "rational",
    "render_decomposition",
    "render_net",
    "render_pencils",
    "render_triples",
    "run_suite",
    "segments_csv",
    "signed_witness",
    "switch_first",
    "triple_point_farey_status",
    "triple_points",
    "__version__",
]
