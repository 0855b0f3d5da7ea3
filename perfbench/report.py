"""Metric definitions and the arithmetic that turns raw child-process
measurements into named metrics."""

from __future__ import annotations

import itertools
import math
import statistics

from tracer import MEASURES, MODULES, ROOT
from workloads import VERIFY_CHECKS, VERIFY_JOBS

# (name, unit).  error_rate is 0 on a correct program and op_ms_p90
# exists only on workloads with >= 100 ops, so both are printed but not
# among the gated metrics, which every workload reports and none is 0.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("error_rate", "share"),
)
GATED = ("setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mib")

# Function-level metrics; every count and time is per traced op.
FUNCTION_METRICS = (
    "exact.farey_sequence.calls",
    "exact.farey_sequence.self_s",
    "exact.farey_sequence.members",
    "exact.continued_fraction.calls",
    "orbit.is_critical.calls",
    "orbit.is_critical.self_s",
    "orbit.is_critical.repeat_ratio",
    "orbit.brute_force_critical_word.calls",
    "orbit.brute_force_critical_word.self_s",
    "orbit.code_orbit.letters",
    "chains.decompose.calls",
    "chains.decompose.self_s",
    "chains.decompose.letters",
    "chains.decompose.oracle_s",
    "chains.farey_point_tests.calls",
    "chains.farey_point_tests.self_s",
    "points.point_context.calls",
    "points.point_context.repeat_ratio",
    "points.pencil_endpoint.self_s",
    "points.pencil_word.self_s",
    "points.dominant_words.self_s",
    "triples.triple_points.self_s",
    "triples.concurrency_oracle.self_s",
    "triples.triple_point_farey_status.self_s",
    "render.render_net.self_s",
    "render.segments_csv.self_s",
    "render.decomposition_document.self_s",
)
STAT_UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "members": "members/op",
    "letters": "letters/op",
    "oracle_s": "s/op",
    "repeat_ratio": "share",
}


def per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for module in MODULES:
        spec += [(f"{module}.self_share", "share"), (f"{module}.calls_per_op", "calls/op")]
    spec.append(("unspanned.self_share", "share"))
    spec += [(name, STAT_UNITS[name.rsplit(".", 1)[1]]) for name in FUNCTION_METRICS]
    spec += [("exact.fraction_new.calls", "calls/op"), ("render.bytes_out", "B/op")]
    spec += [(f"verify.{check}.s", "s") for check in VERIFY_CHECKS]
    spec += [("verify.critical_path_share", "share"), ("verify.pool_idle_s", "s"),
             ("trace.overhead_ratio", "ratio")]
    return spec


def percentile(samples: list[float], pct: float) -> float | None:
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it (so p90 needs 100 samples)."""
    n = len(samples)
    rank = max(1, math.ceil(pct / 100 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def end_to_end(setup_samples: list[float], latencies: list[float], round_ops: list[int],
               failed: int, peak_rss_kib: int) -> dict[str, float | None]:
    """Throughput is the median over rounds of ops / op time: every round
    runs the same mix of sizes, and the median resists the slow and fast
    spells of a shared machine better than one ratio over the whole run."""
    p90 = percentile(latencies, 90)
    ends = list(itertools.accumulate(round_ops))
    round_s = [sum(latencies[end - n:end]) for n, end in zip(round_ops, ends)]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(n / s for n, s in zip(round_ops, round_s)),
        "op_ms_p50": 1000 * statistics.median(latencies),
        "op_ms_p90": None if p90 is None else 1000 * p90,
        "peak_rss_mib": peak_rss_kib / 1024,
        "error_rate": failed / len(latencies),
    }


def per_layer(totals: dict, check_s: dict[str, float], sweep_wall_s: float,
              overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from a traced run's `Totals` (as a dict).

    `check_s` holds the serial per-check times (empty off verify-sweep),
    `sweep_wall_s` the median wall time of the pooled sweep.
    """
    ops, wall = totals["ops"], totals["wall_s"]
    calls, self_s = totals["calls"], totals["self_s"]
    out: dict[str, float] = {}
    for module in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == module]
        out[f"{module}.self_share"] = sum(self_s[n] for n in names) / wall
        out[f"{module}.calls_per_op"] = sum(calls[n] for n in names) / ops
    out["unspanned.self_share"] = self_s.get(ROOT, 0.0) / wall
    for metric in FUNCTION_METRICS:
        func, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(func, 0) / ops
        elif stat == "self_s":
            out[metric] = self_s.get(func, 0.0) / ops
        elif stat == "repeat_ratio":
            out[metric] = totals["repeats"].get(func, 0) / max(1, calls.get(func, 0))
        elif stat == "oracle_s":
            out[metric] = totals["oracle_s"].get(func, 0.0) / ops
        else:
            out[metric] = totals["measured"].get(func, 0) / ops
    out["exact.fraction_new.calls"] = totals["fractions"] / ops
    out["render.bytes_out"] = sum(
        v for name, v in totals["measured"].items() if MEASURES[name][0] == "bytes") / ops
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = check_s.get(check, 0.0)
    total_check_s = sum(check_s.values())
    out["verify.critical_path_share"] = (
        max(check_s.values()) / total_check_s if check_s else 0.0)
    out["verify.pool_idle_s"] = VERIFY_JOBS * sweep_wall_s - total_check_s if check_s else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
