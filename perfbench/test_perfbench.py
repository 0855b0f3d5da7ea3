"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import critcurves
import report
from tracer import Totals, Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(k) for k in range(1, 101)]
    assert report.percentile(samples, 90) == 90.0
    assert report.percentile(samples[:99], 90) is None
    assert report.percentile(samples[:20], 50) == 10.0
    assert report.percentile(samples[:19], 50) is None
    assert report.percentile(list(reversed(samples)), 90) == 90.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, None, "op", 0.0, 10.0, None],
        [0, 0, "chains.decompose", 1.0, 5.0, SimpleNamespace(farey_points=(), curves=())],
        [0, 1, "orbit.brute_force_critical_word", 2.0, 4.0, None],
        [0, 2, "orbit.is_critical", 2.5, 3.0, None],
        [0, 0, "exact.farey_sequence", 6.0, 9.0, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.5, 0.5, 3.0]
    totals = Totals()
    totals.add_op(spans, fractions=7)
    # only the outermost orbit span under decompose counts as oracle time
    assert totals.oracle_s == {"chains.decompose": 2.0}
    assert sum(totals.self_s.values()) == totals.wall_s == 10.0


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "critcurves" or name.startswith("critcurves."):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    out[(name, attr)] = obj
    out["Fraction.__new__"] = Fraction.__dict__["__new__"]
    return out


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    zeta = critcurves.critical_point(Fraction(3, 5), Fraction(2, 5))
    with Tracer(critcurves) as tracer:
        # one wrapper, bound under every name that bound the original
        assert critcurves.points.is_critical is critcurves.orbit.is_critical
        assert critcurves.points.is_critical is not before[("critcurves.orbit", "is_critical")]
        assert critcurves.is_critical is critcurves.orbit.is_critical
        tracer.begin_op(0, 0.0)
        critcurves.point_context(zeta)
        critcurves.point_context(zeta)
        tracer.end_op(1e9)
    assert _bindings() == before
    totals = tracer.totals
    assert totals.calls["points.point_context"] == 2
    assert totals.repeats["points.point_context"] == 1
    assert totals.calls["orbit.is_critical"] >= 2
    assert totals.fractions > 0


def test_spans_carry_op_id_and_parent():
    with Tracer(critcurves) as tracer:
        recorded = []
        original_end = tracer.end_op

        def keep(end):
            recorded.extend(tracer.spans)
            original_end(end)

        tracer.end_op = keep
        tracer.begin_op(7, 0.0)
        critcurves.decompose(critcurves.chain_new(5, 2))
        tracer.end_op(1e9)
    names = [span[2] for span in recorded]
    assert all(span[0] == 7 for span in recorded)
    decompose = names.index("chains.decompose")
    assert recorded[decompose][1] == 0
    oracle = names.index("orbit.brute_force_critical_word")
    assert recorded[oracle][1] == decompose


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(workload.rounds(3), 3))
    assert first == list(itertools.islice(workload.rounds(3), 3))
    assert workload.warmup(3) == workload.warmup(3)
    if name != "verify-sweep":       # the suite ignores the seed
        assert first != list(itertools.islice(workload.rounds(4), 3))


@pytest.mark.parametrize("name", ["point-queries", "chain-decompose", "net-render"])
def test_warmup_ops_pass_their_checks(name):
    import random

    workload = WORKLOADS[name]
    for inp in workload.warmup(1):
        workload.check(critcurves, inp, workload.run(critcurves, inp), random.Random(0))


def test_benchmark_json_matches_the_metric_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(report.GATED)
    units = dict(report.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in bench["end_to_end"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == report.per_layer_spec()


def test_check_rejects_a_wrong_word():
    import random

    workload = WORKLOADS["chain-decompose"]
    out = json.loads(workload.run(critcurves, (7, 5)))
    curve = out["items"][1]
    curve["word"] = "b" + curve["word"][1:] if curve["word"][0] == "a" else "a" + curve["word"][1:]
    with pytest.raises(AssertionError):
        workload.check(critcurves, (7, 5), json.dumps(out), random.Random(0))


def test_net_check_rejects_a_wrong_csv_word():
    import random

    workload = WORKLOADS["net-render"]
    svg, csv_text = workload.run(critcurves, 6)
    header, *rows = csv_text.splitlines()
    flipped = [row[:-1] + {"a": "b", "b": "a"}[row[-1]] if row[-1] in "ab" else row
               for row in rows]
    with pytest.raises(AssertionError):
        workload.check(critcurves, 6, (svg, "\n".join([header, *flipped]) + "\n"),
                       random.Random(0))


class _Stub:
    """Rounds of three ops; op 1 raises, op 2 returns a wrong answer."""

    def rounds(self, seed):
        for start in itertools.count(0, 3):
            yield [start, start + 1, start + 2]

    def run(self, cc, inp):
        if inp == 1:
            raise ValueError("boom")
        return inp + (1 if inp == 2 else 0)

    def check(self, cc, inp, out, rng):
        assert out == inp

    def canon(self, out):
        yield str(out).encode()

    def properties(self, inputs):
        return {"ops": len(inputs)}


def test_closed_loop_counts_failures_and_ends_on_a_round():
    from child import closed_loop

    result = closed_loop(_Stub(), None, seed=0, seconds=0.0)
    assert len(result["latencies"]) == result["digest_ops"] == 3
    assert result["failed"] == 2 and len(result["round_s"]) == 1
    assert len(result["calibrated_latencies"]) == 3
    assert all(t > 0 for t in result["calibrated_latencies"])


def test_throughput_is_the_median_over_rounds_of_ops_per_op_second():
    values = report.end_to_end([0.3, 0.1, 0.2], [0.1, 0.1, 0.2, 0.2, 0.4], [2, 2, 1],
                               failed=1, peak_rss_kib=2048)
    assert values["ops_per_s"] == 5.0                # median of 10, 5 and 2.5
    assert values["op_ms_p50"] == 200.0
    assert values["op_ms_p90"] is None               # needs 100 ops
    assert values["setup_s"] == 0.2
    assert values["peak_rss_mib"] == 2.0 and values["error_rate"] == 0.2


_PACKAGE_IMPORTS = """
import sys
before = set(sys.modules)
import critcurves
print("\\n".join(sorted(set(sys.modules) - before)))
"""

_LOADED_AT_SETUP_START = """
import sys
import child
from workloads import WORKLOADS

for workload in WORKLOADS.values():
    workload.warmup(1)
loaded, real_clock = [], child.clock

def spy():
    if not loaded:
        loaded.extend(sys.modules)
    return real_clock()

child.clock = spy
child.setup(WORKLOADS["point-queries"], 1)
print("\\n".join(loaded))
"""


def _modules(script: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_setup_clock_starts_before_any_package_import():
    needed = _modules(_PACKAGE_IMPORTS)
    assert {"dataclasses", "fractions", "inspect", "json", "traceback"} <= needed
    assert needed & _modules(_LOADED_AT_SETUP_START) == set()
