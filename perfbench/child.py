"""One workload in a fresh interpreter; prints one JSON line.

    python perfbench/child.py {setup,measure,trace} WORKLOAD SEED SECONDS

`src` must be on PYTHONPATH.  `setup` times the import of critcurves
plus the warm-up ops.  `measure` then runs the closed loop untraced;
`trace` runs it with spans.  Inputs are generated before the import.

The speed of a shared host drifts by tens of percent within seconds, so
every time is also reported calibrated: multiplied by
REFERENCE_KERNEL_S over the time a fixed stdlib kernel (`kernel_s`)
takes next to it, i.e. as it would read on a host where that kernel
takes REFERENCE_KERNEL_S.  The kernel runs between ops, outside the
timed region.
"""

import sys
import time

from workloads import VERIFY_MAX_Q, WORKLOADS, VerifySweep

# Set-up times the package's whole import, so nothing `critcurves`
# imports (json, traceback, fractions, inspect, ...) may be loaded before
# its clock starts: the rest of this file imports what it needs after it.

clock = time.perf_counter
MAX_FAILURES_SHOWN = 3
REFERENCE_KERNEL_S = 0.004
CALIBRATE_EVERY_S = 0.2     # wall time between calibrations in the loop
CALIBRATE_SHARE = 0.1       # a calibration lasts this share of the time since the last


def setup(workload, seed: int):
    """Import the package and run the warm-up ops; returns (cc, seconds)."""
    warmup = workload.warmup(seed)
    start = clock()
    import critcurves as cc
    for inp in warmup:
        workload.run(cc, inp)
    return cc, clock() - start


def calibrate(window_s: float = 0.0) -> float:
    """The mean kernel time over at least three passes and `window_s`
    seconds.  The host's speed changes within fractions of a second, so
    a long op gets a long window on each side."""
    times, end = [], clock() + window_s
    while len(times) < 3 or clock() < end:
        times.append(kernel_s())
    return sum(times) / len(times)


def kernel_s() -> float:
    """Seconds one pass of a fixed stdlib kernel takes: Fraction
    arithmetic, string joins and dict updates, the kind of interpreter
    work the ops do.  The cyclic GC is off meanwhile, so the program's
    live heap does not change the result."""
    import gc
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    acc, seen = Fraction(0), {}
    for k in range(1, 300):
        x = Fraction(k, 2 * k + 1)
        acc += x * x - Fraction(1, k + 2)
        word = "".join("ab"[(k * m >> 2) & 1] for m in range(24))
        seen[word] = seen.get(word, 0) + 1
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


def closed_loop(workload, cc, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole rounds, one op at a time, until the ops have taken
    `seconds` in total, or the wall clock has run for twice that plus a
    minute.

    Only the op call is timed.  Its output is checked and digested
    between ops, then dropped, so memory holds one op's output at a time.
    Calibration runs whenever CALIBRATE_EVERY_S has passed since the last
    one, for CALIBRATE_SHARE of that time, and each op's calibrated
    latency uses the mean of the kernel times before and after it.
    Every exception counts as a failed op: no generated input has a
    documented DomainError.
    """
    import hashlib
    import random
    import traceback

    latencies, round_ops, round_s, inputs = [], [], [], []
    failures: list[str] = []
    digest, digest_ops = hashlib.sha256(), 0
    kernel_s()                      # warm the kernel's own code paths
    kernels, op_kernel = [calibrate(CALIBRATE_EVERY_S)], []
    calibrated_at = clock()
    deadline = clock() + 2 * seconds + 60
    for round_index, round_inputs in enumerate(workload.rounds(seed)):
        spent = 0.0
        for inp in round_inputs:
            op_id = len(latencies)
            start = clock()
            if tracer is not None:
                tracer.begin_op(op_id, start)
            try:
                out, error = workload.run(cc, inp), None
            except Exception:
                out, error = None, traceback.format_exc()
            end = clock()
            if tracer is not None:
                tracer.end_op(end)
            latencies.append(end - start)
            op_kernel.append(len(kernels) - 1)
            inputs.append(inp)
            spent += end - start
            if error is None:
                try:
                    workload.check(cc, inp, out, random.Random(f"{seed}:check:{op_id}"))
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failures.append(f"op {op_id} input {inp!r}:\n{error}")
            if round_index == 0:
                for chunk in [b"error"] if error else workload.canon(out):
                    digest.update(chunk)
                digest_ops += 1
            del out
            since = clock() - calibrated_at
            if since >= CALIBRATE_EVERY_S:
                kernels.append(calibrate(CALIBRATE_SHARE * since))
                calibrated_at = clock()
            if clock() > deadline:
                break
        round_ops.append(len(latencies) - sum(round_ops))
        round_s.append(spent)
        if sum(round_s) >= seconds or clock() > deadline:
            break
    kernels.append(calibrate(CALIBRATE_SHARE * (clock() - calibrated_at)))
    return {
        "latencies": latencies,
        "calibrated_latencies": [
            latency * 2 * REFERENCE_KERNEL_S / (kernels[k] + kernels[k + 1])
            for latency, k in zip(latencies, op_kernel)],
        "round_ops": round_ops,
        "round_s": round_s,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "digest": digest.hexdigest(),
        "digest_ops": digest_ops,
        "properties": workload.properties(inputs),
    }


def traced_sweep(cc) -> dict:
    """verify-sweep's traced run: wrappers do not reach pool workers, so
    call the public check functions serially, first untraced with one
    timing per check, then as one traced op."""
    import traceback

    from tracer import Tracer

    check_s, details = {}, {}
    for name, func in VerifySweep.check_functions(cc):
        start = clock()
        details[name] = func(VERIFY_MAX_Q)
        check_s[name] = clock() - start
    failures = []
    with Tracer(cc) as tracer:
        checks = VerifySweep.check_functions(cc)
        start = clock()
        tracer.begin_op(0, start)
        try:
            traced = {name: func(VERIFY_MAX_Q) for name, func in checks}
        except Exception:
            traced = None
            failures.append(traceback.format_exc())
        end = clock()
        tracer.end_op(end)
    if traced is not None and traced != details:
        failures.append("traced check details differ from the untraced pass")
    return {
        "check_s": check_s,
        "untraced_s": sum(check_s.values()),
        "traced_s": end - start,
        "failed": len(failures),
        "failures": failures,
        "totals": vars(tracer.totals),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = WORKLOADS[name]
    cc, setup_s = setup(workload, seed)
    import json
    import resource

    kernel_s()
    result: dict = {
        "setup_s": setup_s,
        "calibrated_setup_s": setup_s * REFERENCE_KERNEL_S / calibrate(),
    }
    if mode == "measure":
        result.update(closed_loop(workload, cc, seed, seconds))
        result["peak_rss_kib"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
    elif mode == "trace":
        if isinstance(workload, VerifySweep):
            result.update(traced_sweep(cc))
        else:
            from tracer import Tracer

            with Tracer(cc) as tracer:
                result.update(closed_loop(workload, cc, seed, seconds, tracer))
            result["totals"] = vars(tracer.totals)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
