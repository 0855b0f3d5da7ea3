"""critcurves benchmark: four seeded workloads over the public library API.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs single-threaded in a
fresh interpreter (`child.py`, PYTHONHASHSEED=0, `src` on the path) as a
closed loop: one client, and the next op starts when the last one ends.

`--trace 0` primes the bytecode caches, times set-up in several fresh
interpreters, then measures the loop for `--seconds` of op time and
reports the end-to-end metrics.  `--trace 1` runs the loop untraced and
then traced for half of `--seconds` each, in two fresh interpreters, and
reports the per-layer metrics.  Human-readable lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9          # set-up is the median of this many fresh interpreters
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(env: dict, mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run child.py in its own process group and wait for all of it."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(seconds)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} {workload} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit(root: Path) -> str | None:
    """HEAD of a plain .git directory, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def measure(env: dict, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    run_child(env, "setup", name, seed, 0)       # writes the bytecode caches
    setups = [run_child(env, "setup", name, seed, 0) for _ in range(SETUP_SAMPLES - 1)]
    child = run_child(env, "measure", name, seed, seconds)
    setups.append(child)
    child["attempted"] = len(child["latencies"])
    values, raw = (
        report.end_to_end([s[prefix + "setup_s"] for s in setups], child[prefix + "latencies"],
                          child["round_ops"], child["failed"], child["peak_rss_kib"])
        for prefix in ("calibrated_", ""))
    print(f"{name}: closed loop, 1 client, {len(child['latencies'])} ops in "
          f"{sum(child['latencies']):.2f} s of op time; set-up median of {len(setups)}; "
          f"times calibrated to the reference kernel (raw in brackets)")
    for metric, unit in report.END_TO_END:
        value = values[metric]
        shown = "n/a (needs >= 100 ops)" if value is None else f"{value:.6g} {unit}"
        if value is not None and raw[metric] != value:
            shown += f" ({raw[metric]:.6g} {unit})"
        print(f"  {metric:<14} {shown}")
    metrics = {m: {"value": values[m], "unit": u} for m, u in report.END_TO_END
               if m in report.GATED}
    return child, metrics


def trace(env: dict, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    half = seconds / 2
    plain = run_child(env, "measure", name, seed, half)
    traced = run_child(env, "trace", name, seed, half)
    if "check_s" in traced:
        overhead = traced["untraced_s"] / traced["traced_s"]
        check_s, sweep_wall = traced["check_s"], statistics.median(plain["latencies"])
    else:
        # the traced child replays the untraced child's first rounds
        m = min(len(plain["round_s"]), len(traced["round_s"]))
        overhead = sum(plain["round_s"][:m]) / sum(traced["round_s"][:m])
        check_s, sweep_wall = {}, 0.0
    values = report.per_layer(traced["totals"], check_s, sweep_wall, overhead)
    units = dict(report.per_layer_spec())
    shares = sum(v for k, v in values.items() if k.endswith(".self_share"))
    print(f"{name}: traced {traced['totals']['ops']} ops; self shares sum to {shares:.6f}")
    for metric, value in values.items():
        print(f"  {metric:<42} {value:.6g} {units[metric]}")
    child = {
        "attempted": len(plain["latencies"]) + traced["totals"]["ops"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "digest": plain["digest"],
        "digest_ops": plain["digest_ops"],
        "properties": plain["properties"],
    }
    return child, {m: {"value": values[m], "unit": units[m]} for m in values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "critcurves" / "__init__.py").is_file():
        print("run from the repository root: src/critcurves is missing", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "machine": machine(root, args.seed)}
    env = child_env(root)
    try:
        if args.trace:
            child, metrics = trace(env, args.workload, args.seed, args.seconds)
        else:
            child, metrics = measure(env, args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["inputs"] = child["properties"]
    record["digest"] = {"sha256": child["digest"], "first_round_ops": child["digest_ops"]}
    for failure in child["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
