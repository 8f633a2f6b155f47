"""Checker benchmark: claim-A sweep, mem-capped POR class, two-worker service.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-sym --seed 1 --seconds 24 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; the workload
code is in ``workloads.py``.  One run:

1. derives its inputs from ``--seed``: the three input labels of the
   snapshot machine (the service's coordinator fixes its own to 1..3);
2. in a child process, warms the native kernel cache under
   ``perfbench/_work/native-cache`` for the workload's classes and runs
   the positive control (three classes at ``level_target=0`` must
   report incomparable outputs);
3. starts fresh child processes (at least three) for as long as the
   next one still ends within ``--seconds``; each measures set-up once
   and then makes three or four timed calls, checking every verdict,
   and is followed by a child that only measures set-up;
4. with ``--trace 1``, spends half the time on untraced and half on
   traced children (one call each), then builds the workload's
   kernels once from an empty cache, and reports the per-layer metrics
   instead of the end-to-end ones.

Timings are calibrated.  The host this was built on changes speed by a
third within minutes (two shared vCPUs), which no number of repetitions
averages out.  Every timed call is bracketed by a fixed calibration
loop (``workloads.calibrate``, no ``repro`` code), and the run divides
its timings by the host's slowdown: mean calibration time over its
reference time.  So ``wall_s`` is the mean call wall in reference-host
seconds, ``states_per_s`` the mean admitted states over it, and
``setup_s`` the median set-up over the same slowdown.  ``peak_rss_mb``
is the median over children of the high-water RSS of the child plus
its service workers.  The raw medians and the slowdown are in the
record line.

Standard output ends with a ``record`` line (provenance, every call's
numbers, the kernels that served) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Outside a checkout
(no ``src/repro``) the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD = HERE / "child.py"
#: A repetition that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 90.0
#: No repetition starts after this much of the run has passed, so the
#: whole run ends well inside the 180-second limit.
START_DEADLINE_S = 100.0
MIN_REPS = 3
#: Timed calls per untraced child process (the noisier the calls, the
#: more of them).
CALLS_PER_CHILD = {"sweep-sym": 3, "class-memcap": 4, "service-sweep": 4}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (imports no repro module at load time)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def labels_for_seed(seed: int) -> List[int]:
    """Three distinct input labels; the same seed gives the same labels."""
    return random.Random(seed).sample(range(1, 100), 3)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _first_line(command: List[str]) -> Optional[str]:
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=20, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    lines = completed.stdout.strip().splitlines()
    return lines[0] if lines else None


def tree_hash() -> str:
    """sha256 over the source and benchmark files (paths and bytes)."""
    digest = hashlib.sha256()
    files = sorted(
        path for base in (ROOT / "src", HERE)
        for path in base.rglob("*")
        if path.is_file() and "_work" not in path.parts
        and "__pycache__" not in path.parts
        and path.suffix not in (".pyc",)
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    compiler = None
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            compiler = _first_line([name, "--version"])
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "compiler": compiler,
        "git_describe": _first_line(
            ["git", "describe", "--always", "--dirty"]
        ),
        "tree_hash": tree_hash(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def run_child(config: Dict[str, Any], env: Dict[str, str]
              ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Run one child step; ``(result, None)`` or ``(None, error)``.

    The child leads its own process group, so a timeout kills the
    service workers it spawned along with it.
    """
    process = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, f"{config['mode']} timed out after {CHILD_TIMEOUT_S}s"
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-5:]
        return None, (
            f"{config['mode']} exited {process.returncode}: "
            + " | ".join(tail)
        )
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"{config['mode']} printed no result"


def median(values: List[float]) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark invocation's bookkeeping."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.labels = labels_for_seed(args.seed)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.kernels: List[str] = []
        self.env = dict(os.environ)
        self.env["REPRO_NATIVE_CACHE"] = str(WORK / "native-cache")
        self.env.pop("REPRO_NATIVE_DISABLE", None)
        self.started = time.monotonic()
        self.rep_seq = 0
        #: Set-up seconds of the set-up-only children.
        self.extra_setups: List[float] = []

    def verdicts(self, errors: List[Optional[str]]) -> None:
        self.attempted += len(errors)
        for error in errors:
            if error is not None:
                self.failed += 1
                self.errors.append(error)

    def child(self, mode: str, env: Optional[Dict[str, str]] = None,
              **extra: Any) -> Optional[Dict[str, Any]]:
        config = {"mode": mode, "workload": self.workload,
                  "labels": self.labels, **extra}
        result, error = run_child(config, env or self.env)
        if error is not None:
            self.errors.append(error)
        return result

    def rep(self, trace: bool, calls: int) -> Optional[Dict[str, Any]]:
        """One fresh child process: set-up, then ``calls`` timed calls."""
        self.rep_seq += 1
        work = WORK / "runs" / f"{self.workload}-{os.getpid()}-{self.rep_seq}"
        out = self.child("rep", trace=trace, work=str(work), calls=calls)
        shutil.rmtree(work, ignore_errors=True)
        if out is None:
            self.verdicts(
                ["repetition crashed"]
                * max(1, calls * workloads.expected_verdicts(self.workload))
            )
            return None
        for call in out["calls"]:
            self.verdicts(call["errors"])
        self.kernels += out["kernels"]
        return out

    def reps_for(self, seconds: float, calls: int, trace: bool = False,
                 setup_samples: bool = False) -> List[Dict[str, Any]]:
        """Children of ``calls`` calls until the next would end too late.

        Untraced children can make several calls: set-up already loaded
        every kernel, so a process's first call is no slower than its
        later ones.  With ``setup_samples`` each child is followed by
        one that only sets up, doubling the set-up samples cheaply.
        """
        outs: List[Dict[str, Any]] = []
        start = time.monotonic()
        attempts = 0
        last = 0.0
        while attempts < MIN_REPS or (
            time.monotonic() - start + last <= seconds
        ):
            if time.monotonic() - self.started > START_DEADLINE_S:
                break
            attempts += 1
            began = time.monotonic()
            out = self.rep(trace, calls)
            if out is not None:
                outs.append(out)
            if setup_samples:
                setup_only = self.rep(False, 0)
                if setup_only is not None:
                    self.extra_setups.append(setup_only["setup_s"])
            last = time.monotonic() - began
        return outs


def calls_of(outs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [call for out in outs for call in out["calls"]]


def host_slowdown(calls: List[Dict[str, Any]]) -> float:
    """How much slower than the reference host this run's host ran.

    The mean time of the calibration loop that bracketed each timed
    call, over its reference time (``workloads.CALIBRATION_REF_S``).
    """
    mean = sum(c["calibration_s"] for c in calls) / len(calls)
    return mean / workloads.CALIBRATION_REF_S


def calibrated_wall(calls: List[Dict[str, Any]]) -> float:
    """Mean wall time of ``calls`` in reference-host seconds."""
    mean = sum(c["wall_s"] for c in calls) / len(calls)
    return mean / host_slowdown(calls)


def end_to_end(outs: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, float]:
    calls = calls_of(outs)
    slowdown = host_slowdown(calls)
    wall_s = calibrated_wall(calls)
    return {
        "wall_s": wall_s,
        "states_per_s": sum(c["states"] for c in calls) / len(calls) / wall_s,
        "setup_s": median(setups) / slowdown,
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
    }


def raw_timings(outs: List[Dict[str, Any]],
                setups: List[float]) -> Dict[str, Any]:
    """Uncalibrated medians, for the record."""
    calls = calls_of(outs)
    return {
        "host_slowdown": host_slowdown(calls),
        "wall_s_median": median([c["wall_s"] for c in calls]),
        "calibration_s_median": median([c["calibration_s"] for c in calls]),
        "setup_s_median": median(setups),
        "setup_s_samples": setups,
        "calls": len(calls),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no src/repro under {ROOT}: run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args)
    stamp = provenance()
    prepared = run.child("prepare")
    if prepared is None:
        return fail("warm-up failed: " + "; ".join(run.errors))
    run.verdicts(prepared["control_errors"])
    run.kernels += prepared["kernels"]

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "labels": run.labels, "trace": args.trace,
        "seconds": args.seconds, "provenance": stamp,
    }
    if args.trace:
        # One call per child on both sides, so the overhead compares
        # like with like.
        plain = run.reps_for(args.seconds / 2, 1)
        traced = run.reps_for(args.seconds / 2, 1, trace=True)
        if not plain or not traced:
            return fail("no repetition completed: " + "; ".join(run.errors))
        cold_cache = WORK / f"cold-cache-{os.getpid()}"
        shutil.rmtree(cold_cache, ignore_errors=True)
        cold_env = dict(run.env, REPRO_NATIVE_CACHE=str(cold_cache))
        cold = run.child("cold", env=cold_env)
        shutil.rmtree(cold_cache, ignore_errors=True)
        traced_calls = calls_of(traced)
        metrics = {
            name: median([c["layers"][name] for c in traced_calls])
            for name in traced_calls[0]["layers"]
        }
        metrics["trace_overhead_share"] = (
            calibrated_wall(traced_calls) / calibrated_wall(calls_of(plain))
            - 1.0
        )
        metrics["checker.native.build_cold_s"] = (
            cold["build_cold_s"] if cold is not None else -1.0
        )
        all_outs = plain + traced
        metrics["disk_mb"] = median(
            [c["disk_bytes"] / 2 ** 20 for c in calls_of(all_outs)]
        )
        metrics["failed_share"] = run.failed / run.attempted
        record["raw"] = raw_timings(
            plain, [o["setup_s"] for o in plain] + run.extra_setups
        )
        record["reps"] = {"plain": plain, "traced": traced, "cold": cold}
    else:
        outs = run.reps_for(
            args.seconds, CALLS_PER_CHILD[args.workload], setup_samples=True
        )
        if not outs:
            return fail("no repetition completed: " + "; ".join(run.errors))
        setups = [o["setup_s"] for o in outs] + run.extra_setups
        metrics = end_to_end(outs, setups)
        record["raw"] = raw_timings(outs, setups)
        all_outs = outs
        record["reps"] = outs

    signatures = {
        json.dumps(c["signature"]) for c in calls_of(all_outs)
        if "signature" in c
    }
    if len(signatures) > 1:
        # A partitioned service run is deterministic: any two
        # repetitions of one job must report identical class results.
        run.verdicts(["service results differ between repetitions"])
    native = sum(1 for name in run.kernels if name == "native")
    if args.trace:
        metrics["checker.native.native_share"] = native / len(run.kernels)
    if native < len(run.kernels):
        print(
            f"perfbench: {len(run.kernels) - native} of {len(run.kernels)}"
            " kernels fell back to numpy (no working C compiler?)",
            file=sys.stderr,
        )
    record["kernels"] = {
        name: run.kernels.count(name) for name in sorted(set(run.kernels))
    }
    record["errors"] = run.errors

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not computed: {', '.join(missing)}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
