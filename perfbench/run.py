"""Benchmark of steinmult, run from the root of a checkout of the repository.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) against the sources in ``src/``
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the workload runs rounds of requests until ``--seconds``
of measured time have passed, and the metrics are the end-to-end ones:

* ``wall_s`` -- time to finish one round's request list, taking each
  request at the median of its latency over the run's rounds;
* ``req_p50_ms`` -- median latency of a single request;
* ``setup_s`` -- median, over several fresh interpreters, of the time from
  starting the interpreter to the first request: importing steinmult,
  making the inputs and, for ``library-sweep``, building the held groups;
* ``peak_rss_mb`` -- peak resident memory of the measuring process.

The times are given at a reference machine speed.  A short fixed piece of
interpreter work (``calibrate``) runs before and after every request and
set-up probe, and each time is scaled by ``REFERENCE_CALIBRATION_S`` over
the mean of the two calibrations.  On a shared host whose speed swings by
a quarter within seconds, this keeps the figures comparable between runs.
The times as measured go to standard error.

With ``--trace 1`` the first rounds of the workload (a fixed number, so
that call counts repeat exactly) are replayed three times from the state
after set-up: untraced, traced and untraced again.  The metrics are the
per-layer ones from ``tracing.py``, the undetermined homology entries of
the traced replay, and the tracing overhead.

Every output is checked (see ``workloads.py``); a failed or wrong request
counts in ``failed`` and makes ``correct`` false.  The run exits with code
2, printing no result, when the checkout has no steinmult sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20261017
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 9
#: Duration of one ``calibrate()`` call at the reference speed in which the
#: timing metrics are expressed.
REFERENCE_CALIBRATION_S = 0.025
#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "structure-large", "library-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure it is used."""
    if not (SRC / "steinmult" / "__init__.py").is_file():
        print(f"error: no steinmult sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import steinmult

    if Path(steinmult.__file__).resolve().parent != SRC / "steinmult":
        print(f"error: imported steinmult from {steinmult.__file__}", file=sys.stderr)
        raise SystemExit(2)


def pin_layout(argv: list[str]) -> None:
    """Re-execute this run with a fixed memory layout and hash seed, once.

    ``WeylGroup.enumerate_group`` sorts a set of identity-hashed elements
    and computes canonical words while sorting, so the number of
    ``multiply`` calls shifts by a few with the objects' addresses.
    Without address randomisation and with a fixed hash seed the addresses,
    and so the call counts, repeat from run to run.  Where the flag cannot
    be set the run goes on as it is.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
    except (OSError, AttributeError):
        return
    current = libc.personality(0xFFFFFFFF)
    if current == -1:
        return
    if current & ADDR_NO_RANDOMIZE and os.environ.get("PYTHONHASHSEED") == "0":
        return
    if libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


def calibrate() -> float:
    """Time a fixed piece of interpreter work, a probe of the machine's speed.

    It mixes what steinmult spends its time on: small tuples, generator
    sums, dictionary stores and Fraction arithmetic.
    """
    start = time.perf_counter()
    acc, slots = 0, {}
    for i in range(12000):
        row = (i, i + 1, i + 2)
        acc += sum(a * b for a, b in zip(row, row))
        slots[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - start


def run_round(workload, requests) -> float:
    """Run one round; return its measured seconds.

    Each request is timed between two calibrations, and its latency at the
    reference speed is its latency times ``REFERENCE_CALIBRATION_S`` over
    the mean of the two.
    """
    clock = time.perf_counter
    measured = 0.0
    before = calibrate()
    for req in requests:
        begin = clock()
        try:
            workload.execute(req)
        except Exception:  # a crashing request is a failed one; keep measuring
            req.failed = True
            traceback.print_exc()
        req.seconds = clock() - begin
        after = calibrate()
        req.reference_seconds = req.seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)
        measured += req.seconds
        before = after
    return measured


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from starting a fresh interpreter to its first request."""
    command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        start = time.monotonic_ns()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        end_ns, after = done.stdout.split()[-2:]
        seconds = (int(end_ns) - start) / 1e9
        times.append(seconds * 2 * REFERENCE_CALIBRATION_S / (before + float(after)))
    return statistics.median(times)


def measure(workload, seconds: float) -> tuple[list, dict]:
    """Run rounds until ``seconds`` of measured time; end-to-end metrics."""
    rounds, measured = [], 0.0
    while not rounds or measured < seconds:
        batch = workload.round_requests(len(rounds))
        measured += run_round(workload, batch)
        workload.digest(batch, len(rounds))
        rounds.append(batch)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    requests = [req for batch in rounds for req in batch]
    # Every round has the same mix of requests, so the request at one
    # position is the same kind in every round.
    by_position = zip(*([req.reference_seconds for req in batch] for batch in rounds))
    p50 = statistics.median(req.reference_seconds for req in requests)
    raw = zip(*([req.seconds for req in batch] for batch in rounds))
    print(f"as measured, before scaling to the reference speed: wall_s "
          f"{sum(statistics.median(times) for times in raw):.4f}, req_p50_ms "
          f"{statistics.median(req.seconds for req in requests) * 1e3:.2f}",
          file=sys.stderr)
    metrics = {
        "wall_s": (sum(statistics.median(times) for times in by_position), "s"),
        "req_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return requests, metrics


def replay(workload, tracer=None) -> list:
    """Run the first ``traced_rounds`` rounds again from the state after set-up."""
    workload.reset()
    requests = []
    for r in range(workload.traced_rounds):
        batch = workload.round_requests(r)
        if tracer is not None:
            tracer.install()
        try:
            run_round(workload, batch)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.digest(batch, r)
        requests += batch
    return requests


def measure_traced(workload) -> tuple[list, dict]:
    """Replay the first rounds untraced, traced and untraced; per-layer metrics."""
    import tracing

    before = replay(workload)
    undetermined, homology = workload.undetermined, workload.homology_requests
    tracer = tracing.Tracer()
    traced = replay(workload, tracer)
    undetermined = workload.undetermined - undetermined
    homology = workload.homology_requests - homology
    after = replay(workload)
    metrics = {}
    for name, (calls, self_s, distinct) in tracer.totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name in tracing.DISTINCT_KEYS:
            metrics[f"{name}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    complexes = tracer.totals["period_domain.build_complex"][0]
    metrics["period_domain.build_complex.per_homology"] = (
        complexes / homology if homology else 0.0, "calls/request")
    metrics["period_domain.undetermined"] = (undetermined, "count")
    # The request at one position does the same work in every replay.  Its
    # traced latency is compared with the mean of the untraced ones on
    # either side, which cancels a steady drift in machine speed, and the
    # median over positions resists bursts.
    ratios = [2 * t.reference_seconds / (b.reference_seconds + a.reference_seconds)
              for b, t, a in zip(before, traced, after)]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1.0, "ratio")
    return before + traced + after, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.trace:
        pin_layout(sys.argv[1:] if argv is None else argv)
    import_program()
    import workloads

    workload_class = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload_class(args.seed).round_requests(0)
        print(time.monotonic_ns(), calibrate())
        return 0
    if args.trace:
        workload = workload_class(args.seed)
        requests, metrics = measure_traced(workload)
    else:
        setup_s = measure_setup(args)
        workload = workload_class(args.seed)
        requests, metrics = measure(workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    workload.final_check()
    print(json.dumps(result(requests, metrics)))
    return 0


def result(requests, metrics: dict) -> dict:
    failed = sum(req.failed for req in requests)
    return {
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
