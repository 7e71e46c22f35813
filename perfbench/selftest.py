"""Fast self-test of the benchmark, run from the root of the repository.

    python3 perfbench/selftest.py

Checks that the end-to-end and the traced metrics printed are exactly
those ``BENCHMARK.json`` names, with its units, and that for every kind of
output check a corrupted output is counted in ``failed`` while the
untouched output is not.  It uses a one-type library sweep and single
requests, so it finishes in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on the path)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


class TinySweep(workloads.LibrarySweep):
    MIX = ("B2",)
    traced_rounds = 1


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        if trace:
            requests, metrics = run.measure_traced(TinySweep(1))
        else:
            requests, metrics = run.measure(TinySweep(1), 0.0)
            args = run.parse_args(["--workload", "library-sweep"])
            metrics["setup_s"] = (run.measure_setup(args), "s")
        printed = run.result(requests, metrics)
        expect(printed["correct"] and printed["failed"] == 0, f"{section} run failed")
        units = {name: m["unit"] for name, m in printed["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[section]}
        expect(units == declared, f"{section} metrics {units} differ from {declared}")


def counted(workload, clean, corrupt, final: bool) -> bool:
    """Whether ``corrupt`` makes the checks fail a copy of ``clean``, and only then."""
    outcomes = []
    for output in (clean.output, corrupt(clean.output)):
        req = dataclasses.replace(clean, output=output, failed=False)
        workload.digest([req], 0)
        if final:
            workload.final_check()
        outcomes.append(req.failed)
    return outcomes == [False, True]


def executed(workload, kind: str, label: str):
    req = next(r for r in workload.round_requests(0) if r.kind == kind and r.label == label)
    workload.execute(req)
    expect(not req.failed, f"{kind} {label} failed before corruption")
    return req


def check_corruption() -> None:
    print("selftest: the check failures reported below are intended", file=sys.stderr)
    cli = workloads.CliCold(1)
    cases = {
        "published GL(4) list": (
            cli, executed(cli, "homology-gl4", "A3"),
            lambda out: out.replace('"mult_lo": 1', '"mult_lo": 0', 1), False),
        "factors vs oracle": (
            cli, executed(cli, "factors", "A3"),
            lambda out: re.sub(r", (\d+)\]", lambda m: f", {int(m[1]) + 1}]", out), True),
        "kl vs oracle": (
            cli, executed(cli, "kl", "A4"), lambda out: "1 + q^3\n", True),
    }
    structure = workloads.StructureLarge(1)
    cases["structure vs reference"] = (
        structure, executed(structure, "omega", "A4"),
        lambda out: out.rsplit(" ", 1)[0] + "\n", False)
    sweep = TinySweep(1)
    cases["sweep vs cold recomputation"] = (
        sweep, executed(sweep, "sweep", "B2"),
        lambda report: dataclasses.replace(report, entries=report.entries[:-1]), True)
    for name, (workload, clean, corrupt, final) in cases.items():
        expect(counted(workload, clean, corrupt, final), f"{name}: corruption not counted")
        failed = run.result([dataclasses.replace(clean, failed=True), clean], {})["failed"]
        expect(failed == 1, f"{name}: failed count {failed}, expected 1")


def main() -> int:
    check_corruption()
    check_metrics()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
