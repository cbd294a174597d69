#!/usr/bin/env python3
"""End-to-end benchmark of the Diffuse reproduction: one command.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--seconds S]

runs each workload in a fresh child process, one at a time — first with
tracing off for the end-to-end metrics, then traced for the per-layer
metrics — checks every result against its reference, and prints every
metric by name with its unit.  ``--trace 0|1`` runs a single pass and
ends with one line of JSON (the form the benchmark driver calls):

    {"correct": true, "attempted": 1290, "failed": 0, "metrics": {...}}

See README.md in this directory for the workloads, metrics and method.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: A child that has not reported by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170.0

#: Tolerance of every comparison against a committed reference.
RTOL = 1e-9


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_bench():
    """Import the program under test and the benchmark package, or exit."""
    if not (SOURCE / "repro").is_dir():
        _fail(f"the program under test is missing: {SOURCE / 'repro'} not found")
    for path in (str(SOURCE), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from e2ebench import runner, workloads

    return runner, workloads


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child side.
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this (fresh) process; print one JSON line."""
    runner, workloads = _import_bench()
    workload = workloads.BY_NAME[args.workload]
    if args.reference:
        print(json.dumps(runner.reference(workload, args.seed)))
        return 0
    measurement = runner.measure(
        workload, args.seed, seconds=args.seconds, sessions=args.sessions,
        traced=bool(args.trace),
    )
    leftover = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leftover:
        measurement.problems.append(f"environment not restored: {leftover}")
    if measurement.trace is not None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload.name}.json", "w") as handle:
            json.dump(measurement.trace, handle)
    print(runner.to_json(workload, measurement))
    return 0


# ----------------------------------------------------------------------
# Parent side: spawn, hygiene, reference check.
# ----------------------------------------------------------------------
def _session_members(session_id: int) -> List[int]:
    """Pids of live processes in the child's session (orphaned workers)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session_id and fields[0] != "Z":
            members.append(int(entry))
    return members


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_child(extra: List[str]) -> Dict[str, object]:
    """Run ``run.py --child ...``; returns its report plus hygiene problems."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(HERE)])
    shm_before = _shm_entries()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", *extra],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    hygiene: List[str] = []
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        hygiene.append(f"child exceeded {CHILD_TIMEOUT_S:.0f} s and was killed")
        stdout = ""
    finally:
        # Whatever the child left behind in its session is an orphan.
        orphans = _session_members(child.pid)
        if child.poll() is None or orphans:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            deadline = time.monotonic() + 5.0
            while _session_members(child.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
        if orphans:
            hygiene.append(f"worker processes outlived the run: {orphans}")
    leaked = sorted(_shm_entries() - shm_before)
    if leaked:
        hygiene.append(f"/dev/shm entries leaked: {leaked}")
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if child.returncode != 0 or not lines:
        report: Dict[str, object] = {"problems": [f"child exited with {child.returncode}"]}
    else:
        report = json.loads(lines[-1])
    report.setdefault("problems", []).extend(hygiene)
    return report


def check_reference(workloads, name: str, seed: int, report: Dict[str, object]) -> List[str]:
    """Compare a report with ``expected.json`` (seed-path results)."""
    try:
        with open(EXPECTED) as handle:
            expected = json.load(handle)
    except OSError:
        return ["expected.json is missing (run with --update-expected)"]
    key = str(seed) if workloads.BY_NAME[name].seeded else "0"
    entry = expected.get(name, {}).get(key)
    if entry is None or report.get("checksum") is None:
        return []
    problems = []
    got, want = report["checksum"], entry["checksum"]
    if abs(got - want) > RTOL * abs(want):
        problems.append(f"checksum {got!r} differs from the reference {want!r}")
    # Simulated results may improve on the reference, never fall behind.
    for metric in ("sim.ops_per_s", "sim.fusion_speedup"):
        got, want = report["per_layer"].get(metric, 0.0), entry[metric]
        if got < want * (1.0 - RTOL):
            problems.append(f"{metric} {got!r} is below the reference {want!r}")
    return problems


def run_pass(workloads, name: str, seed: int, trace: int, size: List[str]) -> Dict[str, object]:
    """One pass of one workload, with every check applied."""
    report = run_child(["--workload", name, "--seed", str(seed), "--trace", str(trace), *size])
    if "end_to_end" in report:
        report["problems"].extend(check_reference(workloads, name, seed, report))
    if report["problems"]:
        report["failed"] = report.get("attempted") or 1
    report.setdefault("attempted", 1)
    report.setdefault("failed", report["attempted"])
    return report


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def _units(manifest: Dict[str, object], section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def driver_line(manifest: Dict[str, object], report: Dict[str, object], trace: int) -> str:
    """The contract's last line: correct / attempted / failed / metrics."""
    section = "per_layer" if trace else "end_to_end"
    units = _units(manifest, section)
    values = report.get(section, {})
    return json.dumps(
        {
            "correct": not report["problems"] and report["failed"] == 0,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_report(manifest: Dict[str, object], name: str, report: Dict[str, object], section: str) -> None:
    units = _units(manifest, section)
    values = report.get(section, {})
    label = "end-to-end (tracing off)" if section == "end_to_end" else "per layer (traced)"
    print(f"\n== {name}: {label} ==")
    if "host" in report:
        print(
            f"   sessions={report['sessions']}+{report['traced_sessions']} traced  "
            f"host={report['host']}  flags={report['flags']}"
        )
    for metric, unit in units.items():
        print(f"   {metric:38s} {values.get(metric, float('nan')):>16.6g} {unit}")
    print(f"   attempted={report['attempted']} failed={report['failed']}")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")


def run_set(manifest, workloads, names: List[str], seed: int, passes: List[int], size: List[str]):
    """Every requested workload and pass; returns {workload: merged report}."""
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        merged: Dict[str, object] = {"problems": [], "attempted": 0, "failed": 0}
        for trace in passes:
            report = run_pass(workloads, name, seed, trace, size)
            section = "per_layer" if trace else "end_to_end"
            print_report(manifest, name, report, section)
            merged[section] = report.get(section, {})
            merged["problems"] += report["problems"]
            merged["attempted"] += report["attempted"]
            merged["failed"] += report["failed"]
            merged.setdefault("host", report.get("host"))
            merged.setdefault("flags", report.get("flags"))
        results[name] = merged
    return results


def update_expected(workloads, names: List[str]) -> int:
    """Regenerate the named workloads' entries of ``expected.json``."""
    try:
        with open(EXPECTED) as handle:
            expected: Dict[str, Dict[str, object]] = json.load(handle)
    except OSError:
        expected = {}
    for name in names:
        expected[name] = {}
        seeds = (0, 1) if workloads.BY_NAME[name].seeded else (0,)
        for seed in seeds:
            report = run_child(["--workload", name, "--seed", str(seed), "--reference"])
            if report.get("problems"):
                print(f"{name} seed {seed}: {report['problems']}", file=sys.stderr)
                return 1
            report.pop("problems")
            expected[name][str(seed)] = report
            print(f"{name} seed {seed}: {report}")
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def repeat_check(manifest, first, second) -> int:
    """Print each end-to-end metric's difference between two sets."""
    worst = 0
    print("\n== repeat check: relative difference of two sets of the same commit ==")
    for name in first:
        for metric in manifest["end_to_end"]:
            a = first[name].get("end_to_end", {}).get(metric["name"])
            b = second[name].get("end_to_end", {}).get(metric["name"])
            if not a or not b:
                continue
            difference = abs(a - b) / min(a, b)
            verdict = "ok" if difference <= metric["bound"] else "OUTSIDE"
            worst |= verdict != "ok"
            print(
                f"   {name:18s} {metric['name']:14s} {a:12.5g} {b:12.5g} "
                f"diff {difference:7.2%}  bound {metric['bound']:.0%}  {verdict}"
            )
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, help="measuring time per pass (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--sessions", type=int, help="run this many sessions per pass instead of a time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one pass and end with the driver's JSON line")
    parser.add_argument("--runs", type=int, default=1, help="repeat the untraced pass this many times (compare.py judges spread from them)")
    parser.add_argument("--json", help="also write the full report to this file (input of compare.py)")
    parser.add_argument("--update-expected", action="store_true", help="regenerate expected.json through the seed path")
    parser.add_argument("--repeat-check", action="store_true", help="run two sets and compare them against the bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    _runner, workloads = _import_bench()
    manifest = load_manifest()
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    for name in names:
        if name not in workloads.BY_NAME:
            _fail(f"unknown workload {name!r}; known: {sorted(workloads.BY_NAME)}")
    if args.update_expected:
        return update_expected(workloads, names)

    if args.sessions is not None:
        size = ["--sessions", str(args.sessions)]
    else:
        size = ["--seconds", str(args.seconds if args.seconds is not None else manifest["run_seconds"])]

    if args.trace is not None and args.workload:
        report = run_pass(workloads, args.workload, args.seed, args.trace, size)
        print_report(manifest, args.workload, report, "per_layer" if args.trace else "end_to_end")
        print(driver_line(manifest, report, args.trace))
        return 0

    passes = [0, 1] if args.trace is None else [args.trace]
    runs = [run_set(manifest, workloads, names, args.seed, passes, size)]
    for _ in range(max(args.runs, 2 if args.repeat_check else 1) - 1):
        runs.append(run_set(manifest, workloads, names, args.seed, [0], size))
    status = int(any(result["failed"] for results in runs for result in results.values()))
    if args.repeat_check:
        status |= repeat_check(manifest, runs[0], runs[1])
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "runs": runs}, handle, indent=2)
            handle.write("\n")
    print("\nall workloads correct" if not status else "\nFAILED (see PROBLEM lines)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
