"""Benchmark entry point.

    python3 benchmarks/run.py --workload {search,sweep,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; ellspec is imported from its `src/`
directory, never from an installed copy.  With --trace 0 the run measures
the end-to-end metrics with tracing off; with --trace 1 it measures the
workload untraced and then traced and reports the per-layer metrics.  Both
check every iteration's output against the pinned fingerprints.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The exit code is nonzero when any operation failed.

Every timing is read from a HostClock (hostclock.py), which scales wall time
by the host's speed, sampled every 50 ms by a fixed calibration loop.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostclock import HostClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("search", "sweep", "certify")
SCALES = ("full", "smoke")
# Set-up samples per run, the median of which is setup_s.  certify's set-up
# solves the search box (seconds), the others only import the package.
SETUP_REPEATS = {"search": 11, "sweep": 11, "certify": 3}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
CHILD_TIMEOUT_S = 150
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("certs_per_s", "1/s"),
    ("verify_ms.p50", "ms"),
    ("file_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)
# Printed beside the end-to-end metrics but kept out of BENCHMARK.json.
# wall_s is run_s in plain wall time, which moves with the host's speed;
# verify_ms.tail catches the host's millisecond spells, which the clock's
# 50 ms samples cannot follow.
PRINTED_ONLY = (
    ("wall_s", "s"),
    ("verify_ms.tail", "ms"),
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="ellspec benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full",
                   help="'smoke' runs tiny boxes, for the benchmark's own test")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return p


def _git_sha() -> str:
    git = ROOT / ".git"
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
    return "unknown"


def _src_sha256() -> str:
    """Digest of the package sources, which names the code measured even in
    a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _stamp(args, box: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "box": box,
        "workers": 1,
    }


def _timed_setup(args, clock):
    """Import the package and build the workload's inputs, timed together."""
    start = clock.now()
    import workloads

    state = workloads.setup(args.workload, args.seed, args.scale, OUT_DIR)
    return workloads, state, clock.now() - start


def _child(args) -> int:
    """One set-up in a fresh process; with kind 'measure', also the measured
    iterations and the process's peak resident memory."""
    with HostClock() as clock:
        workloads, state, setup_s = _timed_setup(args, clock)
        try:
            result = {"setup_s": setup_s, "attempted": 1, "failures": list(state.failures),
                      "box": state.box}
            if args.child == "measure":
                times, walls, outcomes = _measure(workloads, state, args.seconds, clock)
        finally:
            workloads.teardown(state)
    if args.child == "measure":
        result.update(
            times=times,
            walls=walls,
            verify_ms=[ms for o in outcomes for ms in o.verify_ms],
            rates=[len(o.verify_ms) / o.verify_s for o in outcomes if o.verify_s > 0],
            file_bytes=outcomes[-1].file_bytes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ticks=clock.ticks,
        )
        result["attempted"] += sum(o.attempted for o in outcomes)
        result["failures"] += [f for o in outcomes for f in o.failures]
    print(json.dumps(result))
    return 0


def _spawn(kind: str, args) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child", kind,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(workloads, state, seconds: float, clock, before_iteration=None):
    """Run checked iterations until `seconds` have passed (at least one).
    Returns each iteration's time on the clock, its wall time less the
    clock's calibrations, and its outcome."""
    times, walls, outcomes = [], [], []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        if before_iteration is not None:
            before_iteration()
        start, wall, calibration = clock.now(), time.perf_counter(), clock.calibration_s
        outcomes.append(workloads.iterate(state, clock.now))
        times.append(clock.now() - start)
        walls.append(time.perf_counter() - wall - (clock.calibration_s - calibration))
    return times, walls, outcomes


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it
    (nearest rank), or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-n * pct // 100)  # ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


@dataclass
class Report:
    """Everything one benchmark run reports."""

    box: dict
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)


def _run(args) -> Report:
    """End-to-end metrics.  The iterations run in one fresh child process,
    which also gives the peak memory; set-up is sampled in further fresh
    processes, half before and half after it."""
    extra = SETUP_REPEATS[args.workload] - 1
    before = [_spawn("setup", args) for _ in range(extra // 2)]
    run = _spawn("measure", args)
    children = before + [run] + [_spawn("setup", args) for _ in range(extra - extra // 2)]
    report = Report(
        box=run["box"],
        attempted=sum(child["attempted"] for child in children),
        failures=[f for child in children for f in child["failures"]],
        samples={
            "setup_s": [child["setup_s"] for child in children],
            "run_s": run["times"],
            "wall_s": run["walls"],
            "verify_ms": run["verify_ms"],
        },
    )
    latencies = run["verify_ms"]
    if not latencies:
        report.failures.append("no certificate was verified")
        return report
    pct, tail = _tail(latencies)
    report.notes = [
        f"setup_s: median of {len(children)} set-ups",
        f"run_s and certs_per_s: median of {len(run['times'])} iterations",
        f"verify_ms: {len(latencies)} verifications; the tail is p{pct:g}",
        f"times on the host clock: {run['ticks']} speed samples in the measured child",
    ]
    values = {
        "setup_s": statistics.median(report.samples["setup_s"]),
        "run_s": statistics.median(run["times"]),
        "wall_s": statistics.median(run["walls"]),
        "file_bytes": run["file_bytes"],
        "peak_rss_mb": run["peak_rss_mb"],
        "certs_per_s": statistics.median(run["rates"]),
        "verify_ms.p50": statistics.median(latencies),
        "verify_ms.tail": tail,
    }
    report.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    report.printed = {name: (values[name], unit) for name, unit in PRINTED_ONLY}
    return report


def _traced_run(args) -> Report:
    """Per-layer metrics: the workload untraced, then traced, in-process."""
    import tracing

    with HostClock() as clock:
        workloads, state, _ = _timed_setup(args, clock)
        tracer = tracing.Tracer(clock.now)
        try:
            untraced, _, plain = _measure(workloads, state, args.seconds / 2, clock)
            tracer.install()
            try:
                traced, _, outcomes = _measure(
                    workloads, state, args.seconds / 2, clock, tracer.begin_run
                )
            finally:
                tracer.uninstall()
        finally:
            workloads.teardown(state)
    outcomes = plain + outcomes
    values = tracer.metrics()
    values["trace.traced_run_s"] = statistics.median(traced)
    values["trace.untraced_run_s"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = values["trace.traced_run_s"] / values["trace.untraced_run_s"]
    spans = OUT_DIR / f"spans-{args.workload}-{args.scale}.json.gz"
    tracer.write(spans, _stamp(args, state.box))
    report = Report(
        box=state.box,
        metrics={name: (values[name], unit) for name, unit in tracing.metric_names()},
        attempted=1 + sum(o.attempted for o in outcomes),
        failures=list(state.failures) + [f for o in outcomes for f in o.failures],
        notes=[
            f"traced {len(traced)} and untraced {len(untraced)} iterations",
            f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}",
        ],
        samples={"untraced_run_s": untraced, "traced_run_s": traced},
    )
    if tracer.missing:
        report.notes.append(f"missing (recorded as empty spans): {', '.join(tracer.missing)}")
    return report


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "ellspec" / "__init__.py").is_file():
        print(f"error: no ellspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.child:
        return _child(args)
    compileall.compile_dir(SRC, quiet=1)

    try:
        report = _traced_run(args) if args.trace else _run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stamp = _stamp(args, report.box)
    failed, attempted = len(report.failures), report.attempted
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in report.metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for name, (value, unit) in report.printed.items():
        print(f"{name:<44} {value:>16.6g} {unit} (printed only)")
    print(f"{'fail_ratio':<44} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for note in report.notes:
        print(f"  {note}")
    for failure in report.failures[:20]:
        print(f"FAIL {failure}")

    result = {
        "correct": not report.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }
    record = OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "stamp": stamp, "notes": report.notes, "failures": report.failures,
        "printed": report.printed, "samples": report.samples, **result,
    }) + "\n")
    print(json.dumps(result))
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
