"""Smoke test of the benchmark itself, on its tiny boxes (`--scale smoke`).

Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ellspec import assembly, certificates, solver  # noqa: E402


def _bench(root: Path, workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, kind):
    code, result = _bench(ROOT, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_fingerprint_gate_rejects_doctored_output():
    box = workloads.BOXES["smoke"]["search"]
    pinned = workloads.pins("search", "smoke")
    found, rows = workloads._solve_box(box, workloads.solver.SearchBounds(**box["bounds"]))
    text = certificates.dumps_certificates(found)
    assert workloads.fingerprint_failures(workloads.fingerprint(rows, text), pinned) == []

    doctored = text.replace('"x": 5', '"x": 6', 1)
    assert doctored != text
    assert workloads.fingerprint_failures(workloads.fingerprint(rows, doctored), pinned)
    fewer = {key: count - 1 for key, count in rows.items()}
    assert workloads.fingerprint_failures(workloads.fingerprint(fewer, text), pinned)


def test_certify_gate_pins_the_reject_set(tmp_path):
    state = workloads.setup("certify", 7, "smoke", tmp_path)
    try:
        assert workloads.iterate(state).failures == []
        doctored = dict(state.doctored)
        count = workloads.pins("certify", "smoke")["count"]
        genuine = next(pos for pos in range(count) if pos not in doctored)
        state.doctored = {**doctored, genuine: "u"}
        assert any("was accepted" in f for f in workloads.iterate(state).failures)
        dropped = next(iter(doctored))
        state.doctored = {pos: f for pos, f in doctored.items() if pos != dropped}
        assert any("was rejected" in f for f in workloads.iterate(state).failures)
    finally:
        workloads.teardown(state)


def test_tracer_patches_every_lookup_and_survives_a_missing_function(monkeypatch):
    original = assembly.evaluate_constraints
    ghost = tracing.Layer("solver.folded_away", "ellspec.solver", ("folded_away",))
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (ghost,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.evaluate_constraints is assembly.evaluate_constraints is not original
        tracer.begin_run()
        solver.consistency_check(3, -3, 1)
    finally:
        tracer.uninstall()
    assert solver.evaluate_constraints is assembly.evaluate_constraints is original
    assert tracer.missing == ["ellspec.solver.folded_away"]
    values = tracer.metrics()
    assert values["solver.folded_away.calls"] == 0
    assert values["solver.consistency_check.calls"] == 1
    assert values["solver.consistency_check.pass_ratio"] == 1


def test_command_fails_on_a_fingerprint_mismatch(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "benchmarks").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "hostclock.py"):
        shutil.copy(BENCH_DIR / name, tmp_path / "benchmarks" / name)
    source = tmp_path / "benchmarks" / "workloads.py"
    sha = workloads.pins("search", "smoke")["sha256"]
    source.write_text(source.read_text().replace(sha, "0" * 64))

    code, result = _bench(tmp_path, "search", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_command_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(BENCH_DIR / "run.py", tmp_path / "benchmarks" / "run.py")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_host_clock_scales_wall_time_by_the_sampled_speed(monkeypatch):
    # A host at half the reference speed: time on the clock runs at half
    # the wall-clock rate.
    monkeypatch.setattr(hostclock, "calibrate", lambda: 2 * hostclock.CAL_REF_S)
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        readings, wall = [clock.now()], time.perf_counter()
        while time.perf_counter() - wall < 0.5:
            readings.append(clock.now())
        wall = time.perf_counter() - wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert clock.ticks >= 3
    assert readings == sorted(readings)
    assert abs((readings[-1] - readings[0]) - wall / 2) < 0.02 * wall
