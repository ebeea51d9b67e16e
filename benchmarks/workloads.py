"""The benchmark's workloads: seeded inputs, one checked iteration each, and
the pinned fingerprints that decide whether an iteration's output is right.

search   solve(3, 6) on the quick box.  The d-grid scan, the twist classes
         and the constraint evaluation dominate; the gates do almost nothing.
sweep    every table row with non-constant Hecke lists and a one-step d-grid.
         The consistency gate and the list sums dominate; the d-grid and the
         constraint evaluation are nearly bypassed, so lattice and assembly
         changes should leave it flat.
certify  load a seeded, partly doctored certificate file, verify every
         entry, dump it back and run the golden report: the verify direction
         of the pipeline and the certificate codec, with no gates.

search and sweep scan fixed boxes, so their output never depends on the
seed; the seed only draws which of their certificates the gate re-verifies.
For certify the seed picks the file order, which entries are doctored and in
which field.  Everything runs in one process with workers=1.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import ellspec
from ellspec import certificates, cli, solver
from ellspec.errors import TamperError
from ellspec.lattice import Surface, named_class

WORKERS = 1
ALL_ROWS = ((2, 4), (2, 6), (3, 5), (3, 6), (4, 7))
QUICK_BOX = {"u_abs": 4, "x_abs": 8, "z_min": 0, "z_max": 2, "d_abs": 12, "a_max": 1}
TINY_BOX = {"u_abs": 4, "x_abs": 8, "z_min": 1, "z_max": 1, "d_abs": 4, "a_max": 0}

# Each box: the table rows solved, the SearchBounds, the list mode, and for
# search and sweep how many certificates the gate re-verifies per iteration
# (drawn once, with replacement; also their verify_ms samples).  "full" is
# what the benchmark measures; "smoke" is a tiny box for its smoke test.
# sweep uses a_max=1: at a_max=2 one iteration takes 5.5 s, too few per run
# for a steady figure on a shared host, and the gates still dominate at 1.
CERTIFY = {"rows": [[3, 6]], "allow_nonconstant_lists": False}
SEARCH = {**CERTIFY, "verify_sample": 64}
SWEEP = {"rows": [list(r) for r in ALL_ROWS], "allow_nonconstant_lists": True, "verify_sample": 16}
BOXES = {
    "full": {
        "search": {**SEARCH, "bounds": QUICK_BOX},
        "sweep": {
            **SWEEP,
            "bounds": {"u_abs": 12, "x_abs": 20, "z_min": 0, "z_max": 4, "d_abs": 1, "a_max": 1},
        },
        "certify": {**CERTIFY, "bounds": QUICK_BOX},
    },
    "smoke": {
        "search": {**SEARCH, "bounds": TINY_BOX},
        "sweep": {
            **SWEEP,
            "bounds": {"u_abs": 4, "x_abs": 8, "z_min": 0, "z_max": 2, "d_abs": 1, "a_max": 1},
        },
        "certify": {**CERTIFY, "bounds": TINY_BOX},
    },
}

# What a correct solve of each box gives: the certificate count per row and
# in total, and the sha256 of dumps_certificates over all rows in order.
# certify solves the search box in its set-up, so it shares search's pins,
# and also pins the sha256 of `ellspec report`'s output.
FINGERPRINTS = {
    "full": {
        "search": {
            "count": 416,
            "rows": {"3,6": 416},
            "sha256": "43556b04eefb973e40d4eb80a16d3af3d16fb1864117ac94b64de7c9a8936e28",
        },
        "sweep": {
            "count": 4,
            "rows": {"2,4": 0, "2,6": 0, "3,5": 0, "3,6": 4, "4,7": 0},
            "sha256": "08ae03a288d31ee949cc63796c719bb21c2ef29ae318626af025beb482bb8117",
        },
    },
    "smoke": {
        "search": {
            "count": 15,
            "rows": {"3,6": 15},
            "sha256": "f5cdf5a0086765fd02249bd0948d90656a9edc629d0bee46eb06e169e6bf1579",
        },
        "sweep": {
            "count": 4,
            "rows": {"2,4": 0, "2,6": 0, "3,5": 0, "3,6": 4, "4,7": 0},
            "sha256": "08ae03a288d31ee949cc63796c719bb21c2ef29ae318626af025beb482bb8117",
        },
    },
}
REPORT_SHA256 = "f60a639d84ff61c7f0f9a855f5945dec79b96ce4ede4c5ca500699969fe9b17d"

DOCTOR_SHARE = 0.125  # share of the certify file that is doctored


def _bump_entry(report, name):
    entries = tuple(
        replace(e, value=e.value + 1) if e.name == name else e for e in report.entries
    )
    return replace(report, entries=entries)


# Each doctoring changes one field of a certificate so that the file still
# loads but verify_certificate must raise TamperError.
DOCTORS = {
    "u": lambda c: replace(c, u=c.u + 1),
    "x": lambda c: replace(c, x=c.x + 1),
    "z": lambda c: replace(c, z=c.z + 1),
    "params.d2": lambda c: replace(c, params=replace(c.params, d2=c.params.d2 + 2)),
    "params.l2": lambda c: replace(
        c, params=replace(c.params, l2=c.params.l2 + named_class(Surface.BPRIME, "l"))
    ),
    "report.c3": lambda c: replace(c, report=replace(c.report, c3=c.report.c3 + 1)),
    "report.S_s": lambda c: replace(c, report=_bump_entry(c.report, "S_s")),
}


def pins(name: str, scale: str) -> dict:
    """The fingerprint a correct iteration of this workload must produce."""
    return FINGERPRINTS[scale]["search" if name == "certify" else name]


def fingerprint(rows: dict[str, int], text: str) -> dict:
    return {
        "count": sum(rows.values()),
        "rows": rows,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def fingerprint_failures(seen: dict, pinned: dict) -> list[str]:
    """The gate: no message when seen matches pinned, else one naming every
    field that differs."""
    wrong = [
        f"{key} {seen.get(key)!r} (pinned {pinned[key]!r})"
        for key in ("count", "rows", "sha256")
        if seen.get(key) != pinned[key]
    ]
    return ["fingerprint mismatch: " + "; ".join(wrong)] if wrong else []


def doctor_plan(seed: int, count: int) -> tuple[list[int], dict[int, str]]:
    """File order (a permutation of solve order) and the doctored positions
    in that file, each with the field it doctors."""
    rng = random.Random(seed)
    order = list(range(count))
    rng.shuffle(order)
    positions = rng.sample(range(count), max(1, round(count * DOCTOR_SHARE)))
    return order, {pos: rng.choice(sorted(DOCTORS)) for pos in sorted(positions)}


@dataclass
class Outcome:
    """What one iteration did and which of its operations failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    verify_ms: list[float] = field(default_factory=list)
    verify_s: float = 0.0
    file_bytes: int = 0


@dataclass
class State:
    """A workload's inputs, built once by setup and shared by its iterations."""

    name: str
    box: dict
    bounds: solver.SearchBounds
    pins: dict
    sample: list[int] = field(default_factory=list)
    path: Path | None = None
    doctored: dict[int, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _solve_box(box: dict, bounds: solver.SearchBounds) -> tuple[list, dict[str, int]]:
    found, rows = [], {}
    for k2, k3 in box["rows"]:
        certs = solver.solve(
            k2, k3, bounds,
            allow_nonconstant_lists=box["allow_nonconstant_lists"],
            workers=WORKERS,
        )
        rows[f"{k2},{k3}"] = len(certs)
        found.extend(certs)
    return found, rows


def setup(name: str, seed: int, scale: str, out_dir: Path) -> State:
    """Build a workload's inputs from the seed.

    For certify this solves the box once, checks it against the pinned
    fingerprint, and writes the seeded certificate file into out_dir.
    """
    src = Path(ellspec.__file__).resolve().parent.parent
    if src != Path(__file__).resolve().parent.parent / "src":
        raise RuntimeError(f"ellspec was imported from {src}, not from this checkout")
    box = BOXES[scale][name]
    state = State(
        name=name, box=box, bounds=solver.SearchBounds(**box["bounds"]), pins=pins(name, scale)
    )
    if name != "certify":
        rng = random.Random(seed)
        state.sample = rng.choices(range(state.pins["count"]), k=box["verify_sample"])
        return state
    found, rows = _solve_box(box, state.bounds)
    state.failures += fingerprint_failures(
        fingerprint(rows, certificates.dumps_certificates(found)), state.pins
    )
    order, state.doctored = doctor_plan(seed, len(found))
    listed = [found[i] for i in order]
    for pos, doctor in state.doctored.items():
        listed[pos] = DOCTORS[doctor](listed[pos])
    state.path = out_dir / f"certify-{seed}-{os.getpid()}.json"
    state.path.write_text(certificates.dumps_certificates(listed))
    return state


def teardown(state: State) -> None:
    if state.path is not None:
        state.path.unlink(missing_ok=True)


def iterate(state: State, clock=time.perf_counter) -> Outcome:
    """One complete, checked run of the workload; `clock` times each
    verification."""
    if state.name == "certify":
        return _iterate_certify(state, clock)
    return _iterate_solve(state, clock)


def _verify_all(out: Outcome, certs, doctored, clock) -> None:
    """Verify each certificate; exactly the doctored positions must raise
    TamperError, and every other one must verify with an all-pass report."""
    for pos, cert in enumerate(certs):
        out.attempted += 1
        start = clock()
        try:
            report = solver.verify_certificate(cert)
        except TamperError:
            report = None
        except Exception as exc:
            out.failures.append(f"verify of entry {pos} raised {exc!r}")
            continue
        elapsed = clock() - start
        out.verify_s += elapsed
        out.verify_ms.append(elapsed * 1e3)
        if report is None and pos not in doctored:
            out.failures.append(f"genuine entry {pos} was rejected")
        elif report is not None and pos in doctored:
            out.failures.append(f"entry {pos} doctored in {doctored[pos]} was accepted")
        elif report is not None and not report.all_pass:
            out.failures.append(f"entry {pos} verified with a failing report")


def _iterate_solve(state: State, clock) -> Outcome:
    out = Outcome(attempted=1)
    try:
        found, rows = _solve_box(state.box, state.bounds)
        text = certificates.dumps_certificates(found)
    except Exception as exc:
        out.failures.append(f"solve raised {exc!r}")
        return out
    out.file_bytes = len(text.encode())
    out.failures += fingerprint_failures(fingerprint(rows, text), state.pins)
    _verify_all(out, [found[i] for i in state.sample if i < len(found)], {}, clock)
    return out


def _iterate_certify(state: State, clock) -> Outcome:
    out = Outcome(attempted=1)
    try:
        text = state.path.read_text()
        certs = certificates.loads_certificates(text)
    except Exception as exc:
        out.failures.append(f"load raised {exc!r}")
        return out
    if len(certs) != state.pins["count"]:
        out.failures.append(f"loaded {len(certs)} certificates, pinned {state.pins['count']}")
    _verify_all(out, certs, state.doctored, clock)

    out.attempted += 1
    try:
        dumped = certificates.dumps_certificates(certs)
    except Exception as exc:
        out.failures.append(f"dump raised {exc!r}")
    else:
        out.file_bytes = len(dumped.encode())
        if dumped != text:
            out.failures.append("dumped certificates differ from the loaded file")

    out.attempted += 1
    shown = io.StringIO()
    try:
        with redirect_stdout(shown):
            code = cli.run(["report"])
    except Exception as exc:
        out.failures.append(f"report raised {exc!r}")
    else:
        digest = hashlib.sha256(shown.getvalue().encode()).hexdigest()
        if code != 0 or digest != REPORT_SHA256:
            out.failures.append(f"report exited {code} with output sha256 {digest}")
    return out
