"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ellspec module where their
callers look them up: a function imported by name into another module is
patched in that module too, so `ellspec.assembly.evaluate_constraints` and
`ellspec.solver.evaluate_constraints` both record spans.  Methods and
constructors are patched on their class.  Nothing in the package is edited;
`uninstall` puts every original back.

Each span records its layer, start, end, parent span and run id (the index
of the benchmark iteration).  Spans stay in memory as columns and are
written out once, at the end.  A layer's self time is its span duration
minus the time its child spans cover; children of one span never overlap,
because the package runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced layer: a module function, or a set of class attributes.

    hits maps a call's result to a count of useful outcomes; ratio names the
    hits-over-calls metric.  total adds the summed span duration (only for
    layers that do not recurse).  rejects adds the number of raising calls.
    """

    name: str
    module: str
    attrs: tuple[str, ...]
    hits: Callable[[object], int] | None = None
    ratio: str | None = None
    total: bool = False
    rejects: bool = False


LAYERS = (
    Layer("solver.solve", "ellspec.solver", ("solve",), hits=len, total=True),
    Layer("solver.consistency_check", "ellspec.solver", ("consistency_check",),
          hits=lambda r: r.passes, ratio="pass_ratio"),
    Layer("solver.feasibility_check_m", "ellspec.solver", ("feasibility_check_m",),
          hits=lambda r: r.c2_ok and r.ss_ok, ratio="pass_ratio"),
    Layer("solver.integrality_check", "ellspec.solver", ("integrality_check",),
          hits=lambda r: r.passes, ratio="pass_ratio"),
    Layer("solver.build_l_classes_m", "ellspec.solver", ("build_l_classes_m",)),
    Layer("solver.verify_certificate", "ellspec.solver", ("verify_certificate",),
          rejects=True),
    Layer("hecke.newton_sum", "ellspec.hecke", ("newton_sum",)),
    Layer("hecke.means_gap", "ellspec.hecke", ("means_gap",)),
    Layer("assembly.evaluate_constraints", "ellspec.assembly", ("evaluate_constraints",),
          hits=lambda r: r.all_pass, ratio="all_pass_ratio"),
    Layer("assembly.ch_component", "ellspec.assembly", ("ch_component",)),
    Layer("threefold.ChernX", "ellspec.threefold", ("ChernX.__init__",)),
    Layer("lattice.intersect", "ellspec.lattice", ("intersect",)),
    Layer("lattice.DivisorClass.arith", "ellspec.lattice", tuple(
        f"DivisorClass.{op}" for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
    )),
    Layer("lattice.named_combination", "ellspec.lattice", ("named_combination",)),
    Layer("lattice.fxi_coordinates", "ellspec.lattice", ("fxi_coordinates",)),
    Layer("lattice.m_space_check", "ellspec.lattice", ("m_space_check",)),
    Layer("linalg.rref", "ellspec.linalg", ("rref",)),
    Layer("linalg.solve_rational", "ellspec.linalg", ("solve_rational",)),
    Layer("linalg.in_span", "ellspec.linalg", ("in_span",)),
    Layer("certificates.loads_certificates", "ellspec.certificates",
          ("loads_certificates",), total=True),
    Layer("certificates.dumps_certificates", "ellspec.certificates",
          ("dumps_certificates",), total=True),
    Layer("cli.run", "ellspec.cli", ("run",), total=True),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.calls", "count"), (f"{layer.name}.self_s", "s")]
        if layer.ratio:
            out.append((f"{layer.name}.{layer.ratio}", "ratio"))
        if layer.total:
            out.append((f"{layer.name}.total_s", "s"))
        if layer.rejects:
            out.append((f"{layer.name}.reject_count", "count"))
    out += [
        ("solver.funnel.cert_ratio", "ratio"),  # certificates / evaluations inside solve
        ("trace.overhead_ratio", "ratio"),
        ("trace.traced_run_s", "s"),
        ("trace.untraced_run_s", "s"),
    ]
    return out


class Tracer:
    """Records spans around every layer in LAYERS while installed, timed by
    `clock` (the benchmark passes its HostClock's `now`)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.run_id = -1
        self.runs = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.layer = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.hit = array("l")
        self.raised = array("b")

    def begin_run(self) -> None:
        """Start a new run id; call once before each benchmark iteration."""
        self.run_id = self.runs
        self.runs += 1

    def _record(self, layer_idx: int, parent: int, run: int, start: float) -> int:
        idx = len(self.start)
        self.layer.append(layer_idx)
        self.parent.append(parent)
        self.run.append(run)
        self.start.append(start)
        self.end.append(start)
        self.child.append(0.0)
        self.hit.append(0)
        self.raised.append(0)
        return idx

    def _wrap(self, layer_idx: int, fn, hits):
        stack, end, child, clock = self._stack, self.end, self.child, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = self._record(layer_idx, parent, self.run_id, 0.0)
            stack.append(idx)
            start = self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                stop = end[idx] = clock()
                stack.pop()
                if parent >= 0:
                    child[parent] += stop - start
            if hits is not None:
                self.hit[idx] = int(hits(result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ellspec"]
        for layer_idx, layer in enumerate(LAYERS):
            for attr in layer.attrs:
                if not self._patch(layer_idx, layer, attr, modules):
                    self.missing.append(f"{layer.module}.{attr}")
                    self._record(layer_idx, -1, -1, self.clock())

    def _patch(self, layer_idx: int, layer: Layer, attr: str, modules) -> bool:
        try:
            owner = importlib.import_module(layer.module)
        except ImportError:
            return False
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                return False
            self._undo.append((owner, fn_name, original))
            setattr(owner, fn_name, self._wrap(layer_idx, original, layer.hits))
            return True
        original = getattr(owner, fn_name, None)
        if original is None:
            return False
        wrapper = self._wrap(layer_idx, original, layer.hits)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: per-run counts and times, medians over runs."""
        calls = [[0] * self.runs for _ in LAYERS]
        self_s = [[0.0] * self.runs for _ in LAYERS]
        total_s = [[0.0] * self.runs for _ in LAYERS]
        raised = [[0] * self.runs for _ in LAYERS]
        hits = [0] * len(LAYERS)
        for i in range(len(self.start)):
            lay, run = self.layer[i], self.run[i]
            if run < 0:  # a missing function's empty span
                continue
            duration = self.end[i] - self.start[i]
            calls[lay][run] += 1
            self_s[lay][run] += duration - self.child[i]
            total_s[lay][run] += duration
            raised[lay][run] += self.raised[i]
            hits[lay] += self.hit[i]

        def med(values):
            return statistics.median(values) if values else 0

        out: dict[str, float] = {}
        for lay, layer in enumerate(LAYERS):
            out[f"{layer.name}.calls"] = med(calls[lay])
            out[f"{layer.name}.self_s"] = med(self_s[lay])
            if layer.ratio:
                out[f"{layer.name}.{layer.ratio}"] = hits[lay] / max(1, sum(calls[lay]))
            if layer.total:
                out[f"{layer.name}.total_s"] = med(total_s[lay])
            if layer.rejects:
                out[f"{layer.name}.reject_count"] = med(raised[lay])
        names = [layer.name for layer in LAYERS]
        solve, evaluate = names.index("solver.solve"), names.index("assembly.evaluate_constraints")
        evaluated = sum(
            1 for i in range(len(self.start))
            if self.layer[i] == evaluate and self._has_ancestor(i, solve)
        )
        out["solver.funnel.cert_ratio"] = hits[solve] / max(1, evaluated)
        return out

    def _has_ancestor(self, idx: int, layer_idx: int) -> bool:
        parent = self.parent[idx]
        while parent >= 0:
            if self.layer[parent] == layer_idx:
                return True
            parent = self.parent[parent]
        return False

    def write(self, path, meta: dict) -> None:
        """Write every span, as columns, to a gzipped JSON file."""
        doc = {
            "meta": meta,
            "layers": [layer.name for layer in LAYERS],
            "missing": self.missing,
            "columns": {
                "layer": self.layer.tolist(),
                "parent": self.parent.tolist(),
                "run": self.run.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
