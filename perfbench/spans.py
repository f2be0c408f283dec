"""Span tracing for the benchmark's traced run, installed from outside `src/`.

`Tracer` replaces each public function named in TARGETS, in every `aggmfg`
namespace that holds it (for example both `aggmfg.solver.solve_fokker_planck`
and `aggmfg.parabolic.solve_fokker_planck`), by a wrapper that records one
span per call: id, name, start, end, parent id and run id. Spans stay in
memory until the run ends. A target that no longer exists is listed in
`Tracer.missing`, and the metrics that depend on it read zero.

`layer_metrics` derives the per-layer metrics from one traced call's spans,
using span counts, durations and self times (see SpanTable).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute) of the wrapped public function
TARGETS = {
    "config.build_run": ("aggmfg.config", "build_run"),
    "config.build_problem": ("aggmfg.config", "build_problem"),
    "config.build_grid": ("aggmfg.config", "build_grid"),
    "config.build_solver": ("aggmfg.config", "build_solver"),
    "problem.sample": ("aggmfg.problem", "sample_on_grid"),
    "discretization.gradient": ("aggmfg.discretization", "gradient"),
    "discretization.laplacian": ("aggmfg.discretization", "laplacian"),
    "discretization.flux_divergence": ("aggmfg.discretization", "flux_divergence"),
    "parabolic.heat": ("aggmfg.parabolic", "solve_backward_heat"),
    "parabolic.fp": ("aggmfg.parabolic", "solve_fokker_planck"),
    # the tridiagonal kernel as bound in aggmfg.parabolic, not scipy itself
    "parabolic.tridiag": ("aggmfg.parabolic", "solve_banded"),
    "solver.solve": ("aggmfg.solver", "solve"),
    "solver.picard": ("aggmfg.solver", "picard_map"),
    "solver.self_consistency": ("aggmfg.solver", "self_consistency_residual"),
    "diagnostics.certificate": ("aggmfg.diagnostics", "compute_nonexistence_certificate"),
    "diagnostics.energy": ("aggmfg.diagnostics", "compute_energy"),
    "diagnostics.moments": ("aggmfg.diagnostics", "check_moment_identity"),
    "diagnostics.apriori": ("aggmfg.diagnostics", "compute_apriori"),
    "diagnostics.conditions": ("aggmfg.problem", "check_structural_conditions"),
}

CONFIG = ("config.build_run", "config.build_problem", "config.build_grid", "config.build_solver")
STENCILS = ("discretization.gradient", "discretization.laplacian", "discretization.flux_divergence")
DIAGNOSTICS_POST = (
    "diagnostics.energy", "diagnostics.moments", "diagnostics.apriori", "diagnostics.conditions",
)
DIAGNOSTICS = ("diagnostics.certificate",) + DIAGNOSTICS_POST
ROOT_PREFIX = "runs."

# Tridiagonal cost model, applied to unknowns solved (rows x right-hand
# sides): 8 flops and 40 bytes (three bands, right side, solution) per row.
FLOPS_PER_ROW = 8
BYTES_PER_ROW = 40


def _tridiag_rows(args, kwargs, result):
    return int(np.size(result))


def _solve_tag(args, kwargs, result):
    problem, grid = args[:2] if len(args) >= 2 else (kwargs["p"], kwargs["grid"])
    return {
        "sigma": problem.coupling.sigma,
        "horizon": problem.horizon,
        "nx": grid.nx,
        "verdict": getattr(result, "verdict", None),
        "iterations": getattr(result, "iterations", None),
    }


# span name -> function of (args, kwargs, result) whose value is kept per span
TAGGERS = {"parabolic.tridiag": _tridiag_rows, "solver.solve": _solve_tag}


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals on exit."""

    def __init__(self, targets: dict | None = None):
        self.targets = TARGETS if targets is None else targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run)
        self.tags: dict[int, object] = {}
        self.missing: list[str] = []
        self.run_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        self.missing = []
        for name, (module_name, attr) in self.targets.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, TAGGERS.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "aggmfg" or mod_name.startswith("aggmfg.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    @contextmanager
    def span(self, name: str):
        """Record a span around the enclosed block (the benchmark's root call)."""
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0, parent)

    def _open(self):
        idx = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, t0, parent):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((idx, name, t0, t1, parent, self.run_id))

    def _wrap(self, name, fn, tagger):
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, t0, parent)
            if tagger is not None:
                try:
                    tracer.tags[idx] = tagger(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature leaves the span untagged
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: str) -> None:
        """Write every span as arrays to an .npz file."""
        table = SpanTable(self.spans)
        np.savez_compressed(
            path,
            names=np.array(table.name_list),
            name=table.name,
            start=table.start,
            end=table.end,
            parent=table.parent,
            run=table.run,
        )


class SpanTable:
    """Spans as arrays indexed by span id (ids are dense and parents precede children).

    A span's self time is its duration minus the durations of its direct
    children, except children named in `inline`: those stay in the caller's
    self time as well as in their own totals. Stencils are inline, so that
    for example the drift's gradient calls count as Picard-map work.
    """

    def __init__(self, spans: list[tuple], inline=()):
        spans = sorted(spans)
        ids = np.array([s[0] for s in spans], dtype=np.int64)
        self.offset = int(ids[0]) if len(ids) else 0
        if not np.array_equal(ids, self.offset + np.arange(len(ids))):
            raise ValueError("span ids are not dense")
        self.name_list = sorted({s[1] for s in spans})
        code = {n: i for i, n in enumerate(self.name_list)}
        self.name = np.array([code[s[1]] for s in spans], dtype=np.int64)
        self.start = np.array([s[2] for s in spans], dtype=float)
        self.end = np.array([s[3] for s in spans], dtype=float)
        parent = np.array([s[4] for s in spans], dtype=np.int64)
        self.parent = np.where(parent >= 0, parent - self.offset, -1)
        self.run = np.array([s[5] for s in spans], dtype=np.int64)
        self.duration = self.end - self.start
        counted = (self.parent >= 0) & ~self.mask(inline)
        child_time = np.bincount(
            self.parent[counted], weights=self.duration[counted], minlength=len(spans)
        )
        self.self_time = self.duration - child_time

    def mask(self, names) -> np.ndarray:
        codes = [i for i, n in enumerate(self.name_list) if n in names]
        return np.isin(self.name, codes)

    def outermost(self, names) -> np.ndarray:
        """Spans in `names` with no ancestor in `names`."""
        inside = self.mask(names).tolist()
        covered = [False] * len(inside)  # has an ancestor in names
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                covered[i] = covered[p] or inside[p]
        return np.array(inside, dtype=bool) & ~np.array(covered, dtype=bool)


def layer_metrics(table: SpanTable, tags: dict, io_bytes: int) -> dict:
    """Per-layer metrics of one traced call, from that call's spans."""

    def calls(*names):
        return int(np.count_nonzero(table.mask(names)))

    def self_s(*names):
        return float(table.self_time[table.mask(names)].sum())

    def total_s(*names):
        return float(table.duration[table.mask(names)].sum())

    def tagged(name):
        return [tags.get(i + table.offset) for i in np.flatnonzero(table.mask([name]))]

    def ratio(num, den):
        return num / den if den else 0.0

    tridiag_calls = calls("parabolic.tridiag")
    tridiag_s = total_s("parabolic.tridiag")
    rows = sum(t for t in tagged("parabolic.tridiag") if t is not None)
    solves = [t for t in tagged("solver.solve") if t is not None]
    iterations = calls("solver.picard")
    converged_iters = sum(t["iterations"] or 0 for t in solves if t["verdict"] == "converged")

    # solves made by the runs layer itself, grouped per (sigma, horizon) cell
    root_codes = [i for i, n in enumerate(table.name_list) if n.startswith(ROOT_PREFIX)]
    run_solves = table.mask(["solver.solve"])
    run_solves &= (table.parent >= 0) & np.isin(table.name[np.maximum(table.parent, 0)], root_codes)
    cells: dict[tuple, list] = {}
    for i in np.flatnonzero(run_solves):
        tag = tags.get(i + table.offset)
        if tag is not None:
            cells.setdefault((tag["sigma"], tag["horizon"]), []).append(
                (tag["nx"], float(table.duration[i]))
            )
    base_nx = {key: min(nx for nx, _ in group) for key, group in cells.items()}
    refine = [(k, d) for k, group in cells.items() for nx, d in group if nx > base_nx[k]]
    n_run_solves = sum(len(group) for group in cells.values())

    diag_top = table.outermost(DIAGNOSTICS)
    post = table.mask(DIAGNOSTICS_POST)
    cert = table.mask(["diagnostics.certificate"])
    flops = FLOPS_PER_ROW * rows

    return {
        "parabolic.tridiag.calls": tridiag_calls,
        "parabolic.tridiag.us_per_call": ratio(tridiag_s * 1e6, tridiag_calls),
        "parabolic.tridiag.rows_per_call": ratio(rows, tridiag_calls),
        "parabolic.tridiag.s": tridiag_s,
        "parabolic.tridiag.flops_computed": flops,
        "parabolic.tridiag.bytes_computed": BYTES_PER_ROW * rows,
        "parabolic.tridiag.gflops_computed": ratio(flops / 1e9, tridiag_s),
        "parabolic.heat.calls": calls("parabolic.heat"),
        "parabolic.heat.self_s": self_s("parabolic.heat"),
        "parabolic.fp.calls": calls("parabolic.fp"),
        "parabolic.fp.self_s": self_s("parabolic.fp"),
        "solver.iterations": iterations,
        "solver.picard.ms_per_iter": ratio(total_s("solver.picard") * 1e3, iterations),
        "solver.solve.calls": calls("solver.solve"),
        "solver.converged_frac": ratio(sum(t["verdict"] == "converged" for t in solves), len(solves)),
        "solver.useful_iter_frac": ratio(converged_iters, iterations),
        "solver.budget_exhausted": sum(t["verdict"] == "max_iterations" for t in solves),
        "solver.picard.self_s": self_s("solver.picard"),
        "solver.self_s": self_s("solver.solve"),
        "solver.self_consistency_s": total_s("solver.self_consistency"),
        "diagnostics.post_s": float(table.duration[diag_top & post].sum()),
        "diagnostics.certificate.calls": calls("diagnostics.certificate"),
        "diagnostics.certificate.s": float(table.duration[diag_top & cert].sum()),
        "runs.self_s": float(table.self_time[np.isin(table.name, root_codes)].sum()),
        "runs.io_bytes": io_bytes,
        "runs.solves": n_run_solves,
        "runs.refine_solves": len(refine),
        "runs.refine_s": sum(d for _, d in refine),
        "runs.base_frac": ratio(len(cells), n_run_solves),
        "runs.cell_s_max": max((sum(d for _, d in g) for g in cells.values()), default=0.0),
        "problem.sample.calls": calls("problem.sample"),
        "problem.sample.s": total_s("problem.sample"),
        "discretization.stencil.calls": calls(*STENCILS),
        "discretization.stencil_s": self_s(*STENCILS),
        "config.build_s": float(table.duration[table.outermost(CONFIG)].sum()),
    }


def median_metrics(per_call: list[dict]) -> dict:
    """Median of each metric over traced calls (counts repeat exactly)."""
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
