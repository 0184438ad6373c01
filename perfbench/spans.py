"""Span tracing of coinwalk's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper, in every coinwalk module that holds a reference to it: a function
imported with ``from .core import fourier_transform`` is reached as both
``core.fourier_transform`` and ``walk.fourier_transform``, and both names are
rebound.  Each call records a span ``[name, start, end, parent, request,
meta]`` in memory; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from coinwalk import cli, continuous, core, limitlaw, semigroup, spectral, walk
from workloads import MASS_TOL

MODULES = {
    "cli": cli,
    "walk": walk,
    "core": core,
    "spectral": spectral,
    "continuous": continuous,
    "limitlaw": limitlaw,
    "semigroup": semigroup,
}

# Public law-protocol methods, traced like module functions.
METHODS = {
    "limitlaw.LimitLaw": (limitlaw.LimitLaw, ("cdf", "cdf_left", "mass", "pdf", "mean", "moment")),
    "walk.DiscreteLaw": (walk.DiscreteLaw, ("cdf", "cdf_left")),
}

# `walk.step` is the body of the position step loop: a span per step would
# cost more than the step and would empty `walk.evolve`'s self time, so it is
# only counted.  `walk.iter_evolution` is a generator; a span would end before
# any work is done.
COUNTED_ONLY = {"walk.step"}
SKIPPED = {"walk.iter_evolution"}

ROOT = "bench.request"
CDF_SPANS = {
    "limitlaw.LimitLaw.cdf",
    "limitlaw.LimitLaw.cdf_left",
    "walk.DiscreteLaw.cdf",
    "walk.DiscreteLaw.cdf_left",
}


def _transform_meta(args: dict, result) -> dict:
    grid = args["grid"]
    if "psi" in args:
        width = args["psi"].width
    else:
        lo, hi = args["support"]
        width = int(hi) - int(lo) + 1
    return {"M": grid.size, "W": width}


def _points_meta(args: dict, result) -> dict:
    return {"points": int(np.size(args["y"]))}


# Counts read from a call's arguments or result, keyed by span name.
META = {
    "core.fourier_transform": _transform_meta,
    "core.inverse_fourier": _transform_meta,
    "continuous.evolve_continuous": lambda a, r: {
        "grid": a["grid"].size if a.get("grid") is not None else None
    },
    "limitlaw.g_function": _points_meta,
    "limitlaw.weak_limit_law": lambda a, r: {"law": id(r)},
    "limitlaw.LimitLaw.mass": lambda a, r: {"law": id(a["self"]), "mass": float(r)},
    **{name: _points_meta for name in CDF_SPANS},
}


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        meta = META.get(name)
        signature = inspect.signature(fn) if meta else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.request, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if meta is not None:
                record[5] = meta(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _count_steps(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(psi, coin):
            counts["walk.evolve.site_updates"] += psi.width
            return fn(psi, coin)

        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [m for n, m in sys.modules.items() if n == "coinwalk" or n.startswith("coinwalk.")]
        for short, module in MODULES.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in SKIPPED:
                    continue
                wrapper = self._count_steps(fn) if name in COUNTED_ONLY else self._wrap(name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        for prefix, (cls, names) in METHODS.items():
            for attr in names:
                fn = cls.__dict__[attr]
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- request scope ----------------------------------------------------

    def run_request(self, request_id: str, fn, *args):
        """Call ``fn(*args)`` under a root span tagged with ``request_id``."""
        self.request = request_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.request = None


def summarize(tracer: Tracer) -> dict:
    """Per-function and per-module self times plus the exact work counts of one pass."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            children[parent].append(i)

    functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
    modules: dict[str, float] = defaultdict(float)
    request_ms = 0.0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        self_ms = 1e3 * (end - start - child_time[i])
        entry = functions[name]
        entry["calls"] += 1
        entry["self_ms"] += self_ms
        entry["total_ms"] += 1e3 * (end - start)
        modules[name.split(".")[0]] += self_ms
        if name == ROOT:
            request_ms += 1e3 * (end - start)

    counts = dict(tracer.counts)
    counts.setdefault("walk.evolve.site_updates", 0)
    counts.setdefault("cli.bytes_written", 0)
    phase = grid_nodes = g_points = ks_points = 0
    built: list[tuple[int, int]] = []  # (law id, build order)
    masses: dict[int, float] = {}
    for i, (name, _, _, _, _, meta) in enumerate(spans):
        if name in ("core.fourier_transform", "core.inverse_fourier") and meta:
            phase += meta["M"] * meta["W"]
        elif name == "continuous.evolve_continuous":
            size = meta["grid"] if meta else None
            if size is None:
                size = next(
                    (spans[c][5]["M"] for c in children[i] if spans[c][0] == "core.fourier_transform"),
                    0,
                )
            grid_nodes += size
        elif name == "limitlaw.g_function" and meta:
            g_points += meta["points"]
        elif name == "walk.ks_distance":
            ks_points += max(
                (spans[c][5]["points"] for c in children[i] if spans[c][0] in CDF_SPANS and spans[c][5]),
                default=0,
            )
        elif name == "limitlaw.weak_limit_law" and meta:
            built.append((meta["law"], i))
        elif name == "limitlaw.LimitLaw.mass" and meta:
            # An id can be reused once a law is freed; the mass belongs to the
            # latest law built with that id before this call.
            owner = max((b for law, b in built if law == meta["law"] and b < i), default=None)
            if owner is not None:
                masses[owner] = meta["mass"]
    ok = sum(1 for _, b in built if b in masses and abs(masses[b] - 1.0) <= MASS_TOL)
    counts.update(
        {
            "core.transform.phase_entries": phase,
            "continuous.evolve_continuous.grid_nodes": grid_nodes,
            "limitlaw.g_function.points": g_points,
            "walk.ks_distance.points": ks_points,
        }
    )
    return {
        "functions": {k: dict(v) for k, v in sorted(functions.items())},
        "modules_self_ms": dict(modules),
        "request_ms": request_ms,
        "counts": counts,
        "laws_built": len(built),
        "laws_mass_ok": ok,
    }


def median_summary(summaries: list[dict]) -> dict:
    """Median self times over several passes; counts must repeat exactly."""
    first = summaries[0]
    for other in summaries[1:]:
        if other["counts"] != first["counts"]:
            raise ValueError(f"work counts differ between passes: {first['counts']} vs {other['counts']}")
    names = set().union(*(s["functions"] for s in summaries))
    functions = {}
    for name in sorted(names):
        rows = [s["functions"].get(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}) for s in summaries]
        functions[name] = {
            "calls": rows[0]["calls"],
            "self_ms": statistics.median(r["self_ms"] for r in rows),
            "total_ms": statistics.median(r["total_ms"] for r in rows),
        }
    modules = set().union(*(s["modules_self_ms"] for s in summaries))
    return {
        "functions": functions,
        "modules_self_ms": {
            m: statistics.median(s["modules_self_ms"].get(m, 0.0) for s in summaries) for m in sorted(modules)
        },
        "request_ms": statistics.median(s["request_ms"] for s in summaries),
        "counts": first["counts"],
        "laws_built": first["laws_built"],
        "laws_mass_ok": first["laws_mass_ok"],
    }
