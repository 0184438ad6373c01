"""coinwalk benchmark: seeded command-line workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload walk --seed 1 --seconds 10 --trace 0

Each run generates a fixed request list from the seed and sends it, one
request at a time (a closed loop with one client), through
``coinwalk.cli.main`` in a child process that runs only this workload.  With
``--trace 0`` five such children each set up (import numpy and coinwalk,
write the inputs, one untimed warm-up request) and then repeat the list for a
fifth of ``--seconds``; the end-to-end metrics are medians over them.  With
``--trace 1`` one child alternates untraced and traced passes and reports the
per-layer metrics.  A further child checks every output file afterwards, so
checking inflates neither the times nor the memory figure; on ``limit`` it
also runs the near-degenerate defect probe.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk", "cwalk", "limit", "semigroup")
RUN_CHILDREN = 5
DEADLINE_S = 170.0
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

TIMED_FUNCTIONS = (
    "cli.main",
    "walk.evolve",
    "walk.ks_distance",
    "core.fourier_transform",
    "core.inverse_fourier",
    "spectral.propagator_bank",
    "spectral.dispersion",
    "continuous.evolve_continuous",
    "limitlaw.g_function",
    "limitlaw.LimitLaw.cdf",
    "limitlaw.LimitLaw.mass",
    "semigroup.positivity_check",
    "semigroup.heisenberg_evolve",
)
COUNTED_FUNCTIONS = TIMED_FUNCTIONS + ("semigroup.conjugate_evolve",)
MODULES = ("cli", "walk", "core", "spectral", "continuous", "limitlaw", "semigroup")
COUNTS = {
    "walk.evolve.site_updates": "count",
    "core.transform.phase_entries": "count",
    "core.transform.phase_mb": "MB",
    "continuous.evolve_continuous.grid_nodes": "count",
    "limitlaw.g_function.points": "count",
    "walk.ks_distance.points": "count",
    "cli.bytes_written": "bytes",
}
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in TIMED_FUNCTIONS},
    **{f"{name}.calls": "count" for name in COUNTED_FUNCTIONS},
    **{f"{module}.self_ms": "ms" for module in MODULES},
    **COUNTS,
    "limitlaw.mass_ok_ratio": "ratio",
    "limitlaw.near_degenerate_mass_ok_ratio": "ratio",
    "walk.ks_distance.median_value": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _git_sha() -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coinwalk").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("COINWALK_OUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _child(spec: dict, work: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    name = f"{spec['role']}{spec.get('index', '')}"
    spec = {**spec, "result": str(work / f"{name}.result.json")}
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / f"{name}.log"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the run finished")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT,
                env=_child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} worker exceeded the time budget") from None
    errors = log_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited {proc.returncode}:\n{errors[-4000:]}")
    if errors.strip():
        print(errors.rstrip(), file=sys.stderr)
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _layer_metrics(result: dict) -> dict:
    summary = result["summary"]
    functions = summary["functions"]
    counts = summary["counts"]
    values = {}
    for name in TIMED_FUNCTIONS:
        values[f"{name}.self_ms"] = functions.get(name, {}).get("self_ms", 0.0)
    for name in COUNTED_FUNCTIONS:
        values[f"{name}.calls"] = functions.get(name, {}).get("calls", 0)
    for module in MODULES:
        values[f"{module}.self_ms"] = summary["modules_self_ms"].get(module, 0.0)
    for name in COUNTS:
        if name != "core.transform.phase_mb":
            values[name] = counts[name]
    # computed from array sizes: one complex128 phase entry is 16 bytes
    values["core.transform.phase_mb"] = counts["core.transform.phase_entries"] * 16 / 1e6
    built = summary["laws_built"]
    values["limitlaw.mass_ok_ratio"] = summary["laws_mass_ok"] / built if built else 1.0
    ks = [e["ks"] for p in result["passes"] for e in p["executions"] if e["ks"] is not None]
    values["walk.ks_distance.median_value"] = statistics.median(ks) if ks else 0.0
    untraced = statistics.median(p["wall_s"] for p in result["passes"])
    traced = statistics.median(p["wall_s"] for p in result["traced_passes"])
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return values


def _end_to_end(runs: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    by_request: dict[str, list[float]] = {}
    for p in passes:
        for e in p["executions"]:
            by_request.setdefault(e["id"], []).append(e["latency_s"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        # the median request of the list, each request taken at its median
        # over the passes: robust to a slow pass, unlike a pooled median
        # that can fall between two requests of different cost
        "latency_p50_ms": 1e3 * statistics.median(statistics.median(v) for v in by_request.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    print(
        f"  samples: setup_s {len(runs)} set-ups, wall_s {len(passes)} passes, "
        f"latency_p50_ms {len(by_request)} requests x {len(passes)} passes, "
        f"peak_rss_mb {len(runs)} processes"
    )
    extra = {
        "setup_samples_s": [r["setup_s"] for r in runs],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "latency_s": by_request,
        "peak_rss_samples_mb": [r["peak_rss_mb"] for r in runs],
    }
    return metrics, extra


def _report_probe(probe: list) -> float:
    """Print the near-degenerate defect probe; returns its share of laws with mass 1.

    The probe's laws are not requests: a miss there is the known quadrature
    defect, reported as a per-layer ratio, and does not make the run incorrect.
    A workload without the probe reads 0, as every layer it never reaches.
    """
    if not probe:
        return 0.0
    misses = [law for law in probe if not law["mass_ok"]]
    print(f"defect probe: {len(misses)} of {len(probe)} near-degenerate laws fail the mass check")
    for law in misses:
        print(f"  |l2| = {law['abs_l2']:.3e}: |mass-1| = {abs(law['mass'] - 1.0):.3e}")
    return 1.0 - len(misses) / len(probe)


def _report_shares(summary: dict) -> dict:
    total = summary["request_ms"]
    shares = {m: 100.0 * ms / total for m, ms in summary["modules_self_ms"].items()} if total else {}
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  self-time share {module:<11} {share:6.2f} %")
    return shares


def bench(args: argparse.Namespace) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    base = ROOT / ".perfbench"
    work = base / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (base / "results").mkdir(exist_ok=True)
    (base / "traces").mkdir(exist_ok=True)
    common = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "work": str(work),
    }

    if args.trace:
        spans_path = base / "traces" / f"{tag}.spans.json"
        runs = [_child({**common, "role": "trace", "budget_s": args.seconds, "spans": str(spans_path)}, work, deadline)]
    else:
        budget = args.seconds / RUN_CHILDREN
        runs = [
            _child({**common, "role": "run", "index": i, "budget_s": budget}, work, deadline)
            for i in range(RUN_CHILDREN)
        ]
    checked = _child({**common, "role": "check"}, work, deadline)
    checks = checked["checks"]

    executions = [
        e
        for r in runs
        for p in r["passes"] + r.get("traced_passes", [])
        for e in p["executions"]
    ]
    failures = {}
    for e in executions:
        if not e["ok"]:
            failures.setdefault(e["id"], "request raised or exited nonzero")
        elif not checks[e["id"]][0]:
            failures.setdefault(e["id"], checks[e["id"]][1])
    failed = sum(1 for e in executions if e["id"] in failures)
    env = {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        **runs[0]["env"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env, sort_keys=True))
    passes = [p for r in runs for p in r["passes"]]
    print(f"workload {args.workload}: {len(checks)} requests per pass, {len(passes)} untraced passes")
    for request_id, reason in sorted(failures.items()):
        print(f"  failed {request_id}: {reason}")
    failed_frac = failed / len(executions)
    print(f"failed_frac = {failed_frac:.4f} ({failed} of {len(executions)} requests)")
    probe_ok = _report_probe(checked["probe"])

    mismatch = None
    if args.trace:
        result = runs[0]
        mismatch = result["count_mismatch"]
        if mismatch:
            print(f"error: {mismatch}", file=sys.stderr)
        metrics = _layer_metrics(result)
        metrics["limitlaw.near_degenerate_mass_ok_ratio"] = probe_ok
        units = PER_LAYER
        shares = _report_shares(result["summary"])
        extra = {"summary": result["summary"], "module_self_share_pct": shares}
    else:
        metrics, extra = _end_to_end(runs, passes)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    ks = [e["ks"] for e in executions if e["ks"] is not None]
    if ks:
        print(f"  health: KS distance median {statistics.median(ks):.4g} over {len(ks)} requests")

    output = {
        "correct": failed == 0 and mismatch is None,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        **output,
        "env": env,
        "failed_frac": failed_frac,
        "failures": failures,
        "defect_probe": checked["probe"],
        "elapsed_s": time.monotonic() - start,
        **extra,
    }
    (base / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return output


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_int_at_least(0))
    parser.add_argument("--seconds", required=True, type=_int_at_least(1))
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "toy"), help="toy: the self-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coinwalk" / "__init__.py").is_file():
        print(f"error: no coinwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        output = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
