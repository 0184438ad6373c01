"""Child process of the coinwalk benchmark: one timed run, a traced run, or the output checks.

Usage: ``python3 perfbench/worker.py SPEC.json``.  The spec names the role,
workload, seed, scale, time budget and the files to use; the worker writes its
result as JSON to ``spec["result"]``.  ``perfbench/run.py`` starts it.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from coinwalk import __version__ as coinwalk_version  # noqa: E402

IMPORTED = time.perf_counter()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _output_bytes(request: dict) -> int:
    return sum(p.stat().st_size for p in Path(request["out"]).iterdir() if p.is_file())


def _attempt(request: dict, call=None) -> tuple[bool, float | None, float]:
    """Run one request; any exception or nonzero exit counts as a failure."""
    start = time.perf_counter()
    try:
        ok, ks = call(request["id"], workloads.execute, request) if call else workloads.execute(request)
    except SystemExit as exc:  # argparse rejects a bad command line this way
        print(f"{request['id']}: exit {exc.code}", file=sys.stderr)
        ok, ks = False, None
    except Exception:
        traceback.print_exc()
        ok, ks = False, None
    return ok, ks, time.perf_counter() - start


def _run_pass(requests: list[dict], tracer=None) -> dict:
    executions = []
    start = time.perf_counter()
    for request in requests:
        ok, ks, latency = _attempt(request, tracer.run_request if tracer else None)
        executions.append({"id": request["id"], "ok": ok, "ks": ks, "latency_s": latency})
        if tracer is not None and ok:
            tracer.counts["cli.bytes_written"] += _output_bytes(request)
    return {"wall_s": time.perf_counter() - start, "executions": executions}


def _setup(spec: dict) -> tuple[list[dict], float]:
    scale = workloads.SCALES[spec["scale"]]
    work = Path(spec["work"])
    args = (spec["workload"], spec["seed"], scale, work / "inputs")
    requests = workloads.make_requests(*args, work / "out")
    warmup = workloads.make_requests(*args, work / "warmup", warmup=True)
    for request in warmup:
        _attempt(request)
    return requests, time.perf_counter() - START


def run(spec: dict) -> dict:
    """Set up, then repeat the request list until the time budget is spent."""
    requests, setup_s = _setup(spec)
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < spec["budget_s"]:
        passes.append(_run_pass(requests))
    return {"setup_s": setup_s, "import_s": IMPORTED - START, "passes": passes}


def trace(spec: dict) -> dict:
    """Alternate untraced and traced passes; at least one untraced and two traced."""
    import spans

    requests, setup_s = _setup(spec)
    untraced, traced, summaries = [], [], []
    begin = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - begin < spec["budget_s"]:
        untraced.append(_run_pass(requests))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(_run_pass(requests, tracer))
        finally:
            tracer.uninstall()
        summaries.append(spans.summarize(tracer))
        if len(traced) == 1:
            Path(spec["spans"]).write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
    try:
        summary = spans.median_summary(summaries)
        mismatch = None
    except ValueError as exc:
        summary, mismatch = summaries[0], str(exc)
    return {
        "setup_s": setup_s,
        "import_s": IMPORTED - START,
        "passes": untraced,
        "traced_passes": traced,
        "summary": summary,
        "count_mismatch": mismatch,
    }


def check(spec: dict) -> dict:
    """Check every request's output files; on ``limit`` also run the defect probe."""
    scale = workloads.SCALES[spec["scale"]]
    work = Path(spec["work"])
    requests = workloads.make_requests(
        spec["workload"], spec["seed"], scale, work / "check-inputs", work / "out"
    )
    results = {}
    for request in requests:
        try:
            results[request["id"]] = workloads.check(request)
        except Exception as exc:  # a missing or unreadable output fails its request
            results[request["id"]] = (False, f"{type(exc).__name__}: {exc}")
    probe = workloads.defect_probe(spec["seed"]) if spec["workload"] == "limit" else []
    return {"checks": results, "probe": probe}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = {"run": run, "trace": trace, "check": check}[spec["role"]](spec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "numpy": np.__version__,
        "coinwalk": coinwalk_version,
        "blas": _blas(),
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
