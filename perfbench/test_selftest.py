"""Self-test of the benchmark at toy sizes, through the same code path as a real run.

Run from the repository root with ``python3 -m pytest perfbench``.  Each test
starts ``perfbench/run.py`` with its normal command line plus ``--scale toy``:
one request per workload at tiny n, T and grid.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk", "cwalk", "limit", "semigroup")
EXACT_COUNTS = (
    "walk.evolve.site_updates",
    "core.transform.phase_entries",
    "limitlaw.g_function.points",
    "walk.ks_distance.points",
    "cli.bytes_written",
)


def _bench(workload: str, trace: int, seed: int = 3, scale: str = "toy") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported_and_outputs_pass(workload):
    out = _bench(workload, trace=0)
    assert out["correct"] and out["failed"] == 0
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_counts_repeat(workload):
    first = _bench(workload, trace=1)
    second = _bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_limit_requests_pass_and_the_probe_reports_the_mass_defect():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    seed = 5
    out = _bench("limit", trace=1, seed=seed)
    assert out["correct"] and out["failed"] == 0
    assert out["metrics"]["limitlaw.mass_ok_ratio"]["value"] == 1.0
    probe = workloads.defect_probe(seed)
    ok = sum(abs(law["mass"] - 1.0) <= workloads.MASS_TOL for law in probe)
    assert out["metrics"]["limitlaw.near_degenerate_mass_ok_ratio"]["value"] == pytest.approx(ok / len(probe))
    lo, hi = workloads.NEAR_DEGENERATE_L2
    assert all(lo <= law["abs_l2"] <= hi for law in probe)
