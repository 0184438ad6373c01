"""Request lists, request execution and output checks for the coinwalk benchmark.

Every request goes through the public entry point ``coinwalk.cli.main`` with a
generated ``--config`` file, exactly as a user would run the command line.
Inputs depend only on the workload name and the seed.

Coins are built like ``coinwalk.core.random_coin`` builds them, from a mixing
angle in ``[0.05, pi/2 - 0.05]`` and two uniform phases.  The cost of the
position route grows with ``|l1| = cos(angle)`` (by a factor of four across
that range at n=4000), so the mixing angles of a list sit at the midpoints of
equal strata of the range and do not depend on the seed.  The seed draws the
phases, the initial states and the order of the list, which leaves the cost of
a list nearly the same for every seed.

Near-degenerate coins, where the limit-law quadrature loses mass while
``coinwalk density`` still exits 0, are kept out of the timed request lists so
that every request passes its checks.  ``defect_probe`` measures that defect
on its own seeded coins instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from coinwalk import cli, limitlaw, walk
from coinwalk.core import WaveFunction

WORKLOADS = ("walk", "cwalk", "limit", "semigroup")

# random_coin's default minimum mixing angle: keeps |l1| and |l2| >= sin(0.05).
MIN_MIX = 0.05
# The |l2| band of the defect probe, log-stratified: there the quadrature
# loses mass while `coinwalk density` still exits 0.
NEAR_DEGENERATE_L2 = (1e-6, 1e-2)
PROBE_LAWS = 8

# Tolerances reused from `coinwalk verify`.
NORM_TOL = 1e-10  # norm_conservation
ORACLE_TOL = 1e-9  # discrete_oracle_equivalence, integer_time_consistency
SNAPSHOT_NORM_TOL = 1e-9  # continuous_norm_drift
MASS_TOL = 1e-6  # density_mass
FLOW_TOL = 1e-11  # flow_vs_conjugation


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one request list."""

    walk_steps: tuple[int, ...]
    walk_per_class: tuple[int, ...]
    oracle_max_steps: int  # the dense momentum route needs ~2 GB at n=4000
    cwalk_time: int
    cwalk_requests: int
    limit_steps: int
    limit_requests: int
    semigroup_grid: int
    semigroup_requests: int


SCALES = {
    "full": Scale(
        walk_steps=(250, 1000, 4000),
        walk_per_class=(2, 4, 2),
        oracle_max_steps=1000,
        cwalk_time=1000,
        cwalk_requests=2,
        limit_steps=500,
        limit_requests=8,
        semigroup_grid=65536,
        semigroup_requests=2,
    ),
    # One request per workload at tiny sizes, for the self-test.
    "toy": Scale(
        walk_steps=(4, 8, 16),
        walk_per_class=(0, 1, 0),
        oracle_max_steps=16,
        cwalk_time=6,
        cwalk_requests=1,
        limit_steps=20,
        limit_requests=1,
        semigroup_grid=64,
        semigroup_requests=1,
    ),
}


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _coin_from_angle(rng: np.random.Generator, theta: float) -> list:
    """Coin rows as ``random_coin`` builds them from a mixing angle and two phases."""
    phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
    l1 = math.cos(theta) * complex(math.cos(phi1), math.sin(phi1))
    l2 = math.sin(theta) * complex(math.cos(phi2), math.sin(phi2))
    r1, r2 = -l2.conjugate(), l1.conjugate()
    return [[_complex_pair(l1), _complex_pair(l2)], [_complex_pair(r1), _complex_pair(r2)]]


def _midpoints(count: int, lo: float, hi: float) -> list[float]:
    """Midpoints of ``count`` equal strata of ``[lo, hi]``."""
    return [lo + (i + 0.5) * (hi - lo) / count for i in range(count)]


def _systematic(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One point per equal stratum of ``[lo, hi]`` at a common random offset."""
    u = rng.uniform()
    return [lo + (i + u) * (hi - lo) / count for i in range(count)]


def _regular_coins(rng: np.random.Generator, count: int) -> list:
    thetas = _midpoints(count, MIN_MIX, math.pi / 2 - MIN_MIX)
    return [_coin_from_angle(rng, theta) for theta in thetas]


def _near_degenerate_coins(rng: np.random.Generator, count: int) -> list:
    lo, hi = (math.log10(v) for v in NEAR_DEGENERATE_L2)
    return [_coin_from_angle(rng, math.asin(10.0**e)) for e in _systematic(rng, count, lo, hi)]


def _random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _random_sites(rng: np.random.Generator) -> dict:
    """A normalised state on 1-3 distinct sites with |x| <= 10."""
    count = int(rng.integers(1, 4))
    xs = rng.choice(np.arange(-10, 11), size=count, replace=False)
    amps = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    amps /= np.linalg.norm(amps)
    return {
        "sites": [
            [int(x), _complex_pair(a), _complex_pair(b)] for x, (a, b) in zip(xs, amps)
        ]
    }


def _qubit_at_origin(rng: np.random.Generator) -> dict:
    a, b = _random_qubit(rng)
    return {"qubit": [_complex_pair(a), _complex_pair(b)], "site": 0}


def _configs(workload: str, rng: np.random.Generator, scale: Scale) -> list[dict]:
    if workload == "walk":
        configs = []
        for steps, count in zip(scale.walk_steps, scale.walk_per_class):
            for coin in _regular_coins(rng, count):
                configs.append(
                    {"mode": "walk", "coin": coin, "initial": _random_sites(rng), "steps": steps}
                )
        return configs
    if workload == "cwalk":
        t = float(scale.cwalk_time)
        times = [t - 0.75, t - 0.5, t - 0.25, t]
        return [
            {"mode": "cwalk", "coin": coin, "initial": _random_sites(rng), "times": times}
            for coin in _regular_coins(rng, scale.cwalk_requests)
        ]
    if workload == "limit":
        coins = _regular_coins(rng, scale.limit_requests)
        return [{"mode": "density", "coin": c, "initial": _qubit_at_origin(rng)} for c in coins]
    if workload == "semigroup":
        count = scale.semigroup_requests
        log_times = _midpoints(count, math.log(0.1), math.log(10.0))
        return [
            {
                "mode": "semigroup",
                "coin": coin,
                "time": math.exp(lt),
                "grid": scale.semigroup_grid,
                "seed": int(rng.integers(0, 2**31)),
            }
            for coin, lt in zip(_regular_coins(rng, count), log_times)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _warmup_configs(workload: str, rng: np.random.Generator, scale: Scale) -> list[dict]:
    """A one-request list at the workload's middle size, from its own stream."""
    one = replace(
        scale,
        walk_steps=(scale.walk_steps[len(scale.walk_steps) // 2],),
        walk_per_class=(1,),
        cwalk_requests=1,
        limit_requests=1,
        semigroup_requests=1,
    )
    return _configs(workload, rng, one)


def make_requests(
    workload: str, seed: int, scale: Scale, inputs: Path, outputs: Path, warmup: bool = False
) -> list[dict]:
    """Generate the seeded request list and write one config file per request.

    The list order is shuffled by the seed.  Each request gets its own output
    directory, which every pass over the list overwrites with identical files.
    """
    stream = WORKLOADS.index(workload)
    rng = np.random.default_rng([stream, int(seed), int(warmup)])
    configs = (_warmup_configs if warmup else _configs)(workload, rng, scale)
    order = rng.permutation(len(configs))
    prefix = "warmup" if warmup else "r"
    inputs.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, idx in enumerate(order):
        name = f"{prefix}{i:02d}"
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(configs[idx], sort_keys=True), encoding="utf-8")
        requests.append(
            {
                "id": name,
                "workload": workload,
                "mode": configs[idx]["mode"],
                "config": str(path),
                "out": str(outputs / name),
                "ks_steps": scale.limit_steps,
                "oracle_max_steps": scale.oracle_max_steps,
            }
        )
    return requests


def execute(request: dict) -> tuple[bool, float | None]:
    """Run one request in process; returns ``(exited_ok, ks_distance)``.

    ``limit`` requests also compute the Kolmogorov-Smirnov distance between
    the empirical law of ``X_n / n`` and the weak limit law.
    """
    argv = [request["mode"], "--config", request["config"], "--out", request["out"]]
    if cli.main(argv) != 0:
        return False, None
    if request["workload"] != "limit":
        return True, None
    config = cli.parse_config(json.loads(Path(request["config"]).read_text(encoding="utf-8")))
    coin, psi0 = config.coin(), config.initial_state()
    empirical = walk.empirical_scaled_law(walk.WalkRun(coin, psi0, request["ks_steps"]))
    return True, walk.ks_distance(empirical, limitlaw.weak_limit_law(coin, psi0))


def defect_probe(seed: int) -> list[dict]:
    """``|l2|``, mass and mass check of the weak limit law for seeded near-degenerate coins.

    One coin per log-stratum of ``NEAR_DEGENERATE_L2``, each with a qubit at
    the origin.  The probe reports the quadrature defect; it is not a request
    and takes no part in the timed lists or their checks.
    """
    rng = np.random.default_rng([len(WORKLOADS), int(seed)])
    results = []
    for rows in _near_degenerate_coins(rng, PROBE_LAWS):
        config = cli.parse_config({"mode": "density", "coin": rows, "initial": _qubit_at_origin(rng)})
        law = limitlaw.weak_limit_law(config.coin(), config.initial_state())
        mass = law.mass()
        results.append({"abs_l2": abs(config.coin().l2), "mass": mass, "mass_ok": abs(mass - 1.0) <= MASS_TOL})
    return results


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _read_distribution(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(np.int64), data[:, 1]


def _distribution_gap(xs: np.ndarray, ps: np.ndarray, psi: WaveFunction) -> float:
    """Sup-norm gap between a written distribution and a reference state's."""
    ref_p = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
    lo = min(int(xs.min()), psi.x_min)
    hi = max(int(xs.max()), psi.x_max)
    diff = np.zeros(hi - lo + 1)
    diff[xs - lo] += ps
    diff[psi.x_min - lo : psi.x_max - lo + 1] -= ref_p
    return float(np.abs(diff).max())


def check(request: dict) -> tuple[bool, str]:
    """Check one request's output files; returns ``(passed, detail)``."""
    config = cli.parse_config(json.loads(Path(request["config"]).read_text(encoding="utf-8")))
    out = Path(request["out"])
    workload = request["workload"]
    if workload == "walk":
        n = config.steps
        psi0 = config.initial_state()
        xs, ps = _read_distribution(out / f"distribution_n{n}.csv")
        defect = abs(math.sqrt(ps.sum()) - 1.0)
        if defect > NORM_TOL:
            return False, f"|norm-1| = {defect:.3e}"
        if xs.min() < psi0.x_min - n or xs.max() > psi0.x_max + n:
            return False, "support leaves the light cone"
        if n <= request["oracle_max_steps"]:
            gap = _distribution_gap(xs, ps, walk.fourier_evolve(psi0, config.coin(), n))
            if gap > ORACLE_TOL:
                return False, f"momentum route differs by {gap:.3e}"
        return True, "ok"
    if workload == "cwalk":
        for t in config.times:
            xs, ps = _read_distribution(out / f"snapshot_t{t:g}.csv")
            defect = abs(math.sqrt(ps.sum()) - 1.0)
            if defect > SNAPSHOT_NORM_TOL:
                return False, f"|norm-1| = {defect:.3e} at t={t:g}"
        final = config.times[-1]
        reference = walk.evolve(walk.WalkRun(config.coin(), config.initial_state(), int(final)))
        gap = _distribution_gap(xs, ps, reference)
        if gap > ORACLE_TOL:
            return False, f"position route differs by {gap:.3e} at t={final:g}"
        return True, "ok"
    if workload == "limit":
        law = json.loads((out / "law.json").read_text(encoding="utf-8"))
        defect = abs(law["mass"] - 1.0)
        if defect > MASS_TOL:
            return False, f"|mass-1| = {defect:.3e}"
        return True, "ok"
    if workload == "semigroup":
        report = json.loads((out / "semigroup_report.json").read_text(encoding="utf-8"))
        if not report["positivity"]["passed"]:
            return False, "positivity check failed"
        residual = report["flow_vs_conjugation_max_residual"]
        if residual > FLOW_TOL:
            return False, f"flow vs conjugation residual {residual:.3e}"
        return True, "ok"
    raise ValueError(f"unknown workload {workload!r}")
