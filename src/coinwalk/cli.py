"""
Command-line harness: run walks, tabulate limit densities, export data.

Subcommands
-----------
walk       distribution of the discrete walk at step n       -> CSV + manifest
cwalk      continuous-time snapshots at a list of times      -> CSVs + manifest
density    limit density table and law metadata              -> CSV + JSON
semigroup  dispersion/axis dump and positivity report        -> CSV + JSON
verify     full invariant suite, machine- and human-readable -> JSON, exit 2 on failure

Configuration is a JSON document (``--config``); the five bundled presets
(``fig3.1`` .. ``fig3.5``, via ``--preset``) reproduce the reference
superposition and snapshot experiments.  Complex numbers are written as
``[re, im]`` pairs; an initial state is either ``{"qubit": [a, b], "site": x}``
or ``{"sites": [[x, a, b], ...]}``.

``_FIELDS`` is the one table of which subcommand reads which setting.  A
config may hold only its mode's fields (plus ``mode`` and ``out``), a preset
contributes only those, each subcommand offers a flag only for those, and the
``config`` echo in the outputs lists only those.

A command names its files to an ``_Outputs`` recorder (``_csvtext``'s writers)
in a ``.coinwalk-*`` staging directory inside the output directory; ``main``
moves them to their names after it returns, and an exception or ^C removes them.
An error names a file as it would stand in the output directory.  Before a
file-writing command runs, ``main`` checks its size model in ``_NEEDS`` (a
label, each file's most bytes as ``_csvtext`` counts them, the memory) and
exits 1 if the output disk or the physical memory cannot hold it.  Each command
runs on the calling thread, except that ``semigroup`` writes its flow table in
a forked child process while the parent checks positivity and writes the
report; the command waits for the child, or kills it on an error, before it
returns.
Exit codes: 0 ok, 1 validation, usage or file error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import pickle
import signal
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _csvtext, continuous, core, limitlaw, semigroup, spectral, walk
from .core import (
    Coin,
    CoinWalkError,
    MomentumGrid,
    ValidationError,
    WaveFunction,
    hadamard_switched,
    normalize_phase,
    position_distribution,
)

__all__ = ["RunConfig", "PRESETS", "main", "parse_config", "serialize_config"]

ENV_OUT_DIR = "COINWALK_OUT"

_SQ2 = 1.0 / math.sqrt(2.0)
# the paper's interference experiment: two sites 20 apart, one chirality each
_INTERFERENCE = {"sites": [[10, [0.0, 0.0], [_SQ2, 0.0]], [-10, [_SQ2, 0.0], [0.0, 0.0]]]}

PRESETS: dict[str, dict] = {
    "fig3.1": {
        "mode": "walk",
        "coin": "hadamard-switched",
        "initial": {"qubit": [[0.0, 0.0], [1.0, 0.0]], "site": 10},
        "steps": 1000,
    },
    "fig3.2": {
        "mode": "walk",
        "coin": "hadamard-switched",
        "initial": {"qubit": [[1.0, 0.0], [0.0, 0.0]], "site": -10},
        "steps": 1000,
    },
    "fig3.3": {
        "mode": "walk",
        "coin": "hadamard-switched",
        "initial": _INTERFERENCE,
        "steps": 1000,
    },
    "fig3.4": {
        "mode": "walk",
        "coin": "hadamard-switched",
        "initial": {"qubit": [[_SQ2, 0.0], [_SQ2, 0.0]], "site": 0},
        "steps": 1000,
    },
    "fig3.5": {
        "mode": "cwalk",
        "coin": "hadamard-switched",
        "initial": _INTERFERENCE,
        "times": [99.25, 99.5, 99.75, 100.0],
    },
}

# The one table of which mode takes which config field (True: required).
# Every mode also takes the _COMMON fields; any other key is rejected.
_COMMON = ("mode", "out")
_FIELDS: dict[str, dict[str, bool]] = {
    "walk": {"initial": True, "steps": True, "coin": False, "trajectory": False},
    "cwalk": {"initial": True, "times": True, "coin": False},
    "density": {"initial": True, "coin": False, "y_points": False},
    "semigroup": {"coin": False, "time": False, "grid": False, "seed": False},
    "verify": {"seed": False, "quick": False},
}

# Fields a subcommand flag of the same name can set, with the flag's help.
_FLAGS = {
    "steps": (int, "step count override"),
    "trajectory": (bool, "export every step"),
    "grid": (int, "momentum grid size"),
    "seed": (int, "seed for randomised checks"),
    "quick": (bool, "reduced-size invariants"),
}

# RunConfig attributes whose name differs from their config field
_ATTRS = {"coin": "coin_spec", "initial": "initial_spec", "grid": "grid_size", "out": "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    """A validated run description; round-trips through JSON unchanged."""

    mode: str
    coin_spec: object = "hadamard-switched"
    initial_spec: dict | None = None
    steps: int | None = None
    times: tuple[float, ...] | None = None
    time: float = 1.0
    grid_size: int | None = None
    y_points: int = 201
    seed: int = 0
    out_dir: str | None = None
    trajectory: bool = False
    quick: bool = False

    def coin(self) -> Coin:
        return _parse_coin(self.coin_spec)

    def grid(self) -> MomentumGrid:
        return MomentumGrid(self.grid_size or 256)

    def initial_state(self) -> WaveFunction:
        if self.initial_spec is None:
            raise ValidationError("config field 'initial': required for this mode")
        return _parse_initial(self.initial_spec)


def _is_finite_number(value) -> bool:
    """Whether a JSON value is a number that converts to a finite float (booleans are not)."""
    # int/float comparison is exact, so this also rejects integers beyond the float range
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _as_complex(value, field_name: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(v) for v in value)
    ):
        raise ValidationError(
            f"config field '{field_name}': complex numbers are finite [re, im] pairs, got {value!r}"
        )
    return complex(float(value[0]), float(value[1]))


def _parse_coin(spec) -> Coin:
    if spec == "hadamard-switched":
        return hadamard_switched()
    if isinstance(spec, str):
        raise ValidationError(f"config field 'coin': unknown preset {spec!r}")
    if not isinstance(spec, (list, tuple)) or len(spec) != 2:
        raise ValidationError("config field 'coin': expected a 2x2 matrix of [re, im] pairs")
    rows = []
    for i, row in enumerate(spec):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ValidationError("config field 'coin': expected a 2x2 matrix of [re, im] pairs")
        rows.append([_as_complex(entry, f"coin[{i}][{j}]") for j, entry in enumerate(row)])
    try:
        return normalize_phase(np.array(rows))
    except ValidationError as exc:
        raise ValidationError(f"config field 'coin': {exc}") from exc


def _as_site(value, field_name: str) -> int:
    # positions feed float64 phases and scaled laws, which hold integers exactly up to 2**53
    if not isinstance(value, int) or isinstance(value, bool) or abs(value) > 2**53:
        raise ValidationError(
            f"config field '{field_name}': sites are integers with |x| <= 2**53, got {value!r}"
        )
    return value


def _parse_initial(spec) -> WaveFunction:
    if not isinstance(spec, dict):
        raise ValidationError("config field 'initial': expected an object")
    if "qubit" in spec:
        pair = spec["qubit"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("config field 'initial.qubit': expected [a, b]")
        a = _as_complex(pair[0], "initial.qubit[0]")
        b = _as_complex(pair[1], "initial.qubit[1]")
        psi = WaveFunction.qubit(a, b, site=_as_site(spec.get("site", 0), "initial.site"))
    elif "sites" in spec:
        entries = spec["sites"]
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ValidationError("config field 'initial.sites': expected a nonempty list")
        pairs = []
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValidationError(
                    "config field 'initial.sites': entries are [x, [re, im], [re, im]]"
                )
            x = _as_site(entry[0], "initial.sites[..][0]")
            a, b = (_as_complex(entry[j], f"initial.sites[..][{j}]") for j in (1, 2))
            pairs.append((x, (a, b)))
        try:
            psi = WaveFunction.from_sites(pairs)
        except ValidationError as exc:
            raise ValidationError(f"config field 'initial.sites': {exc}") from exc
    else:
        raise ValidationError("config field 'initial': needs 'qubit' or 'sites'")
    core.require_normalized(psi, "config field 'initial': the state")
    return psi


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict; error messages name the offending field."""
    if not isinstance(data, dict):
        raise ValidationError("config: expected a JSON object")
    taken = set(_COMMON).union(*_FIELDS.values())
    for key in data:
        if key not in taken:
            raise ValidationError(f"config field {key!r}: unknown field")
    mode = data.get("mode")
    if mode not in _FIELDS:
        raise ValidationError(
            f"config field 'mode': expected one of {tuple(_FIELDS)}, got {mode!r}"
        )
    fields = _FIELDS[mode]
    for key, value in data.items():
        if key not in fields and key not in _COMMON:
            raise ValidationError(f"config field {key!r}: mode {mode!r} does not take it")
        if value is None:
            raise ValidationError(f"config field {key!r}: null is not a value; omit the field")
    for name, required in fields.items():
        if required and name not in data:
            raise ValidationError(f"config field {name!r}: required for mode {mode!r}")

    # RunConfig gets only the fields present, so each default lives in RunConfig
    values = dict(data)
    for name, minimum in (("steps", 0), ("grid", 1), ("y_points", 3), ("seed", 0)):
        value = values.get(name)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < minimum
        ):
            raise ValidationError(f"config field {name!r}: expected an integer >= {minimum}")

    times = values.get("times")
    if times is not None:
        if not isinstance(times, (list, tuple)) or not times or not all(
            _is_finite_number(t) and t >= 0 for t in times
        ):
            raise ValidationError("config field 'times': expected finite nonnegative numbers")
        if any(b <= a for a, b in zip(times, list(times)[1:])):
            raise ValidationError("config field 'times': must be strictly ascending")
        # each time names its snapshot file, snapshot_t{t:g}.csv
        if len({f"{t:g}" for t in times}) < len(times):
            raise ValidationError(
                "config field 'times': two times share a 6-significant-digit snapshot label"
            )
        values["times"] = tuple(float(t) for t in times)

    if "time" in values:
        if not _is_finite_number(values["time"]) or values["time"] < 0:
            raise ValidationError("config field 'time': expected a finite nonnegative number")
        values["time"] = float(values["time"])

    if "out" in values and not isinstance(values["out"], str):
        raise ValidationError("config field 'out': expected a string path")
    for name in ("trajectory", "quick"):
        if name in values and not isinstance(values[name], bool):
            raise ValidationError(f"config field {name!r}: expected a boolean")

    config = RunConfig(**{_ATTRS.get(name, name): value for name, value in values.items()})
    # fail fast on malformed coin/initial rather than mid-run
    config.coin()
    if config.initial_spec is not None:
        config.initial_state()
    return config


def serialize_config(config: RunConfig) -> dict:
    """The JSON form of a config: its mode's fields; ``parse_config`` inverts it exactly."""
    data: dict = {}
    for name in (*_COMMON, *_FIELDS[config.mode]):
        value = getattr(config, _ATTRS.get(name, name))
        if value is not None and value is not False:
            data[name] = list(value) if isinstance(value, tuple) else value
    return data


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


class _Outputs:
    """The files of one run, written into the staging directory ``dir`` and named in write order."""

    def __init__(self, directory: Path) -> None:
        self.dir = directory
        self.names: list[str] = []

    def table(self, name: str, header: str, blocks) -> None:
        _csvtext.write_table(self.dir / name, header, blocks)
        self.names.append(name)

    @contextlib.contextmanager
    def table_in_child(self, name: str, header: str, blocks):
        """Write a table as :meth:`table` does, in a child process forked as the ``with`` body starts.

        The name is recorded in the write order before the fork.  The body
        runs in this process; the exit waits for the child and raises the
        exception the child raised, if any.  An exception in the body, ^C
        included, kills the child and waits for it before it propagates.
        The child iterates ``blocks`` and leaves by ``os._exit``: it never
        returns into the caller.

        Forking a process that has threads (Python 3.12 warns about it) is
        safe here: the child runs only ``blocks`` and ``_csvtext``, which
        call no BLAS or LAPACK, so it never waits on a lock or a thread of
        the parent's.  OpenBLAS's own fork handler also stops its worker
        threads, which its next call in the parent restarts.
        """
        self.names.append(name)
        read, write = os.pipe()
        with open(read, "rb") as errors:
            # ^C stays pending until each side is inside its try
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _write_table_and_exit(self.dir / name, header, blocks, write, mask)
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            try:
                yield
                raised = errors.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitpid(pid, 0)[1]
        if raised:
            raise pickle.loads(raised)  # written by _write_table_and_exit, never by another program
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise CoinWalkError(f"writing {name}: its process exited with code {code}")

    def json(self, name: str, payload: dict) -> None:
        _csvtext.write_json(self.dir / name, payload)
        self.names.append(name)

    def commit(self, out_dir: Path) -> list[Path]:
        """Move every file to its name in ``out_dir``; its final paths."""
        paths = [out_dir / name for name in self.names]
        blocked = [path for path in paths if path.is_dir()]
        if blocked:  # os.replace would name the staged file, after moving the earlier ones
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked[0]))
        for name, path in zip(self.names, paths):
            os.replace(self.dir / name, path)
        return paths


def _write_table_and_exit(path: Path, header: str, blocks, errors: int, mask) -> None:
    """The child of ``_Outputs.table_in_child``: write the table, send an exception pickled down ``errors``, exit."""
    code = 1  # until the table is whole, whatever interrupts it
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _csvtext.write_table(path, header, blocks)
        code = 0
    except BaseException as exc:
        with open(errors, "wb") as pipe:
            pipe.write(pickle.dumps(exc))
    finally:
        os._exit(code)


def _coin_as_rows(coin: Coin) -> list[list[list[float]]]:
    return [[[c.real, c.imag] for c in row] for row in ((coin.l1, coin.l2), (coin.r1, coin.r2))]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


# working memory of a request beside its arrays that grow with the run:
# per row of a block, and a fixed part
_BLOCK_ROW_BYTES = 2048
_FIXED_BYTES = 2**20
_WIDEST_FLOAT = _csvtext.WIDEST_FLOAT


def _require_room(label: str, files: dict[str, int], memory: int, out: _Outputs) -> None:
    """Raise :class:`CoinWalkError` unless the output disk holds ``files``' bytes and RAM ``memory``."""
    disk = sum(files.values())
    stat = os.statvfs(out.dir)
    free = stat.f_bavail * stat.f_frsize
    if disk > free:
        raise CoinWalkError(
            f"{label}: writing its files needs {disk} bytes, "
            f"but {str(out.dir.parent)!r} has {free} bytes free"
        )
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if memory > physical:
        raise CoinWalkError(
            f"{label}: holding its arrays needs {memory} bytes, "
            f"more than the {physical} bytes of physical memory"
        )


def _manifest(config: RunConfig, coin: Coin, files: list, **fields) -> dict:
    """``manifest.json`` of a ``walk`` or ``cwalk`` run: the files it lists, and its mode's ``fields``."""
    return {"mode": config.mode, "coin": _coin_as_rows(coin), "files": files,
            "config": serialize_config(config), **fields}


def _walk_needs(config: RunConfig) -> tuple[str, dict[str, int], int]:
    """A ``walk`` request's label, upper bounds on the bytes of each of its files, and on its memory.

    The state after ``i`` steps spans at most ``W + 2i`` sites, ``W`` being
    ``psi0``'s width, up to the farthest reachable one: the distribution has
    at most ``W + 2n`` rows and the trajectory ``(n + 1)(W + n)``.  The
    manifest is written with the widest norm and support.  The memory is
    eight arrays of 2·16 bytes a site over ``W + 2n`` sites (the step loop's
    three, ``psi0``, the state written, and three for its columns and their
    temporaries), one block's working arrays and a fixed part.  Measured
    peaks are 132 bytes a site without ``--trajectory`` and 224 with it.
    """
    psi0 = config.initial_state()
    n, size = config.steps, psi0.width + 2 * config.steps
    rows = (n + 1) * (psi0.width + n)  # the trajectory's; the distribution has fewer
    far = -max(abs(psi0.x_min - n), abs(psi0.x_max + n))
    files = {}
    if config.trajectory:
        files["trajectory.csv"] = _csvtext.table_bytes("n,x,p", rows, (n, far, _WIDEST_FLOAT))
    files[f"distribution_n{n}.csv"] = _csvtext.table_bytes("x,p", size, (far, _WIDEST_FLOAT))
    manifest = _manifest(config, config.coin(), list(files), steps=n, norm=_WIDEST_FLOAT, support=[far, far])
    files["manifest.json"] = _csvtext.json_bytes(manifest)
    memory = 8 * 32 * size + _BLOCK_ROW_BYTES * min(rows, core.BLOCK) + _FIXED_BYTES
    return f"walk of {n} steps", files, memory


def cmd_walk(config: RunConfig, out: _Outputs) -> int:
    coin = config.coin()
    psi0 = config.initial_state()
    run = walk.WalkRun(coin, psi0, config.steps)
    if config.trajectory:
        final = psi0

        def blocks():
            nonlocal final
            for i, psi in walk.iter_evolution(run):
                final = psi
                yield np.full(psi.width, i), psi.sites, position_distribution(psi)

        out.table("trajectory.csv", "n,x,p", blocks())
    else:
        final = walk.evolve(run)
    out.table(f"distribution_n{config.steps}.csv", "x,p", [(final.sites, position_distribution(final))])
    support = [final.x_min, final.x_max]
    manifest = _manifest(config, coin, list(out.names), steps=config.steps, norm=final.norm(), support=support)
    out.json("manifest.json", manifest)
    return 0


def _cwalk_needs(config: RunConfig) -> tuple[str, dict[str, int], int]:
    """A ``cwalk`` request's label, upper bounds on the bytes of each of its files, and on its memory.

    Every snapshot is reconstructed on the ``M`` sites of the one grid, sized
    for the latest time, around ``psi0``'s window: at most ``M`` rows, none
    farther out than ``R + M``, ``R`` being ``psi0``'s support radius.  The
    manifest is written with the widest norms.  The memory is twelve complex
    arrays of 2·16 bytes a node (one evolution's transform, propagator bank,
    product and inverse transform with their temporaries, and the snapshot
    held while the next is made) and a fixed part.  Measured peaks are 288
    to 303 bytes a node, nine such arrays, for M from 2025 to 155,579.
    """
    psi0 = config.initial_state()
    size = MomentumGrid.for_walk(psi0, math.ceil(max(config.times))).size
    far = -(psi0.support_radius + size)
    files = {f"snapshot_t{t:g}.csv": _csvtext.table_bytes("x,p", size, (far, _WIDEST_FLOAT)) for t in config.times}
    norms = {f"{t:g}": _WIDEST_FLOAT for t in config.times}
    manifest = _manifest(config, config.coin(), list(files), times=list(config.times), norms=norms)
    files["manifest.json"] = _csvtext.json_bytes(manifest)
    return f"cwalk to time {max(config.times):g}", files, 12 * 32 * size + _FIXED_BYTES


def cmd_cwalk(config: RunConfig, out: _Outputs) -> int:
    coin = config.coin()
    norms = {}
    for t, psi in continuous.snapshots(config.initial_state(), coin, config.times):
        out.table(f"snapshot_t{t:g}.csv", "x,p", [(psi.sites, position_distribution(psi))])
        norms[f"{t:g}"] = psi.norm()
    out.json("manifest.json", _manifest(config, coin, list(out.names), times=list(config.times), norms=norms))
    return 0


_ROUTING = "degenerate coin: point-mass law emitted instead of a density"


def _density_needs(config: RunConfig) -> tuple[str, dict[str, int], int]:
    """A ``density`` request's label, upper bounds on the bytes of each of its files, and on its memory.

    The table is written unless the coin is degenerate.  ``law.json`` is
    written with the widest values, for a density and for two atoms,
    whichever is longer.  The memory counts each of the ``y_points`` points
    and each node of the law's quadrature: 16 bytes a site of ``psi0``'s
    window for the phases of its momentum transform, and 512 bytes of
    working arrays; then a fixed part.  Measured peaks are 369 bytes a point
    at width 1 and 16,397 at width 1001.
    """
    rows = config.y_points
    files = {}
    if config.coin().has_density_limit:
        files["density.csv"] = _csvtext.table_bytes("y,rho", rows, (_WIDEST_FLOAT,) * 2)
    widest = {"support": [_WIDEST_FLOAT] * 2, "beta": _WIDEST_FLOAT, "mass": _WIDEST_FLOAT, "mean": _WIDEST_FLOAT}
    atoms = {"atoms": [[_WIDEST_FLOAT] * 2] * 2, "routing": _ROUTING}
    files["law.json"] = max(
        _csvtext.json_bytes({"kind": "point_mass", "config": serialize_config(config), **fields})
        for fields in (widest, atoms)
    )
    nodes = limitlaw._BASE_PANELS * len(limitlaw._GL_NODES)
    memory = (rows + nodes) * (16 * config.initial_state().width + 512) + _FIXED_BYTES
    return f"density of {rows} points", files, memory


def cmd_density(config: RunConfig, out: _Outputs) -> int:
    coin = config.coin()
    psi0 = config.initial_state()
    law = limitlaw.weak_limit_law(coin, psi0)
    mass = law.mass()
    if not abs(mass - 1.0) <= limitlaw.MASS_TOL:
        raise CoinWalkError(
            f"limit law mass defect |mass - 1| = {abs(mass - 1.0):.3e} exceeds "
            f"{limitlaw.MASS_TOL:g}; the quadrature cannot resolve this coin"
        )
    if isinstance(law, limitlaw.LimitLaw):
        lo, hi = law.support()
        ys = np.linspace(lo, hi, config.y_points + 2)[1:-1]
        out.table("density.csv", "y,rho", [(ys, law.pdf(ys))])
        fields = {"kind": "density", "support": [lo, hi], "beta": law.beta, "mass": mass, "mean": law.mean()}
    else:
        atoms = [[float(a), float(w)] for a, w in zip(law.atoms, law.weights)]
        fields = {"kind": "point_mass", "atoms": atoms, "routing": _ROUTING}
    out.json("law.json", {"config": serialize_config(config), **fields})
    return 0


_FLOW_HEADER = "k,gamma,h1,h2,h3,angle"


def _semigroup_payload(config: RunConfig, grid: MomentumGrid, positivity: dict, residual: float) -> dict:
    return {"mode": "semigroup", "time": config.time, "grid": grid.size, "seed": config.seed, "positivity": positivity,
            "flow_vs_conjugation_max_residual": residual, "config": serialize_config(config)}


def _semigroup_needs(config: RunConfig) -> tuple[str, dict[str, int], int]:
    """A ``semigroup`` request's label, upper bounds on the bytes of each of its files, and on its memory.

    The report is written with one and with two of the widest items in
    each array; every further item adds at most their difference.  The
    memory is the report's three grid-wide arrays, 8 bytes an item, the
    working arrays of one block in each of the two processes (the parent's
    positivity check and the child's flow table) and a fixed part.
    """
    grid = config.grid()
    size = grid.size

    def report(items: int) -> int:
        widest = [_WIDEST_FLOAT] * items
        positivity = {"nodes": [size - 1] * items, "min_eigenvalue_before": widest, "min_eigenvalue_after": widest,
                      "time": _WIDEST_FLOAT, "worst_before": _WIDEST_FLOAT, "worst_after": _WIDEST_FLOAT,
                      "input_psd": False, "passed": False}
        return _csvtext.json_bytes(_semigroup_payload(config, grid, positivity, _WIDEST_FLOAT))

    one = report(1)
    files = {
        f"flow_t{config.time:g}.csv": _csvtext.table_bytes(_FLOW_HEADER, size, (_WIDEST_FLOAT,) * 6),
        "semigroup_report.json": one + (size - 1) * (report(2) - one),
    }
    memory = 24 * size + 2 * _BLOCK_ROW_BYTES * min(size, core.BLOCK) + _FIXED_BYTES
    return f"semigroup grid {size}", files, memory


def cmd_semigroup(config: RunConfig, out: _Outputs) -> int:
    coin = config.coin()
    grid = config.grid()
    t = config.time

    def flow_blocks():
        # the dispersion is elementwise: each block has the bits of one whole-grid call
        for block in core.blocks(grid.size):
            k = grid.nodes_in(block)
            g, h = spectral.dispersion(k, coin)
            yield k, g, *h.T, 2.0 * g * t

    with out.table_in_child(f"flow_t{t:g}.csv", _FLOW_HEADER, flow_blocks()):
        # the random fibres are drawn and used per block, as if drawn whole:
        # the PSD observable, then the Hermitian one
        rng = np.random.default_rng(config.seed)
        report = semigroup.positivity_check(grid, t, coin, semigroup.random_psd_fibres(grid, rng))
        k, coeffs = semigroup.random_hermitian_sample(grid, rng, max(1, grid.size // 32))
        residual = semigroup.flow_vs_conjugation_residual(k, coeffs, t, coin)
        out.json("semigroup_report.json", _semigroup_payload(config, grid, report, residual))
    return 0


def cmd_verify(config: RunConfig, out: _Outputs) -> int:
    # verify builds its figure states from PRESETS, so it imports this module
    from .verify import run_verification

    results = run_verification(seed=config.seed, quick=config.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<32} residual={r.residual:.3e} tol={r.tolerance:.1e} {r.detail}")
    passed = _write_verify_report(out, config.seed, config.quick, results)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks")
    return 0 if passed else 2


def _write_verify_report(out: _Outputs, seed: int, quick: bool, results: list) -> bool:
    """Write ``verify_report.json`` for the check results; returns the verdict."""
    passed = all(r.passed for r in results)
    checks = [r.to_dict() for r in results]
    out.json("verify_report.json", {"mode": "verify", "seed": seed, "quick": quick, "passed": passed, "checks": checks})
    return passed


_COMMANDS = {"walk": cmd_walk, "cwalk": cmd_cwalk, "density": cmd_density,
             "semigroup": cmd_semigroup, "verify": cmd_verify}
# each file-writing mode's size model: its label, the most bytes of each file it writes, its memory
_NEEDS = {"walk": _walk_needs, "cwalk": _cwalk_needs, "density": _density_needs, "semigroup": _semigroup_needs}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _load_config(args, mode: str) -> RunConfig:
    if args.config and args.preset:
        raise ValidationError("give either --config or --preset, not both")
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config is not UTF-8 text: {exc}")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}")
    elif args.preset:
        if args.preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        # a preset bundles coin + initial state; the subcommand decides what
        # to do with them, so it takes only its own fields and its mode wins
        data = {k: v for k, v in PRESETS[args.preset].items() if k in _FIELDS[mode]}
        data["mode"] = mode
    else:
        data = {}
    data.setdefault("mode", mode)
    if data["mode"] != mode:
        raise ValidationError(
            f"config field 'mode': {data['mode']!r} does not match subcommand {mode!r}"
        )
    for name in _FLAGS:
        if getattr(args, name, None) is not None:
            data[name] = getattr(args, name)
    return parse_config(data)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ``ValidationError`` so they exit 1 like any invalid input."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="coinwalk", description="one-dimensional coined quantum walk toolkit"
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, fields in _FIELDS.items():
        p = sub.add_parser(mode, help=f"run the {mode} command")
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--preset", help=f"bundled preset name ({', '.join(sorted(PRESETS))})")
        p.add_argument("--out", help=f"output directory (or ${ENV_OUT_DIR})")
        for name, (kind, text) in _FLAGS.items():
            if name in fields:
                # an absent flag stays None, so it never overrides the config
                how = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
                p.add_argument(f"--{name}", help=text, **how)
    return parser


def main(argv=None) -> int:
    staging = None
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args, args.mode)
        out_dir = Path(args.out or os.environ.get(ENV_OUT_DIR) or config.out_dir or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".coinwalk-", dir=out_dir) as staging:
            out = _Outputs(Path(staging))
            if args.mode in _NEEDS:  # refuse a run that cannot fit before it starts
                _require_room(*_NEEDS[args.mode](config), out)
            code = _COMMANDS[args.mode](config, out)
            paths = out.commit(out_dir)
        for path in paths:
            print(f"wrote {path}")
        return code
    except CoinWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a path the run cannot read or write: --config, --out or an output file,
        # which is named in the output directory, as the staging one is gone
        where = exc.filename
        if staging is not None and where is not None and Path(where).is_relative_to(staging):
            where = str(out_dir / Path(where).relative_to(staging))
        where = "" if where is None else f"{where!r}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
