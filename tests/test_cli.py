"""Config parsing, data export, determinism, and exit codes."""

import errno
import itertools
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinwalk.cli as cli
import coinwalk.core as core
from coinwalk import MomentumGrid, ValidationError, _csvtext, continuous, limitlaw, semigroup, spectral, walk
from coinwalk.core import CoinWalkError, position_distribution
from coinwalk.cli import PRESETS, main, parse_config, serialize_config
from coinwalk.verify import CHECKS, _coin_with_l2

from conftest import written_json


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return header, rows


def contents(directory):
    """Each entry of ``directory`` by name: a file's bytes, or None for anything else."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in Path(directory).iterdir()}


# --------------------------------------------------------------------------
# config round trips and validation
# --------------------------------------------------------------------------


def test_config_round_trip_walk():
    data = dict(PRESETS["fig3.3"])
    config = parse_config(data)
    assert parse_config(serialize_config(config)) == config


def test_config_round_trip_all_presets():
    for name, preset in PRESETS.items():
        config = parse_config(dict(preset))
        assert parse_config(serialize_config(config)) == config, name


def test_config_round_trip_explicit_coin():
    data = {
        "mode": "density",
        "coin": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]],
        "initial": {"qubit": [[1.0, 0.0], [0.0, 0.0]], "site": 0},
        "y_points": 11,
    }
    config = parse_config(data)
    assert parse_config(serialize_config(config)) == config
    assert abs(config.coin().l1 - 0.6) < 1e-12


# one valid value for every field some mode takes
SAMPLE = {
    "coin": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]],
    "initial": {"qubit": [[1.0, 0.0], [0.0, 0.0]], "site": 2},
    "steps": 3,
    "trajectory": True,
    "times": [0.5, 2.0],
    "y_points": 11,
    "time": 2.5,
    "grid": 64,
    "seed": 4,
    "quick": True,
}


@pytest.mark.parametrize("mode", sorted(cli._FIELDS))
def test_config_round_trip_every_mode(mode):
    data = {"mode": mode, "out": "o", **{name: SAMPLE[name] for name in cli._FIELDS[mode]}}
    config = parse_config(data)
    assert serialize_config(config) == data
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("mode", sorted(cli._FIELDS))
def test_mode_rejects_fields_of_other_modes(mode):
    taken = cli._FIELDS[mode]
    base = {"mode": mode, **{name: SAMPLE[name] for name, required in taken.items() if required}}
    foreign = set().union(*cli._FIELDS.values()) - set(taken)
    assert foreign
    for name in sorted(foreign):
        with pytest.raises(ValidationError, match=f"'{name}': mode '{mode}' does not take it"):
            parse_config({**base, name: SAMPLE[name]})


def test_snapshot_times_need_distinct_file_labels(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**PRESETS["fig3.5"], "times": [1.0000001, 1.0000002]}))
    assert main(["cwalk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "'times'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "snapshot_t1.csv").exists()


def test_config_validation_names_fields():
    with pytest.raises(ValidationError, match="'mode'"):
        parse_config({"mode": "dance"})
    with pytest.raises(ValidationError, match="'steps'"):
        parse_config({"mode": "walk", "initial": {"qubit": [[1, 0], [0, 0]]}})
    with pytest.raises(ValidationError, match="'initial'"):
        parse_config({"mode": "walk", "steps": 3})
    for times in ([2.0, 1.0], [], [1.0, 1.0], [-1.0, 2.0]):
        with pytest.raises(ValidationError, match="'times'"):
            parse_config({"mode": "cwalk", "initial": {"qubit": [[1, 0], [0, 0]]}, "times": times})
    with pytest.raises(ValidationError, match="coin"):
        parse_config({"mode": "verify", "coin": [[1, 2], [3]]})
    with pytest.raises(ValidationError, match="unknown field"):
        parse_config({"mode": "verify", "banana": 1})
    with pytest.raises(ValidationError, match="'grid'"):
        parse_config({**PRESETS["fig3.3"], "grid": 4096})
    with pytest.raises(ValidationError, match="'time'"):
        parse_config({**PRESETS["fig3.3"], "time": 3.0})
    with pytest.raises(ValidationError, match="initial"):
        parse_config(
            {"mode": "walk", "steps": 1, "initial": {"qubit": [[1.0, 0.0], [1.0, 0.0]]}}
        )
    # an explicit null is neither a value nor the default
    for data, field in (
        ({"mode": "semigroup", "seed": None, "grid": 64}, "seed"),
        ({"mode": "density", "initial": {"qubit": [[1, 0], [0, 0]]}, "y_points": None}, "y_points"),
        ({"mode": "walk", "initial": {"qubit": [[1, 0], [0, 0]]}, "steps": None}, "steps"),
        ({"mode": "cwalk", "initial": None, "times": [1.0]}, "initial"),
        ({"mode": "verify", "out": None}, "out"),
    ):
        with pytest.raises(ValidationError, match=f"config field '{field}': null"):
            parse_config(data)
    # sites are integers, not booleans, and small enough to be exact as float64
    for initial, field in (
        ({"qubit": [[1, 0], [0, 0]], "site": True}, "initial.site"),
        ({"qubit": [[1, 0], [0, 0]], "site": 10**20}, "initial.site"),
        ({"qubit": [[1, 0], [0, 0]], "site": -(2**53) - 1}, "initial.site"),
        ({"sites": [[True, [1, 0], [0, 0]]]}, r"initial.sites\[..\]\[0\]"),
        ({"sites": [[2**60, [1, 0], [0, 0]]]}, r"initial.sites\[..\]\[0\]"),
        ({"sites": [[0, [1, 0], [0, 0]], [0, [0, 0], [1, 0]]]}, "initial.sites': site 0 is given twice"),
    ):
        with pytest.raises(ValidationError, match=f"config field '{field}"):
            parse_config({"mode": "walk", "steps": 1, "initial": initial})


QUBIT = {"qubit": [[1, 0], [0, 0]]}


@pytest.mark.parametrize(
    "data, field",
    [
        ({"mode": "density", "initial": {"qubit": [[math.nan, 0], [0, 0]]}}, "initial.qubit[0]"),
        ({"mode": "semigroup", "time": math.nan}, "time"),
        ({"mode": "semigroup", "time": math.inf}, "time"),
        ({"mode": "semigroup", "time": 10**400}, "time"),
        ({"mode": "cwalk", "initial": QUBIT, "times": [math.inf]}, "times"),
        (
            {"mode": "walk", "initial": QUBIT, "steps": 3,
             "coin": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]},
            "coin[0][0]",
        ),
    ],
)
def test_non_finite_config_numbers_are_rejected(tmp_path, capsys, data, field):
    # JSON as Python reads it carries NaN, Infinity and integers beyond float range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main([data["mode"], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*"))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def test_walk_zero_steps_is_initial_distribution(tmp_path):
    config = {
        "mode": "walk",
        "initial": {"qubit": [[0.0, 0.0], [1.0, 0.0]], "site": 2},
        "steps": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["walk", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "distribution_n0.csv")
    assert header == ["x", "p"]
    assert rows == [(2.0, 1.0)]


def test_walk_preset_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["walk", "--preset", "fig3.3", "--steps", "40", "--out", str(out)])
        assert code == 0
    name = "distribution_n40.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_walk_trajectory_export(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "walk",
                "initial": {"qubit": [[0.0, 0.0], [1.0, 0.0]]},
                "steps": 3,
                "trajectory": True,
            }
        )
    )
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "trajectory.csv")
    assert header == ["n", "x", "p"]
    assert {int(r[0]) for r in rows} == {0, 1, 2, 3}


def test_csv_tables_round_trip_exactly(tmp_path):
    # read_csv parses every field as a float, so it cannot tell 10 from 10.0 or
    # a 16-digit float from a 17-digit one; this reads the fields as text
    base = {key: PRESETS["fig3.3"][key] for key in ("coin", "initial")}
    runs = {
        "walk": {**base, "steps": 12, "trajectory": True},
        "cwalk": {**base, "times": [0.5, 3.0]},
        "density": {**base, "y_points": 21},
        "semigroup": {"grid": 32, "time": 2.5},
    }
    for mode, fields in runs.items():
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"mode": mode, **fields}))
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / mode)]) == 0

    config = parse_config({"mode": "walk", **runs["walk"]})
    coin, psi0 = config.coin(), config.initial_state()
    states = [psi for _, psi in walk.iter_evolution(walk.WalkRun(coin, psi0, 12))]
    law = limitlaw.weak_limit_law(coin, psi0)
    ys = np.linspace(*law.support(), 23)[1:-1]
    g, h = spectral.dispersion(MomentumGrid(32).nodes, coin)

    def distribution(psi):
        return {"x": psi.sites, "p": position_distribution(psi)}

    expected = {
        "walk/distribution_n12.csv": distribution(states[-1]),
        "walk/trajectory.csv": {
            "n": np.concatenate([np.full(psi.width, i) for i, psi in enumerate(states)]),
            "x": np.concatenate([psi.sites for psi in states]),
            "p": np.concatenate([position_distribution(psi) for psi in states]),
        },
        **{
            f"cwalk/snapshot_t{t:g}.csv": distribution(psi)
            for t, psi in continuous.snapshots(psi0, coin, (0.5, 3.0))
        },
        "density/density.csv": {"y": ys, "rho": law.pdf(ys)},
        "semigroup/flow_t2.5.csv": {
            "k": MomentumGrid(32).nodes,
            "gamma": g,
            **{f"h{i + 1}": h[:, i] for i in range(3)},
            "angle": 2.0 * g * 2.5,
        },
    }
    for name, columns in expected.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == ",".join(columns), name
        fields = list(zip(*(line.split(",") for line in lines[1:])))
        assert len(fields) == len(columns), name
        for text, (column, want) in zip(fields, columns.items()):
            if want.dtype.kind == "i":
                assert all(re.fullmatch(r"-?[0-9]+", v) for v in text), (name, column)
                assert [int(v) for v in text] == want.tolist(), (name, column)
            else:
                got = np.array([float(v) for v in text])
                assert got.tobytes() == want.astype(np.float64).tobytes(), (name, column)


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------

# floats whose text is easy to get wrong, and values at the JSON edges
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
HUGE_INTS = [2**63 - 1, -(2**63), 2**64 - 1, 2**64, -(10**400)]
TRICKY_TEXT = ['"', "\\", "\x00\x1f\x7f", "\u2028é☃\U0001f600", "[1, 2]", "{}", ", ", ""]

json_text = st.text() | st.sampled_from(TRICKY_TEXT)
json_number = (
    st.integers() | st.sampled_from(HUGE_INTS) | st.floats() | st.sampled_from(EDGE_FLOATS)
)
json_scalar = st.none() | st.booleans() | json_number | json_text
json_value = st.recursive(
    json_scalar | st.lists(st.none() | st.booleans() | json_number),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(json_text, children),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(json_value)
def test_json_text_equals_stdlib_indent_2(value):
    assert written_json(value) == json.dumps(value, indent=2, sort_keys=True)


# the array writers refuse NaN and infinities (test_writers_refuse_non_finite_values)
ARRAY_FLOATS = [1.7976931348623157e308, 2.2250738585072014e-308, 1e22, -0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5]
ARRAY_INTS = [2**63 - 1, -(2**63 - 1), 0, -7]


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("chunk", [1, 7, 2048, 10**9])
def test_json_arrays_stream_as_their_lists(tmp_path, monkeypatch, chunk):
    # a numpy array is encoded core.BLOCK items at a time; the text must be
    # that of its tolist() whatever the block size, also around the block edge
    # (at 10**9 the lengths around 2048 all fit in one block)
    monkeypatch.setattr(core, "BLOCK", chunk)
    edge = min(chunk, 2048)
    payload = {"scalar": 1.5, "list": [1, 2.0, None], "nested": {}}
    for n in sorted({0, 1, edge - 1, edge, edge + 1}):
        payload[f"floats_{n}"] = np.resize(np.array(ARRAY_FLOATS), n)
        payload["nested"][f"ints_{n}"] = np.resize(np.array(ARRAY_INTS, dtype=np.int64), n)
    text = written_json(payload)
    assert text == json.dumps(_as_lists(payload), indent=2, sort_keys=True)
    _csvtext.write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_bytes().decode("utf-8") == text + "\n"


JSON_RUNS = {
    "walk": ["walk", "--preset", "fig3.3", "--steps", "12", "--trajectory"],
    "cwalk": ["cwalk", "--preset", "fig3.5"],
    "density": ["density", "--preset", "fig3.2"],
    "point_mass": ["density", "--config", "point_mass.json"],
    "semigroup": ["semigroup", "--grid", "64"],
    "verify": ["verify", "--quick"],
}


@pytest.mark.parametrize("run", sorted(JSON_RUNS))
def test_json_files_are_stdlib_indent_2(tmp_path, monkeypatch, capsys, run):
    monkeypatch.chdir(tmp_path)
    Path("point_mass.json").write_text(
        json.dumps(
            {
                "mode": "density",
                "coin": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "initial": {"qubit": [[0.6, 0.0], [0.8, 0.0]]},
            }
        )
    )
    assert main([*JSON_RUNS[run], "--out", "o"]) == 0
    written = sorted(Path("o").glob("*.json"))
    assert written
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def reference_table(header, blocks):
    """The per-row ``str.format`` rendering ``_csvtext.write_table`` must reproduce."""
    lines = [header + "\n"]
    for columns in blocks:
        row = (",".join("{}" if c.dtype.kind == "i" else "{:.17g}" for c in columns) + "\n").format
        lines.extend(row(*values) for values in zip(*(c.tolist() for c in columns)))
    return "".join(lines)


def assert_same_lines(got, want):
    """Text equality that reports the first differing line (a str diff of a big table is slow)."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


def edge_block(rng, length):
    """Columns ``int64, float64, float64`` of ``length`` rows with extremes mixed in."""
    i64 = np.iinfo(np.int64)
    ints = rng.integers(i64.min, i64.max, size=length, endpoint=True, dtype=np.int64)
    # every finite bit pattern: subnormals, huge exponents, signed zeros; the
    # writers refuse NaN and infinities, so their patterns lose an exponent bit
    raw = rng.integers(0, 2**64 - 1, size=length, endpoint=True, dtype=np.uint64)
    raw[(raw >> 52) & 0x7FF == 0x7FF] ^= 1 << 62
    bits = raw.view(np.float64)
    floats = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, size=length)
    for column, edges in (
        (ints, [i64.min, i64.max, 0, -1]),
        (floats, [x for x in EDGE_FLOATS if math.isfinite(x)]),
    ):
        k = min(length, len(edges))
        column[rng.choice(length, size=k, replace=False)] = edges[:k]
    return ints, floats, bits


def test_write_table_matches_per_row_format(tmp_path):
    rng = np.random.default_rng(7)
    chunk = core.BLOCK
    blocks = [edge_block(rng, n) for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)]
    path = tmp_path / "t.csv"
    _csvtext.write_table(path, "i,f,b", blocks)
    assert_same_lines(path.read_text(encoding="utf-8"), reference_table("i,f,b", blocks))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    floats = np.array([0.5, bad, 2.0])
    with pytest.raises(CoinWalkError, match="NaN or an infinity"):
        _csvtext.write_table(tmp_path / "t.csv", "i,f", [(np.arange(3), floats)])
    with pytest.raises(CoinWalkError, match="NaN or an infinity"):
        _csvtext.write_json(tmp_path / "t.json", {"ok": 1.5, "values": floats})
    # a scalar still goes through json.dumps, which writes NaN and Infinity
    assert written_json({"residual": bad}) == json.dumps({"residual": bad}, indent=2)


@pytest.mark.parametrize(
    "array",
    [
        np.array([1 + 2j, 3, -1j]),
        np.array([True, False, True]),
        np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        np.zeros((3, 2)),
        np.zeros(0, complex),
        np.zeros(0, bool),
        np.zeros(0, np.uint64),
        np.zeros((0, 3)),
    ],
    ids=["complex", "bool", "uint64", "2-D", "empty complex", "empty bool", "empty uint64", "empty 2-D"],
)
def test_writers_take_only_1d_int64_and_float64(tmp_path, array):
    # nothing is converted: a complex column would lose its imaginary part;
    # an empty array meets the same rule
    with pytest.raises(TypeError, match="1-D int64 or float64"):
        _csvtext.write_table(tmp_path / "t.csv", "i,v", [(np.arange(len(array)), array)])
    with pytest.raises(TypeError, match="1-D int64 or float64"):
        _csvtext.write_json(tmp_path / "t.json", {"values": array})


def test_empty_columns_write_a_bare_header(tmp_path):
    _csvtext.write_table(tmp_path / "t.csv", "i,f", [(np.arange(0), np.zeros(0))])
    assert (tmp_path / "t.csv").read_bytes() == b"i,f\n"


def test_table_blocks_keep_their_dtypes(tmp_path):
    # short blocks are gathered into one chunk, which must not cast an int64 column to float64
    blocks = [(np.arange(2), np.arange(2)), (np.arange(2), np.zeros(2))]
    with pytest.raises(TypeError):
        _csvtext.write_table(tmp_path / "t.csv", "x,p", blocks)


def test_write_table_streams_many_small_blocks(tmp_path):
    # the shape of `walk --trajectory`: one short block per step, passed lazily
    rng = np.random.default_rng(8)
    widths = rng.integers(0, 12, size=400)
    blocks = [
        (np.full(w, i), np.arange(-i, -i + w), rng.random(w)) for i, w in enumerate(widths)
    ]
    path = tmp_path / "t.csv"
    _csvtext.write_table(path, "n,x,p", iter(blocks))
    assert_same_lines(path.read_text(encoding="utf-8"), reference_table("n,x,p", blocks))


def near_diagonal_coin(abs_l2):
    """Config rows of the coin with |l2| = abs_l2, theta1 = 0.4 and theta2 = 1.3."""
    return cli._coin_as_rows(_coin_with_l2(abs_l2, 0.4, 1.3))


def test_cwalk_integer_time_matches_walk(tmp_path):
    cases = [
        ("hadamard-switched", [[0.0, 0.0], [1.0, 0.0]], 5),
        # below DEGENERATE_TOL and diagonal: one momentum route serves both
        (near_diagonal_coin(9e-9), [[0.6, 0.0], [0.0, 0.8]], 10),
        (near_diagonal_coin(0.0), [[0.6, 0.0], [0.0, 0.8]], 10),
    ]
    for i, (coin, qubit, n) in enumerate(cases):
        base = {"coin": coin, "initial": {"qubit": qubit}}
        walk_cfg = tmp_path / f"walk{i}.json"
        walk_cfg.write_text(json.dumps({**base, "mode": "walk", "steps": n}))
        cwalk_cfg = tmp_path / f"cwalk{i}.json"
        cwalk_cfg.write_text(json.dumps({**base, "mode": "cwalk", "times": [float(n)]}))
        assert main(["walk", "--config", str(walk_cfg), "--out", str(tmp_path / f"w{i}")]) == 0
        assert main(["cwalk", "--config", str(cwalk_cfg), "--out", str(tmp_path / f"c{i}")]) == 0
        _, walk_rows = read_csv(tmp_path / f"w{i}" / f"distribution_n{n}.csv")
        _, cwalk_rows = read_csv(tmp_path / f"c{i}" / f"snapshot_t{n}.csv")
        walk_p = {int(x): p for x, p in walk_rows}
        cwalk_p = {int(x): p for x, p in cwalk_rows}
        for x in set(walk_p) | set(cwalk_p):
            assert abs(walk_p.get(x, 0.0) - cwalk_p.get(x, 0.0)) < 1e-9, (i, x)


def test_cwalk_time_zero_reproduces_initial(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "cwalk",
                "initial": {"qubit": [[0.0, 0.0], [1.0, 0.0]], "site": 3},
                "times": [0.0],
            }
        )
    )
    assert main(["cwalk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "snapshot_t0.csv")
    peaked = {int(x): p for x, p in rows if p > 1e-20}
    assert peaked == {3: pytest.approx(1.0)}


def test_cwalk_preset_emits_four_snapshots(tmp_path):
    assert main(["cwalk", "--preset", "fig3.5", "--out", str(tmp_path / "o")]) == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("snapshot_*.csv"))
    assert names == [
        "snapshot_t100.csv",
        "snapshot_t99.25.csv",
        "snapshot_t99.5.csv",
        "snapshot_t99.75.csv",
    ]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    for norm in manifest["norms"].values():
        assert abs(norm - 1.0) < 1e-9


def test_density_reports_beta_and_mass(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "density",
                "initial": {"qubit": [[1.0, 0.0], [0.0, 0.0]]},
                "y_points": 51,
            }
        )
    )
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    law = json.loads((tmp_path / "o" / "law.json").read_text())
    assert law["kind"] == "density"
    assert law["beta"] == pytest.approx(1.0)
    assert law["mass"] == pytest.approx(1.0, abs=1e-6)
    header, rows = read_csv(tmp_path / "o" / "density.csv")
    assert header == ["y", "rho"]
    assert len(rows) == 51
    assert all(r >= 0.0 for _, r in rows)


def test_density_preset_echoes_only_density_fields(tmp_path):
    assert main(["density", "--preset", "fig3.2", "--out", str(tmp_path / "o")]) == 0
    law = json.loads((tmp_path / "o" / "law.json").read_text())
    preset = PRESETS["fig3.2"]
    assert law["config"] == {
        "mode": "density",
        "coin": preset["coin"],
        "initial": preset["initial"],
        "y_points": 201,
    }


def test_density_degenerate_coin_emits_atoms(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "density",
                "coin": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "initial": {"qubit": [[0.6, 0.0], [0.8, 0.0]]},
            }
        )
    )
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    law = json.loads((tmp_path / "o" / "law.json").read_text())
    assert law["kind"] == "point_mass"
    assert law["atoms"] == [[-1.0, pytest.approx(0.36)], [1.0, pytest.approx(0.64)]]
    assert not (tmp_path / "o" / "density.csv").exists()


def test_density_refuses_a_law_with_a_mass_defect(tmp_path, capsys):
    # |l2| = 1e-5 takes the density route, but the quadrature misses most of the mass
    l1 = math.sqrt(1.0 - 1e-10)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "density",
                "coin": [[[l1, 0.0], [1e-5, 0.0]], [[-1e-5, 0.0], [l1, 0.0]]],
                "initial": {"qubit": [[1.0, 0.0], [0.0, 0.0]]},
            }
        )
    )
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "mass defect" in capsys.readouterr().err
    assert contents(tmp_path / "o") == {}


def test_density_refuses_a_nan_mass(tmp_path, monkeypatch, capsys):
    # a NaN mass is no mass within MASS_TOL
    monkeypatch.setattr(limitlaw.LimitLaw, "mass", lambda self: math.nan)
    assert main(["density", "--preset", "fig3.2", "--out", str(tmp_path / "o")]) == 1
    assert "mass defect" in capsys.readouterr().err
    assert contents(tmp_path / "o") == {}


def test_semigroup_outputs(tmp_path):
    # coins below DEGENERATE_TOL and diagonal need no eigenvectors either
    for i, coin in enumerate(["hadamard-switched", near_diagonal_coin(9e-9), near_diagonal_coin(0.0)]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"mode": "semigroup", "coin": coin}))
        out = tmp_path / f"o{i}"
        assert main(["semigroup", "--config", str(cfg), "--grid", "32", "--out", str(out)]) == 0
        report = json.loads((out / "semigroup_report.json").read_text())
        assert report["positivity"]["passed"]
        assert report["flow_vs_conjugation_max_residual"] < 1e-11
        header, rows = read_csv(out / "flow_t1.csv")
        assert header == ["k", "gamma", "h1", "h2", "h3", "angle"]
        assert len(rows) == 32
        for _, g, h1, h2, h3, angle in rows:
            assert abs(h1 * h1 + h2 * h2 + h3 * h3 - 1.0) < 1e-12
            assert angle == pytest.approx(2.0 * g)


def test_verify_quick_passes(tmp_path, capsys):
    assert main(["verify", "--quick", "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert report["passed"]
    assert [c["name"] for c in report["checks"]] == [c.name for c in CHECKS]
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_semigroup_request_peak_memory(tmp_path, capsys):
    # the whole request at the benchmark's grid, traced by tracemalloc; it
    # peaks at 3.2-4.1 MB.  With the report held as lists and written as one
    # string it peaked at 15.4-16.0 MB, and at 9.0-9.9 MB with the random
    # observables and the dispersion table built for the whole grid
    tracemalloc.start()
    try:
        assert main(["semigroup", "--grid", "65536", "--seed", "1", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, peak


def test_a_flow_table_error_reaches_main(tmp_path, monkeypatch, capsys):
    # the flow table's writer refuses its NaN gamma
    dispersion = spectral.dispersion

    def nan_gamma(k, coin):
        g, h = dispersion(k, coin)
        return np.where(k > 0, np.nan, g), h

    monkeypatch.setattr(spectral, "dispersion", nan_gamma)
    assert main(["semigroup", "--grid", "4096", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: an output array holds NaN or an infinity")
    assert contents(tmp_path) == {}


def test_a_main_thread_error_waits_for_the_flow_table(tmp_path, monkeypatch, capsys):
    # positivity_check fails after the whole flow table is staged: 8192 rows
    # and the header; main removes the table before it returns
    staged = []

    def positivity_check(*args):
        staged.extend(p.read_bytes().count(b"\n") for p in tmp_path.glob(".coinwalk-*/flow_t1.csv"))
        raise ValidationError("positivity check failed")

    monkeypatch.setattr(semigroup, "positivity_check", positivity_check)
    assert main(["semigroup", "--grid", "8192", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: positivity check failed\n"
    assert staged == [8193]
    assert contents(tmp_path) == {}


@pytest.mark.parametrize("grid", [1, 2047, 65536])
def test_semigroup_predictions_bound_the_request(tmp_path, capsys, grid):
    config = parse_config({"mode": "semigroup", "grid": grid, "seed": 3})
    flow, report, memory = cli._semigroup_needs(config, MomentumGrid(grid))
    argv = ["semigroup", "--grid", str(grid), "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0  # the first request of a process also fills caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flow >= (tmp_path / "flow_t1.csv").stat().st_size
    assert report >= (tmp_path / "semigroup_report.json").stat().st_size
    assert memory >= peak


def a_roomy_disk(path):
    """What ``os.statvfs`` reads for a disk with 2**62 bytes free."""
    return type("Disk", (), {"f_bavail": 2**62, "f_frsize": 1})


@pytest.mark.parametrize("room", ["disk", "memory"])
def test_semigroup_refuses_outputs_it_cannot_hold(tmp_path, monkeypatch, capsys, room):
    # a grid of 10**12 would write ~1.5e14 bytes and hold 2.4e13 in its arrays
    if room == "memory":
        monkeypatch.setattr(cli.os, "statvfs", a_roomy_disk)
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert main(["semigroup", "--grid", str(10**12), "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert re.match(r"error: semigroup grid 1000000000000: .* needs \d+ bytes", err), err
    assert ("physical memory" in err) == (room == "memory")
    assert list(out.iterdir()) == []
    assert peak < 1e6, peak


WALK_INITIAL = {
    "fig3.1": PRESETS["fig3.1"]["initial"],
    "fig3.3": PRESETS["fig3.3"]["initial"],
    # psi0 spans 100001 sites, so the arrays a site needs, not the fixed
    # part, set the peak (three light-cone buffers alone fall short)
    "wide": {"sites": [[-50000, [0.6, 0.0], [0.0, 0.0]], [50000, [0.0, 0.0], [0.0, 0.8]]]},
}


@pytest.mark.parametrize(
    "initial, steps, trajectory",
    [
        *itertools.product(("fig3.1", "fig3.3"), (0, 1, 300), (False, True)),
        *itertools.product(("wide",), (3,), (False, True)),
    ],
)
def test_walk_predictions_bound_the_request(tmp_path, capsys, initial, steps, trajectory):
    data = {"mode": "walk", "initial": WALK_INITIAL[initial], "steps": steps, "trajectory": trajectory}
    config = parse_config(data)
    disk, memory = cli._walk_needs(config, config.coin(), config.initial_state())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    argv = ["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 0  # the first request of a process also fills caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert disk >= sum(map(len, contents(tmp_path / "o").values()))
    assert memory >= peak


@pytest.mark.parametrize("room", ["disk", "memory"])
def test_walk_refuses_outputs_it_cannot_hold(tmp_path, monkeypatch, capsys, room):
    # 10**12 steps: the trajectory would write ~5e25 bytes, and either request
    # would hold ~5e14 in its arrays
    flags = ["--trajectory"] if room == "disk" else []
    if room == "memory":
        monkeypatch.setattr(cli.os, "statvfs", a_roomy_disk)
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert main(["walk", "--preset", "fig3.1", "--steps", str(10**12), *flags, "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert re.match(r"error: walk of 1000000000000 steps: .* needs \d+ bytes", err), err
    assert ("physical memory" in err) == (room == "memory")
    assert contents(out) == {}
    assert peak < 1e6, peak


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    from coinwalk import verify

    doom = verify.CheckResult("doom", False, 1.0, 0.0)
    monkeypatch.setattr(verify, "run_verification", lambda seed, quick: [doom])
    assert main(["verify", "--out", str(tmp_path / "o")]) == 2


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "walk"}))
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["walk", "--preset", "nope", "--out", str(tmp_path / "o")]) == 1
    assert main(["walk", "--config", str(tmp_path / "missing.json")]) == 1
    # only semigroup takes a grid; the walk routes size their own
    assert main(["cwalk", "--preset", "fig3.5", "--grid", "64", "--out", str(tmp_path / "o")]) == 1
    assert "--grid" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(PRESETS["fig3.1"]).encode("utf-16-le"))
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config is not UTF-8 text")
    assert not (tmp_path / "o").exists()


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array beyond memory; it is raised here
    # by hand, because a real huge allocation depends on overcommit
    message = "Unable to allocate 58.2 TiB for an array with shape (8000000000000,) and data type float64"

    def exhausted(k, coin):
        raise MemoryError(message)

    monkeypatch.setattr(spectral, "dispersion", exhausted)
    assert main(["semigroup", "--grid", "64", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert contents(tmp_path / "o") == {}


@pytest.mark.parametrize("flag", ["--quick", "--bogus"])
def test_usage_errors_exit_1(tmp_path, capsys, flag):
    assert main(["walk", "--preset", "fig3.1", flag, "--out", str(tmp_path / "o")]) == 1
    assert flag in capsys.readouterr().err


def test_one_parser_serves_successive_runs(tmp_path, capsys):
    # main parses every argv with the one parser of the process; a usage
    # error, a bad preset and a good run leave nothing behind for the next
    runs = [
        (["walk", "--bogus"], 1, "", "error: unrecognized arguments: --bogus\n"),
        (["walk", "--preset", "nope"], 1, "", "error: unknown preset 'nope'; available: "),
        (["walk", "--preset", "fig3.1", "--steps", "3", "--out", str(tmp_path)], 0, "wrote ", ""),
    ]
    seen = []
    for _ in range(2):
        for argv, code, out, err in runs:
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.out.startswith(out) and captured.err.startswith(err)
            seen.append((captured.out, captured.err))
    assert seen[:3] == seen[3:]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unusable_output_directory_exits_1(tmp_path, capsys, target):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / target)
    assert main(["walk", "--preset", "fig3.1", "--steps", "3", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(out) in err


@pytest.mark.parametrize("blocked", ["cfg", "manifest.json"])
def test_directory_where_a_file_is_due_exits_1(tmp_path, capsys, blocked):
    # --config names a directory, or one stands where the manifest is written
    path = tmp_path / blocked
    path.mkdir()
    source = ["--config", str(path)] if blocked == "cfg" else ["--preset", "fig3.1"]
    assert main(["walk", *source, "--steps", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(path)) in err
    assert contents(tmp_path) == {blocked: None}


@pytest.fixture
def previous_run(tmp_path):
    """A 10-step walk in ``tmp_path``: the argv for a rerun there, and what the directory holds."""
    argv = ["walk", "--preset", "fig3.1", "--out", str(tmp_path)]
    assert main([*argv, "--steps", "10"]) == 0
    return argv, contents(tmp_path)


def test_a_rerun_that_fills_the_disk_keeps_the_previous_run(tmp_path, monkeypatch, capsys, previous_run):
    # written in place, distribution_n20.csv stayed beside a manifest listing distribution_n10.csv
    argv, before = previous_run

    def full(path, payload):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(_csvtext, "write_json", full)
    assert main([*argv, "--steps", "20"]) == 1
    # named where it was due: the staged path is gone by the time it prints
    assert capsys.readouterr().err == f"error: {str(tmp_path / 'manifest.json')!r}: No space left on device\n"
    assert contents(tmp_path) == before


def test_an_interrupted_trajectory_keeps_the_previous_run(tmp_path, monkeypatch, previous_run):
    argv, before = previous_run
    iter_evolution = walk.iter_evolution

    def interrupted(run):
        for i, psi in iter_evolution(run):
            if i == 50:
                # by now the staged table holds its first chunk of rows
                [staged] = tmp_path.glob(".coinwalk-*/trajectory.csv")
                assert staged.stat().st_size > len("n,x,p\n")
                raise KeyboardInterrupt
            yield i, psi

    monkeypatch.setattr(walk, "iter_evolution", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--steps", "200", "--trajectory"])
    assert contents(tmp_path) == before


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "from_env"))
    assert main(["walk", "--preset", "fig3.1", "--steps", "4"]) == 0
    assert (tmp_path / "from_env" / "distribution_n4.csv").exists()

