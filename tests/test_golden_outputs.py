"""Golden output digests: the bundled runs must keep every byte of their files.

``tests/data/golden_outputs.json`` holds one digest set per numpy SIMD path,
keyed by ``simd``, a digest of four ufuncs whose float64 kernels numpy picks
by CPU feature (``_dispatch_fingerprint``): numpy's AVX-512 kernels and the
libm calls of its AVX2 path round them, and the bundled outputs, differently.
A set holds, for every file the runs in ``RUNS`` write and for the full
``verify`` report at seed 0 (``verify_full``, written from the session's
``full_verify`` results rather than a second run), its SHA-256, its size and
a digest of each line (of each run of ``chunk`` lines in files longer than
``MAX_LINE_DIGESTS`` lines); its environment record holds the Python and
numpy versions it was recorded with.  The test regenerates the files through
``cli.main``, compares them with the set of the running path and, for a
changed file, names the first line (or run of ``chunk`` lines) whose digest
differs and quotes its current text.  A path with no set fails with the
command that records one.  Sets are recorded for the AVX-512 and the AVX2
path; on an AVX-512 host a child process checks the AVX2 set as well.  A
digest changes only on purpose: rerecord the running path's set, leaving the
others as they are, with

    PYTHONPATH=src python tests/test_golden_outputs.py

and say in CHANGES.md which file changed and why.  A numpy that changes the
bytes is an output change too, so there is no version skip.
"""

import base64
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coinwalk.cli import _Outputs, _write_verify_report, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outputs.json"
MAX_LINE_DIGESTS = 2048
DIGEST_BYTES = 4
# lines of a differing chunk quoted in a failure message
QUOTED_LINES = 8
RECORD = "PYTHONPATH=src python tests/test_golden_outputs.py"
# numpy's AVX2 path, where these ufuncs call libm, in a process that sets
# NPY_DISABLE_CPU_FEATURES to AVX2_PATH[0]; AVX2_PATH[1] is its fingerprint
AVX2_PATH = ("AVX512_ICL AVX512_SPR X86_V4", "f322d691efd4ead4")

IDENTITY_COIN = {
    "mode": "density",
    "coin": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "initial": {"qubit": [[0.6, 0.0], [0.8, 0.0]]},
}

RUNS = {
    **{f"walk_fig3.{i}": ["walk", "--preset", f"fig3.{i}"] for i in range(1, 5)},
    **{f"density_fig3.{i}": ["density", "--preset", f"fig3.{i}"] for i in range(1, 5)},
    "trajectory_fig3.3": ["walk", "--preset", "fig3.3", "--steps", "300", "--trajectory"],
    "cwalk_fig3.5": ["cwalk", "--preset", "fig3.5"],
    "density_identity": ["density", "--config", "{root}/identity.json"],
    "semigroup": ["semigroup", "--grid", "256", "--seed", "1"],
    "semigroup_blocks": ["semigroup", "--grid", "9000", "--seed", "2"],
    "verify_quick": ["verify", "--quick", "--seed", "0"],
}


def _line_digests(lines: list[bytes], chunk: int) -> bytes:
    return b"".join(
        hashlib.sha256(b"".join(lines[i : i + chunk])).digest()[:DIGEST_BYTES]
        for i in range(0, len(lines), chunk)
    )


def _describe(data: bytes) -> dict:
    lines = data.splitlines(keepends=True)
    chunk = -(-len(lines) // MAX_LINE_DIGESTS) or 1
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "size": len(data),
        "lines": len(lines),
        "chunk": chunk,
        "line_digests": base64.b64encode(_line_digests(lines, chunk)).decode("ascii"),
    }


def write_outputs(root: Path, full_verify: list) -> dict[str, bytes]:
    """Run every entry of ``RUNS`` into ``root``, and write the report of the
    full ``verify`` results; the written files by ``run/name``."""
    (root / "identity.json").write_text(json.dumps(IDENTITY_COIN), encoding="utf-8")
    report = _Outputs(root / "verify_full")
    report.dir.mkdir()
    _write_verify_report(report, 0, False, full_verify)
    outputs = {f"verify_full/{name}": (report.dir / name).read_bytes() for name in report.names}
    for run, argv in RUNS.items():
        argv = [a.format(root=root) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(root / run)]) == 0, run
        for path in sorted((root / run).iterdir()):
            outputs[f"{run}/{path.name}"] = path.read_bytes()
    return outputs


def _dispatch_fingerprint() -> str:
    """A short SHA-256 of ``arcsin``, ``exp``, ``arctan2`` and ``log`` over one fixed vector."""
    x = np.linspace(0.001, 0.999, 4096)
    values = (np.arcsin(x), np.exp(x), np.arctan2(x, 1.0 - x), np.log(x))
    return hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest()[:16]


def _environment() -> dict:
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "simd": _dispatch_fingerprint(),
    }


def _recorded_set(golden: dict, simd: str) -> tuple[dict, dict]:
    """The environment record and the file digests of SIMD path ``simd``; fails without them."""
    if simd not in golden["files"]:
        pytest.fail(
            f"no digests for this SIMD path (dispatch fingerprint {simd}; recorded: "
            f"{', '.join(sorted(golden['files']))}): record them with\n\n    {RECORD}\n"
        )
    return golden["environment"][simd], golden["files"][simd]


def _first_difference(name: str, expected: dict, data: bytes) -> str:
    lines = data.splitlines(keepends=True)
    chunk = expected["chunk"]
    old = base64.b64decode(expected["line_digests"])
    new = _line_digests(lines, chunk)
    for k in range(0, max(len(old), len(new)), DIGEST_BYTES):
        if old[k : k + DIGEST_BYTES] != new[k : k + DIGEST_BYTES]:
            first = k // DIGEST_BYTES * chunk
            where = f"line {first + 1}" if chunk == 1 else f"lines {first + 1}-{first + chunk}"
            now = [line.decode(errors="replace").rstrip("\n") for line in lines[first : first + chunk]]
            text = "".join(f"\n  {first + i + 1}: {line!r}" for i, line in enumerate(now[:QUOTED_LINES]))
            if len(now) > QUOTED_LINES:
                text += f"\n  ... {len(now) - QUOTED_LINES} more"
            return (
                f"{name}: first difference at {where} of {expected['lines']} (now {len(lines)}); "
                f"the new text:{text or ' <end of file>'}"
            )
    return f"{name}: same lines, different bytes (size {expected['size']} -> {len(data)})"


def test_first_difference_quotes_the_changed_line():
    # 5000 lines are digested 3 at a time; the changed line is the middle one
    # of lines 1000-1002, so quoting only a chunk's first line would miss it
    lines = [f"{i},{i * i}\n".encode() for i in range(5000)]
    expected = _describe(b"".join(lines))
    assert expected["chunk"] == 3
    lines[1000] = b"1000,changed\n"
    message = _first_difference("big.csv", expected, b"".join(lines))
    assert "lines 1000-1002 of 5000" in message
    assert "'1000,changed'" in message
    assert "'999,998001'" in message and "'1001,1002001'" in message


def test_an_unknown_simd_path_asks_for_its_digests():
    # a path with no set is no code regression: the failure asks for a recording
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with pytest.raises(pytest.fail.Exception) as failure:
        _recorded_set(golden, "0" * 16)
    message = str(failure.value)
    assert message.startswith("no digests for this SIMD path (dispatch fingerprint 0000000000000000")
    assert RECORD in message


def test_bundled_runs_keep_their_bytes(tmp_path, full_verify):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded, files = _recorded_set(golden, _dispatch_fingerprint())
    outputs = write_outputs(tmp_path, full_verify)
    problems = [f"{name}: missing" for name in sorted(set(files) - set(outputs))]
    problems += [f"{name}: not in the golden record" for name in sorted(set(outputs) - set(files))]
    for name, expected in files.items():
        data = outputs.get(name)
        if data is not None and hashlib.sha256(data).hexdigest() != expected["sha256"]:
            problems.append(_first_difference(name, expected, data))
    assert not problems, (
        f"output bytes changed (recorded with {recorded}, running {_environment()}):\n" + "\n".join(problems)
    )


def test_bundled_runs_keep_their_bytes_on_the_avx2_path():
    # the same runs in a child process on numpy's other x86 path, checked
    # against that path's set; ~4 s on a 2-core Xeon, most of it full verify
    if _dispatch_fingerprint() == AVX2_PATH[1]:
        pytest.skip("this process is on numpy's AVX2 path already: test_bundled_runs_keep_their_bytes checks it")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX2_PATH[0]}

    def child(*argv):
        return subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True)

    probe = child("-c", "import sys; sys.path[:0] = ['tests', 'src']; import test_golden_outputs as g; "
                  "print(g._dispatch_fingerprint())")
    if probe.stdout.strip() != AVX2_PATH[1]:
        pytest.skip(f"numpy cannot take its AVX2 path here: {(probe.stdout + probe.stderr).strip()[-300:]}")
    test = f"{Path(__file__).resolve()}::test_bundled_runs_keep_their_bytes"
    run = child("-m", "pytest", "-q", "-p", "no:cacheprovider", test)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


if __name__ == "__main__":
    import tempfile

    from coinwalk.verify import run_verification

    with tempfile.TemporaryDirectory() as tmp:
        outputs = write_outputs(Path(tmp), run_verification(0, False))
        files = {name: _describe(data) for name, data in outputs.items()}
    # only the running path's set is added or replaced
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    simd = _dispatch_fingerprint()
    golden["environment"][simd] = _environment()
    golden["files"][simd] = files
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(files)} files for SIMD path {simd} in {GOLDEN}", file=sys.stderr)
