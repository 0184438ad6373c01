"""Heisenberg evolution of fibred observables and the coefficient rotations."""

import math
import tracemalloc

import numpy as np
import pytest

from coinwalk import (
    MomentumGrid,
    ValidationError,
    WaveFunction,
    cli,
    conjugate_evolve,
    core,
    cross_generator,
    hadamard_switched,
    hamiltonian,
    heisenberg_evolve,
    limitlaw,
    pauli_decompose,
    pauli_flow,
    positivity_check,
    semigroup,
)
from coinwalk.semigroup import (
    DirectIntegralObservable,
    random_hermitian_fibres,
    random_hermitian_sample,
    random_psd_fibres,
    rotation_via_eigenbasis,
)
from coinwalk.spectral import dispersion

from conftest import seeded_coins, written_json


def block_views(obs):
    """An observable's coefficients as a fibre stream of read-only views, a block at a time."""
    return (obs.coefficients[block] for block in core.blocks(obs.grid.size))


def rodrigues(axis, angle):
    """Independent rotation oracle used to pin the flow orientation."""
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


# --------------------------------------------------------------------------
# single-fibre conjugation
# --------------------------------------------------------------------------


def test_identity_is_fixed(hadamard):
    for k in (-2.0, 0.5):
        for t in (0.0, 1.0, 9.2):
            out = conjugate_evolve(k, t, np.eye(2), hadamard)
            assert np.abs(out - np.eye(2)).max() < 1e-14


def test_zero_time_is_identity_map(hadamard):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(conjugate_evolve(0.7, 0.0, A, hadamard) - A).max() < 1e-15


def test_generator_is_fixed_point(hadamard):
    H, _, _ = hamiltonian(0.9, hadamard)
    out = conjugate_evolve(0.9, 3.3, H, hadamard)
    assert np.abs(out - H).max() < 1e-13


# --------------------------------------------------------------------------
# cross generator
# --------------------------------------------------------------------------


def test_cross_generator_structure():
    # spectrum and kernel are the registry check cross_generator, node by
    # node; antisymmetry holds exactly, also from one batched call
    nodes = MomentumGrid(64).nodes[::8]
    for coin in [hadamard_switched()] + seeded_coins(2, seed=6):
        G = cross_generator(nodes, coin)
        assert np.array_equal(G, -np.swapaxes(G, 1, 2))


# --------------------------------------------------------------------------
# Pauli flow
# --------------------------------------------------------------------------


def test_flow_at_zero_time(hadamard):
    assert np.abs(pauli_flow(1.2, 0.0, hadamard) - np.eye(3)).max() < 1e-15


def test_flow_matches_rodrigues_oracle(hadamard):
    # coefficients rotate about the axis by -2*gamma*t
    for k in (-1.4, 0.8):
        g, h = dispersion(k, hadamard)
        for t in (0.5, 2.2):
            R = pauli_flow(k, t, hadamard)
            assert np.abs(R - rodrigues(h, -2.0 * g * t)).max() < 1e-13


def test_eigenbasis_route_agrees(hadamard):
    # the rotation it returns is compared in the registry check rotation_properties
    for k in (-2.8, 0.05, 2.1):
        G = cross_generator(k, hadamard)
        g, _ = dispersion(k, hadamard)
        _, W = rotation_via_eigenbasis(G, 1.0)
        # eigenbasis columns are eigenvectors of the generator, in order
        for col, lam in zip(W.T, (0.0, 2j * g, -2j * g)):
            assert np.abs(G @ col - lam * col).max() < 1e-11


# --------------------------------------------------------------------------
# fibred observables
# --------------------------------------------------------------------------


def test_observable_round_trip():
    grid = MomentumGrid(32)
    rng = np.random.default_rng(9)
    mats = rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2))
    obs = DirectIntegralObservable.from_fibres(grid, [pauli_decompose(mats)])
    assert np.abs(obs.matrices() - mats).max() < 1e-13


def test_observable_validation():
    grid = MomentumGrid(8)
    with pytest.raises(ValidationError):
        DirectIntegralObservable(grid, np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        DirectIntegralObservable.from_fibres(grid, [pauli_decompose(np.zeros((8, 3, 3)))])


def test_observable_owns_read_only_coefficients(hadamard, monkeypatch):
    # a caller's array is copied; a builder's fresh array is adopted, and an
    # evolved or collected observable never shares memory with the one it
    # came from; its fibre stream is views of its coefficients
    monkeypatch.setattr(core, "BLOCK", 5)
    grid = MomentumGrid(16)
    caller = np.random.default_rng(3).normal(size=(16, 4)).astype(np.complex128)
    kept = caller.copy()
    obs = DirectIntegralObservable(grid, caller)
    caller[:] = 0.0
    assert caller.flags.writeable
    assert np.array_equal(obs.coefficients, kept)
    evolved = heisenberg_evolve(obs, 1.1, hadamard)
    assert not np.shares_memory(evolved.coefficients, obs.coefficients)
    views = list(block_views(obs))
    assert [len(v) for v in views] == [5, 5, 5, 1]
    assert all(np.shares_memory(v, obs.coefficients) for v in views)
    collected = DirectIntegralObservable.from_fibres(grid, iter(views))
    assert np.array_equal(collected.coefficients, kept)
    assert not np.shares_memory(collected.coefficients, obs.coefficients)
    rng = np.random.default_rng(1)
    built = [
        obs,
        evolved,
        collected,
        DirectIntegralObservable.from_fibres(grid, random_psd_fibres(grid, rng)),
        DirectIntegralObservable.from_fibres(grid, random_hermitian_fibres(grid, rng)),
        DirectIntegralObservable.constant(grid, np.eye(2)),
    ]
    for o in built:
        with pytest.raises(ValueError):
            o.coefficients[0, 0] = 1.0


def test_constant_sigma3_traces_circles(hadamard):
    grid = MomentumGrid(48)
    obs = DirectIntegralObservable.constant(grid, np.diag([1.0, -1.0]))
    t = 1.3
    evolved = heisenberg_evolve(obs, t, hadamard)
    g, h = dispersion(grid.nodes, hadamard)
    for i in range(0, grid.size, 7):
        expected = rodrigues(h[i], -2.0 * g[i] * t) @ np.array([0.0, 0.0, 1.0])
        assert np.abs(evolved.coefficients[i, 1:].real - expected).max() < 1e-12


def test_positivity_of_psd_and_projectors(hadamard):
    # random PSD fibres are the registry check positivity_and_spectrum;
    # rank-one projectors keep spectrum {0, 1}
    grid = MomentumGrid(128)
    rng = np.random.default_rng(0)
    vecs = rng.normal(size=(grid.size, 2)) + 1j * rng.normal(size=(grid.size, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    projectors = np.einsum("mi,mj->mij", vecs, vecs.conj())
    proj_obs = DirectIntegralObservable.from_fibres(grid, [pauli_decompose(projectors)])
    evolved = heisenberg_evolve(proj_obs, 4.4, hadamard)
    eigs = np.sort(np.linalg.eigvalsh(evolved.matrices()), axis=1)
    assert np.abs(eigs[:, 0]).max() < 1e-11
    assert np.abs(eigs[:, 1] - 1.0).max() < 1e-11


def edge_families(rows, rng):
    """Pauli coefficient rows by family, built near each way out of LAPACK's plain 2x2 path.

    A real coefficient row ``(c0, c1, c2, c3)`` is the matrix with diagonal
    ``c0 + c3``, ``c0 - c3`` and lower entry ``c1 + i c2``.
    """

    def normal(*columns):
        c = rng.normal(size=(rows, 4))
        for column, values in columns:
            c[:, column] = values
        return c.astype(np.complex128)

    def psd(vectors):
        B = rng.normal(size=(rows, 2, vectors)) + 1j * rng.normal(size=(rows, 2, vectors))
        return pauli_decompose(B @ np.conj(np.swapaxes(B, 1, 2)))

    tiny = normal()
    tiny[:, 1:3] *= 10.0 ** rng.uniform(-19, -14, size=(rows, 1))
    zero_d2 = normal()
    zero_d2[:, 3] = zero_d2[:, 0]
    zero_d2[:, 1:3] *= 10.0 ** rng.uniform(-310, -100, size=(rows, 1))
    power = normal()
    power[:, 3] = power[:, 0] - 2.0 ** rng.integers(-3, 4, size=rows)
    nonfinite = normal()
    nonfinite[np.arange(rows), rng.integers(0, 4, size=rows)] = rng.choice([np.nan, np.inf, -np.inf], size=rows)
    return {
        "scale 1e+150": psd(2) * 1e150,
        "scale 1e-150": psd(2) * 1e-150,
        "zero": np.zeros((rows, 4), np.complex128),
        "real off-diagonal": normal((2, 0.0)),
        "imaginary off-diagonal": normal((1, 0.0)),
        "tiny off-diagonal": tiny,
        "tiny off-diagonal, d2 = 0": zero_d2,
        "d1 = d2": normal((3, 0.0)),
        "d1 = -d2": normal((0, 0.0)),
        "unsigned integer entries": rng.integers(0, 7, size=(rows, 4)).astype(np.uint8),
        "rank one": psd(1),
        "d2 near a power of two": power,
        "non-finite": nonfinite,
    }


def test_min_eigenvalues_are_eigvalsh_bit_for_bit(monkeypatch):
    # the kernel against LAPACK through numpy on the int64 view; eigvalsh is
    # counted where the kernel hands rows to it, so each guard is seen to fire
    eigvalsh = np.linalg.eigvalsh
    handed = []

    def counted(matrices):
        handed.append(len(matrices))
        return eigvalsh(matrices)

    def fallback_rows(coeffs):
        handed.clear()
        lowest = semigroup._min_eigenvalues(coeffs)
        expected = eigvalsh(core.pauli_compose(coeffs)).min(axis=-1)
        assert lowest.view(np.int64).tolist() == expected.view(np.int64).tolist()
        return sum(handed)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    grid = MomentumGrid(4096)
    rng = np.random.default_rng(7)
    for coin in [hadamard_switched()] + seeded_coins(2, seed=8):
        for t in (0.01, 1.0, 37.5):
            for block, coeffs in zip(core.blocks(grid.size), random_psd_fibres(grid, rng)):
                assert fallback_rows(coeffs) == 0
                evolved = semigroup._evolve_coefficients(grid.nodes_in(block), t, coeffs, coin)
                assert fallback_rows(evolved) == 0
    rows = 4000
    handed_by_family = {name: fallback_rows(c) for name, c in edge_families(rows, np.random.default_rng(8)).items()}
    everywhere = {"scale 1e+150", "scale 1e-150", "zero", "non-finite"}
    nowhere = {"real off-diagonal", "imaginary off-diagonal", "d1 = d2", "rank one", "d2 near a power of two"}
    for name, count in handed_by_family.items():
        if name in everywhere:
            assert count == rows, name
        elif name in nowhere:
            assert count == 0, name
        else:
            assert 0 < count < rows, (name, count)


def test_positivity_check_validation(hadamard):
    # a stream fills the grid in order with non-empty numeric (rows, 4)
    # blocks; positivity_check also needs Hermitian fibres in every block
    grid = MomentumGrid(64)
    bad = DirectIntegralObservable.constant(grid, np.array([[0.0, 1.0], [0.0, 0.0]]))
    a = DirectIntegralObservable.constant(grid, np.eye(2)).coefficients
    with pytest.raises(ValidationError, match="Hermitian"):
        positivity_check(grid, 1.0, hadamard, iter([a[:32], bad.coefficients[32:]]))
    # slices follow from row counts: blocks of 1, 7 and the rest give the block stream's report
    obs = DirectIntegralObservable.from_fibres(grid, random_psd_fibres(grid, np.random.default_rng(2)))
    uneven = iter([obs.coefficients[:1], obs.coefficients[1:8], obs.coefficients[8:].tolist()])
    whole = positivity_check(grid, 0.9, hadamard, block_views(obs))
    assert written_json(positivity_check(grid, 0.9, hadamard, uneven)) == written_json(whole)
    streams = {
        "wrong width": [np.zeros((64, 3))],
        "a scalar": [1.0],
        "empty block": [a[:0], a],
        "past the end": [np.zeros((65, 4))],
        "stops short": [a[:32]],
        "nothing": [],
        # rejected by the package, not by numpy's ValueError
        "a (slice, coefficients) pair": [(slice(0, 64), a)],
        "ragged": [[[1.0, 0.0, 0.0, 0.0]] * 63 + [[1.0, 0.0, 0.0]]],
        "an object array": [a.astype(object)],
    }
    for stream in streams.values():
        with pytest.raises(ValidationError):
            positivity_check(grid, 1.0, hadamard, iter(stream))
        with pytest.raises(ValidationError):
            DirectIntegralObservable.from_fibres(grid, iter(stream))


# --------------------------------------------------------------------------
# blocked grid routines
# --------------------------------------------------------------------------


def test_block_size_changes_no_bit(monkeypatch, tmp_path):
    # core.BLOCK sizes every blocked pass: the semigroup fibres and random
    # draws, the limit-law cdf's quadrature nodes, the CSV rows and the JSON
    # array items.  The positivity report of the PSD stream and the sampled
    # Hermitian fibres match those of the collected observables, and leave
    # rng in the same state
    grid = MomentumGrid(1000)
    coin = seeded_coins(1, seed=11)[0]
    law = limitlaw.weak_limit_law(coin, WaveFunction.from_sites([(-3, (0.6, 0.0)), (2, (0.0, 0.8j))]))
    targets = np.random.default_rng(5).uniform(-1.0, 1.0, 500)
    runs = {
        "semigroup": ["semigroup", "--grid", "120", "--seed", "3"],
        "walk": ["walk", "--preset", "fig3.3", "--steps", "40", "--trajectory"],
    }
    results = []
    for block in (1, 7, 1000, 10**9):
        monkeypatch.setattr(core, "BLOCK", block)
        rng = np.random.default_rng(4)
        psd = DirectIntegralObservable.from_fibres(grid, random_psd_fibres(grid, rng))
        herm = DirectIntegralObservable.from_fibres(grid, random_hermitian_fibres(grid, rng))
        evolved = heisenberg_evolve(herm, 2.7, coin)
        report = positivity_check(grid, 2.7, coin, block_views(psd))
        stream = np.random.default_rng(4)
        streamed = positivity_check(grid, 2.7, coin, random_psd_fibres(grid, stream))
        k, sample = random_hermitian_sample(grid, stream, 31)
        assert stream.bit_generator.state == rng.bit_generator.state
        assert written_json(streamed) == written_json(report)
        assert k.tobytes() == grid.nodes[::31].tobytes()
        for part in (slice(0, 7), slice(993, None), slice(5, 900, 31)):
            assert grid.nodes_in(part).tobytes() == grid.nodes[part].tobytes()
        assert sample.tobytes() == herm.coefficients[::31].tobytes()
        files = {}
        for name, argv in runs.items():
            out = tmp_path / str(block) / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            files.update({f"{name}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
        results.append(
            (
                psd.coefficients.tobytes(),
                evolved.coefficients.tobytes(),
                written_json(report),
                law.cdf(targets).tobytes(),
                files,
            )
        )
    assert all(r == results[0] for r in results[1:])


def test_grid_routines_peak_memory(hadamard):
    # tracemalloc sees numpy's buffers, so the peaks are deterministic.  Built
    # for the whole grid at once they were 22.6, 26.8 and 16.8 MB; blocked but
    # with a copy of every fresh coefficient array and positivity_check
    # evolving the whole grid first, 8.9, 8.9 and 12.9 MB.  Drawing the whole
    # grid's normals first, the random observables peaked at 8.9 (PSD) and
    # 6.3 MB (Hermitian); drawn per block, at 4.9 and 4.3 MB.  The sample
    # peaked at 1.1 MB while it built every node to keep 32
    grid = MomentumGrid(65536)
    obs = DirectIntegralObservable.from_fibres(grid, random_psd_fibres(grid, np.random.default_rng(0)))

    def collect(fibres):
        return lambda: DirectIntegralObservable.from_fibres(grid, fibres(grid, np.random.default_rng(0)))

    runs = {
        "heisenberg_evolve": (lambda: heisenberg_evolve(obs, 1.0, hadamard), 8),
        "positivity_check of an observable": (
            lambda: positivity_check(grid, 1.0, hadamard, block_views(obs)), 6
        ),
        "from_fibres of random_psd_fibres": (collect(random_psd_fibres), 5.5),
        "from_fibres of random_hermitian_fibres": (collect(random_hermitian_fibres), 5),
        "positivity_check of random_psd_fibres": (
            lambda: positivity_check(grid, 1.0, hadamard, random_psd_fibres(grid, np.random.default_rng(0))),
            4.5,
        ),
        "random_hermitian_sample": (
            lambda: random_hermitian_sample(grid, np.random.default_rng(0), 2048), 0.6
        ),
    }
    for name, (run, limit_mb) in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6, (name, peak)
