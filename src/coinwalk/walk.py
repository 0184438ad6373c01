"""
Exact discrete-time evolution of the coined walk.

One step maps ``psi(x)`` to ``L psi(x+1) + R psi(x-1)`` where ``L`` and ``R``
are the top- and bottom-row blocks of the coin; :func:`step` defines it.
:func:`evolve` and :func:`iter_evolution` run ``n`` steps on two light-cone
buffers used in turn, O(width) work and no copy per step, and reach the same
states as a loop of :func:`step` bit for bit (the verify check
``step_loop_equivalence`` compares the two).  The same evolution is
implemented a second, independent way through momentum space: the walk is
diagonal there, so ``n`` steps cost one closed-form rotation per momentum
node regardless of ``n``.  The two routes serve as oracles for each other.

Also here: the empirical law of the scaled position ``X_n / n`` and the
Kolmogorov-Smirnov distance used to monitor its convergence to the scaling
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import continuous
from .core import (
    TRIM_TOL,
    Coin,
    DomainError,
    ValidationError,
    WaveFunction,
    _whole,
    position_distribution,
    require_normalized,
    site_weight,
)

__all__ = [
    "DiscreteLaw",
    "WalkRun",
    "empirical_scaled_law",
    "evolve",
    "fourier_evolve",
    "iter_evolution",
    "ks_distance",
    "step",
    "sup_norm_difference",
]

# Size of the uniform grid ks_distance probes when neither law has jumps; a
# law with jumps is compared exactly, at its jump points, and needs no grid.
KS_PROBE_POINTS = 4097


def step(psi: WaveFunction, coin: Coin) -> WaveFunction:
    """Advance the walk one time unit.

    The new left amplitude at ``x`` is ``l1 psi(1;x+1) + l2 psi(2;x+1)`` and
    the new right amplitude is ``r1 psi(1;x-1) + r2 psi(2;x-1)``; the support
    grows by one site on each side and zero fringes are trimmed.  Unitary, so
    the norm is preserved to rounding.
    """
    n = psi.width
    out = np.zeros((n + 2, 2), dtype=np.complex128)
    out[0:n, 0] = coin.l1 * psi.amplitudes[:, 0] + coin.l2 * psi.amplitudes[:, 1]
    out[2 : n + 2, 1] = coin.r1 * psi.amplitudes[:, 0] + coin.r2 * psi.amplitudes[:, 1]
    return WaveFunction(psi.x_min - 1, out).trimmed()


@dataclass(frozen=True)
class WalkRun:
    """A walk configuration: coin, normalised initial state, and duration."""

    coin: Coin
    psi0: WaveFunction
    n: int

    def __post_init__(self) -> None:
        n = _whole(self.n, "step count")
        if n < 0:
            raise ValidationError(f"step count must be nonnegative, got {self.n}")
        object.__setattr__(self, "n", n)
        require_normalized(self.psi0, "initial state")


def _live_windows(run: WalkRun) -> Iterator[tuple[int, np.ndarray, slice]]:
    """Run the walk on two light-cone buffers; after each step yield ``(x_min, rows, live)``.

    Each buffer holds the two chiralities, rows ``L`` and ``R``, over
    ``psi0.width + 2n`` sites, the widest the walk can spread.  A step reads
    the live window ``[lo, hi]`` of one buffer and applies :func:`step`'s
    arithmetic to it, with the same ufuncs in the same operand order.  The sum
    goes straight into the other buffer through a fixed strided view whose
    ``R`` row starts two sites after its ``L`` row, so the shift by one site
    costs no copy.  That buffer still holds the state of two steps before; it
    is zeroed only where that state's span sticks out past what the step
    writes.  The window edges are then trimmed as :meth:`WaveFunction.trimmed`
    trims, by :func:`~coinwalk.core.site_weight` of the edge cells read as
    Python complexes.  Every state therefore equals the one a loop of
    :func:`step` reaches, bit for bit, at O(width) work and no new arrays per
    step.  The state is the ``(2, width)`` view ``rows[:, live]``; the step
    after next overwrites it, and ``WaveFunction(x_min, rows[:, live].T)``
    copies it row-major, like step()'s states.
    """
    psi0, coin, n = run.psi0, run.coin, run.n
    if n == 0:
        return
    size = psi0.width + 2 * n
    pair = np.zeros((2, 2, size), dtype=np.complex128)
    term = np.empty((2, size), dtype=np.complex128)
    # column i of either buffer holds site psi0.x_min - n + i
    lo, hi = n, n + psi0.width - 1
    pair[0, :, lo : hi + 1] = psi0.amplitudes.T
    # rows (l1 L + l2 R, r1 L + r2 R): the new L and R before the shift
    from_left = np.array([[coin.l1], [coin.r1]], dtype=np.complex128)
    from_right = np.array([[coin.l2], [coin.r2]], dtype=np.complex128)
    # shifted[:, j] is (L[j], R[j + 2]), where the sum for source site j + 1 goes
    row, col = pair.strides[1:]
    source, target = (
        (rows, *rows, as_strided(rows, shape=(2, size - 2), strides=(row + 2 * col, col)))
        for rows in pair
    )
    # spans [a, b] of the target and [c, d] of the source: outside its span a
    # buffer is zero, and so are R on the span's first two sites and L on its
    # last two, as a step leaves them; psi0 gets the span of such a step
    a, b, c, d = size, -1, lo - 2, hi + 2
    x0 = psi0.x_min - n
    # looked up once: a step is a few microseconds, much of it in these calls
    multiply, add = np.multiply, np.add
    for _ in range(n):
        rows, L, R, shifted = target
        # the step writes L on [lo-1, hi-1] and R on [lo+1, hi+1]; the rest of
        # [lo-1, hi+1] and all outside it must be zero, which the span ensures
        # unless the target's old span sticks out past [lo-1, hi+1]
        if a < lo - 1:
            rows[:, a : lo + 1] = 0.0
        if b > hi + 1:
            rows[:, hi : b + 1] = 0.0
        out, t = shifted[:, lo - 1 : hi], term[:, : hi - lo + 1]
        multiply(from_left, source[1][lo : hi + 1], out=out)
        add(out, multiply(from_right, source[2][lo : hi + 1], out=t), out=out)
        lo, hi = lo - 1, hi + 1
        a, b, c, d = c, d, lo, hi
        # trim inward from each edge only.  R[lo] and L[hi] are zero, so the
        # edge cells weigh site_weight(z, 0.0), which is z.real**2 + z.imag**2
        # to the bit; a step mostly tests these two cells and no more
        first, last = lo, hi
        z = L.item(lo)
        if z.real * z.real + z.imag * z.imag < TRIM_TOL:
            first += 1
            while first <= hi and site_weight(L.item(first), R.item(first)) < TRIM_TOL:
                first += 1
            if first > hi:
                # nothing alive: keep one (numerically zero) site, as trimmed() does
                first = last = lo
        z = R.item(hi)
        if last > first and z.real * z.real + z.imag * z.imag < TRIM_TOL:
            last -= 1
            while last > first and site_weight(L.item(last), R.item(last)) < TRIM_TOL:
                last -= 1
        lo, hi = first, last
        source, target = target, source
        yield x0 + lo, rows, slice(lo, hi + 1)


def iter_evolution(run: WalkRun) -> Iterator[tuple[int, WaveFunction]]:
    """Yield ``(step_index, state)`` for every time step ``0..n``.

    The states are those of :func:`evolve`'s buffer loop; one is built per
    yield, so a caller that streams them holds one at a time.
    """
    yield 0, run.psi0
    for i, (x_min, rows, live) in enumerate(_live_windows(run), 1):
        yield i, WaveFunction(x_min, rows[:, live].T)


def evolve(run: WalkRun) -> WaveFunction:
    """The state after ``run.n`` applications of :func:`step`.

    The light-cone buffer loop runs the steps and builds one state at the
    end, from the last step's live window.  It equals a loop of :func:`step`
    bit for bit; the verify check ``step_loop_equivalence`` holds it to that.
    """
    last = None
    for last in _live_windows(run):
        pass
    if last is None:
        return run.psi0
    x_min, rows, live = last
    return WaveFunction(x_min, rows[:, live].T)


def fourier_evolve(psi0: WaveFunction, coin: Coin, n: int) -> WaveFunction:
    """Evolve ``n`` steps through momentum space (independent of :func:`evolve`).

    The walk is diagonal in momentum, ``U(k)^n = exp(i n H(k))``, so this is
    :func:`~coinwalk.continuous.evolve_continuous` at ``t = n``: one
    closed-form propagator per node of ``MomentumGrid.for_walk(psi0, n)``,
    whatever ``n``, between two FFTs.
    """
    if n < 0:
        raise ValidationError(f"step count must be nonnegative, got {n}")
    return continuous.evolve_continuous(psi0, float(n), coin)


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """A finitely supported probability law on the real line."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise ValidationError("atoms and weights must be 1-d arrays of equal length")
        # written to fail closed: a NaN meets no comparison, so it is refused too
        if not (np.isfinite(atoms).all() and np.all((weights >= 0) & (weights < np.inf))):
            raise ValidationError("atoms must be finite, and weights finite and nonnegative")
        order = np.argsort(atoms)
        atoms, weights = atoms[order], weights[order]
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def mass(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    def moment(self, order: int) -> float:
        return float(np.dot(self.atoms**order, self.weights))

    def cdf(self, y) -> np.ndarray:
        """Right-continuous distribution function, vectorised; a NaN ``y`` raises :class:`DomainError`."""
        return self._distribution(y, "right")

    def cdf_left(self, y) -> np.ndarray:
        """Left limit of the distribution function, vectorised; a NaN ``y`` raises :class:`DomainError`."""
        return self._distribution(y, "left")

    def _distribution(self, y, side: str) -> np.ndarray:
        y_arr = np.asarray(y, dtype=np.float64)
        if np.isnan(y_arr).any():
            raise DomainError("the distribution function is undefined at NaN")
        cum = np.cumsum(self.weights)
        return np.concatenate(([0.0], cum))[np.searchsorted(self.atoms, y_arr, side=side)]

    def jump_points(self) -> np.ndarray:
        return self.atoms

    def support(self) -> tuple[float, float]:
        return float(self.atoms[0]), float(self.atoms[-1])


def empirical_scaled_law(run: WalkRun) -> DiscreteLaw:
    """The law of ``X_n / n``: support points ``x/n`` weighted by ``p(x)``.

    Sites carrying exactly zero probability (the wrong parity class) are
    dropped; the remaining weights sum to one within rounding.
    """
    if run.n < 1:
        raise ValidationError("the scaled law requires at least one step")
    psi = evolve(run)
    p = position_distribution(psi)
    mask = p > 0.0
    return DiscreteLaw(psi.sites[mask] / run.n, p[mask])


def ks_distance(law_a, law_b) -> float:
    """Kolmogorov-Smirnov distance ``sup_y |F_a(y) - F_b(y)|``.

    Laws must expose ``cdf``, ``cdf_left``, ``jump_points`` and ``support``
    (satisfied by :class:`DiscreteLaw` and the limit laws); a law without
    jump points is continuous.  When either law has jumps, the supremum is
    exact: it is taken over the merged jump points of both laws and the two
    ends of the union of supports, at right values and left limits.  Between
    two consecutive such points a step cdf is constant and a continuous cdf
    monotone, so ``|F_a - F_b|`` peaks at an end of the interval, where the
    right value and the left limit are its one-sided limits; beyond the ends
    both cdfs are constant.  Only when neither law has jumps is the
    supremum approximated, on a uniform grid of ``KS_PROBE_POINTS`` over the
    union of supports.  Symmetric, and zero for laws with identical
    distribution functions.
    """
    jumps_a, jumps_b = law_a.jump_points(), law_b.jump_points()
    lo = min(law_a.support()[0], law_b.support()[0])
    hi = max(law_a.support()[1], law_b.support()[1])
    if jumps_a.size or jumps_b.size:
        ys = np.unique(np.concatenate([jumps_a, jumps_b, [lo, hi]]))
    else:
        ys = np.linspace(lo, hi, KS_PROBE_POINTS)
    right_a, right_b = np.asarray(law_a.cdf(ys)), np.asarray(law_b.cdf(ys))
    # a law without jumps is continuous, so its left limits are its values
    left_a = np.asarray(law_a.cdf_left(ys)) if jumps_a.size else right_a
    left_b = np.asarray(law_b.cdf_left(ys)) if jumps_b.size else right_b
    return float(max(np.abs(right_a - right_b).max(), np.abs(left_a - left_b).max()))


def _union_window(states, values=position_distribution) -> list[np.ndarray]:
    """``values(psi)`` of each state, laid on the union of their supports, zero elsewhere."""
    lo, hi = min(psi.x_min for psi in states), max(psi.x_max for psi in states)
    placed = []
    for psi in states:
        v = values(psi)
        placed.append(np.zeros((hi - lo + 1, *v.shape[1:]), v.dtype))
        placed[-1][psi.x_min - lo : psi.x_max - lo + 1] = v
    return placed


def sup_norm_difference(psi_a: WaveFunction, psi_b: WaveFunction) -> float:
    """Largest amplitude difference between two states on their union support."""
    a, b = _union_window((psi_a, psi_b), lambda psi: psi.amplitudes)
    return float(np.max(np.abs(a - b)))
