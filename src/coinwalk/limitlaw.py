"""
Closed-form scaling limit of the walk position.

As the step count grows, ``X_n / n`` converges weakly.  For coins with
``l1 * l2 != 0`` the limit has a density supported on ``(-|l1|, |l1|)``:

    rho(y) = sqrt(1 - |l1|^2) / ((1 - y^2) sqrt(|l1|^2 - y^2)) * g(y)

where ``g`` collects the initial-state dependence as the sum of eight
squared amplitudes evaluated at the stationary momenta of ``gamma(k) - y*k``
(two mirrored pairs, one per phase branch).  The prefactor here already
absorbs the factor pi that would otherwise cancel against the momentum
normalisation ``1/sqrt(2*pi)`` carried by the initial data inside ``g``;
total mass one is verified by quadrature.  A density law is a
:class:`LimitLaw`.  Every routine takes the initial state as a
:class:`~coinwalk.core.WaveFunction` ``psi0`` and evaluates its momentum
amplitudes ``psi_hat = momentum_state(psi0)`` exactly, off any grid.

Degenerate coins give point masses instead, as a plain
:class:`~coinwalk.walk.DiscreteLaw`: two atoms at +/-1 when ``l2 = 0`` (the
walk is ballistic) and a unit atom at 0 when ``l1 = 0`` (the walk oscillates
in place).  Both law types share one protocol (``support``, ``jump_points``,
``mass``, ``cdf``, ``cdf_left``, ``mean``, ``moment``).

For a single-site initial qubit ``psi0 = (a, b)`` the density collapses to the
classical closed form ``prefactor * (1 - beta*y)`` with

    beta = |a|^2 - |b|^2 + (conj(l1) l2 conj(a) b + l1 conj(l2) a conj(b)) / |l1|^2.

The integrable inverse-square-root endpoint singularities are removed by the
substitution ``y = |l1| sin(u)`` throughout the quadrature code.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import spectral
from .core import (
    Coin,
    DegenerateCoinError,
    DomainError,
    ValidationError,
    WaveFunction,
    blocks,
    momentum_state,
    require_normalized,
)
from .walk import DiscreteLaw

__all__ = [
    "MASS_TOL",
    "LimitLaw",
    "StationaryAmplitudes",
    "asymmetry_coefficient",
    "density",
    "density_localized",
    "g_function",
    "lm_values",
    "lm_values_numeric",
    "point_mass_law",
    "weak_limit_law",
]

# Largest accepted |mass - 1| of a density law; `coinwalk density` refuses to
# write a law outside it.
MASS_TOL = 1e-6


def _require_density(coin: Coin) -> None:
    if not coin.has_density_limit:
        raise DegenerateCoinError(
            "the scaling limit has a density only when l1*l2 != 0; "
            "use point_mass_law for degenerate coins"
        )


class StationaryAmplitudes(NamedTuple):
    """The eight stationary-momentum amplitudes feeding the limit density."""

    l_plus_c1: complex
    l_plus_c2: complex
    l_minus_neg_c1: complex
    l_minus_neg_c2: complex
    m_plus_c1: complex
    m_plus_c2: complex
    m_minus_neg_c1: complex
    m_minus_neg_c2: complex


def _check_density_domain(y: np.ndarray, coin: Coin) -> None:
    _require_density(coin)
    # written to fail closed: a NaN meets no comparison, so it is refused too
    if not np.all(np.abs(y) < coin.abs_l1):
        raise DomainError("|y| must be strictly below |l1| (and not NaN)")


def _amplitude_table(y: np.ndarray, coin: Coin, psi0: WaveFunction) -> list[np.ndarray]:
    """The eight amplitudes for every ``y``, each of ``y``'s shape, in :class:`StationaryAmplitudes` order.

    Closed forms in ``psi_hat = momentum_state(psi0)``, with
    ``s = sqrt((|l1|^2-y^2)/(1-|l1|^2))``,
    ``w = l2 e^{-i theta1}``, ``C = (1-|l1|^2)/(2|l1|)`` and
    ``q = y + i s`` or its conjugate::

        l(c)  = (w/2) [ (1-y)/w * psi_hat(1;c+theta1) - q/|l1| * psi_hat(2;c+theta1) ]
        m(c)  = C [ -conj(q)/w * psi_hat(1;c+theta1)
                    + |l1|/(1-|l1|^2) (1+y) * psi_hat(2;c+theta1) ]

    with ``q = y+is`` at ``c1``, ``q = y-is`` at ``c2``; the mirrored points
    ``-c1, -c2`` take the conjugated factors (``y-is`` and ``y+is``
    respectively), as dictated by ``e^{2i c1}(y+is) = -(y-is)`` and pinned by
    the numerical eigenvector route.  ``c1`` is
    :func:`~coinwalk.spectral.stationary_angle`'s formula through ``np.arcsin``,
    kept apart on purpose: its last bit can differ from ``math.asin``'s, and
    the bits of every density depend on it.

    The factors ``(1-y)/w``, ``q/|l1|``, ``-q/w`` and ``|l1|(1+y)/(1-|l1|^2)``
    are each computed once and shared by the points that use them; every
    amplitude keeps the operations and operand order of its formula, so the
    bits are those of evaluating each one on its own.
    """
    a1 = coin.abs_l1
    s = np.sqrt((a1 * a1 - y * y) / (1.0 - a1 * a1))
    c1 = np.arcsin(y * math.sqrt(1.0 - a1 * a1) / (a1 * np.sqrt(1.0 - y * y)))
    c2 = math.pi - c1
    w = coin.l2 * cmath.exp(-1j * coin.theta1)
    th1 = coin.theta1
    # y + is and y - is, part by part, with the signed zeros of the complex sums
    q_plus, q_minus = np.empty(y.shape, np.complex128), np.empty(y.shape, np.complex128)
    np.add(y, 0.0, out=q_plus.real)
    q_plus.imag = s
    q_minus.real = y
    np.subtract(0.0, s, out=q_minus.imag)
    psi_hat = momentum_state(psi0)

    one_minus_y_over_w = (1.0 - y) / w
    scaled_one_plus_y = a1 / (1.0 - a1 * a1) * (1.0 + y)
    big_c = (1.0 - a1 * a1) / (2.0 * a1)
    # (q/|l1| of l, -q/w of m) at a point; m takes the conjugate of l's q
    with_plus = (q_plus / a1, -q_minus / w)
    with_minus = (q_minus / a1, -q_plus / w)

    l_values, m_values = [], []
    for point, (q_l, q_m) in ((c1, with_plus), (c2, with_minus), (-c1, with_minus), (-c2, with_plus)):
        data = psi_hat(point + th1)
        psi_1, psi_2 = data[..., 0], data[..., 1]
        # Not ``(w / 2.0) * (...)``: numpy runs a complex scalar times a
        # temporary of >= 256 KiB in place as ``temp * scalar``, and its
        # complex multiply (FMA) is not bitwise commutative, so the bits would
        # depend on how many points one call evaluates.
        l_values.append(np.multiply(w / 2.0, one_minus_y_over_w * psi_1 - q_l * psi_2))
        m_values.append(big_c * (q_m * psi_1 + scaled_one_plus_y * psi_2))
    return l_values + m_values


def lm_values(y: float, coin: Coin, psi0: WaveFunction) -> StationaryAmplitudes:
    """The eight stationary amplitudes of ``psi0`` at velocity ``y`` (closed forms)."""
    y_arr = np.asarray(float(y))
    _check_density_domain(y_arr, coin)
    table = _amplitude_table(y_arr, coin, psi0)
    return StationaryAmplitudes(*(complex(v) for v in table))


def lm_values_numeric(y: float, coin: Coin, psi0: WaveFunction) -> StationaryAmplitudes:
    """The same eight amplitudes through the defining eigenvector route.

    At ``c1 = spectral.stationary_angle(y, |l1|)`` and ``c2 = pi - c1``,
    solves ``S(c) xi = psi_hat(c + theta1)`` with the unnormalised
    eigenvector matrix and numerical inversion, then multiplies by the
    eigenvector components: the ``l`` values use the first components
    ``e^{-ic}``, the ``m`` values the second.  The ``+`` branch takes
    ``xi``'s first entry at ``c1`` and ``c2``, the ``-`` branch its second
    at ``-c1`` and ``-c2``.  Entirely independent of the closed forms in
    :func:`lm_values`; the two agree to ~1e-14.
    """
    y_arr = np.asarray(float(y))
    _check_density_domain(y_arr, coin)
    psi_hat = momentum_state(psi0)
    c1 = spectral.stationary_angle(float(y), coin.abs_l1)
    c2 = math.pi - c1
    l_values, m_values = [], []
    for point, branch in ((c1, 0), (c2, 0), (-c1, 1), (-c2, 1)):
        S = spectral.eigenvector_matrix(point, coin)
        xi = np.linalg.solve(S, psi_hat(point + coin.theta1))
        l_values.append(complex(cmath.exp(-1j * point) * xi[branch]))
        m_values.append(complex(S[1, branch] * xi[branch]))
    return StationaryAmplitudes(*l_values, *m_values)


def g_function(y, coin: Coin, psi0: WaveFunction):
    """Initial-state factor of the limit density: sum of the eight squared moduli.

    Nonnegative by construction; broadcasts over ``y``.  Carries the factor
    ``1/pi`` inherited from the momentum normalisation of the initial data
    (for a single-site qubit, ``g(y) = (1 - beta*y) / pi``).  The squared
    moduli are summed without stacking the eight amplitudes, in the order
    ``numpy.sum`` gives their stack (pairwise for one point, in sequence for
    more), so the bits are those of that sum; a NaN ``y`` raises
    :class:`DomainError`.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    _check_density_domain(y_arr, coin)
    squares = [np.square(np.abs(v)) for v in _amplitude_table(y_arr, coin, psi0)]
    if y_arr.size < 2:
        out = np.sum(squares, axis=0)
    else:
        out = squares[0]
        for square in squares[1:]:
            out += square
    return float(out) if out.ndim == 0 else out


def _edge_guard(y_arr: np.ndarray, a1: float) -> None:
    # written to fail closed: a NaN meets no comparison, so it is refused too
    if not np.all(np.abs(np.abs(y_arr) - a1) > 0.0):
        raise DomainError(
            "the density diverges at y = +/-|l1| (integrable endpoint "
            "singularity) and is undefined at NaN; evaluate at numbers off the endpoints"
        )


def density(y, coin: Coin, psi0: WaveFunction):
    """Limit density of ``X_n / n`` from ``psi0`` at velocity ``y``; zero outside (-|l1|, |l1|).

    ``rho(y) = sqrt(1-|l1|^2) / ((1-y^2) sqrt(|l1|^2-y^2)) * g(y)`` -- the
    prefactor includes the pi that cancels the momentum normalisation inside
    ``g``, so the density integrates to one.  Evaluation exactly at the
    endpoints raises :class:`DomainError` (the singularity is integrable but
    the pointwise value is infinite), and so does a NaN ``y``; ``+/-inf`` lie
    outside the support.
    """
    _require_density(coin)
    y_arr = np.asarray(y, dtype=np.float64)
    a1 = coin.abs_l1
    _edge_guard(y_arr, a1)
    inside = np.abs(y_arr) < a1
    out = np.zeros(y_arr.shape, dtype=np.float64)
    if np.any(inside):
        y_in = y_arr[inside] if y_arr.ndim else y_arr
        g = g_function(y_in, coin, psi0)
        pref = math.sqrt(1.0 - a1 * a1) / (
            (1.0 - y_in * y_in) * np.sqrt(a1 * a1 - y_in * y_in)
        )
        if y_arr.ndim:
            out[inside] = pref * g
        else:
            out = pref * g
    return float(out) if out.ndim == 0 else out


def asymmetry_coefficient(coin: Coin, psi0: WaveFunction) -> float:
    """The linear tilt ``beta`` of the limit density for a single-site state ``psi0 = (a, b)``.

    ``beta = |a|^2 - |b|^2 + (conj(l1) l2 conj(a) b + l1 conj(l2) a conj(b)) / |l1|^2``;
    the two cross terms are conjugate, so the result is real.  The site does
    not matter; a state on more than one site raises :class:`ValidationError`.
    """
    _require_density(coin)
    if psi0.width != 1:
        raise ValidationError(f"beta needs a single-site state, got {psi0.width} sites")
    a, b = (complex(v) for v in psi0.amplitudes[0])
    cross = coin.l1.conjugate() * coin.l2 * a.conjugate() * b
    return float(abs(a) ** 2 - abs(b) ** 2 + 2.0 * cross.real / coin.abs_l1**2)


def density_localized(y, coin: Coin, psi0: WaveFunction):
    """Limit density for the walk started in a normalised single-site state ``psi0``.

    The closed form ``prefactor * (1 - beta*y)`` on ``(-|l1|, |l1|)``; agrees
    with the general route through :func:`density` to rounding, and refuses
    the endpoints and NaN as it does.
    """
    require_normalized(psi0, "initial state")
    beta = asymmetry_coefficient(coin, psi0)
    y_arr = np.asarray(y, dtype=np.float64)
    a1 = coin.abs_l1
    _edge_guard(y_arr, a1)
    inside = np.abs(y_arr) < a1
    # points outside the support (+/-inf too) are evaluated at 0 and dropped
    y_in = np.where(inside, y_arr, 0.0)
    pref = math.sqrt(1.0 - a1 * a1) / (math.pi * (1.0 - y_in * y_in) * np.sqrt(a1 * a1 - y_in * y_in))
    out = np.where(inside, pref * (1.0 - beta * y_in), 0.0)
    return float(out) if out.ndim == 0 else out


# 16-node Gauss-Legendre rule used panelwise after the y = |l1| sin(u)
# substitution; the substituted integrand is analytic, so short panels give
# quadrature error far below MASS_TOL.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_BASE_PANELS = 192


def _base_edges() -> np.ndarray:
    # built per call: as a module constant allocated at import, this 1.5 KB
    # array shifted the heap layout and slowed perfbench's `cwalk`, which
    # never runs this module's code, by 11-13% (2-core x86-64 VM)
    return np.linspace(-math.pi / 2, math.pi / 2, _BASE_PANELS + 1)


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes of the panels ``[lo, hi]``, shape ``(panels, 16)``, and half-widths."""
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half


class LimitLaw:
    """The weak limit of ``X_n / n`` for a coin with ``l1*l2 != 0``: a density.

    The distribution function and moments come from panelwise
    Gauss-Legendre quadrature in the substituted variable
    ``y = |l1| sin(u)``, which removes the endpoint singularities exactly.
    The cdf evaluates its panels in blocks of ``core.BLOCK`` quadrature
    nodes, so its memory is O(block) beyond a few floats per target; the
    moments share one cached evaluation of the integrand on the
    ``_BASE_PANELS`` base panels.  ``beta`` is
    :func:`asymmetry_coefficient` for a single-site ``psi0``, else ``None``.
    """

    def __init__(self, coin: Coin, psi0: WaveFunction) -> None:
        _require_density(coin)
        self.coin = coin
        self.psi0 = psi0
        self.beta = asymmetry_coefficient(coin, psi0) if psi0.width == 1 else None
        self._base_values: np.ndarray | None = None

    def _integrand_u(self, nodes: np.ndarray) -> np.ndarray:
        """Density times dy/du after y = |l1| sin(u): the singular factors cancel.

        A node within an ulp of +/-pi/2 can round to ``|y| == |l1|``, outside
        ``g_function``'s domain though the integrand is finite there; such a
        node is moved one ulp inside, and no other node moves.
        """
        a1 = self.coin.abs_l1
        # flat, so that psi_hat's ``phases @ amps`` is one (nodes, sites)
        # matmul for every block shape; a stacked 2-D matmul need not round alike
        y = a1 * np.sin(nodes.ravel())
        inside = math.nextafter(a1, 0.0)
        np.clip(y, -inside, inside, out=y)
        g = g_function(y, self.coin, self.psi0)
        return (math.sqrt(1.0 - a1 * a1) / (1.0 - y * y) * g).reshape(nodes.shape)

    def _panel_integrals(
        self, values: np.ndarray, nodes: np.ndarray, half: np.ndarray, weight_power: int = 0
    ) -> np.ndarray:
        """Integrals of ``y^power * rho`` over each panel, from the integrand at its nodes."""
        if weight_power:
            values = values * (self.coin.abs_l1 * np.sin(nodes)) ** weight_power
        return (values * _GL_WEIGHTS[None, :]).sum(axis=1) * half

    def _cumulative(self, u_targets: np.ndarray) -> np.ndarray:
        """Integrals of ``rho`` from the lower edge to each target (sorted).

        The panels run between the base edges and the targets.  They are
        integrated ``core.BLOCK`` nodes at a time into one array of panel
        integrals, whose running sum gives the targets' values; every
        panel's bits are independent of the blocking.
        """
        edges = np.unique(np.concatenate([_base_edges(), u_targets]))
        lo, hi = edges[:-1], edges[1:]
        panel = np.empty(lo.size)
        for block in blocks(lo.size, per=_GL_NODES.size):
            nodes, half = _panel_nodes(lo[block], hi[block])
            panel[block] = self._panel_integrals(self._integrand_u(nodes), nodes, half)
        cumulative = np.concatenate(([0.0], np.cumsum(panel)))
        return cumulative[np.searchsorted(edges, u_targets)]

    def support(self) -> tuple[float, float]:
        a1 = self.coin.abs_l1
        return (-a1, a1)

    def jump_points(self) -> np.ndarray:
        return np.empty(0)

    def pdf(self, y):
        return density(y, self.coin, self.psi0)

    def mass(self) -> float:
        """Total mass by quadrature (should be 1 within :data:`MASS_TOL`)."""
        return self.moment(0)

    def cdf(self, y):
        """0 up to ``-|l1|``, the mass from ``|l1|`` on; a NaN ``y`` raises :class:`DomainError`.

        All targets of one call split the quadrature panels together, so the
        value at a target depends, in its last bits, on the other targets of
        the same call: ``cdf(t)`` and ``cdf(ys)[i]`` with ``ys[i] == t`` can
        differ by an ulp or so.  Compare values from one call, as
        :func:`~coinwalk.walk.ks_distance` does.
        """
        y_arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if np.isnan(y_arr).any():
            raise DomainError("the distribution function is undefined at NaN")
        a1 = self.coin.abs_l1
        u = np.arcsin(np.clip(y_arr / a1, -1.0, 1.0))
        order = np.argsort(u)
        values = np.empty_like(u)
        values[order] = self._cumulative(u[order])
        values[y_arr >= a1] = self.mass()
        values[y_arr <= -a1] = 0.0
        return float(values[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else values

    def cdf_left(self, y):
        return self.cdf(y)

    def mean(self) -> float:
        return self.moment(1)

    def moment(self, order: int) -> float:
        """The integral of ``y^order * rho`` over the base panels, whose integrand is evaluated once."""
        edges = _base_edges()
        nodes, half = _panel_nodes(edges[:-1], edges[1:])
        if self._base_values is None:
            self._base_values = self._integrand_u(nodes)
        panel = self._panel_integrals(self._base_values, nodes, half, order)
        return float(np.cumsum(panel)[-1])


def point_mass_law(coin: Coin, psi0: WaveFunction) -> DiscreteLaw:
    """The degenerate scaling limit for coins with ``l1 = 0`` or ``l2 = 0``.

    ``l2 = 0``: the two chirality populations travel ballistically, so the
    limit puts mass ``sum_x |psi0(1;x)|^2`` at -1 and ``sum_x |psi0(2;x)|^2``
    at +1.  ``l1 = 0``: the walk shuttles in place and ``X_n/n`` collapses to
    a unit atom at 0.
    """
    weights = np.sum(np.abs(psi0.amplitudes) ** 2, axis=0)
    if coin.is_degenerate:
        return DiscreteLaw(np.array([-1.0, 1.0]), weights)
    if coin.l1 == 0:
        return DiscreteLaw(np.array([0.0]), np.array([float(weights.sum())]))
    raise DomainError("point-mass laws arise only for coins with l1 = 0 or l2 = 0")


def weak_limit_law(coin: Coin, psi0: WaveFunction) -> LimitLaw | DiscreteLaw:
    """The scaling limit of the walk: a density when ``l1*l2 != 0``, point masses otherwise.

    The density's mass is not checked here (see :data:`MASS_TOL`), so that
    callers can measure the quadrature defect.
    """
    require_normalized(psi0, "initial state")
    if not coin.has_density_limit:
        return point_mass_law(coin, psi0)
    return LimitLaw(coin, psi0)
