"""System coefficients, interval mapping, exact solutions, experiment data.

The governing pair on a physical interval, for surface elevation eta and
velocity u, is

    eta_t + u_x + (eta u)_x + a u_xxx - b eta_xxt = 0,
    u_t + eta_x + u u_x    + c eta_xxx - d u_xxt  = 0,

with a = 0 throughout this package, b, d >= 0 and c <= 0.  Closed-form
solutions are validated at construction by a PDE residual gate so that a
mistranscribed coefficient cannot silently corrupt convergence tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

RESIDUAL_GATE = 1e-8   # max-norm residual allowed for a shipped closed form


@dataclass(frozen=True)
class SystemParams:
    """Coefficients b, c, d of the system (a = 0 throughout)."""

    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.c > 0.0:
            raise ValueError("c must be <= 0")
        if self.b < 0.0 or self.d < 0.0:
            raise ValueError("b and d must be >= 0")
        # the d u_xxt mass term must smooth c eta_xxx: at d = 0 a float64 field
        # of it keeps about 9 digits at N = 64, fewer as N grows, and at
        # d = 1e-12, c = -1 it is off by 3.2e-9 there.  No bound on |c|/d is
        # measured yet; both families have |c| <= d
        if -self.c > self.d:
            raise ValueError(f"|c| must not exceed d, got c = {self.c!r}, d = {self.d!r}")


def params_from_theta(theta2: float) -> SystemParams:
    """Bona-Smith coefficients b = d = (3 theta^2 - 1)/6, c = (2 - 3 theta^2)/3.

    Requires 2/3 <= theta^2 <= 1; below 2/3 the linearized system is
    ill-posed.  theta^2 = 2/3 gives the BBM-BBM member with c exactly 0.
    """
    theta2 = float(theta2)
    if not 2.0 / 3.0 <= theta2 <= 1.0:
        raise ValueError(f"theta^2 must lie in [2/3, 1], got {theta2}")
    b = (3.0 * theta2 - 1.0) / 6.0
    c = 0.0 if theta2 == 2.0 / 3.0 else (2.0 - 3.0 * theta2) / 3.0
    c = min(c, 0.0)
    return SystemParams(b=b, c=c, d=b)


def params_b_neq_d(theta2: float) -> SystemParams:
    """Coefficients a = c = 0, b = (theta^2 - 1/3)/2, d = (1 - theta^2)/2."""
    theta2 = float(theta2)
    if not 1.0 / 3.0 < theta2 < 1.0:
        raise ValueError(f"theta^2 must lie in (1/3, 1), got {theta2}")
    return SystemParams(b=0.5 * (theta2 - 1.0 / 3.0), c=0.0, d=0.5 * (1.0 - theta2))


@dataclass(frozen=True)
class IntervalMap:
    """Affine map between the reference interval [-1, 1] and [left, right]."""

    left: float
    right: float

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("need left < right")

    @property
    def scale(self) -> float:
        return 0.5 * (self.right - self.left)

    @property
    def shift(self) -> float:
        return 0.5 * (self.right + self.left)

    def to_physical(self, x):
        return self.shift + self.scale * np.asarray(x, dtype=float)

    def to_reference(self, y):
        return (np.asarray(y, dtype=float) - self.shift) / self.scale


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data eta, u at both endpoints with analytic time derivatives.

    ``at(t)`` returns a (4, 2) array: rows eta, u, eta_t, u_t, columns the
    left and right endpoint.  ``steady`` marks data that does not change in
    time; the constructors of such data (``homogeneous``, ``constant``) set
    it, so the vector field can solve the boundary contribution once instead
    of once per time.
    """

    at: Callable[[float], np.ndarray]
    steady: bool = False

    @staticmethod
    def homogeneous() -> "BoundaryData":
        return BoundaryData.constant(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def constant(eta_left: float, eta_right: float, u_left: float, u_right: float):
        values = np.array([[eta_left, eta_right], [u_left, u_right], [0.0, 0.0], [0.0, 0.0]])
        values.flags.writeable = False
        return BoundaryData(at=lambda t: values, steady=True)

    @staticmethod
    def from_exact(sol: "ExactSolution", left: float, right: float):
        """Trace an exact solution at the endpoints (traveling form: d/dt = -c_s d/dx)."""
        cs = sol.speed
        ends = np.array([left, right], dtype=float)
        return BoundaryData(at=lambda t: np.array([
            sol.eta(ends, t), sol.u(ends, t),
            -cs * sol.eta(ends, t, 1), -cs * sol.u(ends, t, 1),
        ]))

    def compatibility_mismatch(self, eta0, u0, left: float, right: float) -> float:
        """Largest gap between t=0 boundary values and the initial data."""
        ends = np.array([left, right], dtype=float)
        initial = np.array([eta0(ends), u0(ends)], dtype=float)
        return float(np.abs(self.at(0.0)[:2] - initial).max())


def _sech2_derivs(lam: float, xi, order: int):
    """sech^2(lam xi) and its xi-derivatives up to the requested order."""
    z = lam * np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):   # far from the crest cosh overflows and f is 0
        f = 1.0 / np.cosh(z) ** 2
    if order == 0:
        return f
    t = np.tanh(z)
    if order == 1:
        return -2.0 * lam * f * t
    if order == 2:
        return 2.0 * lam**2 * f * (2.0 - 3.0 * f)
    if order == 3:
        return -8.0 * lam**3 * f * t * (1.0 - 3.0 * f)
    raise ValueError("derivatives available up to order 3")


class ExactSolution:
    """Traveling-wave pair (eta, u) with analytic x-derivatives up to order 3.

    ``eta(x, t, deriv)`` and ``u(x, t, deriv)`` take physical coordinates;
    time derivatives follow from the traveling reduction d/dt = -speed d/dx.
    Construction through the module factories runs the PDE residual gate,
    which keeps its per-equation maxima (eta, u) in ``residual``.
    """

    def __init__(self, params: SystemParams, speed: float, x0: float, eta_fn, u_fn,
                 label: str = ""):
        self.params = params
        self.speed = float(speed)
        self.x0 = float(x0)
        self._eta = eta_fn
        self._u = u_fn
        self.label = label
        self.residual: tuple[float, float] | None = None

    def eta(self, x, t: float, deriv: int = 0):
        return self._eta(np.asarray(x, dtype=float) - self.speed * t - self.x0, deriv)

    def u(self, x, t: float, deriv: int = 0):
        return self._u(np.asarray(x, dtype=float) - self.speed * t - self.x0, deriv)


def pde_residual(sol: ExactSolution, grid, t: float):
    """Max-norm residuals of both equations at the grid points.

    Time derivatives use the traveling reduction, so eta_xxt = -c_s eta_xxx
    and the mixed terms need third x-derivatives of the closed forms.
    """
    x = np.asarray(grid, dtype=float)
    params, cs = sol.params, sol.speed
    eta = [sol.eta(x, t, d) for d in range(4)]
    u = [sol.u(x, t, d) for d in range(4)]
    r1 = -cs * eta[1] + u[1] + eta[1] * u[0] + eta[0] * u[1] + params.b * cs * eta[3]
    r2 = -cs * u[1] + eta[1] + u[0] * u[1] + params.c * eta[3] + params.d * cs * u[3]
    return float(np.abs(r1).max()), float(np.abs(r2).max())


def _validated(sol: ExactSolution, halfwidth: float) -> ExactSolution:
    """``sol``, with the residual maxima over x0 +- halfwidth, moving with the
    wave, at t = 0, 0.5 and 1 in ``sol.residual``, if they pass the gate."""
    grid = np.linspace(sol.x0 - halfwidth, sol.x0 + halfwidth, 2001)
    # np.max keeps a NaN residual, and the gate refuses it and an infinite one;
    # the overflow behind them is reported by the gate, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sol.residual = tuple(np.max([pde_residual(sol, grid + sol.speed * t, t)
                                     for t in (0.0, 0.5, 1.0)], axis=0).tolist())
    worst = np.max(sol.residual)
    if not worst <= RESIDUAL_GATE:
        raise ValueError(
            f"closed form '{sol.label}' fails the residual gate: {worst:.3e}"
        )
    return sol


def _sech2_wave(params: SystemParams, speed: float, x0: float, lam: float,
                eta0: float, u0: float, label: str) -> ExactSolution:
    """The gated wave eta = eta0 w, u = u0 w, w = sech^2(lam (x - speed t - x0))."""

    def eta_fn(xi, d):
        return eta0 * _sech2_derivs(lam, xi, d)

    def u_fn(xi, d):
        return u0 * _sech2_derivs(lam, xi, d)

    sol = ExactSolution(params, speed, x0, eta_fn, u_fn, label=label)
    return _validated(sol, halfwidth=30.0 / lam)


def solitary_bona_smith(theta2: float, x0: float = 0.0) -> ExactSolution:
    """Solitary wave of the Bona-Smith system for 7/9 < theta^2 < 1.

    eta = eta0 sech^2(lam (x - c_s t - x0)), u = B eta, with
    eta0 = (9/2)(theta^2 - 7/9)/(1 - theta^2).
    """
    theta2 = float(theta2)
    if not 7.0 / 9.0 < theta2 < 1.0:
        raise ValueError(f"theta^2 must lie in (7/9, 1), got {theta2}")
    params = params_from_theta(theta2)
    eta0 = 4.5 * (theta2 - 7.0 / 9.0) / (1.0 - theta2)
    cs = 4.0 * (theta2 - 2.0 / 3.0) / math.sqrt(
        2.0 * (1.0 - theta2) * (theta2 - 1.0 / 3.0)
    )
    lam = 0.5 * math.sqrt(
        3.0 * (theta2 - 7.0 / 9.0) / ((theta2 - 1.0 / 3.0) * (theta2 - 2.0 / 3.0))
    )
    big_b = math.sqrt(2.0 * (1.0 - theta2) / (theta2 - 1.0 / 3.0))
    return _sech2_wave(params, cs, x0, lam, eta0, big_b * eta0, "bs-solitary")


def traveling_bbm(rho: float, cs: float, x0: float = 0.0) -> ExactSolution:
    """Traveling wave of the BBM-BBM member (b = d = 1/6, c = 0).

    With w = sech^2(sqrt(rho)/2 (x - c_s t - x0)):
    eta = -1 + (c_s b rho)^2 (4/9 + (5/3) w (2 - 3w)),
    u   = (c_s/3)(3 - 5 b rho) + 5 c_s b rho w.
    Both components approach nonzero constants in the far field.
    """
    rho = float(rho)
    cs = float(cs)
    if rho <= 0.0 or cs == 0.0:
        raise ValueError("need rho > 0 and c_s != 0")
    params = params_from_theta(2.0 / 3.0)
    b = params.b
    lam = 0.5 * math.sqrt(rho)
    try:
        amp = (cs * b * rho) ** 2
    except OverflowError:
        raise ValueError(f"initial data 'bbm-traveling' overflow at rho = {rho!r}, "
                         f"c_s = {cs!r}") from None
    u_base = cs / 3.0 * (3.0 - 5.0 * b * rho)
    u_amp = 5.0 * cs * b * rho

    def eta_fn(xi, d):
        w = _sech2_derivs(lam, xi, d)
        if d == 0:
            return -1.0 + amp * (4.0 / 9.0 + (10.0 / 3.0) * w - 5.0 * w**2)
        # derivative of w^2 needs lower-order values of w
        lower = [_sech2_derivs(lam, xi, k) for k in range(d + 1)]
        if d == 1:
            w2 = 2.0 * lower[0] * lower[1]
        elif d == 2:
            w2 = 2.0 * (lower[1] ** 2 + lower[0] * lower[2])
        else:
            w2 = 2.0 * (3.0 * lower[1] * lower[2] + lower[0] * lower[3])
        return amp * ((10.0 / 3.0) * w - 5.0 * w2)

    def u_fn(xi, d):
        w = _sech2_derivs(lam, xi, d)
        return (u_base if d == 0 else 0.0) + u_amp * w

    sol = ExactSolution(params, cs, x0, eta_fn, u_fn, label="bbm-traveling")
    return _validated(sol, halfwidth=30.0 / lam)


def solitary_b_neq_d(eta0: float, x0: float = 0.0) -> ExactSolution:
    """Solitary wave of the a = c = 0, b != d system at theta^2 = 7/9, where
    b = 2d; it solves no other member of the family.

    u0 = eta0 sqrt(3/(3+eta0)), c_s = (3+2 eta0)/sqrt(3(3+eta0)),
    lam = (1/2) sqrt(2 eta0 / (b (3 + 2 eta0))); requires eta0 > -3 with
    3/(eta0+3) outside [1, 2].
    """
    eta0 = float(eta0)
    if eta0 <= -3.0 or 1.0 <= 3.0 / (eta0 + 3.0) <= 2.0:
        raise ValueError(f"amplitude {eta0} outside the admissible range")
    params = params_b_neq_d(7.0 / 9.0)
    u0 = eta0 * math.sqrt(3.0 / (3.0 + eta0))
    cs = (3.0 + 2.0 * eta0) / math.sqrt(3.0 * (3.0 + eta0))
    lam2 = 2.0 * eta0 / (params.b * (3.0 + 2.0 * eta0))
    if lam2 <= 0.0:
        raise ValueError(f"amplitude {eta0} gives no real decay rate")
    return _sech2_wave(params, cs, x0, 0.5 * math.sqrt(lam2), eta0, u0, "bneqd-solitary")


def bore_u0(eta0: float) -> float:
    """Right-moving bore velocity scale u0 = eta0/(eta0+1) sqrt((2+3 eta0+eta0^2)/2)."""
    try:
        return eta0 / (eta0 + 1.0) * math.sqrt(0.5 * (2.0 + 3.0 * eta0 + eta0**2))
    except OverflowError:
        raise ValueError(f"initial data 'bore' overflow at amplitude = {eta0!r}") from None


def bore_data(eta0: float, kappa: float):
    """Smoothed-step initial data and constant boundary data for bore generation.

    eta(x, 0) = eta0/2 (1 - tanh(kappa x)), u(x, 0) = u0/2 (1 - tanh(kappa x));
    boundary values eta0, u0 on the left and 0 on the right, constant in time.
    Returns (eta_init, u_init, boundary_data).
    """
    eta0 = float(eta0)
    kappa = float(kappa)
    if eta0 <= 0.0 or kappa <= 0.0:
        raise ValueError("need eta0 > 0 and kappa > 0")
    u0 = bore_u0(eta0)

    def eta_init(x):
        return 0.5 * eta0 * (1.0 - np.tanh(kappa * np.asarray(x, dtype=float)))

    def u_init(x):
        return 0.5 * u0 * (1.0 - np.tanh(kappa * np.asarray(x, dtype=float)))

    bdata = BoundaryData.constant(eta0, 0.0, u0, 0.0)
    return eta_init, u_init, bdata


def nonsmooth_data(kind: str):
    """Initial data on [-1, 1] with limited regularity: (eta_init, u_init).

    'piecewise-quadratic': eta = 1 + 2x + x^2 for x <= 0, 1 + 2x - 3x^2 for
    x >= 0 (second derivative jumps at 0), u = eta.  'tent': eta = 1 - |x|,
    u = 0.
    """
    if kind == "piecewise-quadratic":

        def eta_init(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= 0.0, 1.0 + 2.0 * x + x * x, 1.0 + 2.0 * x - 3.0 * x * x)

        return eta_init, eta_init
    if kind == "tent":

        def eta_init(x):
            return 1.0 - np.abs(np.asarray(x, dtype=float))

        def u_init(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return eta_init, u_init
    raise ValueError(f"unknown nonsmooth data kind: {kind!r}")
