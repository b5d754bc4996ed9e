"""Random-matrix density kernels for the five classical symmetry types, band
limited test functions, and the matrix-side prediction integral, computed by
two independent routes (x-space quadrature and Fourier-side closed forms)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, VerificationError
from .weights import bump, gauss_legendre

__all__ = [
    "TestFunction",
    "make_test_function",
    "test_function_eval",
    "rmt_density_eval",
    "rmt_expected_value",
    "GROUPS",
    "group_from_name",
]

GROUPS = ("SO_even", "SO_odd", "O", "U", "Sp")

_CLI_NAMES = {
    "so-even": "SO_even",
    "so-odd": "SO_odd",
    "o": "O",
    "u": "U",
    "sp": "Sp",
}


def group_from_name(name: str) -> str:
    key = name.strip().lower()
    if key in _CLI_NAMES:
        return _CLI_NAMES[key]
    if name in GROUPS:
        return name
    raise DomainError(f"unknown symmetry group {name!r}")


@dataclass(frozen=True)
class TestFunction:
    """Even test function whose transform is a bump supported in (-eta, eta)."""

    eta: float
    _xi: np.ndarray = field(repr=False, compare=False)
    _wq: np.ndarray = field(repr=False, compare=False)

    def phi_hat(self, t) -> np.ndarray:
        """Fourier transform: the scaled bump, identically 0 outside support."""
        return bump(np.asarray(t, dtype=float) / self.eta)

    def phi(self, x) -> np.ndarray:
        """Inversion integral over the compact support; real and even."""
        x = np.asarray(x, dtype=float)
        return np.cos(2.0 * math.pi * np.multiply.outer(x, self._xi)) @ self._wq

    def phi_hat_mass(self, cut: float | None = None) -> float:
        """integral of phi-hat over (-a, a), a = min(eta, cut)."""
        a = self.eta if cut is None else min(self.eta, float(cut))
        x, w = gauss_legendre(400)
        xi = x * a
        return float(np.dot(w * a, bump(xi / self.eta)))


@lru_cache(maxsize=32)
def _cached_test_function(eta: float) -> TestFunction:
    # probes must cover the largest x at which phi is later evaluated, else a
    # node count passing a small-x probe aliases badly in the tail integrals
    probes = (0.0, 0.6, 2.3, 25.0, 80.0)
    prev = None
    for n in (1024, 2048, 4096, 8192):
        x, w = gauss_legendre(n)
        xi = x * eta
        wq = w * eta * bump(xi / eta)
        probe = np.array([np.dot(wq, np.cos(2.0 * math.pi * p * xi)) for p in probes])
        if prev is not None and np.max(np.abs(probe - prev)) < 5e-13 * max(
            1e-30, float(np.max(np.abs(probe)))
        ):
            return TestFunction(eta=eta, _xi=xi, _wq=wq)
        prev = probe
    raise DomainError("test-function quadrature failed to stabilize")


def make_test_function(eta: float) -> TestFunction:
    eta = float(eta)
    if not (0.0 < eta <= 4.0):
        raise DomainError("eta must lie in (0, 4]")
    return _cached_test_function(eta)


def test_function_eval(phi: TestFunction, which: str, t: float) -> float:
    if which == "x_space":
        return float(phi.phi(np.array([float(t)]))[0])
    if which == "xi_space":
        return float(phi.phi_hat(np.array([float(t)]))[0])
    raise DomainError("which must be 'x_space' or 'xi_space'")


def _sine_kernel(y):
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    nz = y != 0.0
    out[nz] = np.sin(math.pi * y[nz]) / (math.pi * y[nz])
    return out


def rmt_density_eval(group: str, x: float) -> tuple[float, float]:
    """(smooth part at x, coefficient of the point mass at 0)."""
    if group not in GROUPS:
        raise DomainError(f"unknown symmetry group {group!r}")
    k2 = float(_sine_kernel(np.array([2.0 * x]))[0])
    if group == "SO_even":
        return 1.0 + k2, 0.0
    if group == "SO_odd":
        return 1.0 - k2, 1.0
    if group == "O":
        return 1.0, 0.5
    if group == "U":
        return 1.0, 0.0
    return 1.0 - k2, 0.0  # Sp


def _phi_tail_cutoff(phi: TestFunction) -> float:
    """x beyond which |phi| is below 1e-14 of its peak, found by scanning."""
    peak = abs(float(phi.phi(np.array([0.0]))[0]))
    x = 8.0
    while x < 120.0:
        grid = np.linspace(x, x * 1.25, 40)
        if np.max(np.abs(phi.phi(grid))) < 1e-14 * peak:
            return x * 1.25
        x *= 1.25
    return 120.0


def _expected_x_space(phi: TestFunction, group: str) -> float:
    _, delta = rmt_density_eval(group, 0.0)
    L = _phi_tail_cutoff(phi)
    # composite Gauss-Legendre: panel width resolves the cos(2 pi eta x)
    # oscillation of phi and the sine kernel alike
    width = 0.25 / max(1.0, phi.eta)
    n_panels = int(math.ceil(L / width))
    gx, gw = gauss_legendre(12)
    edges = np.linspace(0.0, L, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    if group in ("SO_even",):
        smooth = 1.0 + _sine_kernel(2.0 * xs)
    elif group in ("SO_odd", "Sp"):
        smooth = 1.0 - _sine_kernel(2.0 * xs)
    else:
        smooth = np.ones_like(xs)
    acc = 0.0
    for lo in range(0, xs.size, 4096):  # chunked: phi builds an (x, xi) matrix
        sl = slice(lo, lo + 4096)
        acc += float(np.dot(ws[sl], phi.phi(xs[sl]) * smooth[sl]))
    return 2.0 * acc + delta * float(phi.phi(np.array([0.0]))[0])


def _expected_xi_space(phi: TestFunction, group: str) -> float:
    hat0 = float(phi.phi_hat(np.array([0.0]))[0])
    if group == "U":
        return hat0
    half_mass = 0.5 * phi.phi_hat_mass(1.0)
    phi0 = float(phi.phi(np.array([0.0]))[0])
    if group == "SO_even":
        return hat0 + half_mass
    if group == "SO_odd":
        return hat0 - half_mass + phi0
    if group == "O":
        return hat0 + 0.5 * phi0
    return hat0 - half_mass  # Sp


def rmt_expected_value(phi: TestFunction, group: str) -> float:
    """The prediction integral, with the two routes cross-checked to 1e-7."""
    if group not in GROUPS:
        group = group_from_name(group)
    xv = _expected_x_space(phi, group)
    sv = _expected_xi_space(phi, group)
    if abs(xv - sv) > 1e-7 * (1.0 + abs(sv)):
        raise VerificationError(
            f"x-space {xv!r} and Fourier-side {sv!r} routes disagree for {group}"
        )
    return xv
