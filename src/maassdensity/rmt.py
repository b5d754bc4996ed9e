"""Random-matrix density kernels for the five classical symmetry types, band
limited test functions, and the matrix-side prediction integral, computed by
two independent routes (x-space quadrature and Fourier-side closed forms)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .besseltransform import _band_panels
from .errors import DomainError, VerificationError
from .weights import _transform_rows, bump, gauss_legendre

__all__ = [
    "TestFunction",
    "make_test_function",
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
        return _transform_rows(np.cos, 2.0 * math.pi, x, self._xi, self._wq)

    def phi_hat_mass(self, cut: float | None = None) -> float:
        """integral of phi-hat over (-a, a), a = min(eta, cut)."""
        a = self.eta if cut is None else min(self.eta, float(cut))
        x, w = gauss_legendre(400)
        xi = x * a
        return float(np.dot(w * a, bump(xi / self.eta)))


# The largest cutoff _phi_tail_cutoff can return, 8 * 1.25^13 = 145.5: the
# right end of its last scanned interval.
_PHI_X_MAX = 8.0 * 1.25 ** 13


@lru_cache(maxsize=32)
def _cached_test_function(eta: float) -> TestFunction:
    # phi is even, so phi(x) = 2 * integral over (0, eta) of b(xi/eta)
    # cos(2 pi x xi). The panels resolve the cosine for every x up to
    # _PHI_X_MAX, where _expected_x_space evaluates phi, and give the bump at
    # least 24 panels: without that floor phi errs by up to 2.8e-8 of its
    # peak at eta = 0.02
    xi, w = _band_panels(eta, max(2.0 * math.pi * _PHI_X_MAX, 96.0 * math.pi / eta))
    return TestFunction(eta=eta, _xi=xi, _wq=2.0 * w * bump(xi / eta))


def make_test_function(eta: float) -> TestFunction:
    eta = float(eta)
    if not (0.0 < eta <= 4.0):
        raise DomainError("eta must lie in (0, 4]")
    return _cached_test_function(eta)


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
    """x beyond which |phi| is below 1e-14 of its peak, found by scanning.

    The scan tests [x, 1.25 x] for x = 8 * 1.25^k up to x = _PHI_X_MAX / 1.25
    and returns the right end of the first quiet interval, so a result can
    reach _PHI_X_MAX; 120 is returned only when no interval is quiet.
    """
    peak = abs(float(phi.phi(np.array([0.0]))[0]))
    x = 8.0
    while x * 1.25 <= _PHI_X_MAX:
        grid = np.linspace(x, x * 1.25, 40)
        if np.max(np.abs(phi.phi(grid))) < 1e-14 * peak:
            return x * 1.25
        x *= 1.25
    return 120.0


def _expected_x_space(phi: TestFunction, group: str) -> float:
    """2 * integral over (0, L) of phi(x) W(x), plus the point mass at 0.

    phi is a finite cosine sum over nodes |xi| < eta, so its spectrum lies in
    |frequency| < 2 pi eta; the sine kernel K(2x) has |frequency| <= 2 pi.
    The integrand's band limit is therefore 2 pi (1 + eta), and _band_panels
    sizes its panels at width 2/(1 + eta) with a remainder below
    5e-20 L sup|phi W|.
    """
    _, delta = rmt_density_eval(group, 0.0)
    L = _phi_tail_cutoff(phi)
    xs, ws = _band_panels(L, 2.0 * math.pi * (1.0 + phi.eta))
    if group in ("SO_even",):
        smooth = 1.0 + _sine_kernel(2.0 * xs)
    elif group in ("SO_odd", "Sp"):
        smooth = 1.0 - _sine_kernel(2.0 * xs)
    else:
        smooth = np.ones_like(xs)
    # phi bounds its own memory, so the whole grid goes in one call
    acc = float(np.dot(ws, phi.phi(xs) * smooth))
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
