"""Stochastic dominance tests and constructive catalytic certificates.

fosd / sosd decide first and second order dominance exactly on merged
supports. find_catalyst_first / find_catalyst_second construct an
independent truncated-Gaussian Z such that X + Z dominates Y + Z, under
the hypothesis that the CGF profile of X strictly dominates that of Y
(everywhere, or on the nonpositive indices for the second order). The
returned certificate is machine-checked: the dominance sweep over every
breakpoint of the convolved cdfs is part of construction, not a test-only
step, and `verified` is set only when the worst gap clears -1e-12. The
sweep sorts the breakpoints as rows that are already sorted and sums the
cdf gap in extended precision.

large_numbers_n searches for the first n at which the n-fold i.i.d. sums
become comparable.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .cgf import KOrder, k_dominates, profile_grid, k_a_many
from .dist import (
    FiniteDist,
    cdf,
    convolve,
    discretize_trunc_gaussian,
    make,
    merged_support,
    shift,
)
from .errors import (
    BadParams,
    BudgetExhausted,
    DegenerateGap,
    NoKDominance,
    NoKDominanceOnNegatives,
)

_GAP_TOL = 1e-12

#: atom-count ladder for the catalyst discretization (cap 2**14)
_Z_ATOMS = (129, 1025, 8193, 16384)

#: doublings of the catalyst variance before giving up
_V_DOUBLINGS = 40

#: merged-support size from which the sweep lays its breakpoints out one
#: row per catalyst atom; below it, rows of u.size breakpoints sort slower
#: than rows of one support point each (measured with 129 to 8,193 atoms)
_Z_MAJOR_MIN_ROW = 100


@dataclass(frozen=True)
class FosdResult:
    dominates: bool
    strict: bool
    witness: Optional[float]
    min_gap: float


@dataclass(frozen=True)
class SosdResult:
    dominates: bool
    witness: Optional[float]
    min_integral: float


def fosd(d1: FiniteDist, d2: FiniteDist, tol: float = 0.0) -> FosdResult:
    """Does d1 first-order dominate d2? Checks F1 <= F2 + tol at every
    merged-support point; strict needs a gap beyond tol somewhere.

    The gap is evaluated both as F2 - F1 (exact in the lower tail) and as
    S1 - S2 of the survival functions (exact in the upper tail), which are
    equal in exact arithmetic. Each law's support is searched once: the
    cdf and survival step tables share their index (see cdf_steps).
    """
    pts = merged_support(d1, d2)
    k1 = np.searchsorted(d1.support, pts, side="right")
    k2 = np.searchsorted(d2.support, pts, side="right")
    gap_f = d2.cdf_steps[k2] - d1.cdf_steps[k1]  # >= -tol required everywhere
    gap_s = d1.survival_steps[k1] - d2.survival_steps[k2]
    gap = np.minimum(gap_f, gap_s)
    bad = np.flatnonzero(gap < -tol)
    if bad.size:
        i = int(bad[0])
        return FosdResult(False, False, float(pts[i]), float(gap.min()))
    strict = bool(np.any(np.maximum(gap_f, gap_s) > tol))
    return FosdResult(True, strict, None, float(gap.min()))


def sosd(d1: FiniteDist, d2: FiniteDist, tol: float = 0.0) -> SosdResult:
    """Does d1 second-order dominate d2? Exact piecewise-linear integration
    of the cdf gap, checked at every breakpoint."""
    pts = merged_support(d1, d2)
    gap = cdf(d2, pts) - cdf(d1, pts)
    integ = np.zeros(pts.size, dtype=np.float64)
    if pts.size > 1:
        integ[1:] = np.cumsum(gap[:-1].astype(np.longdouble) * np.diff(pts)).astype(
            np.float64
        )
    bad = np.flatnonzero(integ < -tol)
    if bad.size:
        i = int(bad[0])
        return SosdResult(False, float(pts[i]), float(integ.min()))
    return SosdResult(True, None, float(integ.min()))


@dataclass(frozen=True)
class CatalystParams:
    n_half_range: float
    epsilon: float
    delta: float
    a_cut: float
    variance: float
    truncation: float
    step: float


@dataclass(frozen=True)
class CatalystCertificate:
    catalyst: FiniteDist
    order: str  # "first" | "second"
    params: CatalystParams
    verified: bool
    worst_gap: float


def _signed_masses(dx: FiniteDist, dy: FiniteDist) -> Tuple[np.ndarray, np.ndarray]:
    """Merged support u and signed masses law(Y) - law(X) on it."""
    u = merged_support(dx, dy)
    s = np.zeros(u.size, dtype=np.float64)
    ix = np.searchsorted(u, dx.support)
    iy = np.searchsorted(u, dy.support)
    np.add.at(s, iy, dy.probs)
    np.add.at(s, ix, -dx.probs)
    return u, s


def _conv_gap_sweep(
    u: np.ndarray, s: np.ndarray, z: FiniteDist, order: int
) -> Tuple[float, float]:
    """Worst value over all breakpoints of D (order 1) or of its integral
    (order 2), where D(t) = F_{Y+Z}(t) - F_{X+Z}(t).

    D jumps by s_i * pz_k at t = z_k + u_i; no convolved distribution is
    materialized. fl(a + b) is monotone, so each row of the breakpoint
    matrix is already sorted and the stable sort merges rows. With one row
    per catalyst atom (Z-major), a row overlaps only the neighbours within
    span(u) / step, which makes the merge cheap once rows are long; a short
    u gives rows too short for that, and one row per support point of u
    sorts faster.
    """
    if u.size >= _Z_MAJOR_MIN_ROW:
        (row_at, row_p), (col_at, col_p) = (z.support, z.probs), (u, s)
    else:
        (row_at, row_p), (col_at, col_p) = (u, s), (z.support, z.probs)
    t = (row_at[:, None] + col_at).ravel()
    idx = np.argsort(t, kind="stable")
    t = t[idx]
    j = (row_p[:, None] * col_p).ravel()[idx]
    del idx  # freed before the kernels allocate their extended-precision sums
    if order == 1:
        return _kernels.min_cdf_gap(t, j)
    return _kernels.min_integrated_gap(t, j)


def fosd_with_catalyst(
    dx: FiniteDist, dy: FiniteDist, z: FiniteDist
) -> Tuple[float, float]:
    """(worst gap, where) for first-order dominance of X+Z over Y+Z."""
    u, s = _signed_masses(dx, dy)
    return _conv_gap_sweep(u, s, z, 1)


def sosd_with_catalyst(
    dx: FiniteDist, dy: FiniteDist, z: FiniteDist
) -> Tuple[float, float]:
    """(worst integrated gap, where) for second-order dominance of X+Z over Y+Z."""
    u, s = _signed_masses(dx, dy)
    return _conv_gap_sweep(u, s, z, 2)


def verify_certificate(
    cert: CatalystCertificate, dx: FiniteDist, dy: FiniteDist
) -> float:
    """Re-run the dominance sweep for a certificate; returns the worst gap."""
    if cert.order == "first":
        worst, _ = fosd_with_catalyst(dx, dy, cert.catalyst)
    else:
        worst, _ = sosd_with_catalyst(dx, dy, cert.catalyst)
    return worst


_POINT_ZERO = make([0.0], [1.0])


def _degenerate_certificate(order: str, worst: float) -> CatalystCertificate:
    params = CatalystParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return CatalystCertificate(_POINT_ZERO, order, params, True, worst)


def _band_positive_eps(
    u: np.ndarray, sigma: np.ndarray, n_half: float, cap: float, second: bool
) -> Tuple[float, float]:
    """Pick the band width eps and the quarter-band floor delta.

    sigma = G - F on the merged support u of the translated pair. With
    eps strictly inside the endpoint gaps, sigma >= 0 holds on the end
    bands automatically; delta is its minimum over the inner quarter bands,
    which is positive there. Shrinks eps (halving) in the degenerate
    rounding cases where the sampled floor is not positive.
    """
    eps = 0.995 * cap
    for _ in range(60):
        lo_band = _min_sigma_on(u, sigma, -n_half, -n_half + eps / 2.0)
        if second:
            delta = _min_sigma_on(u, sigma, -n_half + eps / 4.0, -n_half + eps / 2.0)
        else:
            delta = min(
                _min_sigma_on(u, sigma, -n_half + eps / 4.0, -n_half + eps / 2.0),
                _min_sigma_on(u, sigma, n_half - eps / 2.0, n_half - eps / 4.0),
            )
        if delta > 0 and lo_band >= 0:
            return eps, delta
        eps /= 2.0
    raise DegenerateGap("could not find a band with positive cdf gap")


def _min_sigma_on(u: np.ndarray, sigma: np.ndarray, lo: float, hi: float) -> float:
    """Minimum of the step function sigma over [lo, hi]."""
    vals = []
    i = np.searchsorted(u, lo, side="right") - 1
    if i >= 0:
        vals.append(sigma[i])
    elif lo < u[0]:
        vals.append(0.0)
    inside = sigma[(u > lo) & (u <= hi)]
    if inside.size:
        vals.append(inside.min())
    return float(min(vals)) if vals else 0.0


def _construct(dx: FiniteDist, dy: FiniteDist, order: int) -> CatalystCertificate:
    """Shared first/second order construction, following the proof recipe:
    translate, pick (eps, delta) from the end bands, set the exponent cut
    A by exp(eps*A/4) >= 8N/(eps*delta), then escalate the variance V
    (doubling, verification-driven) with truncation T = A*V + N, refining
    the catalyst grid up to 2**14 atoms at each V.
    """
    mx, my = dx.support, dy.support
    if order == 1:
        # normalize min[Y'] = -N, max[X'] = N
        n_half = (mx[-1] - my[0]) / 2.0
        b = -(mx[-1] + my[0]) / 2.0
        gap_lo = mx[0] - my[0]
        gap_hi = mx[-1] - my[-1]
        cap = min(gap_lo, gap_hi)
    else:
        # normalize min[Y'] = -N with everything inside [-N, N]
        top = max(mx[-1], my[-1])
        n_half = (top - my[0]) / 2.0
        b = -(top + my[0]) / 2.0
        gap_lo = mx[0] - my[0]
        cap = gap_lo
    if cap <= 0 or n_half <= 0:
        raise DegenerateGap(
            "endpoint gaps are not positive; the translation normalization "
            "cannot produce a positive cdf gap at both ends"
        )
    dxt = shift(dx, b)
    dyt = shift(dy, b)
    u, s = _signed_masses(dxt, dyt)
    sigma = np.cumsum(s)  # G - F on the merged support
    eps, delta = _band_positive_eps(u, sigma, n_half, cap, second=(order == 2))
    a_cut = max(1.0, (4.0 / eps) * np.log(8.0 * n_half / (eps * delta)))

    variance = max(n_half * n_half, 1e-8)
    best_gap = -np.inf
    for _ in range(_V_DOUBLINGS + 1):
        trunc = a_cut * variance + n_half
        # grid radius: cells past the double-underflow radius of the
        # Gaussian weight carry exactly zero representable mass, so the
        # discretization may stop there; the catalyst stays supported in
        # [-T, T] and the recorded truncation keeps T >= A*V + N
        radius = min(trunc, math.sqrt(1400.0 * variance) + n_half)
        for atoms in _Z_ATOMS:
            step = 2.0 * radius / atoms
            if step > radius / 4.0:
                step = radius / 4.0
            z = discretize_trunc_gaussian(variance, radius, step)
            worst, _where = _conv_gap_sweep(u, s, z, order)
            best_gap = max(best_gap, worst)
            if worst >= -_GAP_TOL:
                params = CatalystParams(
                    n_half, eps, delta, a_cut, variance, trunc, step
                )
                return CatalystCertificate(
                    z, "first" if order == 1 else "second", params, True, worst
                )
        variance *= 2.0
    raise BudgetExhausted(
        f"catalyst variance escalation exhausted (best gap {best_gap:g})",
        worst_gap=best_gap,
    )


def find_catalyst_first(
    dx: FiniteDist,
    dy: FiniteDist,
    margin: float = 1e-6,
    n_grid: int = 201,
) -> CatalystCertificate:
    """Construct an independent Z with X + Z >=_1 Y + Z.

    Requires strict CGF dominance of X over Y at `margin` on the check
    grid; raises NoKDominance (with witness) otherwise. If X already
    dominates Y the certificate is degenerate (Z = point mass at 0).
    """
    kres = k_dominates(dx, dy, n_grid=n_grid, margin=margin)
    if kres.order is not KOrder.STRICT:
        raise NoKDominance(
            f"CGF dominance is not strict at margin {margin:g} "
            f"(min gap {kres.min_gap:g})",
            witness=kres.witness,
        )
    direct = fosd(dx, dy)
    if direct.dominates:
        return _degenerate_certificate("first", direct.min_gap)
    return _construct(dx, dy, 1)


def find_catalyst_second(
    dx: FiniteDist,
    dy: FiniteDist,
    margin: float = 1e-6,
    n_grid: int = 201,
) -> CatalystCertificate:
    """Construct an independent Z with X + Z >=_2 Y + Z.

    Requires K_a(X) > K_a(Y) + margin for every grid index a <= 0
    (including -inf and 0)."""
    grid = profile_grid(n_grid)
    neg = grid[grid <= 0]
    gap = k_a_many(dx, neg) - k_a_many(dy, neg)
    bad = np.flatnonzero(gap <= margin)
    if bad.size:
        raise NoKDominanceOnNegatives(
            f"CGF dominance on nonpositive indices is not strict at margin "
            f"{margin:g}",
            witness=float(neg[int(bad[0])]),
        )
    direct = sosd(dx, dy)
    if direct.dominates:
        return _degenerate_certificate("second", direct.min_integral)
    return _construct(dx, dy, 2)


def large_numbers_n(
    dx: FiniteDist, dy: FiniteDist, n_max: int, tol: float = 0.0
) -> Optional[int]:
    """Smallest n <= n_max with X^{*n} >=_1 Y^{*n}, else None.

    Checks every n (no monotone restart assumed); running convolution
    powers are kept incrementally.
    """
    if n_max < 1 or int(n_max) != n_max:
        raise BadParams("n_max must be a positive integer")
    px, py = dx, dy
    for n in range(1, int(n_max) + 1):
        if n > 1:
            px = convolve(px, dx)
            py = convolve(py, dy)
        if fosd(px, py, tol=tol).dominates:
            return n
    return None
