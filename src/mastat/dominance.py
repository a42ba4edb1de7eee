"""Stochastic dominance tests and constructive catalytic certificates.

fosd / sosd decide first and second order dominance exactly at every
support point. find_catalyst_first / find_catalyst_second construct an
independent truncated-Gaussian Z such that X + Z dominates Y + Z, under
the hypothesis that the CGF profile of X strictly dominates that of Y
(everywhere, or on the nonpositive indices for the second order). Both
go through _construct, which checks the hypothesis at a margin >= 0 with
the one check in cgf, whose STRICT verdict then implies the positive
endpoint gaps that the construction needs. The verdict holds on the
whole index interval, not only on the profile grid, up to the rounding
of K near a = 0 (see the cgf module doc). No step has a scale of its
own: for s a power of two, (sX, sY) gets the exact image of (X, Y)'s
certificate, until V, T or the squared radius leaves the doubles (N past
about 3.5e152). Construction walks one schedule of rungs, _rungs, and
returns the first whose worst gap passes the one acceptance test, >=
-1e-12 (_GAP_TOL). The first rung is the point mass at 0, one FiniteDist
(frozen, arrays read-only) shared by its certificates, whose worst gap is
fosd's or sosd's; then come the truncated Gaussians, whose band floor
delta is read off the signed masses, not searched for (the proofs are in
_rungs). _rung_gap, which verify_certificate calls too, decides a
one-atom catalyst by fosd or sosd and any other by the sweep over every
breakpoint of the convolved cdfs, on signed masses built once per
construction. So worst_gap equals the re-verification exactly.

The sweep does not sort every breakpoint once there are more than
_ONE_ROW_MAX of them. It bins the merged support and the catalyst onto
rows of t a fraction of a catalyst cell wide, gets a certified lower
bound on the gap over every row from two convolutions of the binned
signed masses (plus two first-moment convolutions at second order), and
sorts and sums in extended precision only the rows whose bound can beat
the best value found, lowest bound first (branch and bound). The verdict
is the full sweep's; the worst gap is within _ROW_TOL = 1e-15 of it.
Both ways end in the one sweep kernel, _min_gap_rows: the one-row sweep
passes it every sorted breakpoint, and _exact_runs passes it the flagged
runs in the row format (counts, d0, i0, lo) that the two share.

large_numbers_n searches for the first n at which the n-fold i.i.d. sums
become comparable, unless the input laws' ends already rule out every n.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cgf import KOrder, _k_dominates_on
from .dist import (
    SNAP_TOL,
    FiniteDist,
    _positive_int,
    _trusted,
    cdf,
    convolve,
    discretize_trunc_gaussian,
    merged_support,
)
from .errors import BadParams, BudgetExhausted, NoKDominance, NoKDominanceOnNegatives

_GAP_TOL = 1e-12

#: the first catalyst rung; FiniteDist is frozen and its arrays read-only,
#: so every certificate that it passes shares this one
_POINT_ZERO = _trusted(np.zeros(1), np.ones(1), np.zeros(1))

#: atom-count ladder for the catalyst discretization (cap 2**14)
_Z_ATOMS = (129, 1025, 8193, 16384)

#: doublings of the catalyst variance before giving up
_V_DOUBLINGS = 40

#: breakpoint count up to which the sweep sorts every breakpoint as one row
_ONE_ROW_MAX = 1 << 14

#: rows are at most 1/_ROW_FRACTION of a catalyst cell wide
_ROW_FRACTION = 8

#: the bounded sweep stops once no row's bound is this far below the best
_ROW_TOL = 1e-15

#: flagged rows at most this many rows apart are evaluated as one run
_ROW_GAP = 3

#: the bound's convolutions may cost this many multiply-adds per breakpoint
_CONV_PER_BREAKPOINT = 0.5

#: catalyst tail mass (times the t-span, at order 2) left out of the bound
_TAIL_MASS = 1e-20

#: table entries ((laws + rows) * |U|) one _strict_fosd_rows chunk may hold
_ROWS_CELLS = 1 << 14

_EPS = np.finfo(np.float64).eps
_EPS_LD = float(np.finfo(np.longdouble).eps)


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
    point of either support; strict needs a gap beyond tol somewhere.

    The gap is evaluated both as F2 - F1 (exact in the lower tail) and as
    S1 - S2 of the survival functions (exact in the upper tail), equal in
    exact arithmetic; the step tables share their index (see cdf_steps), so
    no merged support is sorted. For tol >= 0 d1's atoms decide dominance:
    at an atom of d2 alone F2 rises and S2 falls, so both gap forms are at
    least their values at the point before it, or at least 0 below min d1,
    while the gap at max d1 is at most 0. So the least failing point and
    the minimum gap lie at d1's atoms (searching d2). With the roles
    swapped, the larger form falls at an atom of d1 alone and is at most 0
    below min d2, so strict needs only d2's atoms (searching d1), and only
    when d1 passes.
    """
    if not tol >= 0.0:  # a NaN tol would pass every pair
        raise BadParams("tol must be a nonnegative number")
    c1, s1, c2, s2 = d1.cdf_steps, d1.survival_steps, d2.cdf_steps, d2.survival_steps
    k2 = d2.support.searchsorted(d1.support, side="right")
    gap = np.minimum(c2[k2] - c1[1:], s1[1:] - s2[k2])  # >= -tol required
    bad = (gap < -tol).nonzero()[0]
    if bad.size:
        return FosdResult(False, False, float(d1.support[bad[0]]), float(gap.min()))
    k1 = d1.support.searchsorted(d2.support, side="right")
    strict = bool((np.maximum(c2[1:] - c1[k1], s1[k1] - s2[1:]) > tol).any())
    return FosdResult(True, strict, None, float(gap.min()))


def _strict_fosd_rows(laws, first, second, tol: float) -> np.ndarray:
    """Row q is True iff laws[first[q]] strictly first-order dominates
    laws[second[q]], for tol >= 0: fosd(...).dominates and .strict. first
    and second are integer arrays of one length, at least 1.

    Each row is decided on U, the union of the supports of the laws that
    its chunk of rows uses, from the same cdf_steps and survival_steps
    entries as fosd: d1 dominates d2 when every F2 - F1 and S1 - S2 on U
    is >= -tol, strictly when one of them is > tol. That is fosd's verdict
    by the lemma in fosd's docstring, which holds on any superset of both
    supports: at a point of U in neither support no step table moves. It
    holds in floating point too, as the step tables are monotone and so is
    subtracting a fixed value.

    The tables hold (laws used + rows) * |U| entries for each form. Past
    _ROWS_CELLS the rows are decided in chunks of at most
    _ROWS_CELLS / (3 |U|) rows, each on its own union, which is no larger,
    and each row uses at most two laws; so only a single row, whose two
    laws alone make its U, can pass the cap.
    """
    used = np.zeros(len(laws), dtype=bool)
    used[first] = used[second] = True
    sub = [laws[i] for i in np.flatnonzero(used).tolist()]
    support = np.concatenate([d.support for d in sub])
    u = np.unique(support)
    if first.size > 1 and (len(sub) + first.size) * u.size > _ROWS_CELLS:
        step = max(1, _ROWS_CELLS // (3 * u.size))
        return np.concatenate([
            _strict_fosd_rows(laws, first[s:s + step], second[s:s + step], tol)
            for s in range(0, first.size, step)
        ])
    # k[j, l]: the atoms of sub[l] at or below u[j], offset to index the
    # concatenated step tables, whose entry 0 of each law is below its support
    sizes = np.array([d.n_atoms for d in sub])
    k = np.zeros((u.size, len(sub)), dtype=np.intp)
    k[np.searchsorted(u, support), np.repeat(np.arange(len(sub)), sizes)] = 1
    np.cumsum(k, axis=0, out=k)
    k += np.cumsum(sizes + 1) - sizes - 1
    # column l: sub[l]'s cdf on U, then minus its survival function on U, so
    # that one difference of columns gives F2 - F1 and S1 - S2, the same
    # bytes; a row per point of U keeps the reductions below along rows
    steps = np.concatenate([d.cdf_steps for d in sub] + [d.survival_steps for d in sub])
    half = steps.size // 2
    np.negative(steps[half:], out=steps[half:])
    table = steps[np.concatenate((k, k + half))]
    column = np.cumsum(used) - 1  # laws[i] is sub[column[i]]
    gap = np.take(table, column[second], axis=1)
    gap -= np.take(table, column[first], axis=1)
    return (gap.min(axis=0) >= -tol) & (gap.max(axis=0) > tol)


def sosd(d1: FiniteDist, d2: FiniteDist, tol: float = 0.0) -> SosdResult:
    """Does d1 second-order dominate d2? Exact piecewise-linear integration
    of the cdf gap, checked at every breakpoint."""
    if not tol >= 0.0:  # a NaN tol would pass every pair
        raise BadParams("tol must be a nonnegative number")
    pts = merged_support(d1, d2)
    gap = cdf(d2, pts) - cdf(d1, pts)
    integ = np.zeros(pts.size, dtype=np.float64)
    integ[1:] = (gap[:-1].astype(np.longdouble) * (pts[1:] - pts[:-1])).cumsum()
    bad = (integ < -tol).nonzero()[0]
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


#: the point mass's params, shared by its certificates as _POINT_ZERO is
_ZERO_PARAMS = CatalystParams(*[0.0] * 7)


def _signed_masses(dx: FiniteDist, dy: FiniteDist) -> Tuple[np.ndarray, np.ndarray]:
    """Merged support u and signed masses law(Y) - law(X) on it."""
    u = merged_support(dx, dy)
    s = np.zeros(u.size, dtype=np.float64)
    # a support is strictly increasing, so no index repeats
    s[np.searchsorted(u, dy.support)] = dy.probs
    s[np.searchsorted(u, dx.support)] -= dx.probs
    return u, s


def _conv_gap_sweep(
    u: np.ndarray, s: np.ndarray, z: FiniteDist, order: int
) -> Tuple[float, float]:
    """Worst value over all breakpoints of D (order 1) or of its integral
    (order 2), where D(t) = F_{Y+Z}(t) - F_{X+Z}(t), and where it occurs.

    D jumps by s_i * pz_k at t = fl(u_i + z_k); no convolved distribution
    is materialized. Up to _ONE_ROW_MAX breakpoints (and whenever rows
    would not pay, see _row_width) every breakpoint is sorted and summed
    as one row. Beyond it, _row_sweep bounds the value on rows of t and
    sweeps only the rows whose bound can beat the best value found. Either
    way the verdict is the full sorted sweep's, and the value is within
    _ROW_TOL of it.
    """
    zs, zp = z.support, z.probs
    if u.size * zs.size > _ONE_ROW_MAX and zs.size > 1:
        cz = np.zeros(zs.size + 1, dtype=np.longdouble)  # mass of z_0 .. z_{k-1}
        np.cumsum(zp, out=cz[1:])
        # the bound leaves out catalyst tails holding at most _TAIL_MASS
        span_t = (u[-1] - u[0]) + (zs[-1] - zs[0]) + 1.0
        tail = _TAIL_MASS / (span_t if order == 2 else 1.0)
        k0 = int(np.searchsorted(cz, tail / 2.0, side="right")) - 1
        k1 = max(int(np.searchsorted(cz, cz[-1] - tail / 2.0)), k0 + 1)
        w = _row_width(u, zs, zs[k1 - 1] - zs[k0])
        if w is not None:
            bound = _row_bounds(u, s, zs, zp, cz, k0, k1, span_t, w, order)
            return _row_sweep(u, s, zs, zp, cz, w, bound, order)
    t = (u[:, None] + zs).ravel()
    idx = np.argsort(t, kind="stable")
    t = t[idx]
    j = (s[:, None] * zp).ravel()[idx]
    del idx  # freed before the kernel allocates its extended-precision sums
    return _min_gap_rows(t, j, order)


def _row_sweep(u, s, zs, zp, cz, w, bound, order):
    """Branch and bound over the rows [m w, (m + 1) w) of t.

    The best value starts from values known without a sweep: D after the
    last breakpoint and, when no other breakpoint ties with it, after the
    first (order 1), or the integral's 0 at the first breakpoint (order
    2). Runs of rows whose bound lies _ROW_TOL or more below it are
    swept exactly, the run with the lowest bound first, in batches of
    growing size; the walk stops when no remaining bound is that low.
    """
    first, lb = bound
    czz = np.zeros(zs.size + 1, dtype=np.longdouble)  # first moment of z_0 .. z_{k-1}
    if order == 2:
        np.cumsum(zp * zs.astype(np.longdouble), out=czz[1:])
        best = (0.0, float(u[0] + zs[0]))
    else:
        best = (float(np.sum(s, dtype=np.longdouble) * cz[-1]), float(u[-1] + zs[-1]))
        t0 = u[0] + zs[0]
        if u.size > 1 and u[1] + zs[0] > t0 and u[0] + zs[1] > t0:
            best = min(best, (float(s[0] * zp[0]), float(t0)))
    rows = np.flatnonzero(lb < best[0] - _ROW_TOL)
    if not rows.size:
        return best
    # runs of flagged rows, bridging gaps of up to _ROW_GAP rows
    head = np.flatnonzero(np.diff(rows, prepend=rows[0] - _ROW_GAP - 1) > _ROW_GAP)
    run_lo = first + rows[head]
    run_hi = first + np.append(rows[head[1:] - 1], rows[-1]) + 1
    run_lb = np.minimum.reduceat(lb[rows], head)
    todo = np.argsort(run_lb, kind="stable")
    pos, batch = 0, 1
    while pos < todo.size:
        runs = todo[pos : pos + batch]
        runs = np.sort(runs[run_lb[runs] < best[0] - _ROW_TOL])
        if not runs.size:
            break  # the bounds ascend, so no later run can do better
        got = _exact_runs(u, s, zs, zp, cz, czz, run_lo[runs], run_hi[runs], w, order)
        if got[0] < best[0]:
            best = got
        pos += batch
        batch *= 4
    return best


def _row_width(u: np.ndarray, zs: np.ndarray, span_core: float) -> Optional[float]:
    """Row width for the bounded sweep, or None for one sorted row.

    The width is the largest power of two at most 1/_ROW_FRACTION of the
    mean catalyst cell, doubled while the bound's convolutions would cost
    more than _CONV_PER_BREAKPOINT per breakpoint, and at most one cell. A
    power of two keeps every row edge m * w exact, so floor(x / w) bins
    exactly.
    """
    span_u = u[-1] - u[0]
    cell = (zs[-1] - zs[0]) / (zs.size - 1)
    w = 2.0 ** math.floor(math.log2(cell / _ROW_FRACTION))
    while (span_u / w + 1.0) * (span_core / w + 1.0) > _CONV_PER_BREAKPOINT * u.size * zs.size:
        w *= 2.0
    top = max(abs(u[0]) + abs(zs[0]), abs(u[-1]) + abs(zs[-1]))
    if w > cell or top / w > 2.0**50:
        return None
    return w


def _row_bounds(u, s, zs, zp, cz, k0, k1, span_t, w, order):
    """(number of row 0, lower bound of the sweep's value on every row).

    u_i lies in bin floor(u_i / w) and z_k in bin floor(z_k / w), so a
    breakpoint whose bins sum to c lies in [c w, (c + 2) w]: rounding
    u_i + z_k cannot leave that interval, whose ends are doubles. Two
    convolutions of the binned positive and negative signed masses with
    the binned catalyst give the masses P_c, N_c of every bin sum. On row
    m, D is at least P summed over c <= m - 2 minus N summed over c <= m,
    and, counting from the right end, at least the total minus P summed
    over c >= m - 1 plus N summed over c >= m + 1. For the integral, the
    first moments of every bin sum (two more convolutions) give its exact
    value at m w over the bin sums c <= m - 2; the negative mass of bin
    sum m - 1 takes at most w times itself off, and the rest of the row at
    least w * min(0, bound on D). Every bound is lowered by the rounding
    error the convolutions can make. Catalyst atoms in the tails, holding
    at most _TAIL_MASS together, are left out of the convolutions and
    their largest possible effect is taken off instead.
    """
    bu, bz = np.floor(u / w), np.floor(zs / w)
    iu, iz = (bu - bu[0]).astype(np.intp), (bz - bz[0]).astype(np.intp)
    n_u = int(iu[-1]) + 1
    sp, sn = np.maximum(s, 0.0), np.maximum(-s, 0.0)
    slack = float(cz[k0] + (cz[-1] - cz[k1])) * float(sn.sum())
    if order == 2:
        slack *= span_t + w
    z0 = int(iz[k0])
    pz = np.bincount(iz[k0:k1] - z0, zp[k0:k1])
    size = n_u + int(iz[-1]) + 2  # rows 0 .. size - 1 cover every bin sum

    def conv(a, b):  # bin-sum masses, placed at the core's offset
        out = np.zeros(size)
        c = np.convolve(a, b)
        out[z0 : z0 + c.size] = c
        return out

    p = conv(np.bincount(iu, sp, n_u), pz)
    q = conv(np.bincount(iu, sn, n_u), pz)
    # a dot product of k nonnegative terms is within k eps of exact
    rho = 2.0 * (min(n_u, pz.size) + 2 * max(iu.size, k1 - k0) + 8) * _EPS
    cum_p = np.zeros(size, dtype=np.longdouble)  # P summed over c <= m - 2
    np.cumsum(p[:-2], out=cum_p[2:])
    cum_n = np.cumsum(q, dtype=np.longdouble)  # N summed over c <= m
    suf_p = (cum_p[-1] + p[-2] + p[-1]) - cum_p  # P over c >= m - 1
    suf_n = cum_n[-1] - cum_n  # N over c >= m + 1
    total = np.sum(s, dtype=np.longdouble) * (cz[k1] - cz[k0])
    total -= 64.0 * _EPS_LD * np.sum(np.abs(s))
    lb = np.maximum(
        cum_p * (1.0 - rho) - cum_n * (1.0 + rho),
        total - suf_p * (1.0 + rho) + suf_n * (1.0 - rho),
    )
    if order == 2:
        j1 = conv(np.bincount(iu, s * (u - bu * w), n_u), pz)
        j1 += conv(np.bincount(iu, s, n_u),
                   np.bincount(iz[k0:k1] - z0, zp[k0:k1] * (zs[k0:k1] - bz[k0:k1] * w)))
        cum_j = np.zeros(size, dtype=np.longdouble)  # over c <= m - 2
        np.cumsum((p - q)[:-2], out=cum_j[2:])
        cum_a = np.zeros(size, dtype=np.longdouble)
        np.cumsum((p + q)[:-2], out=cum_a[2:])
        cum_j1 = np.zeros(size, dtype=np.longdouble)
        np.cumsum(j1[:-2], out=cum_j1[2:])
        # the integral at m w over the bin sums c <= m - 2, and its error bound
        g = w * (np.cumsum(cum_j) + cum_j) - cum_j1
        err = rho * w * (np.cumsum(cum_a) + 3.0 * cum_a)
        err += _EPS * (abs(u[0]) + abs(u[-1]) + abs(zs[0]) + abs(zs[-1])) * cum_a
        q_prev = np.zeros(size)  # N of bin sum m - 1
        q_prev[1:] = q[:-1]
        lb = g - err - w * (1.0 + rho) * q_prev + w * np.minimum(lb, 0.0)
    return int(bu[0] + bz[0]), (lb - slack).astype(np.float64)


def _count_below(u: np.ndarray, zs: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """k[r, i] = #{k : fl(u_i + z_k) < edge[r]} for each edge and each u_i."""
    e = edge[:, None]
    k = np.searchsorted(zs, (e - u).ravel()).reshape(e.size, u.size)
    last = zs.size - 1
    while True:  # the search ran on e - u_i; settle the rounded sums
        down = (k > 0) & (u + zs[np.maximum(k - 1, 0)] >= e)
        up = (k <= last) & (u + zs[np.minimum(k, last)] < e)
        if not (down.any() or up.any()):
            return k
        k += up
        k -= down


def _exact_runs(u, s, zs, zp, cz, czz, row_lo, row_hi, w, order):
    """(worst value, where) over the breakpoints in the rows row_lo[r] ..
    row_hi[r] - 1 (ascending, disjoint runs), each run swept exactly: its
    breakpoints sorted, and their jumps summed in extended precision onto
    D and the integral just before the run."""
    lo = row_lo * w
    k_lo = _count_below(u, zs, lo)
    k_hi = _count_below(u, zs, row_hi * w)
    counts = (k_hi - k_lo).ravel()
    n = int(counts.sum())
    if not n:
        return np.inf, np.nan
    ends = np.cumsum(counts)
    k = np.repeat(k_lo.ravel() - ends + counts, counts) + np.arange(n)
    i = np.repeat(np.tile(np.arange(u.size), lo.size), counts)
    t = u[i] + zs[k]
    idx = np.argsort(t, kind="stable")
    t = t[idx]
    j = (s[i] * zp[k])[idx]
    del idx, i, k
    per_run = (k_hi - k_lo).sum(axis=1)
    keep = per_run > 0
    k_lo, lo = k_lo[keep], lo[keep]
    d0 = (s * cz[k_lo]).sum(axis=1)
    i0 = 0.0
    if order == 2:
        i0 = (s * ((lo[:, None] - u.astype(np.longdouble)) * cz[k_lo] - czz[k_lo])).sum(axis=1)
    return _min_gap_rows(t, j, order, (per_run[keep], d0, i0, lo))


def _min_gap_rows(t, jumps, order, rows=None):
    """(worst value, where) over sorted breakpoints t and their jumps.

    The value at a breakpoint is D (order 1) or its integral (order 2)
    after every jump at that breakpoint, summed in extended precision
    (np.longdouble), so the worst value is trustworthy at the 1e-12
    level. rows=None is the plain sorted sweep: one row that starts from
    D = 0 and an integral of 0 at t[0]. rows=(counts, d0, i0, lo), as
    _exact_runs builds it, splits the breakpoints into disjoint t-rows:
    row r holds counts[r] > 0 consecutive entries, all in [lo[r], the next
    row's lo), and starts from D = d0[r] and the integral i0[r] at lo[r].
    """
    d = jumps.astype(np.longdouble)
    np.cumsum(d, out=d)
    if rows is not None:
        counts, d0, i0, lo = rows
        starts = np.cumsum(counts) - counts
        # per row: D before it, less the running sum carried into it
        shift = d0 - np.concatenate(([0.0], d[starts[1:] - 1]))
    new = t[1:] != t[:-1]
    if not new.all():  # only the last entry of a run of equal breakpoints counts
        run_end = np.append(new, True)
        if rows is not None:
            starts = np.concatenate(([0], np.cumsum(run_end)))[starts]
        d, t = d[run_end], t[run_end]
    if rows is not None:
        counts = np.diff(np.append(starts, d.size))
        d += np.repeat(shift, counts)
    if order == 1:
        k = int(np.argmin(d))
        return float(d[k]), float(t[k])
    area = np.subtract(t[1:], t[:-1], dtype=np.longdouble)
    area *= d[:-1]
    integ = np.zeros(t.size, dtype=np.longdouble)
    np.cumsum(area, out=integ[1:])
    if rows is not None:  # every row restarts from its integral at lo
        base = i0 + np.subtract(t[starts], lo, dtype=np.longdouble) * d0
        integ += np.repeat(base - integ[starts], counts)
    k = int(np.argmin(integ))
    return float(integ[k]), float(t[k])


def fosd_with_catalyst(dx: FiniteDist, dy: FiniteDist, z: FiniteDist) -> Tuple[float, float]:
    """(worst gap, where) for first-order dominance of X+Z over Y+Z."""
    return _conv_gap_sweep(*_signed_masses(dx, dy), z, 1)


def sosd_with_catalyst(dx: FiniteDist, dy: FiniteDist, z: FiniteDist) -> Tuple[float, float]:
    """(worst integrated gap, where) for second-order dominance of X+Z over Y+Z."""
    return _conv_gap_sweep(*_signed_masses(dx, dy), z, 2)


def verify_certificate(cert: CatalystCertificate, dx: FiniteDist, dy: FiniteDist) -> float:
    """Re-run the check behind a certificate; returns the worst gap."""
    return _rung_gap(dx, dy, cert.catalyst, 1 if cert.order == "first" else 2)


def _rung_gap(dx, dy, z, order, signed=None) -> float:
    """Worst gap of X + Z over Y + Z: fosd's or sosd's for a one-atom Z (a
    copy of _POINT_ZERO; a Gaussian keeps its centre cells), else the sweep
    on signed, _signed_masses(dx, dy), which is built here if not given."""
    if z.n_atoms == 1:
        return fosd(dx, dy).min_gap if order == 1 else sosd(dx, dy).min_integral
    u, s = signed or _signed_masses(dx, dy)
    return _conv_gap_sweep(u, s, z, order)[0]


def _rungs(dx: FiniteDist, dy: FiniteDist, order: int):
    """The catalyst schedule: (Z, params, signed masses or None) per rung.

    The point mass at 0 comes first. Then eps = 0.995 * cap inside the
    endpoint gaps, the quarter-band floor delta, A = (4/eps)
    log(8N/(eps*delta)) > 0 (eps < cap <= 2N), and V doubling from N^2 with
    T = A*V + N, the grid running through _Z_ATOMS at each V, until V, T
    or the squared grid radius leaves the doubles.

    The endpoint gaps need no check: the profile grid holds -inf (and +inf
    at order 1), where K is the moments' ends, so the gaps sampled there
    are mx[0] - my[0] and mx[-1] - my[-1], the subtractions that make cap,
    and STRICT puts them above margin >= 0. Then N >= cap / 2 > 0, unless
    X is the point mass at the double after min Y, which dominates Y.

    delta needs no search. As eps < cap, only Y has atoms in [min Y,
    min Y + eps/2], and (order 1) only X in [max X - eps/2, max X], so
    G - F is nondecreasing on the lower band and nonincreasing on the
    upper one, in floating point too: each step of a running sum adds a
    term of one sign. Its minimum on [min Y + eps/4, min Y + eps/2] is Y's
    mass up to min Y + eps/4, a left sum; on [max X - eps/2, max X - eps/4]
    it is X's mass beyond max X - eps/4, a right sum, exact in that tail
    as fosd's survival gap is. Both are positive; a smaller eps only
    lowers them.
    """
    yield _POINT_ZERO, _ZERO_PARAMS, None
    mx, my = dx.support, dy.support
    # N is half the span from min Y to max X, or to both laws' top at order 2
    top = mx[-1] if order == 1 else max(mx[-1], my[-1])
    n_half = (float(top) - float(my[0])) / 2.0
    cap = mx[0] - my[0] if order == 2 else min(mx[0] - my[0], mx[-1] - my[-1])
    eps = 0.995 * cap
    u, s = _signed_masses(dx, dy)
    # the quarter-band floor: Y's mass up to min Y + eps/4, summed from the
    # left, and at order 1 X's mass beyond max X - eps/4, summed from the right
    lo_band = np.searchsorted(u, my[0] + eps / 4.0, side="right")
    delta = float(np.cumsum(s[:lo_band])[-1])
    if order == 1:
        hi_band = np.searchsorted(u, mx[-1] - eps / 4.0, side="right")
        delta = min(delta, float(-s[hi_band:].sum()))
    with np.errstate(over="ignore", divide="ignore"):
        log_ratio = np.log(8.0 * n_half / (eps * delta))
    if not np.isfinite(log_ratio):  # 8N/(eps*delta) overflows for a tiny delta
        log_ratio = np.log(8.0 * n_half / eps) - np.log(delta)
    a_cut = 4.0 / float(eps) * float(log_ratio)
    for doublings, atoms in itertools.product(range(_V_DOUBLINGS + 1), _Z_ATOMS):
        variance = n_half * n_half * 2.0**doublings  # exact, as each doubling was
        trunc = a_cut * variance + n_half
        # grid radius: cells past the double-underflow radius of the
        # Gaussian weight carry exactly zero representable mass, so the
        # discretization may stop there; the catalyst stays supported in
        # [-T, T] and the recorded truncation keeps T >= A*V + N
        radius = min(trunc, math.sqrt(1400.0 * variance) + n_half)
        if not (math.isfinite(trunc) and math.isfinite(radius * radius)):
            return  # as floats, not numpy scalars, they overflow with no warning
        step = 2.0 * radius / atoms
        params = CatalystParams(n_half, eps, delta, a_cut, variance, trunc, step)
        yield discretize_trunc_gaussian(variance, radius, step), params, (u, s)


def _construct(dx: FiniteDist, dy: FiniteDist, order: int, margin: float) -> CatalystCertificate:
    """Shared first/second order construction, following the proof recipe:
    check strict CGF dominance at margin >= 0 (on [-inf, 0] at order 2),
    then return the first rung of _rungs, the point mass at 0 first, whose
    worst gap (_rung_gap) is >= -_GAP_TOL."""
    if margin < 0:  # a NaN margin goes on to the K-check, which refuses it
        raise BadParams("margin must not be negative")
    kres = _k_dominates_on(dx, dy, margin, nonpositive=order == 2)
    if kres.order is not KOrder.STRICT:
        error = NoKDominance if order == 1 else NoKDominanceOnNegatives
        where = "" if order == 1 else " on nonpositive indices"
        raise error(
            f"CGF dominance{where} is not strict at margin {margin:g} "
            f"(min gap {kres.min_gap:g})",
            witness=kres.witness,
        )
    best = -math.inf
    for rung, (z, params, signed) in enumerate(_rungs(dx, dy, order)):
        worst = _rung_gap(dx, dy, z, order, signed)
        if worst >= -_GAP_TOL:
            return CatalystCertificate(z, "first" if order == 1 else "second", params, True, worst)
        best = max(best, worst)
    msg = f"catalyst rungs exhausted (the point mass and {rung} Gaussians; best gap {best:g})"
    raise BudgetExhausted(msg, worst_gap=best)


def find_catalyst_first(
    dx: FiniteDist, dy: FiniteDist, margin: float = 1e-6
) -> CatalystCertificate:
    """Construct an independent Z with X + Z >=_1 Y + Z.

    Requires K_a(X) > K_a(Y) + margin for every a, certified by
    cgf.k_dominates; raises NoKDominance (with witness) otherwise, and
    BadParams for a negative or NaN margin. If X already dominates Y the
    certificate is degenerate (Z = point mass at 0).
    """
    return _construct(dx, dy, 1, margin)


def find_catalyst_second(
    dx: FiniteDist, dy: FiniteDist, margin: float = 1e-6
) -> CatalystCertificate:
    """Construct an independent Z with X + Z >=_2 Y + Z.

    Requires K_a(X) > K_a(Y) + margin for every a in [-inf, 0], certified
    as in find_catalyst_first; raises NoKDominanceOnNegatives otherwise.
    If X already dominates Y the certificate is degenerate.
    """
    return _construct(dx, dy, 2, margin)


def large_numbers_n(dx: FiniteDist, dy: FiniteDist, n_max: int) -> Optional[int]:
    """Smallest n <= n_max with X^{*n} >=_1 Y^{*n}, else None.

    Checks every n on running convolution powers. fosd runs only where
    X^{*n}'s ends are at or above Y^{*n}'s (else it fails at tol 0: at a lower
    minimum F_X jumps first, past a lower maximum Y keeps mass). No CGF
    shortcut: criterion 03 tests the obstruction against this search. But
    first the ends are read: with x_1 < x_2 X's least atoms, y_1 Y's, p_1 =
    P(X = x_1) and err = n_max * ulp(n_max * max(1, |x_1|, |y_1|)) (n_max
    roundings), if y_1 - x_1 > 2 err, x_2 - x_1 > SNAP_TOL + 2 err (or X is
    one atom) and n_max * log p_1 > log 1e-300, X^{*n}'s least atom stays
    below Y^{*n}'s for n <= n_max, and None is returned; likewise at the top,
    with Y's greatest atom alone. By induction on n, fl being monotone:
    X^{*n}'s least pair sum a_n = fl(a_(n-1) + x_1), of mass p_1**n > 0, is a
    cluster, the next sums staying x_2 - x_1 - 2 err above it; no pair sum of
    Y is below c_n = fl(c_(n-1) + y_1), representatives stay in their
    clusters, and zero-mass drops only raise Y's minimum; |a_n - n x_1|,
    |c_n - n y_1| < err. A certified pair never raises SupportBlowup.
    """
    n_max = _positive_int(n_max, "n_max")
    x, y = dx.support, dy.support
    with np.errstate(over="ignore"):  # a magnitude past the largest double: err = inf
        for lo, hi, alone, log_mass in (
            (x[0], y[0], x[1] - x[0] if x.size > 1 else math.inf, dx.log_probs[0]),
            (x[-1], y[-1], y[-1] - y[-2] if y.size > 1 else math.inf, dy.log_probs[-1]),
        ):
            err = n_max * math.ulp(n_max * max(1.0, abs(lo), abs(hi)))
            if min(hi - lo, alone - SNAP_TOL) > 2 * err and n_max * log_mass > math.log(1e-300):
                return None
    px, py = dx, dy
    for n in range(1, n_max + 1):
        if n > 1:
            px = convolve(px, dx)
            py = convolve(py, dy)
        ends = px.support[0] >= py.support[0] and px.support[-1] >= py.support[-1]
        if ends and fosd(px, py).dominates:
            return n
    return None
