"""Hot numeric kernels: snap-merge of sorted weighted supports and the
breakpoint sweeps used to verify dominance after adding a common catalyst.

Every kernel is plain numpy; there is one implementation of each. The
sweeps accumulate the jumps in extended precision (np.longdouble), so the
worst gap they report is trustworthy at the 1e-12 level.
"""

import numpy as np


def merge_sorted(values, weights, tol):
    """Snap-merge a sorted support: returns (representatives, masses).

    Consecutive entries whose gap is <= tol form one cluster; masses are
    summed and the representative is the mass-weighted mean (the exact
    common value when the cluster is constant, so lattice supports stay
    exact).
    """
    n = values.shape[0]
    if n == 0:
        return values, weights
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    np.greater(values[1:] - values[:-1], tol, out=brk[1:])
    starts = brk.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = n - 1
    w = np.add.reduceat(weights, starts)
    wv = np.add.reduceat(weights * values, starts)
    first = values[starts]
    pos = w > 0.0
    # the divisor is never zero, so no floating-point flags to silence
    rep = np.where(pos & (first != values[ends]), wv / np.where(pos, w, 1.0), first)
    return rep, w


def _cdf_at_run_ends(t_sorted, jumps_sorted):
    """D(t) = sum of jumps at breakpoints <= t, at each distinct breakpoint.

    Returns (D, t) at the last entry of every run of equal breakpoints; when
    all breakpoints are distinct that is every entry, and nothing is copied.
    """
    cum = np.cumsum(jumps_sorted, dtype=np.longdouble)
    new = t_sorted[1:] != t_sorted[:-1]
    if new.all():
        return cum, t_sorted
    run_end = np.append(new, True)
    return cum[run_end], t_sorted[run_end]


def min_cdf_gap(t_sorted, jumps_sorted):
    """(min of D over the breakpoints, where), for breakpoints sorted
    ascending with their jumps in the same order."""
    d, t = _cdf_at_run_ends(t_sorted, jumps_sorted)
    k = int(np.argmin(d))
    return float(d[k]), float(t[k])


def min_integrated_gap(t_sorted, jumps_sorted):
    """(min of the integral of D over the breakpoints, where).

    The integral is exact piecewise-linear integration of the step function
    D from the first breakpoint, where it is 0.
    """
    d, t = _cdf_at_run_ends(t_sorted, jumps_sorted)
    area = np.subtract(t[1:], t[:-1], dtype=np.longdouble)
    area *= d[:-1]
    np.cumsum(area, out=area)
    if area.size:
        k = int(np.argmin(area))
        if area[k] < 0.0:
            return float(area[k]), float(t[k + 1])
    return 0.0, float(t[0])


def active_path():
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
