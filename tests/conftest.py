import math

import numpy as np
import pytest

from mastat import cgf, dist, mas
from mastat.errors import MassNotOne


def random_dist(rng, n_min=2, n_max=6, lo=-2.0, hi=2.0):
    """A law of n_min .. n_max - 1 atoms uniform on [lo, hi], with
    Dirichlet(1) masses. At the defaults these are the laws that the CLI
    selftest's additivity check draws inline, with the same rng calls."""
    n = int(rng.integers(n_min, n_max))
    support = np.sort(rng.uniform(lo, hi, n))
    support += np.arange(n) * 1e-6  # keep atoms apart
    probs = rng.dirichlet(np.ones(n))
    return dist.make(support, probs)


def random_measure(rng, n_min=1, n_max=4, lo=-3.0, hi=3.0, allow_inf=False):
    """A mixing measure of n_min .. n_max - 1 atoms uniform on [lo, hi]; with
    allow_inf, the first atom moves to -inf or +inf three times in ten. At
    the defaults these are the selftest's measures."""
    n = int(rng.integers(n_min, n_max))
    locs = rng.uniform(lo, hi, n)
    if allow_inf and rng.random() < 0.3:
        locs[0] = -np.inf if rng.random() < 0.5 else np.inf
    wts = rng.dirichlet(np.ones(n))
    return mas.make_measure(locs, wts)


def strict_pair_stream(rng):
    """Seeded pairs with strictly dominating CGF profiles at margin 1e-3."""
    style = 0
    while True:
        style += 1
        if style % 2:
            p = float(rng.uniform(0.25, 0.45))
            x = dist.make([0.0, 1.0], [1.0 - p, p])
            lo = -float(rng.uniform(0.4, 0.7))
            hi = float(rng.uniform(0.2, 0.4))
            cells = int(rng.integers(12, 40))
            y = dist.discretize_uniform(lo, hi, (hi - lo) / cells)
        else:
            x = random_dist(rng, 2, 5, lo=0.0, hi=1.0)
            delta = float(rng.uniform(0.05, 0.25))
            eps = delta * float(rng.uniform(0.2, 0.8))
            noise = dist.make([-eps, eps], [0.5, 0.5])
            y = dist.convolve(dist.shift(x, -delta), noise)
        if cgf.k_dominates(x, y, margin=1e-3).order is cgf.KOrder.STRICT:
            yield x, y


def grid_miss_pair():
    """X, Y whose K gap clears 1e-6 at every point of the 201-point profile
    grid, but is negative on a in [21.9, 30.2], between the grid points
    21.42 and 32.14 (K_25(X) - K_25(Y) = -1.44e-3)."""
    return dist.make([0.8, 1.0], [0.96, 0.04]), dist.make([-0.4, 0.975], [0.91, 0.09])


def seeded_law(rng, n, kind, scale=1.0):
    """A law of n atoms on a lattice of step `scale` (kind "lattice") or
    uniform on [-scale, scale] (kind "random")."""
    if kind == "lattice":
        support = rng.choice(np.arange(-20, 21), n, replace=False) * scale
    else:
        support = rng.uniform(-1.0, 1.0, n) * scale
    return dist.make(support, rng.dirichlet(np.ones(n)))


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the kernels once so timed tests do not pay first-call costs."""
    d = dist.make([0.0, 1.0], [0.5, 0.5])
    from mastat import dominance

    z = dist.make([-0.5, 0.5], [0.5, 0.5])
    dominance.fosd_with_catalyst(d, dist.shift(d, -0.1), z)
    dominance.sosd_with_catalyst(d, dist.shift(d, -0.1), z)
    dist.convolve(d, d)


# Oracles for byte-identity tests: convolve, fosd and decay_two_point as
# first written; iid_power with the squaring it had before it laid out only
# the pairs i <= j, and with a checked law built at every squaring.


def convolve_d1_major(d1, d2):
    """convolve with its pair sums laid out one row per d1 atom."""
    vals = (d1.support[:, None] + d2.support[None, :]).ravel()
    wts = (d1.probs[:, None] * d2.probs[None, :]).ravel()
    support, probs = dist._canonical(vals, wts)
    return dist.FiniteDist(support, probs, np.log(probs))


def iid_power_full_square(d, n):
    """iid_power whose every squaring is convolve(base, base), all m * m
    pairs laid out, under the current dist.SUPPORT_CAP."""
    acc, base = None, d
    while True:
        if n & 1:
            acc = base if acc is None else dist.convolve(acc, base)
        n >>= 1
        if n == 0:
            return acc
        base = dist.convolve(base, base)


def iid_power_law_per_square(d, n):
    """iid_power as it was before its squarings took bare arrays: the
    triangle of pairs i <= j, and a law built by FiniteDist(...), with its
    checks, at every squaring. No cap."""
    acc, base = None, d
    while True:
        if n & 1:
            acc = base if acc is None else dist.convolve(acc, base)
        n >>= 1
        if n == 0:
            return acc
        m = base.n_atoms
        lens = np.arange(m, 0, -1)
        starts = np.cumsum(lens) - lens
        j = np.arange(starts[-1] + 1) - np.repeat(starts - np.arange(m), lens)
        vals, wts = np.repeat(base.support, lens), np.repeat(base.probs, lens)
        vals += base.support[j]
        wts *= base.probs[j]
        wts *= 2.0
        wts[starts] = base.probs * base.probs
        support, probs = dist._canonical(vals, wts)
        base = dist.FiniteDist(support, probs, np.log(probs))


def sort_merge_log_space(support, log_probs):
    """The log-space canonicalisation decay_two_point once went through:
    sort, merge snap-clusters with logaddexp so that sub-underflow masses
    survive, drop -inf masses and renormalise by the log-sum-exp."""
    support = np.asarray(support, dtype=np.float64).ravel()
    order = np.argsort(support, kind="stable")
    support = support[order]
    log_probs = np.asarray(log_probs, dtype=np.float64).ravel()[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(support) > dist.SNAP_TOL)))
    merged_lp = np.logaddexp.reduceat(log_probs, starts)
    ends = np.append(starts[1:], support.size) - 1
    merged_v = np.where(
        support[starts] == support[ends],
        support[starts],
        [
            np.average(support[s:e + 1], weights=np.exp(log_probs[s:e + 1] - log_probs[s:e + 1].max()))
            for s, e in zip(starts, ends)
        ],
    )
    keep = merged_lp > -np.inf
    merged_v = merged_v[keep]
    merged_lp = merged_lp[keep]
    if merged_v.size == 0:
        raise MassNotOne("all atoms have zero mass")
    m = np.max(merged_lp)
    total = m if not np.isfinite(m) else m + np.log(np.sum(np.exp(merged_lp - m)))
    merged_lp = merged_lp - total
    merged_p = np.exp(merged_lp)
    s = merged_p.sum()
    if s > 0:
        merged_p = merged_p / s
    return dist.FiniteDist(np.asarray(merged_v, dtype=np.float64), merged_p, merged_lp)


def decay_two_point_log_space(n, b):
    """decay_two_point built through sort_merge_log_space."""
    log_top = -b * n
    if log_top > -36.0:
        log_bottom = math.log(-math.expm1(log_top))
    else:
        log_bottom = math.log1p(-math.exp(log_top))
    return sort_merge_log_space([0.0, float(n)], [log_bottom, log_top])


def fosd_four_searches(d1, d2, tol=0.0):
    """fosd with one search of each support for the cdf and another for
    the survival function."""
    from mastat.dominance import FosdResult

    pts = np.union1d(d1.support, d2.support)

    def survival(d):
        return d.survival_steps[np.searchsorted(d.support, pts, side="right")]

    gap_f = dist.cdf(d2, pts) - dist.cdf(d1, pts)
    gap_s = survival(d1) - survival(d2)
    gap = np.minimum(gap_f, gap_s)
    bad = np.flatnonzero(gap < -tol)
    if bad.size:
        return FosdResult(False, False, float(pts[int(bad[0])]), float(gap.min()))
    strict = bool(np.any(np.maximum(gap_f, gap_s) > tol))
    return FosdResult(True, strict, None, float(gap.min()))


def same_bytes(d1, d2):
    return all(
        getattr(d1, f).tobytes() == getattr(d2, f).tobytes()
        for f in ("support", "probs", "log_probs")
    )
