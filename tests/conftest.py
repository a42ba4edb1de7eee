import numpy as np
import pytest

from mastat import dist, mas


def random_dist(rng, n_min=2, n_max=6, lo=-2.0, hi=2.0):
    n = int(rng.integers(n_min, n_max))
    support = np.sort(rng.uniform(lo, hi, n))
    support = support + np.arange(n) * 1e-6  # keep atoms clear of the snap tol
    probs = rng.dirichlet(np.ones(n))
    return dist.make(support, probs)


def seeded_law(rng, n, kind, scale=1.0):
    """A law of n atoms on a lattice of step `scale` (kind "lattice") or
    uniform on [-scale, scale] (kind "random")."""
    if kind == "lattice":
        support = rng.choice(np.arange(-20, 21), n, replace=False) * scale
    else:
        support = rng.uniform(-1.0, 1.0, n) * scale
    return dist.make(support, rng.dirichlet(np.ones(n)))


def random_measure(rng, n_min=1, n_max=4, lo=-3.0, hi=3.0, allow_inf=False):
    n = int(rng.integers(n_min, n_max))
    locs = rng.uniform(lo, hi, n)
    if allow_inf and rng.random() < 0.3:
        locs[0] = -np.inf if rng.random() < 0.5 else np.inf
    wts = rng.dirichlet(np.ones(n))
    return mas.make_measure(locs, wts)


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the kernels once so timed tests do not pay first-call costs."""
    d = dist.make([0.0, 1.0], [0.5, 0.5])
    from mastat import dominance

    z = dist.make([-0.5, 0.5], [0.5, 0.5])
    dominance.fosd_with_catalyst(d, dist.shift(d, -0.1), z)
    dominance.sosd_with_catalyst(d, dist.shift(d, -0.1), z)
    dist.convolve(d, d)


# Oracles for byte-identity tests: convolve and fosd as first written.


def convolve_d1_major(d1, d2):
    """convolve with its pair sums laid out one row per d1 atom."""
    vals = (d1.support[:, None] + d2.support[None, :]).ravel()
    wts = (d1.probs[:, None] * d2.probs[None, :]).ravel()
    return dist._canonical(vals, wts)


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
