import numpy as np
import pytest

from mastat import dist, mas


def random_dist(rng, n_min=2, n_max=6, lo=-2.0, hi=2.0):
    n = int(rng.integers(n_min, n_max))
    support = np.sort(rng.uniform(lo, hi, n))
    support = support + np.arange(n) * 1e-6  # keep atoms clear of the snap tol
    probs = rng.dirichlet(np.ones(n))
    return dist.make(support, probs)


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
