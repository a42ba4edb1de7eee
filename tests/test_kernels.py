"""The numpy kernels against the code they replaced, kept here as oracles.

The snap-merge is checked against a plain loop. The dominance sweep is
checked against the sweep as first written: breakpoints laid out one row
per support point of the signed masses, one global stable argsort, then a
copy to extended precision before the running sum.
"""

import numpy as np
import pytest

from mastat import _kernels, dist, dominance
from mastat.dominance import _GAP_TOL
from conftest import random_dist


def _merge_sorted_loop(values, weights, tol):
    out_v, out_w = [], []
    first = last = values[0]
    wsum, wvsum = weights[0], weights[0] * values[0]
    for v, w in zip(values[1:], weights[1:]):
        if v - last > tol:
            out_v.append(first if first == last or wsum <= 0.0 else wvsum / wsum)
            out_w.append(wsum)
            first, wsum, wvsum = v, 0.0, 0.0
        last = v
        wsum += w
        wvsum += w * v
    out_v.append(first if first == last or wsum <= 0.0 else wvsum / wsum)
    out_w.append(wsum)
    return np.array(out_v), np.array(out_w)


def _min_cdf_gap_oracle(t_sorted, jumps_sorted):
    cum = np.cumsum(jumps_sorted.astype(np.longdouble))
    run_end = np.empty(t_sorted.shape[0], dtype=bool)
    run_end[:-1] = t_sorted[1:] != t_sorted[:-1]
    run_end[-1] = True
    vals = cum[run_end]
    k = int(np.argmin(vals))
    return float(vals[k]), float(t_sorted[run_end][k])


def _min_integrated_gap_oracle(t_sorted, jumps_sorted):
    cum = np.cumsum(jumps_sorted.astype(np.longdouble))
    run_end = np.empty(t_sorted.shape[0], dtype=bool)
    run_end[:-1] = t_sorted[1:] != t_sorted[:-1]
    run_end[-1] = True
    d = cum[run_end]
    t = t_sorted[run_end].astype(np.longdouble)
    integ = np.empty(t.shape[0], dtype=np.longdouble)
    integ[0] = 0.0
    if t.shape[0] > 1:
        integ[1:] = np.cumsum(d[:-1] * np.diff(t))
    k = int(np.argmin(integ))
    return float(integ[k]), float(t[k])


def _sweep_oracle(u, s, z, order):
    t = (u[:, None] + z.support[None, :]).ravel()
    j = (s[:, None] * z.probs[None, :]).ravel()
    order_idx = np.argsort(t, kind="stable")
    t = t[order_idx]
    j = j[order_idx]
    if order == 1:
        return _min_cdf_gap_oracle(t, j)
    return _min_integrated_gap_oracle(t, j)


def _random_case(rng, n):
    vals = np.sort(rng.uniform(-5, 5, n))
    # inject exact ties and sub-tolerance near-ties
    ties = rng.integers(0, n - 1, n // 4)
    vals[ties + 1] = vals[ties]
    near = rng.integers(0, n - 1, n // 8)
    vals[near + 1] = vals[near] + 5e-10
    vals = np.sort(vals)
    wts = rng.dirichlet(np.ones(n))
    return vals, wts


@pytest.mark.parametrize("seed", range(5))
def test_merge_sorted_paths_agree(seed):
    rng = np.random.default_rng(seed)
    vals, wts = _random_case(rng, 400)
    v1, w1 = _kernels.merge_sorted(vals, wts, 1e-9)
    v2, w2 = _merge_sorted_loop(vals, wts, 1e-9)
    assert v1.tolist() == pytest.approx(v2.tolist(), abs=1e-15)
    assert w1.tolist() == pytest.approx(w2.tolist(), abs=1e-15)
    assert np.all(np.diff(v1) > 0)
    assert w1.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_sweep_paths_agree(seed):
    # on the same sorted breakpoints the kernels do the oracle's arithmetic
    rng = np.random.default_rng(100 + seed)
    n = 500
    t = np.sort(rng.uniform(-3, 3, n))
    if seed:  # seed 0 keeps every breakpoint distinct
        t[rng.integers(0, n - 1, 40) + 1] = t[rng.integers(0, n - 1, 40)]
        t = np.sort(t)
    j = rng.normal(0, 0.01, n)
    j -= j.mean()  # jumps of a cdf difference sum to zero
    assert _kernels.min_cdf_gap(t, j) == _min_cdf_gap_oracle(t, j)
    assert _kernels.min_integrated_gap(t, j) == _min_integrated_gap_oracle(t, j)


def _random_pairs():
    rng = np.random.default_rng(300)
    for n_max, atoms in ((6, 129), (40, 257), (12, 1025)):
        x = random_dist(rng, 2, n_max)
        y = random_dist(rng, 2, n_max)
        z = dist.discretize_trunc_gaussian(rng.uniform(0.5, 2.0), 6.0, 12.0 / atoms)
        yield x, y, z


def _tie_heavy_pairs():
    # supports and catalyst on multiples of 1/4: most breakpoints collide exactly
    rng = np.random.default_rng(301)
    grid = np.arange(-12, 13) * 0.25
    zw = np.exp(-(grid**2) / 2.0)
    z = dist.make(grid, zw / zw.sum())
    for n in (3, 8, 20):
        x_at = np.sort(rng.choice(grid, n, replace=False))
        y_at = np.sort(rng.choice(grid, n, replace=False))
        yield (
            dist.make(x_at, rng.dirichlet(np.ones(n))),
            dist.make(y_at, rng.dirichlet(np.ones(n))),
            z,
        )


def _lattice_pairs():
    # supports on a 0.1 grid against catalysts of step 0.1 (even and odd
    # atom counts): breakpoints meet in rounding-level near-ties
    rng = np.random.default_rng(302)
    for n, t in ((5, 2.0), (15, 2.05), (30, 4.0)):
        grid = np.round(np.arange(-20, 21) * 0.1, 12)
        x_at = np.sort(rng.choice(grid, n, replace=False))
        y_at = np.sort(rng.choice(grid, n, replace=False))
        yield (
            dist.make(x_at, rng.dirichlet(np.ones(n))),
            dist.make(y_at, rng.dirichlet(np.ones(n))),
            dist.discretize_trunc_gaussian(1.0, t, 0.1),
        )


_LADDER = {"first-000": (1, 0.0), "first-020": (1, 0.2),
           "second-031": (2, 0.31), "second-033": (2, 0.33)}


def _figure_rung(label):
    order, shift = _LADDER[label]
    x = dist.make([0, 1], [2 / 3, 1 / 3])
    y = dist.shift(dist.discretize_uniform(-0.6, 0.4, 1e-3), shift)
    find = dominance.find_catalyst_first if order == 1 else dominance.find_catalyst_second
    return x, y, find


def _ladder_pairs():
    # the figure pair and the catalysts its certificates use
    for label in _LADDER:
        x, y, find = _figure_rung(label)
        yield x, y, find(x, y).catalyst


@pytest.mark.parametrize("row_min", [0, 10**9], ids=["z-major", "u-major"])
@pytest.mark.parametrize(
    "pairs", [_random_pairs, _tie_heavy_pairs, _lattice_pairs, _ladder_pairs]
)
def test_conv_sweep_matches_oracle(pairs, row_min, monkeypatch):
    # both breakpoint layouts, whatever the support size would select
    monkeypatch.setattr(dominance, "_Z_MAJOR_MIN_ROW", row_min)
    for x, y, z in pairs():
        u, s = dominance._signed_masses(x, y)
        for order in (1, 2):
            got, _ = dominance._conv_gap_sweep(u, s, z, order)
            want, _ = _sweep_oracle(u, s, z, order)
            assert (got >= -_GAP_TOL) == (want >= -_GAP_TOL)
            assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("label", sorted(_LADDER))
def test_ladder_certificates_match_oracle(label, monkeypatch):
    x, y, find = _figure_rung(label)
    cert = find(x, y)
    monkeypatch.setattr(dominance, "_conv_gap_sweep", _sweep_oracle)
    want = find(x, y)
    assert cert.verified and want.verified
    assert np.array_equal(cert.catalyst.support, want.catalyst.support)
    assert np.array_equal(cert.catalyst.probs, want.catalyst.probs)
    assert cert.params == want.params
    assert repr(cert.worst_gap) == repr(want.worst_gap)


def test_min_cdf_gap_handles_runs():
    # three jumps at the same breakpoint must be netted before the min
    t = np.array([0.0, 0.0, 0.0, 1.0])
    j = np.array([-0.5, -0.5, 1.0, 0.0])
    worst, where = _kernels.min_cdf_gap(t, j)
    assert worst == 0.0


def test_compensated_accumulation_precision():
    # one large positive jump drowned in many tiny alternating ones
    rng = np.random.default_rng(7)
    n = 200_001
    t = np.arange(n, dtype=np.float64)
    j = np.empty(n)
    j[:-1] = np.tile([1e-9, -1e-9], (n - 1) // 2)
    j[-1] = 0.25
    worst, _ = _kernels.min_cdf_gap(t, j)
    assert worst == pytest.approx(0.0, abs=1e-13)


def test_active_path_reports():
    assert _kernels.active_path() == "numpy"
