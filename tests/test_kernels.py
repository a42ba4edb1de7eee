"""The numpy kernels against the code they replaced, kept here as oracles.

The snap-merge is checked against a plain loop. The dominance sweep is
checked against the sweep as first written: breakpoints laid out one row
per support point of the signed masses, one global stable argsort, then a
copy to extended precision before the running sum. The row-bounded sweep
must give the oracle's verdict and a value within 1e-15 of it, and its
row bound must lie below the same bound computed in exact arithmetic.
"""

from fractions import Fraction

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
    v1, w1 = dist._merge_sorted(vals, wts, 1e-9)
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
    assert dominance._min_gap_rows(t, j, 1) == _min_cdf_gap_oracle(t, j)
    assert dominance._min_gap_rows(t, j, 2) == _min_integrated_gap_oracle(t, j)


def _random_pairs():
    rng = np.random.default_rng(300)
    for n_max, atoms in ((6, 129), (40, 257), (12, 1025), (400, 129)):
        x = random_dist(rng, 2, n_max)
        y = random_dist(rng, 2, n_max)
        z = dist.discretize_trunc_gaussian(rng.uniform(0.5, 2.0), 6.0, 12.0 / atoms)
        yield x, y, z


def _random_catalyst_pairs():
    # a 5,000-atom catalyst off any lattice: random gaps around 0.002
    rng = np.random.default_rng(303)
    z_at = np.cumsum(rng.uniform(0.001, 0.003, 5000))
    z = dist.make(z_at - z_at.mean(), rng.dirichlet(np.ones(5000)))
    for n in (10, 100):
        x = dist.make(np.sort(rng.uniform(-1.0, 1.0, n)), rng.dirichlet(np.ones(n)))
        y = dist.make(np.sort(rng.uniform(-1.2, 0.8, n)), rng.dirichlet(np.ones(n)))
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


def _row_edge_pairs():
    # a catalyst on the row grid (w = 2**-10, cells of 8 rows) against
    # supports on row edges or one ulp either side of them: breakpoints
    # land on the edges, or round onto them or next to them, many in ties
    w = 2.0**-10
    rng = np.random.default_rng(304)
    z = dist.discretize_trunc_gaussian(0.5, 4.0, 8 * w)
    assert (z.support / w == np.round(z.support / w)).all()
    edges = np.sort(rng.choice(np.arange(-400, 400), 60, replace=False)) * w
    for x_at, y_at in (
        (edges, np.nextafter(edges + 3 * w, -np.inf)),
        (np.nextafter(edges, np.inf), edges + 5 * w),
        (np.nextafter(edges, -np.inf), np.nextafter(edges - 2 * w, np.inf)),
    ):
        yield (dist.make(x_at, rng.dirichlet(np.ones(60))),
               dist.make(y_at, rng.dirichlet(np.ones(60))), z)


def _tiny_tail_pairs():
    # catalysts whose tail masses reach 1e-300 and below
    x = dist.make([0, 1], [2 / 3, 1 / 3])
    y = dist.discretize_uniform(-0.6, 0.4, 1e-2)
    for t, atoms in ((37.0, 1025), (38.5, 2049)):
        z = dist.discretize_trunc_gaussian(1.0, t, 2 * t / atoms)
        assert z.probs.min() < 1e-290
        yield x, y, z
        yield x, dist.shift(y, 0.3), z


_LADDER = {"first-000": (1, 0.0), "first-020": (1, 0.2),
           "second-031": (2, 0.31), "second-033": (2, 0.33)}

#: every label of the benchmark's catalyst ladder: its rungs, and the
#: 16,384-atom figure-pair sweep
_LADDER_LABELS = ("first-000", "first-020", "first-031", "first-033",
                  "second-031", "second-033", "sweep-16k")


def _figure_rung(label):
    order, shift = _LADDER[label]
    x = dist.make([0, 1], [2 / 3, 1 / 3])
    y = dist.shift(dist.discretize_uniform(-0.6, 0.4, 1e-3), shift)
    find = dominance.find_catalyst_first if order == 1 else dominance.find_catalyst_second
    return x, y, find


def _ladder_pairs():
    # the figure pair and the catalysts of up to 1,025 atoms that each label
    # sweeps; the larger ones (8,193 and 16,384 atoms) would take the oracle
    # over half a gigabyte
    x = dist.make([0, 1], [2 / 3, 1 / 3])
    y0 = dist.discretize_uniform(-0.6, 0.4, 1e-3)
    seen = []
    real = dominance._conv_gap_sweep

    def record(u, s, z, order):
        seen.append(z)
        return real(u, s, z, order)

    for label in _LADDER_LABELS:
        kind, shift = label.split("-")
        if kind == "sweep":
            y = y0
            catalysts = [dist.discretize_trunc_gaussian(1.0, 20.0, 40.0 / n)
                         for n in (129, 1025)]
        else:
            y = dist.shift(y0, int(shift) / 100)
            find = dominance.find_catalyst_first if kind == "first" else dominance.find_catalyst_second
            seen.clear()
            dominance._conv_gap_sweep = record
            try:
                find(x, y)
            finally:
                dominance._conv_gap_sweep = real
            catalysts = [z for z in seen if z.n_atoms <= 1025]
        for z in catalysts:
            yield x, y, z


@pytest.mark.parametrize("path", ["row-bound", "u-major"])
@pytest.mark.parametrize(
    "pairs",
    [_random_pairs, _tie_heavy_pairs, _lattice_pairs, _ladder_pairs,
     _random_catalyst_pairs, _row_edge_pairs, _tiny_tail_pairs],
)
def test_conv_sweep_matches_oracle(pairs, path, monkeypatch):
    # "row-bound": the row-bounded sweep, forced on however few breakpoints
    # and however costly its convolutions; "u-major": the one-row sweep,
    # which lays every breakpoint out one row per support point as the
    # oracle does
    cases = list(pairs())
    if path == "row-bound":
        monkeypatch.setattr(dominance, "_ONE_ROW_MAX", 0)
        monkeypatch.setattr(dominance, "_CONV_PER_BREAKPOINT", np.inf)
    else:
        monkeypatch.setattr(dominance, "_ONE_ROW_MAX", np.inf)
    for x, y, z in cases:
        u, s = dominance._signed_masses(x, y)
        for order in (1, 2):
            got, _ = dominance._conv_gap_sweep(u, s, z, order)
            want, _ = _sweep_oracle(u, s, z, order)
            assert (got >= -_GAP_TOL) == (want >= -_GAP_TOL)
            assert abs(got - want) <= 1e-15


def _signed_masses_add_at(dx, dy):
    """_signed_masses as first written: two np.add.at calls."""
    u = dist.merged_support(dx, dy)
    s = np.zeros(u.size, dtype=np.float64)
    np.add.at(s, np.searchsorted(u, dy.support), dy.probs)
    np.add.at(s, np.searchsorted(u, dx.support), -dx.probs)
    return u, s


def _shared_point_pairs():
    # supports drawn from one set of points, so most points are in both
    rng = np.random.default_rng(305)
    points = np.sort(rng.uniform(-3.0, 3.0, 40))
    for n in (2, 10, 40):
        x_at = np.sort(rng.choice(points, n, replace=False))
        y_at = np.sort(rng.choice(points, n, replace=False))
        x = dist.make(x_at, rng.dirichlet(np.ones(n)))
        yield x, dist.make(y_at, rng.dirichlet(np.ones(n))), None
        yield x, dist.make(x_at, rng.dirichlet(np.ones(n))), None  # every point
        yield x, x, None


@pytest.mark.parametrize("pairs", [_random_pairs, _lattice_pairs, _shared_point_pairs])
def test_signed_masses_match_add_at(pairs):
    for x, y, _ in pairs():
        got, want = dominance._signed_masses(x, y), _signed_masses_add_at(x, y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_row_bound_below_every_row():
    # the bound on each row lies below the oracle's worst value in that row
    x, y, find = _figure_rung("first-020")
    u, s = dominance._signed_masses(x, y)
    for order in (1, 2):
        for atoms in (129, 1025):
            z = dist.discretize_trunc_gaussian(0.5, 30.0, 60.0 / atoms)
            w = dominance._row_width(u, z.support, z.support[-1] - z.support[0])
            cz = np.concatenate(([0.0], np.cumsum(z.probs))).astype(np.longdouble)
            first, lb = dominance._row_bounds(
                u, s, z.support, z.probs, cz, 0, z.n_atoms, 100.0, w, order)
            t = (u[:, None] + z.support).ravel()
            idx = np.argsort(t, kind="stable")
            t, j = t[idx], (s[:, None] * z.probs).ravel()[idx]
            cum = np.cumsum(j.astype(np.longdouble))
            if order == 2:
                cum = np.concatenate(([0.0], np.cumsum(cum[:-1] * np.diff(t))))
            run_end = np.append(t[1:] != t[:-1], True)
            t, cum = t[run_end], cum[run_end]
            rows = np.floor(t / w).astype(np.intp) - first
            worst = np.full(lb.size, np.inf)
            np.minimum.at(worst, rows, cum.astype(np.float64))
            assert (lb <= worst + 1e-15).all()


def _exact_row_bounds(u, s, zs, zp, w, order):
    """_row_bounds's bound forms on every row, over the whole catalyst as
    the core, in exact fractions.Fraction arithmetic on the same bins.

    At order 1 the prefix form, P over c <= m - 2 minus N over c <= m, and
    the suffix form are equal in exact arithmetic; at order 2 the bound is
    the integral at m w over the bin sums c <= m - 2, less w times N of bin
    sum m - 1, plus w * min(0, the order-1 bound).
    """
    F = Fraction
    bu, bz = np.floor(u / w), np.floor(zs / w)
    iu, iz = (bu - bu[0]).astype(int).tolist(), (bz - bz[0]).astype(int).tolist()
    n_u, n_z = iu[-1] + 1, iz[-1] + 1
    size = n_u + n_z + 1
    fs, fw = [F(v) for v in s.tolist()], F(w)

    def bins(idx, vals, n):
        out = [F(0)] * n
        for i, v in zip(idx, vals):
            out[i] += v
        return out

    def conv(a, b):
        out = [F(0)] * size
        b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b:
                    out[i + j] += ai * bj
        return out

    def upto(vals, lag):  # entry m: vals summed over c <= m - lag
        out, acc = [], F(0)
        for m in range(size):
            if m - lag >= 0:
                acc += vals[m - lag]
            out.append(acc)
        return out

    pz = bins(iz, [F(v) for v in zp.tolist()], n_z)
    p = conv(bins(iu, [max(v, 0) for v in fs], n_u), pz)
    q = conv(bins(iu, [max(-v, 0) for v in fs], n_u), pz)
    lb = [a - b for a, b in zip(upto(p, 2), upto(q, 0))]
    if order == 1:
        return lb
    off_u = [v * (F(x) - F(b) * fw) for v, x, b in zip(fs, u.tolist(), bu.tolist())]
    off_z = [F(v) * (F(x) - F(b) * fw) for v, x, b in zip(zp.tolist(), zs.tolist(), bz.tolist())]
    j1 = [a + b for a, b in zip(conv(bins(iu, off_u, n_u), pz),
                                conv(bins(iu, fs, n_u), bins(iz, off_z, n_z)))]
    cum_j = upto([a - b for a, b in zip(p, q)], 2)
    g = [fw * (a + b) - c for a, b, c in zip(upto(cum_j, 0), cum_j, upto(j1, 2))]
    q_prev = [F(0)] + q[:-1]
    return [gm - fw * qm + fw * min(lm, F(0)) for gm, qm, lm in zip(g, q_prev, lb)]


@pytest.mark.parametrize("order", [1, 2])
def test_row_bound_allows_for_rounding(order):
    # the float bound never exceeds its exact value on any row: with the
    # rounding allowance rho of _row_bounds set to 0 this fails
    rng = np.random.default_rng(306)
    for _ in range(3):
        x, y = random_dist(rng, 8, 40), random_dist(rng, 8, 40)
        u, s = dominance._signed_masses(x, y)
        z = dist.discretize_trunc_gaussian(rng.uniform(0.5, 2.0), 6.0, 12.0 / 257)
        zs, zp = z.support, z.probs
        w = 2.0 ** np.floor(np.log2(12.0 / 257 / 8))  # rows an eighth of a cell wide
        cz = np.concatenate(([0.0], np.cumsum(zp))).astype(np.longdouble)
        _, lb = dominance._row_bounds(u, s, zs, zp, cz, 0, zs.size, 100.0, w, order)
        exact = _exact_row_bounds(u, s, zs, zp, w, order)
        assert len(exact) == lb.size
        assert all(Fraction(float(a)) <= b for a, b in zip(lb, exact))


def test_count_below_counts_rounded_sums():
    # edges placed on rounded sums fl(u_i + z_k) and one ulp either side:
    # searching z for edge - u_i alone misplaces some of them
    rng = np.random.default_rng(305)
    u = np.sort(rng.uniform(-3.0, 3.0, 100))
    z = np.sort(rng.uniform(-50.0, 50.0, 400))
    sums = u[rng.integers(0, u.size, 100)] + z[rng.integers(0, z.size, 100)]
    edges = np.sort(np.concatenate((sums, np.nextafter(sums, -np.inf),
                                    np.nextafter(sums, np.inf))))
    want = ((u[None, :, None] + z[None, None, :]) < edges[:, None, None]).sum(axis=2)
    assert (dominance._count_below(u, z, edges) == want).all()


def test_small_sweeps_stay_one_row(monkeypatch):
    # below the floor the sweep never bins: the strict pairs keep their cost
    monkeypatch.setattr(dominance, "_row_bounds", None)
    x = dist.make([0.0, 1.0], [0.6, 0.4])
    y = dist.discretize_uniform(-0.5, 0.3, 0.8 / 24)
    z = dist.discretize_trunc_gaussian(1.0, 10.0, 20.0 / 129)
    assert dist.merged_support(x, y).size * z.n_atoms <= dominance._ONE_ROW_MAX
    assert dominance.fosd_with_catalyst(x, y, z) == _sweep_oracle(
        *dominance._signed_masses(x, y), z, 1)


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
    assert abs(cert.worst_gap - want.worst_gap) <= 1e-15


def test_min_cdf_gap_handles_runs():
    # three jumps at the same breakpoint must be netted before the min
    t = np.array([0.0, 0.0, 0.0, 1.0])
    j = np.array([-0.5, -0.5, 1.0, 0.0])
    worst, where = dominance._min_gap_rows(t, j, 1)
    assert worst == 0.0


def test_compensated_accumulation_precision():
    # one large positive jump drowned in many tiny alternating ones
    rng = np.random.default_rng(7)
    n = 200_001
    t = np.arange(n, dtype=np.float64)
    j = np.empty(n)
    j[:-1] = np.tile([1e-9, -1e-9], (n - 1) // 2)
    j[-1] = 0.25
    worst, _ = dominance._min_gap_rows(t, j, 1)
    assert worst == pytest.approx(0.0, abs=1e-13)


def test_active_path_reports():
    assert _kernels.active_path() == "numpy"


def test_rows_that_do_not_pay_sweep_as_one_row(monkeypatch):
    # 6,000 support points times 16 catalyst atoms is 96,000 breakpoints,
    # past _ONE_ROW_MAX, but the support is so much wider than a catalyst
    # cell that no row width pays for its convolutions: _row_width gives
    # None and every breakpoint is sorted as one row, as the oracle does
    rng = np.random.default_rng(12)
    x = dist.make(rng.uniform(0.0, 3000.0, 3000), rng.dirichlet(np.ones(3000)))
    y = dist.shift(x, -0.5)
    z = dist.discretize_trunc_gaussian(0.01, 0.08, 0.01)
    assert z.n_atoms == 16
    widths = []
    real = dominance._row_width
    monkeypatch.setattr(dominance, "_row_width", lambda *args: widths.append(real(*args)) or widths[-1])
    u, s = dominance._signed_masses(x, y)
    assert u.size * z.n_atoms == 96_000
    for order in (1, 2):
        assert dominance._conv_gap_sweep(u, s, z, order) == _sweep_oracle(u, s, z, order)
    assert widths == [None, None]
