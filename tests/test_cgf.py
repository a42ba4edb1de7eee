import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest

from mastat import cgf, dist
from mastat.errors import BadParams
from conftest import grid_miss_pair, random_dist


def _lncosh1_reference():
    # ln((e + 1/e) / 2) at 50 digits
    getcontext().prec = 50
    e1 = Decimal(1).exp()
    return float(((e1 + 1 / e1) / 2).ln())


SYM = dist.make([-1, 1], [0.5, 0.5])


class TestKa:
    def test_symmetric_mean(self):
        assert cgf.k_a(SYM, 0.0) == 0.0

    def test_essential_max(self):
        d = dist.make([0, 1], [2 / 3, 1 / 3])
        assert cgf.k_a(d, np.inf) == 1.0

    def test_nan_index_rejected(self):
        d = dist.make([0, 1, 2], [0.25, 0.25, 0.5])
        with pytest.raises(BadParams):
            cgf.k_a(d, np.nan)
        with pytest.raises(BadParams):
            cgf.k_a_many(d, np.array([-1.0, np.nan, 2.0]))

    def test_near_zero_index_when_variance_overflows(self):
        # mean + a var / 2, with the variance taken of X / scale; the
        # overflowed variance used to give the support's endpoints here
        sym = dist.make([-1e200, 1e200], [0.5, 0.5])
        assert cgf.k_a(sym, 1e-300) == pytest.approx(5e99, rel=1e-12)
        skew = dist.make([-1e200, 3e200], [0.25, 0.75])
        vals = [cgf.k_a(skew, a) for a in (-1e-300, 0.0, 1e-300)]
        assert vals[0] <= vals[1] <= vals[2]
        assert vals == pytest.approx([2e200] * 3, rel=1e-12)

    def test_mean_at_zero_when_variance_overflows(self):
        for support, mean in (([-1e200, 1e200], 0.0), ([-1e200, 3e200], 1e200)):
            d = dist.make(support, [0.5, 0.5])
            assert dist.moments(d).variance == np.inf
            assert cgf.k_a(d, 0.0) == mean and cgf.k_a(d, -0.0) == mean
            vals = cgf.k_a_many(d, np.array([-np.inf, -1e-300, 0.0, 1e-300, np.inf]))
            assert not np.isnan(vals).any()
            assert vals[[0, 2, 4]].tolist() == [-1e200, mean, support[1]]

    def test_lncosh_value(self):
        assert cgf.k_a(SYM, 1.0) == pytest.approx(_lncosh1_reference(), abs=1e-12)

    def test_bounds_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = random_dist(rng)
            for a in (-50.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 50.0, np.inf, -np.inf):
                v = cgf.k_a(d, a)
                assert d.support[0] <= v <= d.support[-1]

    def test_monotone_in_a(self):
        rng = np.random.default_rng(11)
        grid = cgf.profile_grid(101)
        for _ in range(20):
            vals = cgf.k_a_many(random_dist(rng), grid)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_translation_identity(self):
        rng = np.random.default_rng(12)
        d = random_dist(rng)
        for a in (-3.0, -0.5, 0.0, 0.5, 3.0, np.inf, -np.inf):
            assert cgf.k_a(dist.shift(d, 1.7), a) == pytest.approx(
                cgf.k_a(d, a) + 1.7, abs=1e-12
            )

    def test_additivity_over_convolution(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d1, d2 = random_dist(rng), random_dist(rng)
            s = dist.convolve(d1, d2)
            for a in (-4.0, -1.0, 0.3, 2.0):
                assert cgf.k_a(s, a) == pytest.approx(
                    cgf.k_a(d1, a) + cgf.k_a(d2, a), abs=1e-10
                )
            for a in (np.inf, -np.inf):
                assert cgf.k_a(s, a) == cgf.k_a(d1, a) + cgf.k_a(d2, a)

    def test_sign_identity(self):
        # K_a(-X) = -K_{-a}(X)
        rng = np.random.default_rng(14)
        d = random_dist(rng)
        for a in (-2.0, -1.0, 1.0, 2.0):
            assert cgf.k_a(d, -a) == pytest.approx(
                -cgf.k_a(dist.negate(d), a), abs=1e-12
            )

    def test_near_zero_crossover(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = random_dist(rng, lo=-1.0, hi=1.0)
            m = dist.moments(d)
            # both paths agree at the crossover magnitude
            direct = cgf.k_a(d, 1e-6)
            expansion = m.mean + 1e-6 * m.variance / 2.0
            assert direct == pytest.approx(expansion, abs=1e-9)

    def test_convexity_of_a_times_k(self):
        rng = np.random.default_rng(16)
        a = np.linspace(-5, 5, 201)
        for _ in range(10):
            d = random_dist(rng)
            vals = a * cgf.k_a_many(d, a)
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-9)

    def test_fosd_monotonicity(self):
        from mastat import dominance

        rng = np.random.default_rng(17)
        grid = cgf.profile_grid(51)
        found = 0
        for _ in range(1000):  # 78 draws give 15 pairs; a broken fosd fails, not hangs
            d1, d2 = random_dist(rng), random_dist(rng)
            if not dominance.fosd(d1, d2).dominates:
                continue
            found += 1
            gap = cgf.k_a_many(d1, grid) - cgf.k_a_many(d2, grid)
            assert np.all(gap >= -1e-12)
            if found == 15:
                break
        assert found == 15


class TestProfile:
    def test_point_mass_constant(self):
        prof = cgf.k_profile(dist.make([3.25], [1.0]), 21)
        assert np.all(prof.values == 3.25)

    def test_endpoints(self):
        d = random_dist(np.random.default_rng(18))
        prof = cgf.k_profile(d, 21)
        assert prof.grid[0] == -np.inf and prof.grid[-1] == np.inf
        assert prof.values[0] == d.support[0]
        assert prof.values[-1] == d.support[-1]
        assert 0.0 in prof.grid

    def test_even_grid_bumped_to_odd(self):
        grid = cgf.profile_grid(10)
        assert 0.0 in grid and grid.size == 13

    def test_too_small_grid_is_bad_params(self):
        for n_grid in (2, 0, -1):
            with pytest.raises(BadParams):
                cgf.profile_grid(n_grid)

    def test_grid_size_past_the_cap_or_not_an_integer_is_bad_params(self):
        # 10**20 points used to reach np.linspace ("Maximum allowed size
        # exceeded") and 2.5 a TypeError; SUPPORT_CAP points are the most
        for n_grid in (dist.SUPPORT_CAP + 1, 10**20, 2.5, math.nan, math.inf):
            with pytest.raises(BadParams, match="n_grid must be"):
                cgf.profile_grid(n_grid)

    def test_integral_float_grid_size(self):
        # used to raise TypeError in np.linspace
        assert cgf.profile_grid(5.0).tobytes() == cgf.profile_grid(5).tobytes()


class TestKDominates:
    def test_shift_is_strict_up_to_shift(self):
        d = random_dist(np.random.default_rng(19))
        up = dist.shift(d, 1.0)
        assert cgf.k_dominates(up, d, margin=0.9).order is cgf.KOrder.STRICT
        assert cgf.k_dominates(up, d, margin=1.1).order is cgf.KOrder.WEAK

    def test_figure_pair_strict(self):
        x = dist.make([0, 1], [2 / 3, 1 / 3])
        y = dist.discretize_uniform(-0.6, 0.4, 1e-3)
        assert cgf.k_dominates(x, y, margin=0.0).order is cgf.KOrder.STRICT

    def test_equal_is_weak(self):
        d = random_dist(np.random.default_rng(20))
        assert cgf.k_dominates(d, d).order is cgf.KOrder.WEAK

    def test_fails_with_witness(self):
        lo = dist.make([0.0], [1.0])
        hi = dist.make([-1.0, 2.0], [0.5, 0.5])
        res = cgf.k_dominates(lo, hi)
        assert res.order is cgf.KOrder.FAILS
        assert res.witness is not None
        # decided on the profile grid: no halving, one K per grid point
        assert res.rounds == 0 and res.evaluations == cgf.profile_grid().size
        # the witness really is a failure point
        assert cgf.k_a(lo, res.witness) < cgf.k_a(hi, res.witness) - 1e-12

    def test_weak_names_the_smallest_sampled_gap(self):
        d = random_dist(np.random.default_rng(19))
        up = dist.shift(d, 1.0)
        res = cgf.k_dominates(up, d, margin=1.1)
        grid = cgf.profile_grid()
        gap = cgf.k_a_many(up, grid) - cgf.k_a_many(d, grid)
        assert res.order is cgf.KOrder.WEAK
        assert res.witness == grid[np.argmin(gap)] and res.min_gap == gap.min()

    def test_dip_between_grid_points_fails(self):
        x, y = grid_miss_pair()
        grid = cgf.profile_grid()
        assert (cgf.k_a_many(x, grid) - cgf.k_a_many(y, grid)).min() > 1e-6
        res = cgf.k_dominates(x, y, margin=1e-6)
        assert res.order is cgf.KOrder.FAILS
        assert 21.42 < res.witness < 32.14
        assert cgf.k_a(x, res.witness) < cgf.k_a(y, res.witness) - 1e-12
        assert res.min_gap < -1e-12

    def test_nan_margin_rejected(self):
        # every `<= margin` test is false for a NaN margin, which used to
        # read STRICT (min gap 0) for X against itself
        x = dist.make([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(BadParams, match="margin must not be NaN"):
            cgf.k_dominates(x, x, margin=math.nan)
        # a negative margin stays legal
        assert cgf.k_dominates(x, x, margin=-1e-3).order is cgf.KOrder.STRICT

    def test_rounding_at_large_scale_is_not_failure(self):
        # the middle atom split by +-2e-9 moves the exact gap by less than
        # 7e-19, but one ulp of K near 1e4 is 1.8e-12 and the computed gap
        # reads -3.64e-12, which an absolute 1e-12 threshold called FAILS
        y = dist.make([1e4, 1e4 + 1, 1e4 + 2], [0.3, 0.4, 0.3])
        x = dist.make([1e4, 1e4 + 1 - 2e-9, 1e4 + 1 + 2e-9, 1e4 + 2], [0.3, 0.2, 0.2, 0.3])
        res = cgf.k_dominates(x, y)
        assert res.order is cgf.KOrder.WEAK and res.min_gap < -1e-12
        # a genuine failure at the same scale still reads FAILS
        res = cgf.k_dominates(x, dist.shift(y, 1e-6))
        assert res.order is cgf.KOrder.FAILS and res.min_gap < -9e-7

    def test_split_and_shift_near_1e5_is_weak(self):
        # X is Y with its middle atom split by +-2e-9, shifted up by 1e-11
        # (one ulp, 1.455e-11, at 1e5): the exact gap is positive at every
        # index, but 36 of these 300 laws read FAILS with an absolute
        # threshold
        rng = np.random.default_rng(0)
        for _ in range(300):
            s = 1e5 + np.sort(rng.uniform(0.0, 2.0, 3))
            p = rng.dirichlet(np.ones(3))
            y = dist.make(s, p)
            x = dist.make([s[0], s[1] - 2e-9, s[1] + 2e-9, s[2]], [p[0], p[1] / 2, p[1] / 2, p[2]])
            assert cgf.k_dominates(dist.shift(x, 1e-11), y).order is cgf.KOrder.WEAK, (s, p)

    def test_open_cells_after_the_last_round_are_weak(self, monkeypatch):
        # no budget for a single midpoint: the open cells stop the check
        monkeypatch.setattr(cgf, "_EXTRA_PER_POINT", 0)
        res = cgf.k_dominates(*grid_miss_pair(), margin=1e-6)
        assert res.order is cgf.KOrder.WEAK and res.min_gap > 1e-6
        assert res.rounds == 0 and res.evaluations == cgf.profile_grid().size

    def test_gap_just_above_the_margin_is_weak_with_bounded_work(self, monkeypatch):
        # the bracket needs about range(Y) / 1e-9 cells here; the halving
        # stops at its evaluation budget instead of doubling its open cells
        counted = []
        k_a_many = cgf.k_a_many

        def counting(d, avec):
            counted.append(np.size(avec))
            return k_a_many(d, avec)

        monkeypatch.setattr(cgf, "k_a_many", counting)
        d = random_dist(np.random.default_rng(0))
        grid = cgf.profile_grid()
        for nonpositive, size in ((False, grid.size), (True, grid.size // 2 + 1)):
            counted.clear()
            res = cgf._k_dominates_on(dist.shift(d, 1e-9), d, 0.0, nonpositive)
            assert res.order is cgf.KOrder.WEAK and 0.0 < res.min_gap < 2e-9
            assert sum(counted) <= 2 * cgf._EXTRA_PER_POINT * size
            # a round evaluates at least one midpoint, so the budget bounds
            # the rounds; the grid is not evaluated by k_a_many, the
            # midpoints are
            assert 0 < res.rounds <= cgf._EXTRA_PER_POINT * size
            assert len(counted) == 2 * res.rounds and min(counted) >= 1
            assert res.evaluations == size + sum(counted) // 2
            assert res.evaluations <= (1 + cgf._EXTRA_PER_POINT) * size

    def test_strict_holds_between_grid_points(self):
        """The two-top-atom family X = {x0: 1 - p, 1: p}, Y = {y0: 1 - q,
        1 - d: q} with q > p, where the gap can dip between grid points at
        large a: every STRICT verdict clears the margin on a 200,001-point
        t-grid."""
        t = np.linspace(-1.0, 1.0, 200_001)
        dense = np.tan(np.pi * t / 2.0)
        dense[[0, -1]] = -np.inf, np.inf
        rng = np.random.default_rng(1)
        strict = 0
        for _ in range(100):
            x0, p, y0, f, d = rng.uniform([0.5, 0.01, -1.0, 1.0, 0.0], [0.95, 0.1, 0.0, 5.0, 0.05])
            x = dist.make([x0, 1.0], [1.0 - p, p])
            y = dist.make([y0, 1.0 - d], [1.0 - f * p, f * p])
            if cgf.k_dominates(x, y, margin=1e-6).order is cgf.KOrder.STRICT:
                strict += 1
                gap = cgf.k_a_many(x, dense) - cgf.k_a_many(y, dense)
                assert gap.min() > 1e-6, (x, y)
        assert strict >= 20


def _fresh_grid(n_grid):
    """The profile grid as first written, rebuilt on every call."""
    if n_grid % 2 == 0:
        n_grid += 1
    t = np.linspace(-1.0, 1.0, n_grid + 2)[1:-1]
    interior = np.tan(np.pi * t / 2.0)
    interior[n_grid // 2] = 0.0
    return np.concatenate(([-np.inf], interior, [np.inf]))


def _k_masked(d, avec):
    """K_a evaluated entry class by entry class, as first written: six masks
    (+inf, -inf, finite, near zero, huge, regular), moments recomputed."""
    avec = np.asarray(avec, dtype=np.float64)
    x, lp = d.support, d.log_probs
    mean = float(np.dot(d.probs, x))
    var = float(np.dot(d.probs, (x - mean) ** 2))
    lo, hi = float(x[0]), float(x[-1])
    scale = max(1.0, abs(lo), abs(hi))
    out = np.empty(avec.shape, dtype=np.float64)
    absa = np.abs(avec) * scale
    out[avec == np.inf] = hi
    out[avec == -np.inf] = lo
    finite = np.isfinite(avec)
    near = finite & (absa < 1e-6)
    out[near] = mean + avec[near] * var / 2.0
    huge = finite & (absa > 1e300)
    out[huge] = np.where(avec[huge] > 0, hi, lo)
    reg = finite & ~near & ~huge
    a_reg = avec[reg]
    if a_reg.size:
        t = a_reg[:, None] * x[None, :] + lp[None, :]
        big = t.max(axis=1)
        out[reg] = (big + np.log(np.sum(np.exp(t - big[:, None]), axis=1))) / a_reg
    return np.clip(out, lo, hi)


def test_huge_index_cutoff_at_the_largest_scale():
    """|a| * scale past the largest double reads as past _HUGE_A, without a
    warning: every entry is the bytes of the masked evaluation, whose own
    product overflows to inf."""
    lo, hi = -1.7e308, 1.7e308
    d = dist.make([lo, hi], [0.3, 0.7])
    cut = 1e300 / hi
    a = np.array([1e-300, -1e-300, 1e-10, cut, np.nextafter(cut, 0.0),
                  np.nextafter(cut, 1.0), 1.0, -1.0, 64.3, -64.3, 1e300, -1e300,
                  np.inf, -np.inf])
    got = cgf.k_a_many(d, a)
    with np.errstate(over="ignore"):
        want = _k_masked(d, a)
    assert got.tobytes() == want.tobytes()
    assert got[6:].tolist() == [hi, lo] * 4


class TestSinglePass:
    """All-regular index vectors skip the masks; every entry must be the
    same bytes as the masked evaluation gives."""

    SPECIAL = (0.0, 1e-7, -1e-7, 1e301, -1e301, np.inf, -np.inf)

    def _dists(self):
        rng = np.random.default_rng(51)
        out = [random_dist(rng, 1, 8) for _ in range(40)]
        out += [dist.shift(d, 300.0) for d in out[:5]]
        out += [dist.decay_two_point(4096, 1.0), dist.decay_two_point(30, 0.2)]
        # 8 atoms and up are evaluated index-major, below 8 atom-major
        out += [random_dist(rng, n, n + 1) for n in (8, 9, 25)]
        out.append(dist.discretize_uniform(-0.6, 0.4, 1e-3))  # the figure pair's Y
        return rng, out

    def test_all_regular_vectors(self):
        rng, dists = self._dists()
        for d in dists:
            for size in (1, 2, 5, 40):
                a = rng.normal(0.0, 3.0, size)
                a[np.abs(a) < 1e-3] = 0.5
                got = cgf.k_a_many(d, a)
                assert got.tobytes() == _k_masked(d, a).tobytes()
                # the same entries inside a mixed vector take the masked path
                mixed = cgf.k_a_many(d, np.append(a, np.inf))
                assert got.tobytes() == mixed[:-1].tobytes()

    def test_mixed_vectors(self):
        rng, dists = self._dists()
        for d in dists:
            for special in self.SPECIAL:
                a = np.append(rng.normal(0.0, 3.0, 4), special)
                rng.shuffle(a)
                assert cgf.k_a_many(d, a).tobytes() == _k_masked(d, a).tobytes()
            a = np.array(self.SPECIAL)
            assert cgf.k_a_many(d, a).tobytes() == _k_masked(d, a).tobytes()

    def test_profile_grid(self, monkeypatch):
        """k_profile and the grid check evaluate the grid's regular interior
        in one _k_direct call, and fall back to k_a_many when |a| * scale
        passes _HUGE_A there: both are the masked path's bytes, on the
        whole grid and on its nonpositive half."""
        calls = []
        k_a_many = cgf.k_a_many

        def spy(d, avec):
            calls.append(d)
            return k_a_many(d, avec)

        _, dists = self._dists()
        point = dist.make([-0.0], [1.0])
        zero = dist.make([0.0], [1.0])
        wide = dist.make([-1e200, 1e200], [0.5, 0.5])  # the variance overflows
        huge = dist.make([1e299, 3e299], [0.4, 0.6])  # past _HUGE_A: the fallback
        for n_grid in (3, 10, 51, 201, 1001):
            grid = cgf.profile_grid(n_grid)
            half = grid[: grid.size // 2 + 1]
            for d in dists + [point, zero, wide, huge]:
                monkeypatch.setattr(cgf, "k_a_many", spy)
                calls.clear()
                got = cgf.k_profile(d, n_grid).values
                got_half = cgf._k_grid(d, n_grid, nonpositive=True)
                # |a| * scale passes _HUGE_A at the grid's ends from 5 points on
                assert calls == ([d, d] if d is huge and n_grid > 3 else [])
                monkeypatch.undo()
                assert got.tobytes() == cgf.k_a_many(d, grid).tobytes()
                assert got_half.tobytes() == cgf.k_a_many(d, half).tobytes()
                if np.isfinite(d.moments.variance):
                    assert got.tobytes() == _k_masked(d, grid).tobytes()
                    assert got_half.tobytes() == _k_masked(d, half).tobytes()
            assert cgf.k_profile(wide, n_grid).values[grid.size // 2] == 0.0
            # one atom at -0.0 or 0.0: every K is 0, with the sign bits that
            # clip keeps: -0.0 on the negative interior (0 / a), at the ends
            # the atom itself, and 0.0 at a = 0 (mean + 0.0)
            neg = np.isfinite(grid) & (grid < 0)
            for d, ends in ((point, True), (zero, False)):
                got = cgf.k_profile(d, n_grid).values
                assert (got == 0.0).all()
                assert (np.signbit(got) == (neg | (np.isinf(grid) & ends))).all()
        # k_a_many's second-order branch on the grid, under a _SMALL_A
        # raised above the grid's smallest |a|
        d = dists[0]
        grid = cgf.profile_grid(201)
        monkeypatch.setattr(cgf, "_SMALL_A", 0.05)
        got = cgf.k_a_many(d, grid)
        near = np.abs(grid) * max(1.0, abs(d.moments.lo), abs(d.moments.hi)) < 0.05
        assert near.sum() > 1
        m = d.moments
        want = (m.mean + grid[near] * m.variance / 2.0).clip(m.lo, m.hi)
        assert got[near].tobytes() == want.tobytes()

    def test_grid_interior_stays_above_the_small_index_cutoff(self):
        # so with scale >= 1 the grid never needs k_a_many's near-zero
        # branch: at the largest n_grid the smallest |a| is 3.0e-6
        try:
            assert np.abs(cgf._grid(dist.SUPPORT_CAP)[2]).min() >= cgf._SMALL_A
        finally:
            cgf._grid.cache_clear()

    def test_profile_grid_built_once_read_only(self):
        for n_grid in (3, 10, 51, 201):
            grid = cgf.profile_grid(n_grid)
            assert grid is cgf.profile_grid(n_grid)
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[1] = 0.5
            assert grid.tobytes() == _fresh_grid(n_grid).tobytes()

    def test_scalar_and_empty_indices(self):
        d = dist.make([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
        for a in (0.7, 0.0, -np.inf):
            assert cgf.k_a_many(d, a).shape == ()
            assert float(cgf.k_a_many(d, a)) == cgf.k_a(d, a)
        assert cgf.k_a_many(d, np.array([])).shape == (0,)
        square = np.array([[0.7, -1.2], [2.0, 0.3]])
        got = cgf.k_a_many(d, square)
        assert got.shape == (2, 2)
        assert got.tobytes() == cgf.k_a_many(d, square.ravel()).tobytes()


def _k_exact(d, a):
    """K_a(d) in decimal arithmetic, the stored masses normalised:
    x_e + log(sum p_i exp(a (x_i - x_e)) / sum p_i) / a, x_e the end of
    the support that a points to, at 40 digits beyond those that |a| * w
    takes off the sum's leading 1."""
    xs = [Decimal(float(x)) for x in d.support]
    ps = [Decimal(float(p)) for p in d.probs]
    with localcontext() as ctx:
        ctx.prec = 40
        if a == 0.0:
            return sum(p * x for x, p in zip(xs, ps)) / sum(ps)
        da = Decimal(float(a))
        ctx.prec += max(0, -(abs(da) * (xs[-1] - xs[0])).adjusted())
        xe = xs[-1] if a > 0 else xs[0]
        total = sum(p * (da * (x - xe)).exp() for x, p in zip(xs, ps))
        return xe + (total / sum(ps)).ln() / da


def _k_bound(d, a):
    """The rounding bound that the cgf module doc states for K_a(d), in
    decimal arithmetic: w^3 overflows a double past a scale of about 1e102."""
    n, m = d.n_atoms, d.moments
    scale = max(1.0, abs(m.lo), abs(m.hi))
    eps, da = Decimal(float(np.finfo(np.float64).eps)), abs(Decimal(float(a)))
    if abs(a) * scale >= cgf._SMALL_A:  # the product k_a_many branches on
        return eps * (4 * Decimal(scale) + (n + 2 * Decimal(math.log(n))) / da)
    return eps * (n + 1) * Decimal(scale) + da * da * (Decimal(m.hi) - Decimal(m.lo)) ** 3 / 60


def test_k_rounding_within_the_stated_bound():
    # at |a| * scale from 1e-300 (or the smallest positive a) to 1e300, both
    # signs and a = 0, densely where the near-zero error bands are, on laws
    # at scales 1e-3 to 1e300: 2-11 atoms; a narrow off-centre support;
    # masses down to 1e-250; and 12-39 atoms, which are evaluated index-major
    rng = np.random.default_rng(12)
    mags = np.concatenate((10.0 ** np.arange(-300, 301, 20), 10.0 ** np.arange(-8, 2.01, 0.25)))
    for s in (1e-3, 1.0, 1e3, 1e10, 1e100, 1e200, 1e300):
        for kind in range(16):
            n = int(rng.integers(2, 12) if kind % 4 != 3 else rng.integers(12, 40))
            support = rng.uniform(-s, s, n)
            probs = rng.dirichlet(np.ones(n))
            if kind % 4 == 1:
                support = support * 10.0 ** rng.uniform(-6.0, 0.0) + rng.uniform(-1.0, 1.0) * s
            elif kind % 4 == 2:
                probs *= 10.0 ** rng.uniform(-250.0, 0.0, n)
                probs /= probs.sum()
            d = dist.make(support, probs)
            scale = max(1.0, abs(d.moments.lo), abs(d.moments.hi))
            pos = np.append(mags / scale, np.nextafter(0.0, 1.0))
            pos = np.unique(pos[pos > 0.0])
            avec = np.concatenate((-pos, [0.0], pos))
            for a, got in zip(avec, cgf.k_a_many(d, avec)):
                err = abs(Decimal(float(got)) - _k_exact(d, a))
                assert err <= _k_bound(d, a), (s, kind, a)
