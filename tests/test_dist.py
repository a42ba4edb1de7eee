import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastat import dist, dominance, mas, pref
from mastat.errors import (
    BadInterval,
    BadParams,
    BadSupport,
    EmptyFamily,
    InputError,
    LambdaOutOfRange,
    LengthMismatch,
    MassNotOne,
    NegativeProb,
    SupportBlowup,
)

from conftest import (
    convolve_d1_major,
    decay_two_point_log_space,
    iid_power_full_square,
    iid_power_law_per_square,
    random_dist,
    same_bytes,
    seeded_law,
)


def total_variation(d1, d2):
    """TV distance with atoms aligned up to the snap tolerance."""
    vals = np.concatenate((d1.support, d2.support))
    wts = np.concatenate((d1.probs, -d2.probs))
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) > dist.SNAP_TOL)))
    return 0.5 * np.abs(np.add.reduceat(wts, starts)).sum()


class TestMake:
    def test_paper_two_point(self):
        d = dist.make([0, 1], [2 / 3, 1 / 3])
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_degenerate_point_mass(self):
        d = dist.make([5], [1.0])
        assert d.n_atoms == 1 and d.support[0] == 5.0

    def test_sorting_is_canonicalization(self):
        d = dist.make([1, 0], [0.5, 0.5])
        assert d.support.tolist() == [0.0, 1.0]

    def test_snap_merge(self):
        d = dist.make([0.0, 5e-10, 1.0], [0.25, 0.25, 0.5])
        assert d.n_atoms == 2
        assert d.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert dist.make([0.0, 5e-10], [0.5, 0.5]).n_atoms == 1
        # SNAP_TOL is absolute: near 1e8 one ulp (1.49e-8) is past it, so
        # adjacent doubles there stay two atoms
        top = np.nextafter(1e8, np.inf)
        assert top - 1e8 == pytest.approx(1.49e-8, rel=1e-2)
        assert dist.make([1e8, top], [0.5, 0.5]).support.tolist() == [1e8, top]

    def test_snap_merge_mean_stays_in_its_cluster(self):
        # with subnormal masses the rounded mean of the first two atoms is
        # 2.0, the third atom, past the cluster's last point
        d = dist.make([1.5, 1.5 + 5e-10, 2.0], [5e-324, 5e-324, 1.0])
        assert d.support.tolist() == [1.5 + 5e-10, 2.0]

    def test_zero_atoms_dropped(self):
        d = dist.make([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        assert d.n_atoms == 2 and 1.0 not in d.support

    def test_repr_abbreviates_past_six_atoms(self):
        assert repr(dist.discretize_uniform(0.0, 1.0, 0.1)) == (
            "FiniteDist(0.05:0.1, 0.15:0.1, 0.25:0.1, 0.35:0.1, 0.45:0.1, 0.55:0.1, ...)"
        )

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            dist.make([0, 1], [1.0])
        with pytest.raises(LengthMismatch):
            dist.make([], [])
        with pytest.raises(NegativeProb):
            dist.make([0, 1], [1.5, -0.5])
        with pytest.raises(MassNotOne):
            dist.make([0, 1], [0.5, 0.4])

    def test_nan_mass_rejected(self):
        # a NaN mass used to pass the checks and then be dropped as zero
        for probs in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
            with pytest.raises(InputError):
                dist.make([0, 1], probs)

    def test_mass_error_prints_plain_number(self):
        with pytest.raises(MassNotOne, match="sum to inf,") as err:
            dist.make([0, 1], [np.inf, 1.0])
        assert "np.float64" not in str(err.value)

    def test_mass_renormalized_exactly(self):
        d = dist.make([0, 1, 2], [0.3 + 2e-10, 0.3, 0.4])
        assert abs(d.probs.sum() - 1.0) < 1e-15


class TestConvolve:
    def test_binomial_two(self):
        coin = dist.make([0, 1], [0.5, 0.5])
        d = dist.convolve(coin, coin)
        assert d.support.tolist() == [0.0, 1.0, 2.0]
        assert d.probs.tolist() == pytest.approx([0.25, 0.5, 0.25])

    def test_point_mass_translates(self):
        d = random_dist(np.random.default_rng(0))
        shifted = dist.convolve(d, dist.make([2.5], [1.0]))
        assert np.allclose(shifted.support, d.support + 2.5)
        assert np.allclose(shifted.probs, d.probs)

    def test_three_fold_signs_brute_force(self):
        # W1 three-fold: enumerate the 2^3 sign sequences directly
        w1 = dist.make([-1, 1], [0.5, 0.5])
        d = dist.iid_power(w1, 3)
        sums = {}
        for signs in itertools.product([-1, 1], repeat=3):
            sums[sum(signs)] = sums.get(sum(signs), 0.0) + 0.125
        assert d.support.tolist() == sorted(sums)
        for x, p in zip(d.support, d.probs):
            assert p == pytest.approx(sums[x], abs=1e-15)

    def test_identity_element_exact(self):
        d = random_dist(np.random.default_rng(1))
        same = dist.convolve(d, dist.make([0.0], [1.0]))
        assert same.support.tolist() == d.support.tolist()
        assert same.probs.tolist() == d.probs.tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_dist(rng, n_max=4) for _ in range(3))
        left = dist.convolve(dist.convolve(a, b), c)
        right = dist.convolve(a, dist.convolve(b, c))
        assert total_variation(left, right) <= 1e-12

    def test_blowup_guard(self, monkeypatch):
        d = dist.discretize_uniform(0.0, 1.0, 1e-3)
        monkeypatch.setattr(dist, "SUPPORT_CAP", 10_000)
        with pytest.raises(SupportBlowup, match=r"\(cap 10000\)"):
            dist.convolve(d, d)

    def test_sums_past_the_largest_double_rejected(self):
        # convolve returned support [-inf, -1e308, 0] with an overflow warning,
        # and a second convolution merged the -inf sums through NaN gaps
        wide = dist.make([-1e308, 0.0], [0.5, 0.5])
        top = dist.make([np.finfo(np.float64).max], [1.0])
        calls = (
            lambda: dist.convolve(wide, wide),
            lambda: dist.iid_power(wide, 2),
            lambda: dist.iid_power(dist.negate(wide), 5),
            lambda: dist.convolve(dist.make([1e300], [1.0]), top),
        )
        for call in calls:
            with pytest.raises(BadParams, match="sums of support points must be finite doubles"):
                call()
        # sums up to the largest double stay legal
        half = dist.make([-8e307, 0.0], [0.5, 0.5])
        assert dist.convolve(half, half).support.tolist() == [-1.6e308, -8e307, 0.0]
        assert dist.iid_power(half, 2).support.tolist() == [-1.6e308, -8e307, 0.0]

    def test_sums_near_a_million_stay_strictly_increasing(self):
        """Past |x| of about 4e6 adjacent doubles snap-merge and 2 ulp do
        not, so the rounded mean of a cluster can reach the next one. The
        first law failed at its 30-fold sum, the seeded ones earlier."""
        rng = np.random.default_rng(16)
        laws = [dist.make([-966944.7, 626540.5, 825511.2], [0.25, 0.25, 0.5])]
        laws += [dist.make(rng.uniform(-1e6, 1e6, 3), rng.dirichlet(np.ones(3))) for _ in range(6)]
        for d in laws:
            power = d
            for _ in range(31):
                power = dist.convolve(power, d)
            scale = 32 * max(abs(d.support[0]), abs(d.support[-1]))
            assert abs(power.moments.mean - 32 * d.moments.mean) <= 1e-12 * scale

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mean_variance_add(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = random_dist(rng), random_dist(rng)
        m1, m2 = dist.moments(d1), dist.moments(d2)
        m = dist.moments(dist.convolve(d1, d2))
        assert m.mean == pytest.approx(m1.mean + m2.mean, rel=1e-10, abs=1e-12)
        assert m.variance == pytest.approx(
            m1.variance + m2.variance, rel=1e-10, abs=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = random_dist(rng), random_dist(rng)
        a = dist.convolve(d1, d2)
        b = dist.convolve(d2, d1)
        assert np.allclose(a.support, b.support, atol=dist.SNAP_TOL)
        assert np.allclose(a.probs, b.probs, atol=1e-12)


class TestIidPower:
    def test_power_one_is_identity(self):
        d = random_dist(np.random.default_rng(2))
        assert dist.iid_power(d, 1) is d

    def test_point_mass(self):
        d = dist.iid_power(dist.make([1.5], [1.0]), 7)
        assert d.n_atoms == 1 and d.support[0] == pytest.approx(10.5)

    def test_binomial_four(self):
        coin = dist.make([0, 1], [0.5, 0.5])
        d = dist.iid_power(coin, 4)
        expect = [math.comb(4, k) / 16 for k in range(5)]
        assert d.probs.tolist() == pytest.approx(expect, abs=1e-15)

    def test_binary_matches_sequential(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, n_max=4)
        power = dist.iid_power(d, 9)
        seq = d
        for _ in range(8):
            seq = dist.convolve(seq, d)
        assert total_variation(power, seq) <= 1e-12

    def test_bad_n(self):
        with pytest.raises(BadParams):
            dist.iid_power(dist.make([0], [1.0]), 0)


def _assert_power_contract(d, n):
    """iid_power(d, n) against the full squaring, both under the current
    dist.SUPPORT_CAP: the same atom count, supports within
    2e-15 * n * max(1, |x|) over d's support, masses within 1e-14
    relative; and the same bytes as the squaring that builds a law at
    every step. Returns False where both raise SupportBlowup."""
    try:
        want = iid_power_full_square(d, n)
    except SupportBlowup:
        with pytest.raises(SupportBlowup):
            dist.iid_power(d, n)
        return False
    got = dist.iid_power(d, n)
    scale = n * max(1.0, -d.support[0], d.support[-1])
    assert got.n_atoms == want.n_atoms
    assert np.abs(got.support - want.support).max() <= 2e-15 * scale
    assert (np.abs(got.probs - want.probs) <= 1e-14 * want.probs).all()
    assert same_bytes(got, iid_power_law_per_square(d, n))
    return True


class TestIidPowerTriangle:
    """iid_power squares over the pairs i <= j only; the full squaring of
    tests/conftest.py is the oracle."""

    def test_contract_on_seeded_laws(self, monkeypatch):
        # 20,000 laws of 1-12 atoms, n from 2 to 64: random supports at
        # scales 1e-3..1e3, and 0.1- and 1-lattices over [-2, 2] and
        # [-20, 20]. The cap keeps each power cheap; the laws that cross
        # it must raise in both
        rng = np.random.default_rng(2026)
        count = 20_000
        atoms, powers, kinds = (
            rng.integers(lo, hi, count) for lo, hi in ((1, 13), (2, 65), (0, 3))
        )
        random = rng.uniform(-1.0, 1.0, (count, 12)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        lattice = np.argsort(rng.random((count, 41)), axis=1)[:, :12] - 20.0
        lattice *= np.where(kinds == 1, 0.1, 1.0)[:, None]
        supports = np.where((kinds == 0)[:, None], random, lattice)
        masses = rng.exponential(1.0, (count, 12))
        monkeypatch.setattr(dist, "SUPPORT_CAP", 1 << 10)
        compared = 0
        for m, n, x, w in zip(atoms.tolist(), powers.tolist(), supports, masses):
            d = dist.make(np.sort(x[:m]), w[:m] / w[:m].sum())
            compared += _assert_power_contract(d, n)
        assert compared > 4_000

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 3, 5, 7, 9, 31, 33, 63])
    def test_powers_of_two_and_odd_n(self, n):
        rng = np.random.default_rng(n)
        for kind, scale in (("random", 1.0), ("lattice", 0.1), ("lattice", 1.0)):
            assert _assert_power_contract(seeded_law(rng, 3, kind, scale), n)

    def test_one_atom_base(self):
        point = dist.make([1.5], [1.0])
        for n in range(1, 65):
            assert same_bytes(dist.iid_power(point, n), iid_power_full_square(point, n))

    def test_blowup_at_the_oracles_n(self, monkeypatch):
        """Caps at m * m and m * m - 1 for the atom count m of a base that
        is squared: the first n that raises is the oracle's."""
        rng = np.random.default_rng(7)
        for kind, scale in (("random", 1.0), ("lattice", 0.1)):
            for n_atoms in (2, 3, 4):
                d = seeded_law(rng, n_atoms, kind, scale)
                base = d
                for _ in range(3):
                    base = dist.convolve(base, base)
                m = base.n_atoms
                with monkeypatch.context() as patch:
                    for cap in (m * m, m * m - 1):
                        patch.setattr(dist, "SUPPORT_CAP", cap)
                        for n in range(1, 25):
                            _assert_power_contract(d, n)
                    # the squaring of the 8-fold base is the first step past m * m - 1
                    with pytest.raises(SupportBlowup, match=f"enumerate {m * m} atom pairs"):
                        dist.iid_power(d, 16)


def _internal_results():
    """One result of each producer that builds its law without the checks
    of FiniteDist(...)."""
    rng = np.random.default_rng(23)
    a, b = random_dist(rng, 4, 7), random_dist(rng, 2, 4)
    return {
        "convolve, rows of the larger law": dist.convolve(b, a),
        "convolve, rows of the smaller law": dist.convolve(a, b),
        "iid_power": dist.iid_power(a, 5),
        "shift": dist.shift(a, 0.5),
        "shift with a merge": dist.shift(dist.make([0.0, 2e-9], [0.25, 0.75]), 1e8),
        "negate": dist.negate(a),
        "mixture": dist.mixture(a, b, 0.3),
        "floor_dist": dist.floor_dist(dist.shift(a, 3.0)),
        "discretize_uniform": dist.discretize_uniform(-1.0, 2.0, 0.1),
        "discretize_trunc_gaussian": dist.discretize_trunc_gaussian(1.0, 3.0, 0.25),
        "decay_two_point": dist.decay_two_point(4096, 1.0),
        "_POINT_ZERO": dominance._POINT_ZERO,
    }


@pytest.mark.parametrize("name", list(_internal_results()))
def test_internal_results_pass_the_public_checks(name):
    d = _internal_results()[name]
    arrays = (d.support, d.probs, d.log_probs)
    assert not any(arr.flags.writeable for arr in arrays)
    checked = dist.FiniteDist(*(arr.copy() for arr in arrays))
    assert same_bytes(checked, d)
    assert (np.diff(d.support) > dist.SNAP_TOL).all() and np.isfinite(d.log_probs).all()


class TestGapsPastTheLargestDouble:
    """An adjacent gap past the largest double counts as inf, with no
    overflow warning: the suite turns warnings into errors."""

    def test_half_gap_verdicts_are_the_gaps(self):
        # pairs near SNAP_TOL apart at every magnitude, subnormals included,
        # and pairs whose gap is past the largest double
        rng = np.random.default_rng(29)
        count = 200_000
        a = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-320, 309, count)
        a[::4] = rng.uniform(-1.0, 1.0, count // 4) * 1.6e308
        near = rng.uniform(0.0, 2.0, count) * dist.SNAP_TOL
        far = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-330, 308, count)
        overflowed = 0
        for b in (a + near, np.nextafter(a + dist.SNAP_TOL, a), -a, a + far):
            x = np.empty(2 * count)
            x[0::2], x[1::2] = a, b  # finite: |a + far| < 1.6e308 + 1e307
            with np.errstate(over="ignore"):
                gaps = b - a
            overflowed += np.isinf(gaps).sum()
            assert ((dist._half_gaps(x)[0::2] > dist.SNAP_TOL / 2) == (gaps > dist.SNAP_TOL)).all()
        assert overflowed > 10_000

    def test_convolve_rows_of_the_smaller_law(self):
        x = dist.make([-1e308, 9e307, 1e308], [0.2, 0.3, 0.5])
        z = dist.make([0.0, 1e300], [0.5, 0.5])
        assert same_bytes(dist.convolve(x, z), convolve_d1_major(x, z))
        assert dist.convolve(x, z).n_atoms == 6

    def test_shift(self):
        d = dist.shift(dist.make([-1e308, 9e307], [0.5, 0.5]), 1.0)
        assert d.support.tolist() == [-1e308, 9e307]

    def test_make_min_gap_and_moments(self):
        d = dist.make([1e308, -1e308, 0.0], [0.2, 0.3, 0.5])
        assert d.support.tolist() == [-1e308, 0.0, 1e308] and d.min_gap == 1e308
        wide = dist.make([-1.7e308, 1.7e308], [0.01, 0.99])
        assert wide.min_gap == math.inf and wide.moments.variance == math.inf


class TestMixture:
    def test_self_mixture(self):
        d = random_dist(np.random.default_rng(4))
        m = dist.mixture(d, d, 0.3)
        assert np.allclose(m.support, d.support)
        assert np.allclose(m.probs, d.probs, atol=1e-15)

    def test_two_points(self):
        m = dist.mixture(dist.make([1], [1.0]), dist.make([0], [1.0]), 0.25)
        assert m.support.tolist() == [0.0, 1.0]
        assert m.probs.tolist() == pytest.approx([0.75, 0.25])

    def test_mass_arithmetic(self):
        m = dist.mixture(
            dist.make([0], [1.0]), dist.make([0, 2], [0.5, 0.5]), 0.5
        )
        assert m.support.tolist() == [0.0, 2.0]
        assert m.probs.tolist() == pytest.approx([0.75, 0.25])

    def test_lambda_at_the_ends_is_one_law(self):
        d1, d2 = dist.make([0, 1], [0.5, 0.5]), dist.make([2], [1.0])
        assert dist.mixture(d1, d2, 1.0) is d1
        assert dist.mixture(d1, d2, 0.0) is d2

    def test_lambda_range(self):
        d = dist.make([0], [1.0])
        with pytest.raises(LambdaOutOfRange):
            dist.mixture(d, d, 1.5)


class TestShiftNegate:
    def test_shift(self):
        d = dist.shift(dist.make([0, 1], [0.5, 0.5]), 2.0)
        assert d.support.tolist() == [2.0, 3.0]

    def test_negate(self):
        d = dist.negate(dist.make([-1, 2], [0.3, 0.7]))
        assert d.support.tolist() == [-2.0, 1.0]
        assert d.probs.tolist() == pytest.approx([0.7, 0.3])

    def test_identity_shift(self):
        d = dist.negate(random_dist(np.random.default_rng(5)))
        assert dist.shift(d, 0.0) is d

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 1.7e308])
    def test_shift_past_the_doubles_rejected(self, c):
        # a NaN shift returned a NaN support; inf reported "support must be
        # strictly increasing"
        d = dist.make([0.0, 1e308], [0.5, 0.5])
        with pytest.raises(BadParams, match="sums of support points must be finite doubles"):
            dist.shift(d, c)

    def test_shift_snap_merges_as_make_does(self):
        # 1e8 + 2e-9 rounds to 1e8: the shift raised "support must be
        # strictly increasing"
        d = dist.make([0.0, 2e-9], [0.25, 0.75])
        assert same_bytes(dist.shift(d, 1e8), dist.make(d.support + 1e8, d.probs))
        assert dist.shift(d, 1e8).support.tolist() == [1e8]
        # where the shifted gaps still exceed SNAP_TOL, the bytes are kept
        e = dist.decay_two_point(4096, 1.0)
        moved = dist.shift(e, 0.5)
        assert moved.support.tolist() == [0.5, 4096.5]
        assert moved.probs.tobytes() == e.probs.tobytes()
        assert moved.log_probs.tobytes() == e.log_probs.tobytes()


class TestCdfMoments:
    def test_paper_cdf_value(self):
        d = dist.make([0, 1], [2 / 3, 1 / 3])
        assert dist.cdf(d, 0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_symmetric_two_point_moments(self):
        m = dist.moments(dist.make([-1, 1], [0.5, 0.5]))
        assert m == pytest.approx((0.0, 1.0, -1.0, 1.0))

    def test_cdf_below_support(self):
        d = random_dist(np.random.default_rng(6))
        assert dist.cdf(d, d.support[0] - 1.0) == 0.0

    def test_cdf_shape(self):
        d = random_dist(np.random.default_rng(7))
        xs = np.linspace(d.support[0] - 1, d.support[-1] + 1, 200)
        vals = dist.cdf(d, xs)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-12)
        # right continuity: value at an atom includes its mass
        assert dist.cdf(d, d.support[0]) == pytest.approx(d.probs[0], abs=1e-15)


class TestDiscretizers:
    def test_uniform_two_cells(self):
        d = dist.discretize_uniform(-0.6, 0.4, 0.5)
        assert d.support.tolist() == pytest.approx([-0.35, 0.15])
        assert d.probs.tolist() == pytest.approx([0.5, 0.5])

    def test_uniform_single_cell(self):
        d = dist.discretize_uniform(0.0, 1.0, 1.0)
        assert d.n_atoms == 1 and d.support[0] == pytest.approx(0.5)

    def test_uniform_mean_exact(self):
        d = dist.discretize_uniform(-0.6, 0.4, 1e-3)
        assert dist.moments(d).mean == pytest.approx(-0.1, abs=1e-12)

    def test_uniform_bad_interval(self):
        with pytest.raises(BadInterval):
            dist.discretize_uniform(1.0, 0.0, 0.1)
        with pytest.raises(BadInterval):
            dist.discretize_uniform(0.0, 1.0, 1.5)
        with pytest.raises(BadInterval):
            dist.discretize_uniform(0.0, 1.0, 0.0)

    def test_trunc_gaussian_symmetry_exact(self):
        z = dist.discretize_trunc_gaussian(1.0, 4.0, 0.5)
        back = dist.negate(z)
        assert back.support.tolist() == z.support.tolist()
        assert back.probs.tolist() == z.probs.tolist()
        assert dist.moments(z).mean == pytest.approx(0.0, abs=1e-12)

    def test_trunc_gaussian_variance_oracle(self):
        from scipy import stats

        z = dist.discretize_trunc_gaussian(1.0, 8.0, 0.01)
        oracle = stats.truncnorm.var(-8.0, 8.0, loc=0.0, scale=1.0)
        assert dist.moments(z).variance == pytest.approx(oracle, abs=0.01)

    def test_trunc_gaussian_params(self):
        with pytest.raises(BadParams):
            dist.discretize_trunc_gaussian(0.0, 1.0, 0.1)
        with pytest.raises(BadParams):
            dist.discretize_trunc_gaussian(1.0, 1.0, 0.5)

    def test_trunc_gaussian_same_bytes_as_mirrored_halves(self):
        rng = np.random.default_rng(3)
        for k in range(1000):
            t = 10 ** rng.uniform(-2, 3)
            v = t * t * 10 ** rng.uniform(-3.5, 1)  # some cells underflow to no mass
            step = t / 4 * (rng.uniform(1e-3, 1) if k % 2 else 1 / int(rng.integers(1, 500)))
            got, want = dist.discretize_trunc_gaussian(v, t, step), _trunc_gaussian_halves(v, t, step)
            assert same_bytes(got, want) and got.log_probs.tobytes() == want.log_probs.tobytes()


def _trunc_gaussian_halves(v, t, step):
    """discretize_trunc_gaussian as first written: the positive half of the
    grid and its weights, mirrored, with one branch for an odd cell count."""
    n = int(math.ceil(2 * t / step - 1e-12))
    h = 2 * t / n
    if n % 2:
        pos = np.concatenate(([0.0], (np.arange(n // 2) + 1.0) * h))
        sup = np.concatenate((-pos[:0:-1], pos))
    else:
        pos = (np.arange(n // 2) + 0.5) * h
        sup = np.concatenate((-pos[::-1], pos))
    wpos = np.exp(-(pos * pos) / (2.0 * v))
    w = np.concatenate((wpos[:0:-1] if n % 2 else wpos[::-1], wpos))
    w = w / w.sum()
    sup, w = sup[w > 0.0], w[w > 0.0]
    w = w / w.sum()
    return dist.FiniteDist(sup, w, np.log(w))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pref.GambleGrid((0.0, 1.0), 0.0).gambles(), BadParams),
        (lambda: pref.GambleGrid((0.0, 1.0), math.nan).gambles(), BadParams),
        (lambda: dist.discretize_uniform(-math.inf, 0.0, 1.0), BadInterval),
        (lambda: dist.discretize_uniform(0.0, math.inf, 1.0), BadInterval),
        (lambda: dist.discretize_trunc_gaussian(1.0, math.inf, 1.0), BadParams),
        # more cells than SUPPORT_CAP (numpy refused to allocate them)
        (lambda: dist.discretize_uniform(0.0, 1.0, 1e-300), BadInterval),
        (lambda: dist.discretize_trunc_gaussian(1.0, 1.0, 1e-300), BadParams),
        (lambda: mas.evaluate_gaussian(mas.point_mass(1.0), 0.0, math.nan), BadSupport),
        (lambda: mas.evaluate_gaussian(mas.point_mass(1.0), math.nan, 1.0), BadSupport),
        (lambda: mas.extend_integer_approx(mas.statistic_mean, dist.make([0.5], [1.0]), 2.5),
         BadParams),
        (lambda: dist.iid_power(dist.make([0.5], [1.0]), math.nan), BadParams),
        (lambda: dist.FiniteDist(np.zeros(2), np.ones(1), np.zeros(1)), LengthMismatch),
        (lambda: dist.FiniteDist(np.array([1.0, 0.0]), np.full(2, 0.5), np.log(np.full(2, 0.5))),
         BadParams),
        # every cell weight underflows
        (lambda: dist.discretize_trunc_gaussian(1e-10, 1.0, 0.25), BadParams),
        (lambda: mas.make_measure([], []), EmptyFamily),
        (lambda: mas.extend_integer_approx(mas.statistic_mean, dist.make([-1.0, 1.0], [0.5, 0.5]), 4),
         BadSupport),
        (lambda: pref.UtilitySpec.table([(1.0, -1.0), (2.0, 1.0)]), BadParams),
        (lambda: pref.betweenness_form(1.5, 1.0), BadParams),
        (lambda: pref.utility_value(pref.UtilitySpec("cubic"), 1.0), BadParams),
    ],
)
def test_bad_library_input_raises_a_mas_error(call, error):
    """Each of these escaped MasError (ZeroDivisionError, ValueError,
    OverflowError), came back as NaN, or used a truncated n; the inputs
    after the iid_power one reach input checks that no other test does."""
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("support, probs, log_probs, error", [
    ([], [], [], LengthMismatch),
    ([0.0, 1.0], [0.5, 0.5], np.log([0.5, 0.5, 0.5]), LengthMismatch),
    # FiniteDist(...) took these: a mean of -0.5 and a variance of -0.75,
    # masses summing to 1.4, and log masses under which K_1 read 1.0, not 0.62
    ([0.0, 1.0], [1.5, -0.5], [0.0, 0.0], NegativeProb),
    ([0.0, 1.0], [math.nan, 1.0], [0.0, 0.0], NegativeProb),
    ([0.0, 1.0], [0.7, 0.7], np.log([0.7, 0.7]), MassNotOne),
    ([0.0, 1.0], [0.5, 0.5], [0.0, 0.0], BadParams),
    ([0.0, 1.0], [0.5, 0.5], [800.0, 0.0], BadParams),
], ids=["empty", "log_probs shape", "negative mass", "NaN mass", "sum 1.4", "log_probs 0",
        "log mass 800"])
def test_public_constructor_checks_the_masses(support, probs, log_probs, error):
    arrays = (np.array(a, dtype=np.float64) for a in (support, probs, log_probs))
    with pytest.raises(error):
        dist.FiniteDist(*arrays)


class TestDecayTwoPoint:
    def test_half_mass(self):
        d = dist.decay_two_point(1, math.log(2))
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_quarter_mass(self):
        d = dist.decay_two_point(2, math.log(2))
        assert d.probs.tolist() == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_top_is_n(self):
        d = dist.decay_two_point(17, 0.3)
        assert d.support[-1] == 17.0

    def test_underflow_kept_in_log_space(self):
        d = dist.decay_two_point(4096, 1.0)
        assert d.n_atoms == 2
        assert d.log_probs[-1] == pytest.approx(-4096.0)
        assert d.probs[-1] == 0.0  # linear projection underflows

    def test_b_zero_disallowed(self):
        with pytest.raises(BadParams):
            dist.decay_two_point(1, 0.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan, 1e308, -1.0])
    def test_b_with_no_finite_top_mass_disallowed(self, b):
        with pytest.raises(BadParams):
            dist.decay_two_point(4096, b)

    def test_same_bytes_as_the_log_space_merge(self):
        ns = np.unique(np.geomspace(1, 4096, 80).astype(int))
        bs = np.concatenate((np.geomspace(1e-8, 50.0, 60), [0.25, 1.0, math.log(2)]))
        for n in ns:
            for b in bs:
                want = decay_two_point_log_space(int(n), float(b))
                assert same_bytes(dist.decay_two_point(int(n), float(b)), want), (n, b)
        assert dist.decay_two_point(4096, 1.0).probs[-1] == 0.0  # the underflow case


class TestFloor:
    def test_basic(self):
        d = dist.floor_dist(dist.make([0.2, 0.7, 1.1], [0.3, 0.3, 0.4]))
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == pytest.approx([0.6, 0.4])

    def test_near_integer_snaps_up(self):
        d = dist.floor_dist(dist.make([2.0 - 1e-12], [1.0]))
        assert d.support[0] == 2.0


def test_fosd_preserved_by_common_convolution():
    from mastat import dominance

    rng = np.random.default_rng(8)
    found = 0
    for _ in range(1000):  # 111 draws give 20 pairs; a broken fosd fails, not hangs
        d1, d2 = random_dist(rng), random_dist(rng)
        if not dominance.fosd(d1, d2).dominates:
            continue
        found += 1
        z = random_dist(rng)
        assert dominance.fosd(
            dist.convolve(d1, z), dist.convolve(d2, z), tol=1e-12
        ).dominates
        if found == 20:
            break
    assert found == 20


def _merge_sorted_oracle(values, weights, tol):
    """The snap-merge as first written: cluster gaps <= tol, sum masses,
    mass-weighted representative (exact common value for constant runs)."""
    n = values.shape[0]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > tol)))
    ends = np.append(starts[1:], n) - 1
    w = np.add.reduceat(weights, starts)
    wv = np.add.reduceat(weights * values, starts)
    first = values[starts]
    last = values[ends]
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = np.where(w > 0.0, wv / np.where(w > 0.0, w, 1.0), first)
    exact = first == last
    rep[exact] = first[exact]
    return rep, w


def _sort_and_merge(support, probs):
    """Oracle for make: always sort, snap-merge, drop zero mass, renormalize."""
    support = np.asarray(support, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(support, kind="stable")
    v, p = _merge_sorted_oracle(support[order], probs[order], dist.SNAP_TOL)
    keep = p > 0.0
    v, p = v[keep], p[keep]
    p = p / p.sum()
    return v, p, np.log(p)


class TestCanonicalEarlyReturn:
    """make skips the sort and merge on input that is already canonical;
    the atoms must be the same bytes as the sort-and-merge would give."""

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        real = dist._merge_sorted

        def counting(values, weights, tol):
            calls.append(values.size)
            return real(values, weights, tol)

        monkeypatch.setattr(dist, "_merge_sorted", counting)
        return calls

    @staticmethod
    def _assert_oracle(support, probs):
        d = dist.make(support, probs)
        v, p, lp = _sort_and_merge(support, probs)
        assert d.support.tobytes() == v.tobytes()
        assert d.probs.tobytes() == p.tobytes()
        assert d.log_probs.tobytes() == lp.tobytes()
        return d

    def _cases(self, rng, kind):
        n = int(rng.integers(1, 12))
        support = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.integers(-2, 3)
        if kind == "canonical":
            support = np.sort(support) + np.arange(n) * 1e-6
        elif kind == "tie-heavy" and n > 1:
            support = np.sort(support)
            ties = rng.integers(0, n - 1, max(1, n // 2))
            support[ties + 1] = support[ties]
            rng.shuffle(support)
        elif kind == "near-tie" and n > 1:
            support = np.sort(support) + np.arange(n) * 1e-6
            near = rng.integers(0, n - 1, max(1, n // 3))
            support[near + 1] = support[near] + 5e-10
        elif kind == "unsorted":
            support = rng.permutation(np.sort(support) + np.arange(n) * 1e-6)
        probs = rng.dirichlet(np.ones(n))
        return support, probs

    def test_canonical_input_takes_the_early_return(self, merges):
        rng = np.random.default_rng(41)
        for _ in range(300):
            self._assert_oracle(*self._cases(rng, "canonical"))
        assert merges == []

    @pytest.mark.parametrize("kind", ["unsorted", "tie-heavy", "near-tie"])
    def test_other_input_is_sorted_and_merged(self, merges, kind):
        rng = np.random.default_rng(42)
        for _ in range(300):
            support, probs = self._cases(rng, kind)
            # a one-atom or chance-sorted draw is canonical after all
            canonical = bool(np.all(np.diff(support) > dist.SNAP_TOL))
            before = len(merges)
            d = self._assert_oracle(support, probs)
            assert len(merges) == before + (not canonical)
            assert np.all(np.diff(d.support) > dist.SNAP_TOL)

    def test_zero_mass_atom_is_dropped_not_kept(self, merges):
        d = self._assert_oracle([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        assert d.n_atoms == 2 and len(merges) == 1

    def test_permuted_input_gives_the_same_bytes(self, merges):
        rng = np.random.default_rng(43)
        for _ in range(200):
            support, probs = self._cases(rng, "canonical")
            perm = rng.permutation(support.size)
            fast = dist.make(support, probs)
            slow = dist.make(support[perm], probs[perm])
            for field in ("support", "probs", "log_probs"):
                assert getattr(fast, field).tobytes() == getattr(slow, field).tobytes()

    def test_caller_arrays_are_not_frozen(self):
        support = np.array([0.0, 1.0])
        probs = np.array([0.5, 0.5])
        d = dist.make(support, probs)
        assert support.flags.writeable and probs.flags.writeable
        support[0] = -1.0
        assert d.support[0] == 0.0


def _direct_moments(d):
    mean = float(np.dot(d.probs, d.support))
    var = float(np.dot(d.probs, (d.support - mean) ** 2))
    return (mean, var, float(d.support[0]), float(d.support[-1]))


class TestStoredMoments:
    def _outputs(self):
        rng = np.random.default_rng(44)
        a = random_dist(rng)
        b = random_dist(rng)
        a.moments  # a cached value must not leak into derived distributions
        return {
            "make": a,
            "shift": dist.shift(a, 1.25),
            "negate": dist.negate(a),
            "convolve": dist.convolve(a, b),
            "decay_two_point": dist.decay_two_point(40, 0.5),
            "decay_two_point underflow": dist.decay_two_point(4096, 1.0),
        }

    def test_equal_to_direct_formula(self):
        for name, d in self._outputs().items():
            assert tuple(dist.moments(d)) == _direct_moments(d), name

    def test_computed_once(self):
        d = dist.make([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
        assert dist.moments(d) is dist.moments(d)


class TestCachedSteps:
    def test_cdf_and_survival_match_their_formulas(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            d = dist.convolve(random_dist(rng), random_dist(rng))
            pts = np.concatenate((d.support, rng.uniform(-5.0, 5.0, 20)))
            idx = np.searchsorted(d.support, pts, side="right")
            cum = np.cumsum(d.probs)
            cum = cum / cum[-1]
            want_cdf = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            tail = np.cumsum(d.probs[::-1])[::-1]
            want_sf = np.concatenate((tail / tail[0], [0.0]))[idx]
            assert dist.cdf(d, pts).tobytes() == want_cdf.tobytes()
            assert d.survival_steps[idx].tobytes() == want_sf.tobytes()
            assert dist.cdf(d, float(pts[0])) == want_cdf[0]

    def test_steps_are_read_only(self):
        d = dist.make([0.0, 1.0], [0.5, 0.5])
        for steps in (d.cdf_steps, d.survival_steps):
            with pytest.raises(ValueError):
                steps[0] = 0.5


class TestMergedSupport:
    """merged_support writes out np.union1d's steps; np.union1d is the
    oracle, byte for byte, signed zeros included."""

    POOL = (-1.7e308, -2.5, -1e-300, -5e-324, 5e-324, 1e-310, 0.75, 3.0, 1.7e308)

    def _law(self, rng, zero):
        atoms = rng.choice(self.POOL, int(rng.integers(0, 6)), replace=False)
        atoms = np.concatenate((atoms, rng.uniform(-4.0, 4.0, int(rng.integers(0, 4)))))
        if zero is not None:
            atoms = np.append(atoms, zero)
        if atoms.size == 0:
            atoms = np.array([1.0])
        atoms = np.unique(atoms)
        probs = np.full(atoms.size, 1.0 / atoms.size)
        return dist.FiniteDist(atoms, probs, np.log(probs))

    def test_bytes_of_union1d(self):
        rng = np.random.default_rng(46)
        for _ in range(400):
            z1, z2 = (rng.choice([None, -0.0, 0.0]) for _ in range(2))
            d1, d2 = self._law(rng, z1), self._law(rng, z2)
            # identical supports, and laws sharing atoms
            pairs = ((d1, d2), (d2, d1), (d1, d1), (d1, dist.negate(d1)))
            for a, b in pairs:
                want = np.union1d(a.support, b.support)
                got = dist.merged_support(a, b)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_large_supports(self):
        rng = np.random.default_rng(47)
        for n in (16, 17, 1000, 5000):
            d1, d2 = (dist.make(rng.integers(-n, n, n) / 8.0, np.full(n, 1.0 / n)) for _ in range(2))
            want = np.union1d(d1.support, d2.support)
            assert dist.merged_support(d1, d2).tobytes() == want.tobytes()


class TestConvolveLayout:
    """convolve lays its pair sums out one row per atom of the smaller law;
    the result must be the bytes of the d1-major layout (the oracle)."""

    @pytest.fixture
    def layouts(self, monkeypatch):
        """Pair sums that convolve sorts without _canonical's early-return
        test: those laid out one row per atom of the smaller law."""
        seen, inside = [], []
        real_sort, real_canonical = dist._sort_merge, dist._canonical

        def canonical(*args):
            inside.append(True)
            try:
                return real_canonical(*args)
            finally:
                inside.pop()

        def sort_merge(support, probs):
            if not inside:
                seen.append(support)
            return real_sort(support, probs)

        monkeypatch.setattr(dist, "_canonical", canonical)
        monkeypatch.setattr(dist, "_sort_merge", sort_merge)
        return seen

    @staticmethod
    def _assert_oracle(d1, d2):
        for a, b in ((d1, d2), (d2, d1)):
            assert same_bytes(dist.convolve(a, b), convolve_d1_major(a, b))

    @pytest.mark.parametrize("kind, scale", [
        ("random", 1.0), ("lattice", 0.1), ("lattice", 0.25),
        ("random", 1e5), ("random", 1e6), ("random", 1e7), ("random", 1e8),
    ])
    def test_small_laws_match_d1_major(self, kind, scale):
        rng = np.random.default_rng(61)
        for _ in range(300):
            d1 = seeded_law(rng, int(rng.integers(1, 13)), kind, scale)
            d2 = seeded_law(rng, int(rng.integers(1, 5)), kind, scale)
            self._assert_oracle(d1, d2)

    @pytest.mark.parametrize("kind, scale", [("random", 1.0), ("lattice", 0.1), ("lattice", 0.25)])
    def test_power_chain_matches_d1_major(self, kind, scale):
        """Every step of X^{*n} = X^{*(n-1)} * X up to n = 32; for a
        generic 3-atom law the last step convolves 528 atoms with 3."""
        rng = np.random.default_rng(62)
        for _ in range(3):
            x = seeded_law(rng, 3, kind, scale)
            power = x
            for _n in range(2, 33):
                step = dist.convolve(power, x)
                assert same_bytes(step, convolve_d1_major(power, x))
                power = step
            if kind == "random":
                assert power.n_atoms == 561

    def test_offset_laws_match_d1_major(self):
        """Support near 1e5..1e8 against a small law with ordinary gaps."""
        rng = np.random.default_rng(63)
        for scale in (1e5, 1e6, 1e7, 1e8):
            for _ in range(100):
                big = dist.make(scale + rng.uniform(0.0, 1.0, 8), rng.dirichlet(np.ones(8)))
                self._assert_oracle(big, seeded_law(rng, int(rng.integers(2, 5)), "random"))

    @pytest.mark.parametrize("offset, small", [
        (1e8, [0.0, 4e-9, 8e-9]),
        (1.5e9, [0.0, 4e-9, 8e-9, 1.2e-8]),
    ])
    def test_sub_ulp_gaps_keep_d1_major(self, layouts, offset, small):
        """The small law's gaps are below the ulp of the sums, so sums along
        one large-law atom tie exactly and the d1-major order must stay.
        Near 1e8 two sums tie, which add alike in either order, so only the
        layout check sees a wrong choice; near 1.5e9 four tie, and their
        masses would add in another order."""
        assert offset + small[1] == offset  # a tie along one atom
        rng = np.random.default_rng(64)
        for _ in range(100):
            big = dist.make(offset + rng.uniform(0.0, 1.0, 8), rng.dirichlet(np.ones(8)))
            z = dist.make(small, rng.dirichlet(np.ones(len(small))))
            self._assert_oracle(big, z)
        assert layouts == []

    def test_sub_ulp_ties_along_the_small_law_use_its_rows(self, layouts):
        """Gaps of the larger law below the ulp tie sums along one atom of
        the smaller law; those keep ascending d1 order in both layouts."""
        rng = np.random.default_rng(65)
        for _ in range(100):
            fine = dist.make([0.0, 4e-9, 8e-9, 1.2e-8, 1.6e-8], rng.dirichlet(np.ones(5)))
            big = dist.make([1.5e9, 1.5e9 + 1.0, 1.5e9 + 3.0], rng.dirichlet(np.ones(3)))
            self._assert_oracle(fine, big)
        assert len(layouts) == 100
        y, x = big.support, fine.support
        assert layouts[-1].tobytes() == (y[::-1, None] + x).ravel().tobytes()

    def test_rows_follow_the_smaller_law(self, layouts):
        x = dist.make([0.0, 1.0, 2.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        y = dist.make([0.0, 0.5], [0.5, 0.5])
        dist.convolve(x, y)
        dist.convolve(y, x)  # already one row per atom of the smaller law
        dist.convolve(x, dist.make([3.0], [1.0]))  # one row either way
        assert len(layouts) == 1
        want = np.array([0.5, 1.5, 2.5, 4.5, 0.0, 1.0, 2.0, 4.0])
        assert layouts[0].tobytes() == want.tobytes()
