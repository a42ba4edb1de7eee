import math
import tracemalloc

import numpy as np
import pytest

from mastat import dist, mas
from mastat.errors import (
    BadSupport,
    EmptyFamily,
    InfiniteAtom,
    InputError,
    MassNotOne,
    SupportBlowup,
)
from conftest import random_dist, random_measure

SYM = dist.make([-1, 1], [0.5, 0.5])


class TestMeasure:
    def test_duplicates_merge(self):
        mu = mas.make_measure([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert mu.n_atoms == 2
        assert mu.weights.tolist() == pytest.approx([0.5, 0.5])

    def test_zero_weights_dropped(self):
        mu = mas.make_measure([0.0, 1.0], [1.0, 0.0])
        assert mu.n_atoms == 1

    def test_mass_checked(self):
        with pytest.raises(MassNotOne):
            mas.make_measure([0.0], [0.5])

    def test_mass_error_prints_plain_number(self):
        with pytest.raises(MassNotOne, match="sum to inf,") as err:
            mas.make_measure([1.0, 2.0], [np.inf, 1.0])
        assert "np.float64" not in str(err.value)

    def test_nan_weight_rejected(self):
        for wts in ([np.nan, 1.0], [1.0, np.nan]):
            with pytest.raises(InputError):
                mas.make_measure([1.0, 2.0], wts)

    def test_nan_location_rejected(self):
        for locs in ([np.nan, 1.0], [1.0, np.nan]):
            with pytest.raises(BadSupport, match="locations must not be NaN"):
                mas.make_measure(locs, [0.5, 0.5])

    def test_infinite_atoms_ordered(self):
        mu = mas.make_measure([np.inf, 0.0, -np.inf], [0.2, 0.5, 0.3])
        assert mu.locations.tolist() == [-np.inf, 0.0, np.inf]
        assert repr(mu) == "MixingMeasure(-inf:0.3, 0:0.5, inf:0.2)"


class TestEvaluate:
    def test_dirac_zero_is_mean(self):
        d = random_dist(np.random.default_rng(30))
        assert mas.evaluate(mas.point_mass(0.0), d) == pytest.approx(
            dist.moments(d).mean, abs=1e-14
        )

    def test_minmax_average(self):
        mu = mas.make_measure([-np.inf, np.inf], [0.5, 0.5])
        assert mas.evaluate(mu, dist.make([0, 1], [0.5, 0.5])) == 0.5

    def test_sign_cancellation(self):
        mu = mas.make_measure([-1.0, 1.0], [0.5, 0.5])
        assert mas.evaluate(mu, SYM) == pytest.approx(0.0, abs=1e-14)

    def test_normalization_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu = random_measure(rng, allow_inf=True)
            c = float(rng.uniform(-5, 5))
            assert mas.evaluate(mu, dist.make([c], [1.0])) == c

    def test_fresh_law_leaves_its_moments_uncomputed(self):
        # finite indices clear of 0, and infinite ones, read only the
        # support's ends: neither the mean nor the variance is computed
        x, y = dist.make([-1.0, 0.5], [0.4, 0.6]), dist.make([0.0, 2.0], [0.5, 0.5])
        for locs in ([-2.0, 0.5, 3.0], [-np.inf, 1.5]):
            mu = mas.make_measure(locs, np.full(len(locs), 1.0 / len(locs)))
            for d in (dist.make([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]), dist.convolve(x, y)):
                mas.evaluate(mu, d)
                assert "moments" not in vars(d)

    def test_additivity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            mu = random_measure(rng, allow_inf=True)
            d1, d2 = random_dist(rng), random_dist(rng)
            lhs = mas.evaluate(mu, dist.convolve(d1, d2))
            rhs = mas.evaluate(mu, d1) + mas.evaluate(mu, d2)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_fosd_monotone(self):
        from mastat import dominance

        rng = np.random.default_rng(33)
        found = 0
        while found < 20:
            d1, d2 = random_dist(rng), random_dist(rng)
            if not dominance.fosd(d1, d2).dominates:
                continue
            found += 1
            mu = random_measure(rng, allow_inf=True)
            assert mas.evaluate(mu, d1) >= mas.evaluate(mu, d2) - 1e-10


class TestGaussian:
    def test_dirac_zero(self):
        assert mas.evaluate_gaussian(mas.point_mass(0.0), 1.3, 4.0) == 1.3

    def test_unit_coefficient(self):
        assert mas.evaluate_gaussian(mas.point_mass(1.0), 0.0, 1.0) == 0.5

    def test_matches_discretized(self):
        rng = np.random.default_rng(34)
        z = dist.discretize_trunc_gaussian(1.0, 8.0, 0.01)
        for _ in range(10):
            mu = random_measure(rng, lo=-2.0, hi=2.0)
            assert mas.evaluate(mu, z) == pytest.approx(
                mas.evaluate_gaussian(mu, 0.0, 1.0), abs=0.02
            )

    def test_rejects_infinite_atoms(self):
        mu = mas.make_measure([0.0, np.inf], [0.5, 0.5])
        with pytest.raises(InfiniteAtom):
            mas.evaluate_gaussian(mu, 0.0, 1.0)


class TestRiskClass:
    def test_cases(self):
        assert mas.classify_risk(mas.point_mass(-2.0)) is mas.RiskClass.AVERSE
        assert (
            mas.classify_risk(mas.make_measure([-1.0, 1.0], [0.5, 0.5]))
            is mas.RiskClass.MIXED
        )
        assert mas.classify_risk(mas.point_mass(0.0)) is mas.RiskClass.NEUTRAL
        assert (
            mas.classify_risk(mas.make_measure([0.0, np.inf], [0.9, 0.1]))
            is mas.RiskClass.SEEKING
        )
        assert (
            mas.classify_risk(mas.make_measure([-np.inf, 0.0], [0.1, 0.9]))
            is mas.RiskClass.AVERSE
        )

    def test_averse_below_mean(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            locs = -rng.uniform(0.0, 4.0, 2)
            mu = mas.make_measure(locs, rng.dirichlet(np.ones(2)))
            if mas.classify_risk(mu) is not mas.RiskClass.AVERSE:
                continue
            d = random_dist(rng)
            assert mas.evaluate(mu, d) <= dist.moments(d).mean + 1e-10

    def test_seeking_above_mean(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            locs = rng.uniform(0.0, 4.0, 2)
            mu = mas.make_measure(locs, rng.dirichlet(np.ones(2)))
            if mas.classify_risk(mu) is not mas.RiskClass.SEEKING:
                continue
            d = random_dist(rng)
            assert mas.evaluate(mu, d) >= dist.moments(d).mean - 1e-10


class TestCompare:
    def test_worked_example(self):
        mu1 = mas.point_mass(2.0)
        mu2 = mas.make_measure([1.0, 3.0], [0.25, 0.75])
        assert mas.compare(mu1, mu2).order is mas.CompareOrder.LE

    def test_pointwise_order(self):
        assert (
            mas.compare(mas.point_mass(-1.0), mas.point_mass(1.0)).order
            is mas.CompareOrder.LE
        )

    def test_equal(self):
        mu = mas.make_measure([-1.0, np.inf], [0.7, 0.3])
        assert mas.compare(mu, mu).order is mas.CompareOrder.EQ

    def test_incomparable_with_witness(self):
        mu1 = mas.make_measure([-2.0, 2.0], [0.5, 0.5])
        mu2 = mas.point_mass(0.0)
        res = mas.compare(mu1, mu2)
        assert res.order is mas.CompareOrder.INCOMPARABLE
        assert res.witness is not None

    def test_le_implies_statistic_order(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 15:
            mu1 = random_measure(rng, allow_inf=True)
            mu2 = random_measure(rng, allow_inf=True)
            if mas.compare(mu1, mu2).order is not mas.CompareOrder.LE:
                continue
            checked += 1
            for _ in range(30):
                d = random_dist(rng)
                assert mas.evaluate(mu1, d) <= mas.evaluate(mu2, d) + 1e-10

    def test_same_order_and_witness_as_per_b_loop(self):
        rng = np.random.default_rng(11)
        orders = set()
        for _ in range(2000):
            mu1 = _measure(rng)
            mu2 = mu1 if rng.random() < 0.1 else _measure(rng)
            got, want = mas.compare(mu1, mu2), _compare_per_b(mu1, mu2)
            assert got == want
            assert got.witness is None or np.signbit(got.witness) == np.signbit(want.witness)
            orders.add(got.order)
            # W - b S sums in another order than a dot per b; every term
            # lies in [0, 1) and the weights sum to 1
            b = np.array(_breakpoints(mu1, mu2))
            loop = [_tail_integral_per_b(mu1, v) for v in b]
            assert np.abs(mas._tail_integrals(mu1, b) - loop).max() <= 1e-14
        assert orders == set(mas.CompareOrder)

    def test_scale_free(self):
        # atoms times 2**k: the same order, the witness times 2**k; the
        # +-1e-6 stand-ins for b -> 0+- changed the order from k = -20 down
        rng = np.random.default_rng(13)
        for _ in range(300):
            mu1 = _measure(rng)
            mu2 = mu1 if rng.random() < 0.1 else _measure(rng)
            want = mas.compare(mu1, mu2)
            for k in range(-60, 61, 10):
                got = mas.compare(*(mas.make_measure(mu.locations * 2.0**k, mu.weights)
                                    for mu in (mu1, mu2)))
                assert got.order is want.order, k
                if want.witness is not None:
                    assert got.witness == want.witness * 2.0**k, k
                    assert np.signbit(got.witness) == np.signbit(want.witness)

    @pytest.mark.parametrize("mu1, mu2, above, below", [
        # an index of 1e-7 is an Arrow-Pratt coefficient for amounts in
        # the millions: 1e-6 stood in for b -> 0+ and read LE
        (([1e-7], [1.0]), ([0.0, np.inf], [0.5, 0.5]),
         ([-1e9, 0.0], [0.5, 0.5]), ([0.0, 1.0], [0.5, 0.5])),
        (([0.0, 1.0], [0.5 - 1e-9, 0.5 + 1e-9]), ([0.0, 2.0], [0.5, 0.5]),
         ([0.0, 1e10], [0.999, 0.001]), ([0.0, 1.0], [0.5, 0.5])),
    ], ids=["delta-1e-7", "weight-1e-9"])
    def test_failure_only_in_the_limit_is_incomparable(self, mu1, mu2, above, below):
        mu1, mu2 = mas.make_measure(*mu1), mas.make_measure(*mu2)
        above, below = dist.make(*above), dist.make(*below)
        assert mas.evaluate(mu1, above) > mas.evaluate(mu2, above)
        assert mas.evaluate(mu1, below) < mas.evaluate(mu2, below)
        res = mas.compare(mu1, mu2)
        assert res.order is mas.CompareOrder.INCOMPARABLE
        assert res.witness == 0.0 and not np.signbit(res.witness)  # b -> 0+
        res = mas.compare(mu2, mu1)
        assert res.order is mas.CompareOrder.INCOMPARABLE and res.witness > 0

    def test_limit_from_below_is_negative_zero(self):
        # the first pair above, mirrored: a -> -a and the sides swapped
        res = mas.compare(mas.make_measure([-np.inf, 0.0], [0.5, 0.5]), mas.point_mass(-1e-7))
        assert res.order is mas.CompareOrder.INCOMPARABLE
        assert res.witness == 0.0 and np.signbit(res.witness)  # b -> 0-

    @pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-7])
    def test_same_order_as_a_dense_check(self, scale):
        # the dense check takes 400 indices per side from 1e-12 s to 5 s,
        # plus the atoms; the +-1e-6 stand-ins disagreed with it on 5, 29
        # and 65 of these pairs
        rng = np.random.default_rng(14)
        ends = np.geomspace(1e-12 * scale, 5.0 * scale, 400)
        for _ in range(600):
            mu1, mu2 = (mas.make_measure(m.locations * scale, m.weights)
                        for m in (_measure(rng), _measure(rng)))
            atoms = np.concatenate((mu1.locations, mu2.locations))
            b = np.concatenate((-ends, ends, atoms[np.isfinite(atoms) & (atoms != 0.0)]))
            gap = np.sign(b) * (_tail_integrals_dense(mu1, b) - _tail_integrals_dense(mu2, b))
            le, ge = (gap <= 1e-12).all(), (gap >= -1e-12).all()
            want = {(True, True): mas.CompareOrder.EQ, (True, False): mas.CompareOrder.LE,
                    (False, True): mas.CompareOrder.GE}.get((le, ge), mas.CompareOrder.INCOMPARABLE)
            assert mas.compare(mu1, mu2).order is want

    def test_subnormal_atom_keeps_the_integrals_finite(self):
        # w/a passes the largest double for atoms below about 5.6e-309
        for a in (1e-310, 5e-324):
            mu1 = mas.make_measure([a, 1.0], [0.5, 0.5])
            assert mas.compare(mu1, mas.point_mass(1.0)).order is mas.CompareOrder.LE
            assert np.isfinite(mas._tail_integrals(mu1, np.array([a, 1.0]))).all()

    def test_memory_is_linear_in_the_atoms(self):
        # a (grid x atoms) table peaked at 69 MB at 1,000 atoms; the prefix
        # and suffix sums peak at 1.4 MB there and 6.2 MB at 20,000
        rng = np.random.default_rng(12)
        for n in (1_000, 20_000):
            mu1, mu2 = (mas.make_measure(np.append(rng.uniform(-3, 3, n - 1), np.inf),
                                         rng.dirichlet(np.ones(n))) for _ in range(2))
            tracemalloc.start()
            try:
                got = mas.compare(mu1, mu2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6
            if n == 1_000:
                assert got == _compare_per_b(mu1, mu2)


def _measure(rng):
    """1-5 atoms on [-3, 3], on the integers three times in ten; an end
    atom moves to -inf or +inf four times in ten."""
    n = int(rng.integers(1, 6))
    lattice = rng.random() < 0.3
    locs = rng.integers(-3, 4, n).astype(float) if lattice else rng.uniform(-3, 3, n)
    if rng.random() < 0.4:
        locs[0 if rng.random() < 0.5 else -1] = -np.inf if rng.random() < 0.5 else np.inf
    return mas.make_measure(locs, rng.dirichlet(np.ones(n)))


def _tail_integrals_dense(mu, b):
    """The tail integrals at every nonzero b, as a (b x atoms) table."""
    a, w = mu.locations, mu.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(np.isinf(a), 1.0, 1.0 - b[:, None] / a)
    inside = np.where(b[:, None] > 0, a >= b[:, None], a <= b[:, None])
    return np.where(inside, terms, 0.0) @ w


def _breakpoints(mu1, mu2):
    """The finite nonzero atoms in increasing order, with -0.0 and 0.0 (the
    limits b -> 0- and b -> 0+) between the negative and the positive."""
    atoms = sorted({float(a) for mu in (mu1, mu2) for a in mu.locations
                    if a != 0.0 and math.isfinite(a)})
    neg = [a for a in atoms if a < 0]
    return neg + [-0.0, 0.0] + atoms[len(neg):]


def _tail_integral_per_b(mu, b):
    locs, wts = mu.locations, mu.weights
    if b == 0.0:  # the limit: the weight strictly below or above 0
        return float(wts[locs < 0].sum() if math.copysign(1.0, b) < 0 else wts[locs > 0].sum())
    sel = locs >= b if b > 0 else locs <= b
    vals = np.where(np.isinf(locs[sel]), 1.0, 1.0 - b / locs[sel])
    return float(np.dot(wts[sel], vals))


def _compare_per_b(mu1, mu2):
    """mas.compare as first written: a Python loop over b, two tail
    integrals per point, here on the atoms and the limits b -> 0+-."""
    tail = _tail_integral_per_b
    le = ge = True
    witness = None
    for b in _breakpoints(mu1, mu2):
        i1, i2 = tail(mu1, b), tail(mu2, b)
        pos = math.copysign(1.0, b) > 0
        le_fails = i1 > i2 + 1e-12 if pos else i1 < i2 - 1e-12
        ge_fails = i2 > i1 + 1e-12 if pos else i2 < i1 - 1e-12
        if le_fails and witness is None:
            witness = float(b)
        le, ge = le and not le_fails, ge and not ge_fails
    order = {(True, True): mas.CompareOrder.EQ, (True, False): mas.CompareOrder.LE,
             (False, True): mas.CompareOrder.GE}.get((le, ge), mas.CompareOrder.INCOMPARABLE)
    return mas.CompareResult(order, None if le or ge else witness)


class TestExtensions:
    def test_nonneg_identity(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            mu = random_measure(rng, allow_inf=True)
            d = random_dist(rng)
            got = mas.extend_from_nonneg(lambda dd: mas.evaluate(mu, dd), d)
            assert got == pytest.approx(mas.evaluate(mu, d), abs=1e-12)

    def test_point_mass_negative(self):
        got = mas.extend_from_nonneg(lambda dd: mas.evaluate(mas.point_mass(1.0), dd),
                                     dist.make([-3.0], [1.0]))
        assert got == -3.0

    def test_nonneg_passthrough(self):
        d = dist.make([0.0, 2.0], [0.5, 0.5])
        calls = []

        def stat(dd):
            calls.append(dd)
            return 1.25

        assert mas.extend_from_nonneg(stat, d) == 1.25
        assert calls[0].support.tolist() == d.support.tolist()

    def test_integer_bracket_collapses(self):
        d = dist.make([0.0, 2.0], [0.5, 0.5])
        est, width = mas.extend_integer_approx(mas.statistic_mean, d, 1)
        assert width == pytest.approx(1.0)
        assert est == pytest.approx(dist.moments(d).mean + 0.5)

    def test_half_point(self):
        d = dist.make([0.5], [1.0])
        est, width = mas.extend_integer_approx(mas.statistic_mean, d, 64)
        assert width <= 1.0 / 32 + 1e-12
        assert est == pytest.approx(0.5, abs=width / 2 + 1e-12)

    def test_third_point_lattice(self):
        d = dist.make([1.0 / 3.0], [1.0])
        est, width = mas.extend_integer_approx(mas.statistic_mean, d, 3)
        lower = est - width / 2
        assert lower == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert width <= 1.0 / 3.0 + 1e-12


def _scan_integer_approx(stat, d, n_max, power_of):
    """extend_integer_approx as first written: every power up to n_max."""
    power, n_used = d, 1
    for n in range(2, int(n_max) + 1):
        try:
            power = power_of(d, n)
        except SupportBlowup:
            break
        n_used = n
    floored = dist.floor_dist(power)
    lower = float(stat(floored)) / n_used
    upper = float(stat(dist.shift(floored, 1.0))) / n_used
    return (lower + upper) / 2.0, upper - lower


class TestIntegerApproxPowers:
    def _counting(self, monkeypatch, cap):
        calls = []

        def power_of(d, n):
            calls.append(n)
            return dist.iid_power(d, n)

        monkeypatch.setattr(dist, "SUPPORT_CAP", cap)
        monkeypatch.setattr(mas, "iid_power", power_of)
        return calls, power_of

    def test_one_power_when_n_max_fits(self, monkeypatch):
        calls, power_of = self._counting(monkeypatch, dist.SUPPORT_CAP)
        d = dist.make([0.0, 0.5, 1.25], [0.2, 0.5, 0.3])
        got = mas.extend_integer_approx(mas.statistic_mean, d, 64)
        assert calls == [64]
        assert got == _scan_integer_approx(mas.statistic_mean, d, 64, power_of)

    @pytest.mark.parametrize("n_max", [1, 2, 7, 40])
    def test_capped_powers_match_the_scan(self, monkeypatch, n_max):
        # the cap stops the powers of this law at n = 4
        calls, power_of = self._counting(monkeypatch, 60)
        d = dist.make([0.0, 0.3, 1.7, 2.9], [0.1, 0.2, 0.3, 0.4])
        got = mas.extend_integer_approx(mas.statistic_mean, d, n_max)
        assert got == _scan_integer_approx(mas.statistic_mean, d, n_max, power_of)


class TestFamily:
    def test_minmax(self):
        fam = [mas.point_mass(-np.inf), mas.point_mass(np.inf)]
        d = random_dist(np.random.default_rng(39))
        assert mas.evaluate_family(fam, mas.FamilyMode.MAX, d) == d.support[-1]

    def test_singleton(self):
        mu = random_measure(np.random.default_rng(40))
        d = random_dist(np.random.default_rng(41))
        assert mas.evaluate_family([mu], mas.FamilyMode.MAX, d) == mas.evaluate(mu, d)

    def test_max_of_two(self):
        fam = [
            mas.make_measure([-2.0, 1.0], [0.5, 0.5]),
            mas.point_mass(0.0),
        ]
        got = mas.evaluate_family(fam, mas.FamilyMode.MAX, SYM)
        # first member is negative by convexity, second is the mean 0
        assert mas.evaluate(fam[0], SYM) < 0
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_empty(self):
        with pytest.raises(EmptyFamily):
            mas.evaluate_family([], mas.FamilyMode.MAX, SYM)

    def test_sub_super_additive(self):
        rng = np.random.default_rng(42)
        fam = [random_measure(rng) for _ in range(3)]
        for _ in range(20):
            d1, d2 = random_dist(rng), random_dist(rng)
            s = dist.convolve(d1, d2)
            hi = mas.evaluate_family(fam, mas.FamilyMode.MAX, s)
            assert hi <= (
                mas.evaluate_family(fam, mas.FamilyMode.MAX, d1)
                + mas.evaluate_family(fam, mas.FamilyMode.MAX, d2)
                + 1e-9
            )
            lo = mas.evaluate_family(fam, mas.FamilyMode.MIN, s)
            assert lo >= (
                mas.evaluate_family(fam, mas.FamilyMode.MIN, d1)
                + mas.evaluate_family(fam, mas.FamilyMode.MIN, d2)
                - 1e-9
            )

    def test_homogeneous_under_iid_power(self):
        rng = np.random.default_rng(43)
        fam = [random_measure(rng) for _ in range(3)]
        d = random_dist(rng, n_max=4)
        for mode in (mas.FamilyMode.MAX, mas.FamilyMode.MIN):
            base = mas.evaluate_family(fam, mode, d)
            assert mas.evaluate_family(fam, mode, dist.iid_power(d, 4)) == (
                pytest.approx(4 * base, abs=1e-8)
            )


class TestUniquenessLimit:
    def test_doubling_convergence(self):
        mu = mas.make_measure([0.5, 2.0], [0.5, 0.5])
        limit = 0.5 * (2.0 - 1.0) / 2.0
        errs = []
        n = 2
        while n <= 4096:
            d = dist.decay_two_point(n, 1.0)
            errs.append(abs(mas.evaluate(mu, d) / n - limit))
            n *= 2
        assert errs[-1] <= 0.01
        # monotone approach of the tail of the doubling sequence
        assert all(b <= a + 1e-12 for a, b in zip(errs[-5:], errs[-4:]))

    def test_limit_formula_other_b(self):
        # atoms at 1/2 and 2 with b = 1/4: both atoms clear the cutoff
        mu = mas.make_measure([0.5, 2.0], [0.5, 0.5])
        target = 0.5 * (0.5 - 0.25) / 0.5 + 0.5 * (2.0 - 0.25) / 2.0
        d = dist.decay_two_point(4096, 0.25)
        assert mas.evaluate(mu, d) / 4096 == pytest.approx(target, abs=0.01)
