import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mastat import cli, dist, dominance, mas, pref
from mastat.errors import (
    BadParams,
    BadSupport,
    DuplicateRates,
    InfeasibleC,
    InputError,
    NegativeTime,
    NonpositivePrize,
    WeightMismatch,
)
from conftest import (
    convolve_d1_major,
    fosd_four_searches,
    random_dist,
    random_measure,
    same_bytes,
)


class TestUtility:
    def test_kinds(self):
        assert pref.utility_value(pref.UtilitySpec.identity(), 2.0) == 2.0
        assert pref.utility_value(pref.UtilitySpec.power(0.5), 4.0) == 2.0
        assert pref.utility_value(pref.UtilitySpec.log(), math.e - 1) == (
            pytest.approx(1.0)
        )
        table = pref.UtilitySpec.table([(1.0, 1.0), (3.0, 5.0)])
        assert pref.utility_value(table, 2.0) == 3.0

    def test_errors(self):
        with pytest.raises(NonpositivePrize):
            pref.utility_value(pref.UtilitySpec.identity(), 0.0)
        with pytest.raises(BadParams):
            pref.UtilitySpec.power(-1.0)
        with pytest.raises(BadParams):
            pref.UtilitySpec.table([(1.0, 2.0), (2.0, 1.0)])
        table = pref.UtilitySpec.table([(1.0, 1.0), (3.0, 5.0)])
        with pytest.raises(InputError):
            pref.utility_value(table, 10.0)


class TestTimeValue:
    def test_no_delay(self):
        u = pref.UtilitySpec.power(0.7)
        t0 = dist.make([0.0], [1.0])
        mu = random_measure(np.random.default_rng(60))
        assert pref.time_value(2.0, t0, u, 1.3, mu) == pref.utility_value(u, 2.0)

    def test_cara_identity(self):
        # with mu = delta_a (a > 0) and r = a, V = u(x) / E[e^{aT}]
        u = pref.UtilitySpec.identity()
        t = dist.make([0.0, 1.0], [0.5, 0.5])
        got = pref.time_value(3.0, t, u, 1.0, mas.point_mass(1.0))
        assert got == pytest.approx(3.0 / ((1 + math.e) / 2), rel=1e-12)

    def test_deterministic_time(self):
        u = pref.UtilitySpec.identity()
        t = dist.make([2.0], [1.0])
        got = pref.time_value(1.0, t, u, 0.5, mas.point_mass(-0.3))
        assert got == pytest.approx(math.exp(-0.5 * 2.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            pref.time_value(
                1.0,
                dist.make([-1.0, 1.0], [0.5, 0.5]),
                pref.UtilitySpec.identity(),
                1.0,
                mas.point_mass(0.0),
            )

    def test_rate_normalization_preserves_ranking(self):
        # ranking by u(x) e^{-r phi} matches ranking by u(x)^{r'/r} e^{-r' phi}
        rng = np.random.default_rng(61)
        mu = random_measure(rng)
        u = pref.UtilitySpec.identity()
        lotteries = [
            (float(rng.uniform(0.5, 3.0)), random_dist(rng, lo=0.0, hi=3.0))
            for _ in range(12)
        ]
        r1, r2 = 0.7, 2.3
        vals1 = [pref.time_value(x, t, u, r1, mu) for x, t in lotteries]
        vals2 = [
            pref.utility_value(u, x) ** (r2 / r1)
            * math.exp(-r2 * mas.evaluate(mu, t))
            for x, t in lotteries
        ]
        assert np.argsort(vals1).tolist() == np.argsort(vals2).tolist()


class TestAggregate:
    def test_single_agent_dictatorship(self):
        profile = pref.AgentProfile((2.0,), pref.UtilitySpec.identity())
        social = pref.aggregate(profile, [1.0])
        assert social.rate == 2.0
        assert social.statistic.locations.tolist() == [-2.0]

    def test_two_agents(self):
        profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
        social = pref.aggregate(profile, [0.5, 0.5])
        assert social.rate == 1.5
        assert social.statistic.locations.tolist() == [-3.0, -1.0]
        assert social.statistic.weights.tolist() == [0.5, 0.5]
        # harmonic identity
        assert 1.0 / social.rate == pytest.approx(0.5 / 1.0 + 0.5 / 3.0, abs=1e-12)

    def test_degenerate_weight_dictator(self):
        profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
        social = pref.aggregate(profile, [1.0, 0.0])
        assert social.rate == 1.0
        assert social.statistic.locations.tolist() == [-1.0]

    def test_weight_mismatch(self):
        profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
        with pytest.raises(WeightMismatch):
            pref.aggregate(profile, [1.0])
        with pytest.raises(WeightMismatch):
            pref.aggregate(profile, [0.7, 0.7])


class TestParetoCheck:
    def _profile(self):
        return pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())

    def test_reflexive_pairs_pass(self):
        profile = self._profile()
        social = pref.aggregate(profile, [0.5, 0.5])
        rng = np.random.default_rng(62)
        pairs = []
        for _ in range(20):
            x = float(rng.uniform(0.5, 2.0))
            t = random_dist(rng, lo=0.0, hi=2.0)
            pairs.append(((x, t), (x, t)))
        assert pref.pareto_check(profile, social, pairs) is None

    def test_unanimous_by_dominance_pass(self):
        from mastat import dominance

        profile = self._profile()
        social = pref.aggregate(profile, [0.25, 0.75])
        rng = np.random.default_rng(63)
        pairs = []
        while len(pairs) < 25:
            t = random_dist(rng, lo=0.0, hi=2.0)
            s = random_dist(rng, lo=0.0, hi=2.0)
            if not dominance.fosd(s, t).dominates:  # S later than T
                continue
            x = float(rng.uniform(1.0, 2.0))
            y = float(rng.uniform(0.5, 1.0))  # x >= y and T earlier: unanimous
            pairs.append(((x, t), (y, s)))
        assert pref.pareto_check(profile, social, pairs) is None

    def test_pair_that_is_not_unanimous_is_skipped(self):
        # 1 now against 5 at time 1: the agent at rate 1 prefers the later
        # prize, the agent at rate 3 the earlier one, so the pair is not
        # unanimous and is not checked, although a social rate of 0.5 ranks
        # the earlier prize lower; for an agent at rate 3 alone it is checked
        now, later = dist.make([0.0], [1.0]), dist.make([1.0], [1.0])
        pair = ((1.0, now), (5.0, later))
        profile = self._profile()
        assert [1.0 > 5.0 * pref.discount_factor(later, r) for r in profile.rates] == [False, True]
        social = pref.aggregate(profile, [0.5, 0.5])
        slow = pref.SocialPreference(social.weights, social.statistic, 0.5)
        assert pref.pareto_check(profile, slow, [pair]) is None
        alone = pref.AgentProfile((3.0,), pref.UtilitySpec.identity())
        assert pref.pareto_check(alone, slow, [pair, pair]) == 0

    def test_corrupted_rate_violates(self):
        profile = self._profile()
        social = pref.aggregate(profile, [0.5, 0.5])
        pair = pref.indifference_pair([1.0, 3.0], 0.9)
        x = 1.0
        y = 0.9  # identity utility: u(y)/u(x) = indifference ratio c
        lotteries = [
            ((x, pair.t_dist), (y, pair.s_dist)),
            ((y, pair.s_dist), (x, pair.t_dist)),
        ]
        assert pref.pareto_check(profile, social, lotteries) is None
        corrupted = pref.SocialPreference(
            social.weights, social.statistic, social.rate / 2.0
        )
        assert pref.pareto_check(profile, corrupted, lotteries) is not None


class TestIndifferencePair:
    def test_hand_solved_two_by_two(self):
        p = pref.indifference_pair([math.log(2.0)], 0.75)
        assert p.d_coeffs == pytest.approx((-1.0, 2.0), abs=1e-12)
        assert p.eta == pytest.approx(0.5, abs=1e-12)
        assert p.t_dist.support.tolist() == [1.0, 2.0]
        assert p.t_dist.probs.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
        assert p.s_dist.support.tolist() == [1.0]
        lhs = pref.discount_factor(p.t_dist, math.log(2.0))
        rhs = pref.discount_factor(p.s_dist, math.log(2.0))
        assert lhs == pytest.approx(0.375, abs=1e-15)
        assert lhs == pytest.approx(0.75 * rhs, abs=1e-15)

    def test_infeasible_c(self):
        with pytest.raises(InfeasibleC) as info:
            pref.indifference_pair([math.log(2.0)], 0.4)
        assert info.value.eta == pytest.approx(0.5, abs=1e-12)

    def test_three_rates_ratio(self):
        p = pref.indifference_pair([0.5, 1.0, 2.0], 0.99)
        for r in (0.5, 1.0, 2.0):
            ratio = pref.discount_factor(p.t_dist, r) / pref.discount_factor(
                p.s_dist, r
            )
            assert ratio == pytest.approx(0.99, abs=1e-10)

    def test_duplicate_rates(self):
        with pytest.raises(DuplicateRates):
            pref.indifference_pair([1.0, 1.0 + 1e-12], 0.99)


class TestRiskInvariant:
    def test_point_identity(self):
        mu = mas.point_mass(-1.0)
        got = pref.risk_invariant_value(lambda m: m, mu, dist.make([3.0], [1.0]))
        assert got == 6.0

    def test_pure_cara_part(self):
        mu = mas.point_mass(-1.0)
        d = dist.make([-1, 1], [0.5, 0.5])
        got = pref.risk_invariant_value(lambda m: 0.0, mu, d)
        assert got == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-12)

    def test_rejects_nonnegative_atoms(self):
        with pytest.raises(BadSupport):
            pref.risk_invariant_value(
                lambda m: m, mas.point_mass(0.0), dist.make([1.0], [1.0])
            )

    def test_exact_risk_invariance(self):
        rng = np.random.default_rng(64)
        mu = mas.make_measure([-2.0, -0.5], [0.4, 0.6])
        v = lambda m: m**3
        for _ in range(30):
            z = random_dist(rng)
            z = dist.shift(z, -dist.moments(z).mean)  # mean-zero
            x1, x2 = random_dist(rng), random_dist(rng)
            d1 = pref.risk_invariant_value(v, mu, dist.convolve(x1, z)) - (
                pref.risk_invariant_value(v, mu, x1)
            )
            d2 = pref.risk_invariant_value(v, mu, dist.convolve(x2, z)) - (
                pref.risk_invariant_value(v, mu, x2)
            )
            assert d1 == pytest.approx(d2, abs=1e-10)

    def test_sosd_monotone(self):
        from mastat import dominance

        rng = np.random.default_rng(65)
        mu = mas.make_measure([-np.inf, -1.0], [0.25, 0.75])
        v = np.tanh  # nondecreasing
        for _ in range(30):
            d1 = random_dist(rng)
            # mean-preserving spread of one atom
            i = int(rng.integers(d1.n_atoms))
            h = float(rng.uniform(0.05, 0.5))
            sup = np.concatenate(
                (d1.support, [d1.support[i] - h, d1.support[i] + h])
            )
            pr = np.concatenate(
                (d1.probs, [d1.probs[i] / 2, d1.probs[i] / 2])
            )
            pr[i] = 0.0
            d2 = dist.make(sup, pr)
            assert dominance.sosd(d1, d2, tol=1e-12).dominates
            assert pref.risk_invariant_value(v, mu, d1) >= (
                pref.risk_invariant_value(v, mu, d2) - 1e-10
            )


class TestBetweenness:
    def test_constructor_mixed_attitude(self):
        mu = pref.betweenness_form(0.5, 2.0)
        assert mu.locations.tolist() == [-1.0, 1.0]
        assert mu.weights.tolist() == [0.5, 0.5]

    def test_mixed_attitude_over_delays(self):
        # the balanced +-1 statistic takes the sure 1-day delay over a 1%
        # shot at 100 days, yet gambles on 99%-of-100-days over a sure 99
        mu = mas.make_measure([-1.0, 1.0], [0.5, 0.5])
        sure_short = dist.make([1.0], [1.0])
        long_shot = dist.make([0.0, 100.0], [0.99, 0.01])
        assert mas.evaluate(mu, sure_short) < mas.evaluate(mu, long_shot)
        sure_long = dist.make([99.0], [1.0])
        likely_long = dist.make([0.0, 100.0], [0.01, 0.99])
        assert mas.evaluate(mu, likely_long) < mas.evaluate(mu, sure_long)
        # matching time_value ranking: earlier certainty equivalent wins
        u = pref.UtilitySpec.identity()
        v = lambda t: pref.time_value(1000.0, t, u, 0.05, mu)
        assert v(sure_short) > v(long_shot)
        assert v(likely_long) > v(sure_long)

    def test_classify_point_mass(self):
        cls = pref.classify_betweenness(mas.point_mass(3.0))
        assert cls.kind is pref.BetweennessKind.POINT_MASS
        assert cls.satisfies and cls.a == 3.0

    def test_classify_unbalanced(self):
        cls = pref.classify_betweenness(
            mas.make_measure([-1.0, 2.0], [0.25, 0.75])
        )
        assert cls.kind is pref.BetweennessKind.NOT_BETWEENNESS
        assert "0.333333" in cls.reason

    def test_classify_balanced_recovers_params(self):
        mu = pref.betweenness_form(0.3, 1.7)
        cls = pref.classify_betweenness(mu)
        assert cls.kind is pref.BetweennessKind.BALANCED_PAIR
        assert cls.a == pytest.approx(1.7, abs=1e-12)
        assert cls.beta == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("locs, wts", [
        ([np.inf], [1.0]),
        ([-np.inf], [1.0]),
        ([-np.inf, 0.5], [0.3, 0.7]),
        ([-1.0, np.inf], [0.5, 0.5]),
    ])
    def test_classify_infinite_atoms_not_betweenness(self, locs, wts):
        cls = pref.classify_betweenness(mas.make_measure(locs, wts))
        assert cls.kind is pref.BetweennessKind.NOT_BETWEENNESS
        assert not cls.satisfies and cls.a is None and cls.beta is None
        assert "infinite" in cls.reason

    def test_classify_minmax_flagged(self):
        mu = mas.make_measure([-np.inf, np.inf], [0.4, 0.6])
        cls = pref.classify_betweenness(mu)
        assert cls.kind is pref.BetweennessKind.MIN_MAX_PAIR
        assert not cls.satisfies
        assert cls.beta == pytest.approx(0.4)

    def test_round_trip_random(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            beta = float(rng.uniform(0.05, 0.95))
            a = float(rng.uniform(0.1, 5.0))
            cls = pref.classify_betweenness(pref.betweenness_form(beta, a))
            assert cls.kind is pref.BetweennessKind.BALANCED_PAIR
            assert cls.beta == pytest.approx(beta, abs=1e-10)
            assert cls.a == pytest.approx(a, abs=1e-10)

    def test_ratio_mixture_invariance(self):
        # balanced pair: equal statistics imply the two-sided mgf ratio
        # identity, and mixtures preserve both
        mu = pref.betweenness_form(0.5, 2.0)
        b_neg, b_pos = -1.0, 1.0
        rng = np.random.default_rng(67)

        def mgf(d, b):
            return float(np.dot(d.probs, np.exp(b * d.support)))

        for _ in range(50):
            x = random_dist(rng, lo=-1.0, hi=1.0)
            y = random_dist(rng, lo=-1.0, hi=1.0)
            x = dist.shift(x, -mas.evaluate(mu, x))
            y = dist.shift(y, -mas.evaluate(mu, y))
            lam = float(rng.uniform(0.1, 0.9))
            r_pos = mgf(x, b_pos) / mgf(y, b_pos)
            r_neg = mgf(x, b_neg) / mgf(y, b_neg)
            assert r_pos == pytest.approx(r_neg, rel=1e-9)
            mix = dist.mixture(x, y, lam)
            assert mas.evaluate(mu, mix) == pytest.approx(
                mas.evaluate(mu, y), abs=1e-9
            )
            assert mgf(mix, b_pos) / mgf(y, b_pos) == pytest.approx(
                mgf(mix, b_neg) / mgf(y, b_neg), rel=1e-9
            )

    def test_non_betweenness_witness(self):
        # for the unbalanced measure a mixture of equal-statistic lotteries
        # moves the statistic by more than 1e-3
        mu = mas.make_measure([-1.0, 2.0], [0.25, 0.75])
        values = [-2.0, -1.0, 0.0, 1.0, 2.0]
        best = 0.0
        import itertools

        for lo, hi in itertools.combinations(values, 2):
            for p in (0.25, 0.5, 0.75):
                x = dist.make([lo, hi], [p, 1 - p])
                c = mas.evaluate(mu, x)
                y = dist.make([c], [1.0])
                assert abs(mas.evaluate(mu, y) - c) < 1e-12
                for lam in (0.25, 0.5, 0.75):
                    dev = abs(mas.evaluate(mu, dist.mixture(x, y, lam)) - c)
                    best = max(best, dev)
        assert best > 1e-3


def _gambles_by_product_walk(grid):
    """GambleGrid.gambles as first written: every (m + 1)^k tuple in
    lexicographic order, kept if it sums to m and has 1..max_support atoms."""
    m = round(1.0 / grid.prob_step)
    out = []
    for combo in itertools.product(range(m + 1), repeat=len(grid.values)):
        support = [v for v, c in zip(grid.values, combo) if c > 0]
        if sum(combo) == m and 0 < len(support) <= grid.max_support:
            probs = [c * grid.prob_step for c in combo if c > 0]
            out.append(dist.make(support, probs))
    return out


class TestGambleGrid:
    @pytest.mark.parametrize(
        "k, step, max_support",
        [(1, 0.5, 1), (3, 0.25, 2), (4, 0.5, 2), (4, 0.2, 3), (5, 1 / 3, 4), (3, 1.0, 0)],
    )
    def test_same_sequence_as_product_walk(self, k, step, max_support):
        grid = pref.GambleGrid(tuple(float(v) for v in range(-1, k - 1)), step, max_support)
        got, want = grid.gambles(), _gambles_by_product_walk(grid)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.support.tolist() == w.support.tolist()
            assert g.probs.tolist() == w.probs.tolist()

    def test_prob_step_up_to_the_support_cap(self):
        one = pref.GambleGrid((0.0,), 2.0**-20, 2).gambles()
        assert len(one) == 1 and one[0].probs.tolist() == [1.0]
        for step in (2.0**-21, 1e-300):
            with pytest.raises(BadParams, match="1 / prob_step must be at most 1048576"):
                pref.GambleGrid((0.0, 1.0), step, 2).gambles()

    def test_many_values_walk_only_the_kept_compositions(self):
        # the product walk would visit 5^15 = 3e10 tuples here
        grid = pref.GambleGrid(tuple(float(v) for v in range(15)), 0.25, 2)
        assert len(grid.gambles()) == math.comb(15, 1) + 3 * math.comb(15, 2)
        # one atom each: the walk is as deep as the atoms, not the values
        wide = pref.GambleGrid(tuple(float(v) for v in range(1200)), 1.0, 1)
        assert len(wide.gambles()) == 1200


class TestFramingViolation:
    GRID = pref.GambleGrid((-2.0, -1.0, 0.0, 1.0), 0.25, 2)

    def test_median_violation_found(self):
        quad = pref.find_framing_violation(
            pref.median, pref.median, self.GRID, max_candidates=10**5
        )
        assert quad is not None
        x, xr, y, yr = quad
        assert pref.median(x) > pref.median(xr)
        assert pref.median(y) > pref.median(yr)
        from mastat import dominance

        res = dominance.fosd(
            dist.convolve(xr, yr), dist.convolve(x, y), tol=1e-12
        )
        assert res.dominates and res.strict

    def test_mas_never_violates(self):
        small = pref.GambleGrid((-1.0, 0.0, 1.0), 0.25, 2)
        mu = mas.make_measure([-0.5, 1.0], [0.5, 0.5])
        pm = pref.preference_mas(mu)
        assert pref.count_candidates(pm, pm, small) < 10**4
        assert pref.find_framing_violation(pm, pm, small, 10**5) is None

    def test_wealth_invariance_insufficient(self):
        quad = pref.find_framing_violation(
            mas.statistic_mean,
            pref.preference_mean_variance(1.0),
            self.GRID,
            max_candidates=10**5,
        )
        assert quad is not None

    def test_quadruple_matches_oracle(self, monkeypatch):
        """Criterion 12's quadruple is the same bytes as the quadruple-at-a-
        time search run on the d1-major convolve and the four-search fosd."""
        quad = pref.find_framing_violation(pref.median, pref.median, self.GRID, 10**5)
        monkeypatch.setattr(dist, "convolve", convolve_d1_major)
        monkeypatch.setattr(dominance, "fosd", fosd_four_searches)
        want = _search_by_pair_lists(pref.median, pref.median, self.GRID, 10**5)
        assert quad is not None and want is not None
        assert all(same_bytes(a, b) for a, b in zip(quad, want))

    def test_count_matches_the_pairs_searched(self, monkeypatch):
        decided = []

        def never(laws, first, second, tol):
            decided.append(len(first))
            return np.zeros(len(first), dtype=bool)

        monkeypatch.setattr(pref, "_strict_fosd_rows", never)
        grid = pref.GambleGrid((-1.0, 0.0, 1.0), 0.25, 2)
        mean_var = pref.preference_mean_variance(1.0)
        assert pref.find_framing_violation(pref.median, mean_var, grid, 10**6) is None
        assert sum(decided) == pref.count_candidates(pref.median, mean_var, grid) > 0
        assert max(decided) <= pref._BATCH < sum(decided)

    def test_budget_respected(self):
        assert (
            pref.find_framing_violation(
                pref.median, pref.median, self.GRID, max_candidates=1
            )
            is None
        )

    def test_budget_past_sys_maxsize(self):
        # such a budget once ended in a bare ValueError; the walk keeps no
        # more pairs than the grid ranks, however far past them it reaches
        want = pref.find_framing_violation(pref.median, pref.median, self.GRID, 10**5)
        assert want is not None
        for budget in (sys.maxsize, sys.maxsize + 1, 10**20, 10**400, 1e20):
            got = pref.find_framing_violation(pref.median, pref.median, self.GRID, budget)
            assert all(same_bytes(a, b) for a, b in zip(got, want))
        mu = pref.preference_mas(mas.make_measure([-0.5, 1.0], [0.5, 0.5]))
        small = pref.GambleGrid((-1.0, 0.0, 1.0), 0.25, 2)
        assert pref.find_framing_violation(mu, mu, small, 10**20) is None

    @pytest.mark.parametrize("budget", [2.5, -2.5, math.nan, math.inf, -math.inf])
    def test_non_integer_budget_is_bad_params(self, budget):
        with pytest.raises(BadParams, match="max_candidates must be an integer"):
            pref.find_framing_violation(pref.median, pref.median, self.GRID, budget)

    def test_cli_budget_past_sys_maxsize(self, capsys):
        argv = ["violation-search", "--pref1", "median", "--pref2", "median",
                "--budget", "100000000000000000000"]
        assert cli.run(argv) == 0
        assert json.loads(capsys.readouterr().out)["found"]

    MU = mas.make_measure([-0.5, 1.0], [0.5, 0.5])
    PREFS = {
        "median": (pref.median, pref.median),
        "mean/mean-variance": (mas.statistic_mean, pref.preference_mean_variance(1.0)),
        "mas": (pref.preference_mas(MU), pref.preference_mas(MU)),
    }

    @pytest.mark.parametrize("step", [0.25, 0.5])  # criterion 12's grid, the benchmark's
    @pytest.mark.parametrize("prefs", list(PREFS))
    def test_same_quadruple_and_count_as_pair_lists(self, prefs, step):
        grid = pref.GambleGrid((-2.0, -1.0, 0.0, 1.0), step, 2)
        p1, p2 = self.PREFS[prefs]
        assert pref.count_candidates(p1, p2, grid) == _count_by_pair_lists(p1, p2, grid)
        for budget in (-1, 0, 1, 10, 1000, 10**5):
            got = pref.find_framing_violation(p1, p2, grid, budget)
            want = _search_by_pair_lists(p1, p2, grid, budget)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grids_match_pair_lists(self, seed):
        """Float grids with two values 1e-10 apart, whose sums snap-merge,
        under median, mean-variance and random-measure preferences."""
        rng = np.random.default_rng(2000 + seed)
        values = rng.uniform(-2.0, 2.0, 3).tolist()
        values.append(values[0] + 1e-10)
        step, max_support = ((0.5, 2), (1 / 3, 3))[seed % 2]
        grid = pref.GambleGrid(tuple(values), step, max_support)
        stat = pref.preference_mas(random_measure(rng))
        mean_var = pref.preference_mean_variance(float(rng.uniform(0.1, 2.0)))
        prefs = ((pref.median, pref.median), (mas.statistic_mean, mean_var),
                 (stat, stat), (stat, pref.median))
        for p1, p2 in prefs:
            for budget in (0, 1, 10, 100, 1000, 10**4, 10**5):
                got = pref.find_framing_violation(p1, p2, grid, budget)
                want = _search_by_pair_lists(p1, p2, grid, budget)
                assert (got is None) == (want is None)
                if got is not None:
                    assert all(same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("budget", [1, 10**5])
    def test_overflowing_grid_is_refused_before_any_convolution(self, monkeypatch, budget):
        """Twice 1e308 is not a double, so some pair sums of this grid
        overflow: the search refuses the grid before its first convolution,
        under median and random preferences."""
        grid = pref.GambleGrid((0.0, 1.0, 2.0, 1e308), 0.5, 2)
        keys = {g.support.tobytes() + g.probs.tobytes(): n for n, g in enumerate(grid.gambles())}
        calls = []
        monkeypatch.setattr(pref, "convolve", lambda d1, d2: calls.append(1))
        rng = np.random.default_rng(31)
        prefs = [(pref.median, pref.median)]
        for _ in range(20):
            t1, t2 = rng.integers(0, 4, len(keys)), rng.integers(0, 4, len(keys))
            prefs.append((lambda d, t=t1: float(t[keys[d.support.tobytes() + d.probs.tobytes()]]),
                          lambda d, t=t2: float(t[keys[d.support.tobytes() + d.probs.tobytes()]])))
        for p1, p2 in prefs:
            with pytest.raises(BadParams, match="sums of support points must be finite"):
                pref.find_framing_violation(p1, p2, grid, budget)
        assert not calls

    def test_gambles_past_the_atom_pair_cap_are_refused_before_any_convolution(self, monkeypatch):
        # two 2-atom gambles make 4 atom pairs: past a cap of 3
        calls = []
        monkeypatch.setattr(pref, "convolve", lambda d1, d2: calls.append(1))
        monkeypatch.setattr(pref, "SUPPORT_CAP", 3)
        grid = pref.GambleGrid((-2.0, -1.0, 0.0, 1.0), 0.5, 2)
        with pytest.raises(BadParams, match="atom pairs"):
            pref.find_framing_violation(pref.median, pref.median, grid, 10**5)
        assert not calls

    def test_ranked_is_the_prefix_of_the_walk(self):
        """The index arrays are the first `limit` pairs of the listed walk,
        with ties, signed zeros and NaN values among the ranked values."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            values = rng.integers(-3, 4, int(rng.integers(0, 30))).astype(float)
            values[rng.random(values.size) < 0.1] = math.nan
            values[values == 0] = rng.choice([0.0, -0.0], int((values == 0).sum()))
            want = [(i, j) for i in range(values.size) for j in range(values.size)
                    if values[i] > values[j]]
            for limit in (*range(len(want) + 2), 10**400):
                first, second = pref._ranked(values, limit)
                assert list(zip(first.tolist(), second.tolist())) == want[:limit]

    def test_count_with_nan_and_tied_values(self):
        grid = pref.GambleGrid((-1.0, 0.0, 1.0, 2.0), 0.25, 2)
        tied = lambda d: float(np.round(mas.statistic_mean(d)))  # noqa: E731
        nan = lambda d: math.nan if d.n_atoms == 1 else d.support[0]  # noqa: E731
        for p1, p2 in ((tied, nan), (nan, pref.median), (tied, tied)):
            assert pref.count_candidates(p1, p2, grid) == _count_by_pair_lists(p1, p2, grid)

    # 462 gambles: listing the ranked pairs of both sides took 15.9 MB here
    BIG = pref.GambleGrid(tuple(float(v) for v in range(6)), 1 / 6, 6)

    def test_budget_bounds_the_search_memory(self):
        tracemalloc.start()
        try:
            assert pref.find_framing_violation(pref.median, pref.median, self.BIG, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_batches_bound_the_search_memory(self):
        """Criterion 12's MAS search walks all 53,361 quadruples in batches
        of at most _BATCH; the old one-quadruple walk peaked at 0.29 MB."""
        grid = pref.GambleGrid((-2.0, -1.0, 0.0, 1.0), 0.25, 2)
        pm = self.PREFS["mas"][0]
        assert pref.find_framing_violation(pm, pm, grid, 10**5) is None  # warm numpy
        tracemalloc.start()
        try:
            assert pref.find_framing_violation(pm, pm, grid, 10**5) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_index_arrays_bound_the_search_memory(self):
        """At budget 10^5 the median search on the 462-gamble grid keeps its
        85,421 inner pairs as two index arrays; as a list of tuples they
        took the peak past 9 MB."""
        assert pref.find_framing_violation(pref.median, pref.median, self.BIG, 10**5) is None
        tracemalloc.start()
        try:
            assert pref.find_framing_violation(pref.median, pref.median, self.BIG, 10**5) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_cli_budget_bounds_the_search_memory(self, capsys):
        values = ",".join(map(str, self.BIG.values))
        argv = ["violation-search", "--pref1", "median", "--pref2", "median",
                f"--values={values}", "--prob-step", str(1 / 6), "--max-points", "6",
                "--budget", "1"]
        tracemalloc.start()
        try:
            assert cli.run(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out) == {"found": False}
        assert peak < 8e6


def _ranked_pair_list(preference, gambles):
    """The search's ranked pairs as first written: every pair, listed."""
    values = [preference(g) for g in gambles]
    n = len(gambles)
    return [(i, j) for i in range(n) for j in range(n) if values[i] > values[j]]


def _search_by_pair_lists(pref1, pref2, grid, max_candidates):
    """find_framing_violation as first written, on listed pairs and a dict memo."""
    gambles = grid.gambles()
    pairs1 = _ranked_pair_list(pref1, gambles)
    pairs2 = _ranked_pair_list(pref2, gambles)
    memo = {}

    def conv(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in memo:
            memo[key] = dist.convolve(gambles[key[0]], gambles[key[1]])
        return memo[key]

    examined = 0
    for i, ip in pairs1:
        for k, kp in pairs2:
            examined += 1
            if examined > max_candidates:
                return None
            res = dominance.fosd(conv(ip, kp), conv(i, k), tol=1e-12)
            if res.dominates and res.strict:
                return (gambles[i], gambles[ip], gambles[k], gambles[kp])
    return None


def _count_by_pair_lists(pref1, pref2, grid):
    gambles = grid.gambles()
    return len(_ranked_pair_list(pref1, gambles)) * len(_ranked_pair_list(pref2, gambles))


class TestMedian:
    def test_values(self):
        assert pref.median(dist.make([-1, 1], [0.25, 0.75])) == 1.0
        assert pref.median(dist.make([-1, 1], [0.5, 0.5])) == -1.0
        assert pref.median(dist.make([3.0], [1.0])) == 3.0
