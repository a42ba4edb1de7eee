import copy
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from mastat import cgf, dist, dominance, mas
import mastat.dominance as dominance_mod
from mastat.errors import (
    BadParams,
    BudgetExhausted,
    NoKDominance,
    NoKDominanceOnNegatives,
    SupportBlowup,
)
from conftest import (
    convolve_d1_major,
    fosd_four_searches,
    grid_miss_pair,
    random_dist,
    random_measure,
    seeded_law,
    strict_pair_stream,
)


def figure_pair(step=1e-3):
    x = dist.make([0, 1], [2 / 3, 1 / 3])
    y = dist.discretize_uniform(-0.6, 0.4, step)
    return x, y


class TestFosd:
    def test_strict_points(self):
        res = dominance.fosd(dist.make([1], [1.0]), dist.make([0], [1.0]))
        assert res.dominates and res.strict

    def test_figure_pair_not_ranked(self):
        x, y = figure_pair()
        res = dominance.fosd(x, y)
        assert not res.dominates
        assert 0.0 <= res.witness < 0.4  # the kink region below 0.4
        assert not dominance.fosd(y, x).dominates

    def test_reflexive_weak(self):
        d = random_dist(np.random.default_rng(50))
        res = dominance.fosd(d, d)
        assert res.dominates and not res.strict

    @pytest.mark.parametrize("test", [dominance.fosd, dominance.sosd])
    @pytest.mark.parametrize("tol", [math.nan, -1e-3, -0.5])
    def test_nan_or_negative_tol_rejected(self, test, tol):
        # a NaN tol certified X = {0, 1} over X + 0.5 (min gap -0.5), and a
        # negative one made every pair fail
        x = dist.make([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(BadParams, match="tol must be a nonnegative number"):
            test(x, dist.shift(x, 0.5), tol=tol)
        assert not test(x, dist.shift(x, 0.5)).dominates


class TestFosdSingleSearch:
    """fosd searches each support once; its result must be the bytes of
    the four-search oracle."""

    @staticmethod
    def _assert_oracle(d1, d2):
        for a, b in ((d1, d2), (d2, d1)):
            for tol in (0.0, 1e-12):
                # float repr round-trips, so equal reprs are equal bits
                assert repr(dominance.fosd(a, b, tol)) == repr(fosd_four_searches(a, b, tol))

    @pytest.mark.parametrize("kind, scale", [
        ("random", 1.0), ("lattice", 0.1), ("lattice", 0.25), ("random", 1e5), ("random", 1e8),
        ("figure", 1e-3),
    ])
    def test_small_laws_match_oracle(self, kind, scale):
        rng = np.random.default_rng(66)
        if kind == "figure":
            # the 2 x 1,000-atom pair, identical laws, and laws that share
            # some support points (Y's lattice, X's atoms at 0 and 1)
            x, y = figure_pair(scale)
            pts = np.append(y.support[::7], 1.0)
            part = dist.make(pts, rng.dirichlet(np.ones(pts.size)))
            ends = dist.make([0.0, 0.5, 1.0], [0.6, 0.1, 0.3])
            for d1, d2 in ((x, y), (x, x), (y, y), (part, y), (part, x), (ends, x)):
                self._assert_oracle(d1, d2)
                self._assert_oracle(d1, dist.make(d1.support, d1.probs[::-1]))
            return
        for _ in range(300):
            d1 = seeded_law(rng, int(rng.integers(1, 13)), kind, scale)
            d2 = seeded_law(rng, int(rng.integers(1, 5)), kind, scale)
            self._assert_oracle(d1, d2)
            self._assert_oracle(d1, dist.shift(d1, 1e-3 * scale))

    def test_power_chains_match_oracle(self):
        rng = np.random.default_rng(67)
        x = dist.make(rng.uniform(-1.0, 1.0, 3), rng.dirichlet(np.ones(3)))
        y = dist.make(rng.uniform(-1.0, 1.0, 3), rng.dirichlet(np.ones(3)))
        px, py = x, y
        for _ in range(2, 33):
            px, py = dist.convolve(px, x), dist.convolve(py, y)
            self._assert_oracle(px, py)
        assert px.n_atoms == 561


class TestStrictFosdRows:
    """_strict_fosd_rows decides each row on the union of the supports of
    the laws its chunk uses; every row must be fosd's strict verdict."""

    @staticmethod
    def _laws():
        rng = np.random.default_rng(77)
        laws = [seeded_law(rng, int(rng.integers(1, 6)), kind, scale)
                for kind, scale in (("random", 1.0), ("lattice", 0.1)) for _ in range(40)]
        # the same lattice atoms under other masses
        laws += [dist.make(d.support, rng.dirichlet(np.ones(d.n_atoms))) for d in laws[40:60]]
        # one ulp either way, and 1e-9 either way
        for d in laws[:10] + laws[40:50]:
            for way in (-np.inf, np.inf):
                laws.append(dist.FiniteDist(np.nextafter(d.support, way), d.probs, d.log_probs))
            laws += [dist.shift(d, 1e-9), dist.shift(d, -1e-9)]
        laws += [dist.make([0.0, 1.5e-9], [0.5, 0.5]), dist.make([0.0], [1.0]),
                 dist.make([1e-9], [1.0]), dist.make([-1e-9, 1.5e-9], [0.25, 0.75])]
        # tail masses that only S1 - S2 (upper) or F2 - F1 (lower) resolves
        laws += [dist.make([0.0, top], [1.0, 1e-18]) for top in (1.0, 2.0)]
        laws += [dist.make([bottom, 0.0], [1e-18, 1.0]) for bottom in (-1.0, -2.0)]
        return laws

    def test_rows_match_fosd(self, monkeypatch):
        laws = self._laws()
        n = len(laws)
        first, second = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert first.size >= 20_000
        for tol in (0.0, 1e-12):
            want = np.array([
                (res := dominance.fosd(laws[a], laws[b], tol)).dominates and res.strict
                for a, b in zip(first.tolist(), second.tolist())
            ])
            assert 1000 < want.sum() < want.size - 1000
            # all rows at once, so in chunks of the cell cap; then in small
            # batches, each on its own union
            got = dominance._strict_fosd_rows(laws, first, second, tol)
            assert got.dtype == bool and np.array_equal(got, want)
            for s in range(0, first.size, 97):
                got = dominance._strict_fosd_rows(laws, first[s:s + 97], second[s:s + 97], tol)
                assert np.array_equal(got, want[s:s + 97])
            # one row a chunk
            monkeypatch.setattr(dominance, "_ROWS_CELLS", 0)
            got = dominance._strict_fosd_rows(laws, first[:3000], second[:3000], tol)
            assert np.array_equal(got, want[:3000])
            monkeypatch.undo()

    def test_chunks_stay_under_the_cell_cap(self, monkeypatch):
        laws = self._laws()
        n = len(laws)
        first, second = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        cells = []
        real_take = np.take

        def take(table, columns, axis):
            cells.append(table.shape[0] * (table.shape[1] + columns.size))
            return real_take(table, columns, axis=axis)

        monkeypatch.setattr(dominance.np, "take", take)
        dominance._strict_fosd_rows(laws, first, second, 1e-12)
        assert len(cells) > 2 and max(cells) <= 2 * dominance._ROWS_CELLS


class TestSosd:
    def test_mean_preserving_spread(self):
        spread = dist.make([-1, 1], [0.5, 0.5])
        point = dist.make([0], [1.0])
        assert dominance.sosd(point, spread).dominates
        assert not dominance.sosd(spread, point).dominates

    def test_breakpoint_integration(self):
        d1 = dist.make([0, 2], [0.5, 0.5])
        d2 = dist.make([-1, 3], [0.5, 0.5])
        assert dominance.sosd(d1, d2).dominates

    def test_fosd_implies_sosd(self):
        rng = np.random.default_rng(51)
        found = 0
        for _ in range(1000):
            d1, d2 = random_dist(rng), random_dist(rng)
            if not dominance.fosd(d1, d2).dominates:
                continue
            found += 1
            assert dominance.sosd(d1, d2, tol=1e-12).dominates
        assert found > 25


class TestCatalystFirst:
    def test_figure_pair_certificate(self):
        x, y = figure_pair()
        cert = dominance.find_catalyst_first(x, y)
        assert cert.verified
        assert cert.worst_gap >= -1e-12
        assert cert.order == "first"
        # catalyst is symmetric, bounded by the truncation, T >= A V + N
        z = cert.catalyst
        assert np.allclose(z.support, -z.support[::-1])
        assert abs(z.support).max() <= cert.params.truncation + 1e-12
        p = cert.params
        assert p.truncation >= p.a_cut * p.variance + p.n_half_range - 1e-12

    def test_reverification_is_part_of_contract(self):
        x, y = figure_pair(step=0.01)
        cert = dominance.find_catalyst_first(x, y)
        assert dominance.verify_certificate(cert, x, y) >= -1e-12
        # materialized convolutions agree with the sweep verdict
        xz = dist.convolve(x, cert.catalyst)
        yz = dist.convolve(y, cert.catalyst)
        assert dominance.fosd(xz, yz, tol=1e-12).dominates

    def test_shift_short_circuits(self):
        d = random_dist(np.random.default_rng(52))
        cert = dominance.find_catalyst_first(dist.shift(d, 1.0), d)
        assert cert.verified
        assert cert.catalyst.n_atoms == 1 and cert.catalyst.support[0] == 0.0

    def test_equal_pair_rejected(self):
        d = random_dist(np.random.default_rng(53))
        with pytest.raises(NoKDominance):
            dominance.find_catalyst_first(d, d)

    def test_dip_between_grid_points_rejected(self):
        x, y = grid_miss_pair()
        with pytest.raises(NoKDominance) as info:
            dominance.find_catalyst_first(x, y)
        w = info.value.witness
        assert cgf.k_a(x, w) < cgf.k_a(y, w) - 1e-12
        assert "min gap -0.00143" in str(info.value)

    def test_gap_just_above_the_margin_rejected(self):
        # X = Y + 1e-9 dominates Y, but the K check cannot certify a gap of
        # 1e-9 within its evaluation budget, so there is no certificate
        d = random_dist(np.random.default_rng(0))
        with pytest.raises(NoKDominance):
            dominance.find_catalyst_first(dist.shift(d, 1e-9), d, margin=0.0)

    def test_budget_exhausted_reports_gap(self, monkeypatch):
        monkeypatch.setattr(dominance_mod, "_Z_ATOMS", (9,))
        monkeypatch.setattr(dominance_mod, "_V_DOUBLINGS", 0)
        x, y = figure_pair(step=0.01)
        with pytest.raises(BudgetExhausted) as info:
            dominance.find_catalyst_first(x, y)
        assert info.value.worst_gap < 0

    def test_certificate_implies_statistic_order(self):
        x, y = figure_pair(step=0.01)
        cert = dominance.find_catalyst_first(x, y)
        assert cert.verified
        rng = np.random.default_rng(54)
        for _ in range(20):
            mu = random_measure(rng, allow_inf=True)
            assert mas.evaluate(mu, x) >= mas.evaluate(mu, y) - 1e-9


class TestCatalystSecond:
    def test_degenerate_when_already_sosd(self):
        x = dist.make([0.0], [1.0])
        y = dist.make([-1.0, 1.0], [0.6, 0.4])
        cert = dominance.find_catalyst_second(x, y)
        assert cert.verified and cert.catalyst.n_atoms == 1

    def test_nondegenerate_construction(self):
        x = dist.make([0.15, 1.75], [0.15, 0.85])
        y = dist.make([-0.75, 1.1, 2.0], [0.05, 0.9, 0.05])
        assert not dominance.sosd(x, y).dominates
        assert not dominance.fosd(x, y).dominates
        cert = dominance.find_catalyst_second(x, y, margin=1e-3)
        assert cert.verified and cert.order == "second"
        assert cert.catalyst.n_atoms > 1
        xz = dist.convolve(x, cert.catalyst)
        yz = dist.convolve(y, cert.catalyst)
        assert dominance.sosd(xz, yz, tol=1e-12).dominates

    def test_mean_hypothesis_enforced(self):
        # mean(Y) >= mean(X) fails the a = 0 requirement
        x = dist.make([0.0, 1.0], [0.5, 0.5])
        y = dist.make([-0.5, 1.2], [0.3, 0.7])
        assert dist.moments(y).mean >= dist.moments(x).mean
        with pytest.raises(NoKDominanceOnNegatives):
            dominance.find_catalyst_second(x, y)

    def test_dip_between_grid_points_rejected(self):
        # the mirror of the first-order pair: K_a(-X) = -K_(-a)(X)
        x, y = grid_miss_pair()
        neg_y, neg_x = dist.negate(y), dist.negate(x)
        with pytest.raises(NoKDominanceOnNegatives) as info:
            dominance.find_catalyst_second(neg_y, neg_x)
        w = info.value.witness
        assert w < 0 and cgf.k_a(neg_y, w) < cgf.k_a(neg_x, w) - 1e-12
        assert "min gap -0.00143" in str(info.value)


class TestBandFloor:
    """The quarter-band floor delta is read off the signed masses, and the
    construction sweeps what verify_certificate sweeps."""

    def test_tiny_top_mass_constructs(self):
        # the upper band's gap is X's mass at 1, 1e-18; summed from the left
        # it read -8.67e-18, and halving eps 60 times raised DegenerateGap
        x = dist.make([0.0, 1.0], [1.0 - 1e-18, 1e-18])
        y = dist.make([-0.5, 0.05], [0.99, 0.01])
        assert cgf.k_dominates(x, y, 1e-6).order is cgf.KOrder.STRICT
        assert not dominance.fosd(x, y).dominates
        cert = dominance.find_catalyst_first(x, y)
        assert cert.verified and cert.catalyst.n_atoms > 1
        assert cert.params.delta == 1e-18
        assert cert.worst_gap == dominance.verify_certificate(cert, x, y)

    def test_subnormal_top_mass_keeps_a_and_t_finite(self):
        # 8N/(eps delta) overflows for delta = 1e-320
        x = dist.make([0.0, 1.0], [1.0 - 1e-320, 1e-320])
        y = dist.make([-0.5, 0.006], [0.99, 0.01])
        assert cgf.k_dominates(x, y, 1e-6).order is cgf.KOrder.STRICT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = dominance.find_catalyst_first(x, y)
        p = cert.params
        assert cert.verified and p.delta == 1e-320
        assert math.isfinite(p.a_cut) and math.isfinite(p.truncation)
        want = 4.0 / p.epsilon * (math.log(8.0 * p.n_half_range / p.epsilon) - math.log(1e-320))
        assert p.a_cut == pytest.approx(want, rel=1e-12)

    def test_worst_gap_is_the_reverification(self):
        x, y0 = figure_pair()
        cases = [(order, x, dist.shift(y0, shift), 1e-6)
                 for order, shift in (("first", 0.0), ("first", 0.2), ("first", 0.31),
                                      ("first", 0.33), ("second", 0.31), ("second", 0.33))]
        # 100 pairs: the pairs that dominate up to rounding take the point mass
        pairs = itertools.islice(strict_pair_stream(np.random.default_rng(14)), 100)
        cases += [(order, x, y, 1e-3) for x, y in pairs for order in ("first", "second")]
        constructed = 0
        for order, x, y, margin in cases:
            cert = getattr(dominance, f"find_catalyst_{order}")(x, y, margin=margin)
            assert cert.verified
            assert cert.worst_gap == dominance.verify_certificate(cert, x, y)
            constructed += cert.catalyst.n_atoms > 1
        assert constructed >= 30

    def test_point_mass_worst_gap_is_the_reverification(self):
        # X already dominates Y: the worst gap is fosd's or sosd's, and
        # verify_certificate re-runs that check rather than the sweep, also
        # on a deep copy, whose catalyst is a copy of the point mass. On the
        # last pair the sweep reads -6.8e-21 where fosd reads 0.
        law = dist.make(
            [-0.9160221183032835, -0.38212933595071447, 0.41824258134859676,
             0.6170256529758671, 0.739070636431625],
            [0.20164172449398568, 0.37094286352267997, 0.009524282798456797,
             0.41788399986384683, 7.129321030595349e-06],
        )
        cases = [(x, y, 1e-3) for x, y in
                 itertools.islice(strict_pair_stream(np.random.default_rng(15)), 60)]
        cases.append((law, dist.shift(law, -0.29674718888538343), 0.0))
        found = {"first": 0, "second": 0}
        for x, y, margin in cases:
            for order, direct in (("first", dominance.fosd), ("second", dominance.sosd)):
                if direct(x, y).dominates:
                    cert = getattr(dominance, f"find_catalyst_{order}")(x, y, margin=margin)
                    assert cert.catalyst.n_atoms == 1 and cert.verified
                    for c in (cert, copy.deepcopy(cert)):
                        assert cert.worst_gap == dominance.verify_certificate(c, x, y)
                    found[order] += 1
        assert min(found.values()) >= 20
        x, y = cases[-1][:2]
        cert = dominance.find_catalyst_first(x, y, margin=0.0)
        assert dominance.fosd_with_catalyst(x, y, cert.catalyst)[0] < cert.worst_gap == 0.0

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_point_mass_passes_a_gap_lost_to_rounding(self, order):
        # Y = X - 0.1 with +-0.05 noise: fosd reads -5.55e-17 at 0.5, within
        # the -1e-12 that every rung passes, so the point mass is the
        # certificate; the first order built a 129-atom Gaussian for it
        x = dist.make([0.0, 0.5, 1.0], [0.2, 0.45, 0.35])
        y = dist.make([-0.15, -0.05, 0.35, 0.45, 0.85, 0.95],
                      [0.1, 0.1, 0.225, 0.225, 0.175, 0.175])
        res = dominance.fosd(x, y)
        assert not res.dominates and -1e-12 < res.min_gap < 0.0 and res.witness == 0.5
        cert = _FIND[order](x, y)
        gap = res.min_gap if order == "first" else dominance.sosd(x, y).min_integral
        assert cert.verified and cert.catalyst is dominance_mod._POINT_ZERO
        assert cert.worst_gap == gap == dominance.verify_certificate(cert, x, y)
        assert cert.params == dominance.CatalystParams(*[0.0] * 7)

    def test_negative_margin_rejected(self):
        # strict CGF dominance at a margin >= 0 implies both endpoint gaps;
        # k_dominates takes a negative margin, under which equal tops (a
        # gap of 0 at +inf) read STRICT, but the construction refuses one
        x = dist.make([0.0, 1.0], [0.5, 0.5])
        y = dist.make([-0.5, 0.3, 1.0], [0.3, 0.3, 0.4])
        assert cgf.k_dominates(x, y, margin=-1.0).order is cgf.KOrder.STRICT
        assert not dominance.fosd(x, y).dominates
        for find in (dominance.find_catalyst_first, dominance.find_catalyst_second):
            for margin in (-1.0, -1e-300):
                with pytest.raises(BadParams, match="margin must not be negative"):
                    find(x, y, margin=margin)

    @pytest.mark.parametrize("find", [dominance.find_catalyst_first, dominance.find_catalyst_second])
    def test_nan_margin_rejected(self, find):
        # a NaN margin used to certify X against itself
        x = dist.make([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(BadParams, match="margin must not be NaN"):
            find(x, x, margin=math.nan)


def _scaled(d, s):
    """The law of s X, built from d's arrays as they are."""
    return dist.FiniteDist(d.support * s, d.probs, d.log_probs)


def _pair_a(s):
    """X = {0: 2/3, s: 1/3} against Y uniform on [-0.4 s, 0.6 s] in 20 cells."""
    x = dist.make([0.0, 1.0], [2 / 3, 1 / 3])
    return _scaled(x, s), _scaled(dist.discretize_uniform(-0.4, 0.6, 0.05), s)


def _best_time(call, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return out, best


_FIND = {"first": dominance.find_catalyst_first, "second": dominance.find_catalyst_second}


class TestScaleFree:
    """Dominance of every order is invariant under x -> s x, and so are the
    CGF check's verdict and the catalyst: no step of either has a scale of
    its own. For s a power of two every step is exact, so a certificate is
    the exact image of the one at s = 1."""

    @staticmethod
    def _cases():
        pairs = itertools.islice(strict_pair_stream(np.random.default_rng(2024)), 20)
        cases = [(order, x, y) for x, y in pairs for order in ("first", "second")]
        x, y = figure_pair()
        return cases + [("first", x, dist.shift(y, 0.31)), ("second", x, dist.shift(y, 0.33))]

    def test_power_of_two_scales_give_exact_images(self):
        checked = 0
        for order, x, y in self._cases():
            base = _FIND[order](x, y, margin=0.0)
            for k in (-20, -10, 10, 50, 200, 500):
                s = 2.0**k
                xs, ys = _scaled(x, s), _scaled(y, s)
                if min(xs.min_gap, ys.min_gap) <= dist.SNAP_TOL:
                    continue  # make would merge these atoms
                cert = _FIND[order](xs, ys, margin=0.0)
                assert cert.verified and cert.order == base.order
                assert np.array_equal(cert.catalyst.support, base.catalyst.support * s)
                assert np.array_equal(cert.catalyst.probs, base.catalyst.probs)
                p, q = base.params, cert.params
                assert q.delta == p.delta and q.a_cut == p.a_cut / s
                assert q.variance == p.variance * s * s
                for field in ("n_half_range", "epsilon", "truncation", "step"):
                    assert getattr(q, field) == getattr(p, field) * s, (field, k)
                assert cert.worst_gap == base.worst_gap * (s if order == "second" else 1.0)
                checked += 1
        assert checked >= 240

    def test_decimal_scales_keep_the_verdict_and_the_atom_count(self):
        for x, y in itertools.islice(strict_pair_stream(np.random.default_rng(2024)), 20):
            verdict = cgf.k_dominates(x, y, 0.0).order
            atoms = {o: _FIND[o](x, y, margin=0.0).catalyst.n_atoms for o in _FIND}
            for k in (-7, 15, 150, 300):
                xs, ys = _scaled(x, 10.0**k), _scaled(y, 10.0**k)
                if min(xs.min_gap, ys.min_gap) <= dist.SNAP_TOL:
                    continue
                assert cgf.k_dominates(xs, ys, 0.0).order is verdict, k
                if k <= 150:
                    for o in _FIND:
                        assert _FIND[o](xs, ys, margin=0.0).catalyst.n_atoms == atoms[o], (o, k)

    def test_pair_a_at_the_small_and_the_large_end(self):
        # at s = 1e-7 an absolute floor on V made every rung fail (2 s, then
        # BudgetExhausted); from s = 1e15 a cap of 40 halvings read WEAK
        x, y = _pair_a(1e-7)
        cert, seconds = _best_time(lambda: dominance.find_catalyst_first(x, y, margin=0.0))
        p = cert.params
        assert cert.verified and cert.catalyst.n_atoms == 1025
        assert p.variance == p.n_half_range**2 and seconds < 0.1
        # margin stays absolute: the default 1e-6 is above this pair's gap
        with pytest.raises(NoKDominance):
            dominance.find_catalyst_first(x, y)
        # about log2(s) halvings reach |a| ~ 1/s: 989 rounds in 70 ms at 1e300
        # on a 2-core machine; the time bound leaves room for slower runners
        for s, most in ((1e15, 0.1), (1e300, 0.25)):
            res, seconds = _best_time(lambda: cgf.k_dominates(*_pair_a(s), 0.0))
            assert res.order is cgf.KOrder.STRICT and res.rounds <= 1100 and seconds < most, s

    @pytest.mark.parametrize("s", [1e153, 1e200, 1e307])
    @pytest.mark.parametrize("order", ["first", "second"])
    def test_escalation_stops_where_the_catalyst_leaves_the_doubles(self, s, order):
        # the squared catalyst radius is about 1474 N^2, past the largest
        # double from N = 3.5e152 on; such a rung is not tried, and no
        # overflow warning (an error under pytest) is raised. Only the
        # point mass is swept, so the stop carries its gap.
        x, y = figure_pair()
        xs, ys = _scaled(x, s), _scaled(dist.shift(y, 0.31), s)
        assert cgf.k_dominates(xs, ys).order is cgf.KOrder.STRICT
        with pytest.raises(BudgetExhausted, match=r"the point mass and 0 Gaussians; best gap") as exc:
            _FIND[order](xs, ys)
        if order == "first":
            direct = dominance.fosd(xs, ys).min_gap
        else:
            direct = dominance.sosd(xs, ys).min_integral
        assert isinstance(exc.value.worst_gap, float) and exc.value.worst_gap == direct < -1e-12
        # it named V = inf where N^2 is past the largest double
        assert "inf" not in str(exc.value) and f"best gap {direct:g}" in str(exc.value)

    def test_largest_scale_that_verifies(self):
        x, y = figure_pair()
        cert = dominance.find_catalyst_first(_scaled(x, 1e152), _scaled(dist.shift(y, 0.31), 1e152))
        assert cert.verified and cert.params.n_half_range > 6e151


def _every_n_oracle(dx, dy, n_max):
    """The first n with X^{*n} >=_1 Y^{*n}: the oracle convolve and fosd at
    every n, with no end test and no end certificate."""
    px, py = dx, dy
    for n in range(1, n_max + 1):
        if n > 1:
            px, py = convolve_d1_major(px, dx), convolve_d1_major(py, dy)
        if fosd_four_searches(px, py).dominates:
            return n
    return None


def _end_certified(dx, dy, n_max):
    """The end certificate as the large_numbers_n docstring states it."""
    x, y = dx.support, dy.support

    def below(lo, hi, alone, log_mass):
        err = n_max * math.ulp(n_max * max(1.0, abs(lo), abs(hi)))
        return min(hi - lo, alone - dist.SNAP_TOL) > 2 * err and n_max * log_mass > math.log(1e-300)

    return below(
        x[0], y[0], x[1] - x[0] if x.size > 1 else math.inf, dx.log_probs[0]
    ) or below(x[-1], y[-1], y[-1] - y[-2] if y.size > 1 else math.inf, dy.log_probs[-1])


class TestLargeNumbers:
    @pytest.fixture
    def search(self, monkeypatch):
        """large_numbers_n(x, y, 32), checked against the every-n oracle;
        returns the answer and the convolve and fosd calls it made."""
        calls = {"convolve": 0, "fosd": 0}
        for name in calls:

            def count(*args, real=getattr(dominance, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(dominance, name, count)

        def run(x, y):
            calls.update(convolve=0, fosd=0)
            got = dominance.large_numbers_n(x, y, 32)
            assert got == _every_n_oracle(x, y, 32)
            return got, calls["convolve"], calls["fosd"]

        return run

    def test_immediate_when_fosd(self):
        d = random_dist(np.random.default_rng(55))
        assert dominance.large_numbers_n(dist.shift(d, 0.5), d, 8) == 1

    def test_figure_pair_on_coarse_lattice(self):
        x, y = figure_pair(step=0.05)
        assert dominance.large_numbers_n(x, y, 32) == 2  # regression value

    @pytest.mark.parametrize("n_max", [0, -1, 2.5])
    def test_bad_n_max(self, n_max):
        d = dist.make([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(BadParams):
            dominance.large_numbers_n(dist.shift(d, 0.5), d, n_max)
        assert issubclass(BadParams, ValueError)

    def test_answers_match_oracle(self, search):
        """The first n with X^{*n} >=_1 Y^{*n}, found with the oracle
        convolve and fosd at every n, on pairs that rank late, never, or at
        once: shifted pairs, pairs whose CGF profiles cross (drawn like
        criterion 03), pairs whose least or greatest atoms tie exactly, and
        pairs with a 1e-300 end atom in X. fosd is skipped where the ends
        are out of order, and only there."""
        rng = np.random.default_rng(70)
        shifted = [figure_pair(step=0.05), figure_pair(step=0.1)]
        for _ in range(24):
            y = dist.make(rng.uniform(-1.0, 1.0, 3), rng.dirichlet(np.ones(3)))
            x = dist.make(y.support + rng.uniform(0.0, 0.2, 3), rng.dirichlet(np.ones(3)))
            shifted.append((x, y))
        answers = []
        for x, y in shifted:  # the ends are in order at every n: fosd decides each
            got, n_conv, n_fosd = search(x, y)
            assert n_fosd == (got or 32) and n_conv == 2 * (n_fosd - 1)
            answers.append(got)
        assert answers[0] == 2 and None in answers and 1 in answers
        assert max(a for a in answers if a is not None) >= 3

        crossing = skipped = 0
        while crossing < 30:
            x = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
            y = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
            if cgf.k_dominates(x, y).order is not cgf.KOrder.FAILS:
                continue
            crossing += 1
            got, _, n_fosd = search(x, y)
            assert got is None
            if x.support[0] < y.support[0] or x.support[-1] < y.support[-1]:
                assert n_fosd == 0  # out of order at n = 1, so at every n
                skipped += 1
        assert skipped >= 20

        ties = []
        for _ in range(8):
            y = dist.make(rng.uniform(-1.0, 1.0, 3), rng.dirichlet(np.ones(3)))
            up = float(rng.uniform(0.0, 0.2))
            # X's least atom, its greatest, or both are Y's
            for shift, tied in (([0, 0, up], 0), ([up, 0, 0], -1), ([0, 0, 0], 0)):
                x = dist.make(y.support + shift, rng.dirichlet(np.ones(3)))
                assert x.support[tied] == y.support[tied]
                got, _, n_fosd = search(x, y)
                assert n_fosd == (got or 32)  # a tie is not out of order
                ties.append(got)
        assert None in ties and any(ties)

        # the 1e-300 atom alone puts X's least atom below Y's (skipped at
        # n = 1) or its greatest above (decided by fosd at n = 1); its mass
        # squared underflows, so from n = 2 on the ends turn
        y = dist.make([-0.5, 0.0, 0.5], [0.3, 0.4, 0.3])
        low = dist.make([-0.6, 0.1, 0.6], [1e-300, 0.5, 0.5])
        high = dist.make([-0.4, 0.2, 0.7], [0.5, 0.5, 1e-300])
        assert low.probs[0] == high.probs[-1] == 1e-300
        assert [search(low, y)[::2], search(high, y)[::2]] == [(2, 1), (None, 1)]

    def test_end_certificate_matches_the_every_n_loop(self, search):
        """Where the input laws' ends certify that X^{*n}'s least atom stays
        below Y^{*n}'s (or its greatest below Y^{*n}'s), None comes with no
        convolution; elsewhere the loop convolves up to its answer. Each
        family puts pairs on both sides of one condition of the certificate."""
        rng = np.random.default_rng(71)
        fired = {}

        def check(family, x, y):  # x and y as (support, probs)
            x, y = dist.make(*x), dist.make(*y)
            got, n_conv, _ = search(x, y)
            certified = _end_certified(x, y, 32)
            assert n_conv == (0 if certified else 2 * ((got or 32) - 1))
            assert got is None or not certified
            fired.setdefault(family, []).append(certified)

        # criterion 03's obstructed pairs, at scales from 1e-3 to 1e7
        for k in range(-3, 8):
            found = 0
            while found < 3:
                x = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
                y = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
                if cgf.k_dominates(x, y).order is cgf.KOrder.FAILS:
                    found += 1
                    check("fails", (x.support, x.probs), (y.support, y.probs))
                    s = 10.0**k
                    check("scaled", (x.support * s, x.probs), (y.support * s, y.probs))
        p3 = rng.dirichlet(np.ones(3))
        # X's least atom, or its greatest, 1e-16 to 1e-7 below Y's, the
        # other end in order
        for k in range(7, 17):
            lo, mid, hi = rng.uniform(-1.0, -0.5), rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.0)
            d = 10.0**-k
            check("ends apart", ([lo - d, mid, hi + 0.1], p3), ([lo, mid, hi], p3[::-1]))
            check("ends apart", ([lo + 0.1, mid, hi - d], p3), ([lo, mid, hi], p3[::-1]))
        # X's two least atoms (or Y's two greatest) 2e-9 apart, below Y's
        # least (above X's greatest) by 0.1, the other end in order, at
        # scales 1 to 1e4
        for k in range(5):
            c = 10.0**k
            check("bottom 2e-9", ([-c, 2e-9 - c, 0.7], p3), ([0.1 - c, 0.2, 0.6], p3[::-1]))
            check("top 2e-9", ([-0.5, 0.2, c - 0.1], p3), ([-0.6, c - 2e-9, c], p3[::-1]))
        # X's least mass (or Y's greatest) 1e-300, or one whose 32nd power
        # goes subnormal or underflows
        for k in (5, 9, 10, 15, 20, 30, 300):
            p = 10.0**-k
            y = ([-0.5, 0.0, 0.5], [0.3, 0.4, 0.3])
            check("end mass", ([-0.6, 0.1, 0.6], [p, 0.5, 0.5 - p]), y)
            check("end mass", ([-0.4, 0.2, 0.4], y[1]), ([-0.5, 0.0, 0.5], [0.3, 0.7 - p, p]))
        for family, certified in fired.items():
            assert any(certified) and not all(certified), family

    def test_certified_pair_does_not_blow_up(self):
        """Y is 60 atoms on [-1, 1] and X is Y with its least atom 0.5 lower.
        The n-fold loop would raise SupportBlowup at n = 4; the ends
        certify None before any convolution."""
        rng = np.random.default_rng(9)
        y = dist.make(rng.uniform(-1.0, 1.0, 60), rng.dirichlet(np.ones(60)))
        x = dist.make(np.concatenate(([y.support[0] - 0.5], y.support[1:])), y.probs)
        with pytest.raises(SupportBlowup, match="2269140 atom pairs"):
            dist.convolve(dist.convolve(dist.convolve(x, x), x), x)
        assert dominance.large_numbers_n(x, y, 32) is None

    def test_obstruction_blocks_all_n(self):
        rng = np.random.default_rng(56)
        checked = 0
        while checked < 10:
            d1 = random_dist(rng, n_max=4, lo=-1, hi=1)
            d2 = random_dist(rng, n_max=4, lo=-1, hi=1)
            res = cgf.k_dominates(d1, d2)
            if res.order is not cgf.KOrder.FAILS:
                continue
            checked += 1
            assert dominance.large_numbers_n(d1, d2, 16) is None


def test_obstruction_completeness_under_catalysts():
    # where the CGF gap is negative at some a, no catalyst can help:
    # the gap is invariant under adding independent Z, and FOSD fails
    rng = np.random.default_rng(57)
    checked = 0
    while checked < 10:
        d1 = random_dist(rng, n_max=4)
        d2 = random_dist(rng, n_max=4)
        res = cgf.k_dominates(d1, d2)
        if res.order is not cgf.KOrder.FAILS:
            continue
        checked += 1
        a_w = res.witness
        for _ in range(3):
            z = random_dist(rng, n_max=4)
            d1z = dist.convolve(d1, z)
            d2z = dist.convolve(d2, z)
            assert cgf.k_a(d1z, a_w) < cgf.k_a(d2z, a_w) + 1e-10
            assert not dominance.fosd(d1z, d2z, tol=1e-12).dominates
