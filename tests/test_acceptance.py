"""Acceptance suite: desk-scale reproduction of the worked numbers plus the
seeded property batches, each with its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mastat import cgf, dist, dominance, mas, pref
from conftest import random_dist, random_measure, strict_pair_stream


def _report(num, label, ok, elapsed=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {status} {label}{timing}{extra}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_figure_reproduction():
    start = time.monotonic()
    x = dist.make([0.0, 1.0], [2 / 3, 1 / 3])
    y = dist.discretize_uniform(-3 / 5, 2 / 5, 1e-3)
    z = dist.make([-0.2, 0.2], [0.5, 0.5])
    not_ranked = not dominance.fosd(x, y).dominates
    after = dominance.fosd(
        dist.convolve(x, z), dist.convolve(y, z), tol=5e-3
    ).dominates
    elapsed = time.monotonic() - start
    _report(
        1,
        "figure pair: unranked cdfs, ranked after the two-point catalyst",
        not_ranked and after and elapsed < 1.0,
        elapsed,
    )


def test_criterion_02_catalyst_constructor_batch():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    stream = strict_pair_stream(rng)
    verified = 0
    constructed = 0
    exhausted = 0
    for _ in range(200):
        x, y = next(stream)
        try:
            cert = dominance.find_catalyst_first(x, y, margin=1e-3)
        except Exception:
            exhausted += 1
            continue
        if cert.verified and cert.worst_gap >= -1e-12:
            verified += 1
        if cert.catalyst.n_atoms > 1:
            constructed += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "200 strict-CGF pairs all yield verified catalysts",
        verified == 200 and exhausted == 0 and elapsed < 60.0,
        elapsed,
        f"{constructed} non-degenerate",
    )


def test_criterion_03_obstruction_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(3033)
    checked = 0
    ok = True
    while checked < 200:
        x = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
        y = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
        res = cgf.k_dominates(x, y)
        if res.order is not cgf.KOrder.FAILS:
            continue
        checked += 1
        if dominance.large_numbers_n(x, y, 32) is not None:
            ok = False
            break
        for _ in range(2):
            zc = random_dist(rng, 2, 4)
            gap = cgf.k_a(dist.convolve(x, zc), res.witness) - cgf.k_a(
                dist.convolve(y, zc), res.witness
            )
            if gap >= 0 or dominance.fosd(
                dist.convolve(x, zc), dist.convolve(y, zc), tol=1e-12
            ).dominates:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(
        3,
        "200 CGF-obstructed pairs: no large-numbers rank <= 32, catalysts stay blocked",
        ok and checked == 200 and elapsed < 60.0,
        elapsed,
    )


def test_criterion_04_additivity_normalization():
    start = time.monotonic()
    rng = np.random.default_rng(4044)
    worst = 0.0
    exact = True
    for _ in range(1000):
        mu = random_measure(rng, allow_inf=True)
        x = random_dist(rng, 2, 5)
        y = random_dist(rng, 2, 5)
        c = float(rng.uniform(-5.0, 5.0))
        lhs = mas.evaluate(mu, dist.convolve(x, y))
        rhs = mas.evaluate(mu, x) + mas.evaluate(mu, y)
        worst = max(worst, abs(lhs - rhs))
        exact = exact and mas.evaluate(mu, dist.make([c], [1.0])) == c
    elapsed = time.monotonic() - start
    _report(
        4,
        "additivity within 1e-9 and exact normalization on 1000 seeded cases",
        worst <= 1e-9 and exact and elapsed < 5.0,
        elapsed,
        f"worst additivity gap {worst:.2e}",
    )


def test_criterion_05_risk_classification_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(5055)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        locs = -rng.uniform(0.0, 4.0, n)
        if rng.random() < 0.25:
            locs[0] = -np.inf
        mu_averse = mas.make_measure(locs, rng.dirichlet(np.ones(n)))
        mu_seeking = mas.make_measure(
            [-loc for loc in mu_averse.locations], mu_averse.weights
        )
        assert mas.classify_risk(mu_averse) in (
            mas.RiskClass.AVERSE,
            mas.RiskClass.NEUTRAL,
        )
        for _ in range(1000):
            d = random_dist(rng, 2, 4)
            mean = dist.moments(d).mean
            if mas.evaluate(mu_averse, d) > mean + 1e-10:
                ok = False
                break
            if mas.evaluate(mu_seeking, d) < mean - 1e-10:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(
        5,
        "averse measures stay below the mean, seeking above (50 x 1000)",
        ok and elapsed < 10.0,
        elapsed,
    )


def test_criterion_06_comparative_risk_example():
    start = time.monotonic()
    mu1 = mas.point_mass(2.0)
    mu2 = mas.make_measure([1.0, 3.0], [0.25, 0.75])
    is_le = mas.compare(mu1, mu2).order is mas.CompareOrder.LE
    rng = np.random.default_rng(6066)
    ordered = all(
        mas.evaluate(mu1, d) <= mas.evaluate(mu2, d) + 1e-10
        for d in (random_dist(rng, 2, 5) for _ in range(1000))
    )
    elapsed = time.monotonic() - start
    _report(
        6,
        "point mass at 2 is more risk averse than the 1/4-3/4 pair at 1 and 3",
        is_le and ordered,
        elapsed,
    )


def test_criterion_07_uniqueness_family_limit():
    start = time.monotonic()
    mu = mas.make_measure([0.5, 2.0], [0.5, 0.5])
    d = dist.decay_two_point(4096, 1.0)
    got = mas.evaluate(mu, d) / 4096.0
    target = 0.5 * (2.0 - 1.0) / 2.0
    elapsed = time.monotonic() - start
    _report(
        7,
        "decay-family scaling limit at n = 4096 within 0.02 of 1/4",
        abs(got - target) <= 0.02,
        elapsed,
        f"got {got:.6f}",
    )


def test_criterion_08_aggregation_pipeline():
    start = time.monotonic()
    profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
    social = pref.aggregate(profile, [0.5, 0.5])
    rate_exact = social.rate == 1.5

    rng = np.random.default_rng(8088)
    pairs = []
    while len(pairs) < 10_000:
        x = float(rng.uniform(0.5, 2.0))
        y = float(rng.uniform(0.5, 2.0))
        t = random_dist(rng, 2, 4, lo=0.0, hi=2.0)
        s = random_dist(rng, 2, 4, lo=0.0, hi=2.0)
        firsts = [
            x * pref.discount_factor(t, r) - y * pref.discount_factor(s, r)
            for r in profile.rates
        ]
        if all(v >= 0 for v in firsts):
            pairs.append(((x, t), (y, s)))
        elif all(v <= 0 for v in firsts):
            pairs.append(((y, s), (x, t)))
    pareto_ok = pref.pareto_check(profile, social, pairs) is None

    fixture = pref.indifference_pair([1.0, 3.0], 0.97)
    va = pref.time_value(1.0, fixture.t_dist, profile.utility, social.rate, social.statistic)
    vb = pref.time_value(0.97, fixture.s_dist, profile.utility, social.rate, social.statistic)
    socially_indifferent = abs(math.log(va) - math.log(vb)) <= 1e-8

    elapsed = time.monotonic() - start
    _report(
        8,
        "harmonic rate exact, 10k unanimous pairs pass, fixture socially indifferent",
        rate_exact and pareto_ok and socially_indifferent,
        elapsed,
    )


def test_criterion_09_multiple_indifferences():
    start = time.monotonic()
    p = pref.indifference_pair([0.5, 1.0, 2.0], 0.99)
    ratios_ok = all(
        abs(
            pref.discount_factor(p.t_dist, r) / pref.discount_factor(p.s_dist, r)
            - 0.99
        )
        <= 1e-10
        for r in (0.5, 1.0, 2.0)
    )
    infeasible_raised = False
    try:
        pref.indifference_pair([0.5, 1.0, 2.0], 0.5 * (1.0 - p.eta))
    except pref.InfeasibleC:
        infeasible_raised = True
    except Exception:
        infeasible_raised = False
    elapsed = time.monotonic() - start
    _report(
        9,
        "all agent ratios equal c to 1e-10; infeasible c rejected",
        ratios_ok and infeasible_raised,
        elapsed,
    )


def test_criterion_10_risk_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    mu = mas.make_measure([-np.inf, -1.5, -0.3], [0.2, 0.4, 0.4])
    v = math.tanh
    invariance_ok = True
    for _ in range(1000):
        z = random_dist(rng, 2, 4)
        z = dist.shift(z, -dist.moments(z).mean)
        x1 = random_dist(rng, 2, 4)
        x2 = random_dist(rng, 2, 4)
        d1 = pref.risk_invariant_value(v, mu, dist.convolve(x1, z)) - (
            pref.risk_invariant_value(v, mu, x1)
        )
        d2 = pref.risk_invariant_value(v, mu, dist.convolve(x2, z)) - (
            pref.risk_invariant_value(v, mu, x2)
        )
        if abs(d1 - d2) > 1e-10:
            invariance_ok = False
            break
    sosd_ok = True
    for _ in range(1000):
        d1 = random_dist(rng, 2, 4)
        i = int(rng.integers(d1.n_atoms))
        h = float(rng.uniform(0.05, 0.5))
        sup = np.concatenate((d1.support, [d1.support[i] - h, d1.support[i] + h]))
        pr = np.concatenate((d1.probs, [d1.probs[i] / 2, d1.probs[i] / 2]))
        pr[i] = 0.0
        d2 = dist.make(sup, pr)
        if pref.risk_invariant_value(v, mu, d1) < (
            pref.risk_invariant_value(v, mu, d2) - 1e-10
        ):
            sosd_ok = False
            break
    elapsed = time.monotonic() - start
    _report(
        10,
        "risk invariance exact to 1e-10 and SOSD monotone on 1000 seeded cases",
        invariance_ok and sosd_ok,
        elapsed,
    )


def test_criterion_11_betweenness():
    start = time.monotonic()
    mu = pref.betweenness_form(0.5, 2.0)
    assert pref.classify_betweenness(mu).kind is pref.BetweennessKind.BALANCED_PAIR
    b_neg, b_pos = -1.0, 1.0
    rng = np.random.default_rng(1111)

    def mgf(d, b):
        return float(np.dot(d.probs, np.exp(b * d.support)))

    mixture_ok = True
    for _ in range(500):
        x = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
        y = random_dist(rng, 2, 4, lo=-1.0, hi=1.0)
        x = dist.shift(x, -mas.evaluate(mu, x))
        y = dist.shift(y, -mas.evaluate(mu, y))
        lam = float(rng.uniform(0.1, 0.9))
        if abs(mgf(x, b_pos) / mgf(y, b_pos) - mgf(x, b_neg) / mgf(y, b_neg)) > 1e-9:
            mixture_ok = False
            break
        mix = dist.mixture(x, y, lam)
        if abs(mas.evaluate(mu, mix) - mas.evaluate(mu, y)) > 1e-9:
            mixture_ok = False
            break
        if abs(
            mgf(mix, b_pos) / mgf(y, b_pos) - mgf(mix, b_neg) / mgf(y, b_neg)
        ) > 1e-9:
            mixture_ok = False
            break

    unbalanced = mas.make_measure([-1.0, 2.0], [0.25, 0.75])
    witness_dev = 0.0
    for lo, hi in itertools.combinations([-2.0, -1.0, 0.0, 1.0, 2.0], 2):
        for p in (0.25, 0.5, 0.75):
            x = dist.make([lo, hi], [p, 1 - p])
            c = mas.evaluate(unbalanced, x)
            y = dist.make([c], [1.0])
            for lam in (0.25, 0.5, 0.75):
                dev = abs(mas.evaluate(unbalanced, dist.mixture(x, y, lam)) - c)
                witness_dev = max(witness_dev, dev)
    elapsed = time.monotonic() - start
    _report(
        11,
        "balanced pair passes mixture invariance (500 cases); unbalanced one fails",
        mixture_ok and witness_dev > 1e-3,
        elapsed,
        f"witness deviation {witness_dev:.4f}",
    )


def test_criterion_12_combined_choices_demo():
    start = time.monotonic()
    grid = pref.GambleGrid((-2.0, -1.0, 0.0, 1.0), 0.25, 2)
    budget = 10**5
    med_candidates = pref.count_candidates(pref.median, pref.median, grid)
    quad = pref.find_framing_violation(pref.median, pref.median, grid, budget)
    median_ok = med_candidates <= budget and quad is not None
    if quad is not None:
        x, xr, y, yr = quad
        res = dominance.fosd(dist.convolve(xr, yr), dist.convolve(x, y), tol=1e-12)
        median_ok = median_ok and res.dominates and res.strict

    mu = mas.make_measure([-0.5, 1.0], [0.5, 0.5])
    pm = pref.preference_mas(mu)
    mas_candidates = pref.count_candidates(pm, pm, grid)
    mas_none = (
        mas_candidates <= budget
        and pref.find_framing_violation(pm, pm, grid, budget) is None
    )
    elapsed = time.monotonic() - start
    _report(
        12,
        "median violates combined choices on the declared grid; the statistic never does",
        median_ok and mas_none,
        elapsed,
        f"candidate spaces {med_candidates} / {mas_candidates}",
    )
