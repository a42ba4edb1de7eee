"""Time-lottery valuation, Paretian aggregation, indifference pairs,
risk-invariant evaluation, betweenness classification, and the combined-
choices violation search.

A time lottery (x, T) pays the positive prize x at the random nonnegative
time T and is valued u(x) * exp(-r * value(mu, T)). Aggregating exponential
discounters with rates r_i under Pareto weights lambda yields the social
statistic sum_i lambda_i K_{-r_i} and the harmonic social rate
1/r = sum_i lambda_i / r_i.

The violation search checks the grid once, so that no convolution fails
mid-walk, and holds the ranked pairs as index arrays, in memory linear in
max_candidates. It decides the quadruples in canonical order, in batches
of at most _BATCH: dominance._strict_fosd_rows reads a batch's convolved
laws on the union of their supports, which gives fosd's verdict (proved
in its docstring), in tables chunked at dominance._ROWS_CELLS entries.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dist import SUPPORT_CAP, FiniteDist, _check_sums, convolve, make, moments
from .dominance import _strict_fosd_rows
from .errors import (
    BadParams,
    BadSupport,
    DuplicateRates,
    IllConditioned,
    InfeasibleC,
    InputError,
    NegativeTime,
    NonpositivePrize,
    WeightMismatch,
)
from .mas import MixingMeasure, evaluate, make_measure


# ---------------------------------------------------------------------------
# utilities over prizes

@dataclass(frozen=True)
class UtilitySpec:
    """Increasing continuous map from positive prizes to positive utilities.

    kind is one of identity | power | log | table. The log kind is
    log(1 + x), which keeps the range positive on all of (0, inf). Table
    utilities interpolate linearly and refuse prizes outside their range.
    """

    kind: str
    exponent: float = 1.0
    points: Tuple[Tuple[float, float], ...] = ()

    @staticmethod
    def identity() -> "UtilitySpec":
        return UtilitySpec("identity")

    @staticmethod
    def power(exponent: float) -> "UtilitySpec":
        if not 0 < exponent < math.inf:
            raise BadParams("power utility needs a positive finite exponent")
        return UtilitySpec("power", exponent=exponent)

    @staticmethod
    def log() -> "UtilitySpec":
        return UtilitySpec("log")

    @staticmethod
    def table(points: Sequence[Tuple[float, float]]) -> "UtilitySpec":
        pts = tuple((float(x), float(u)) for x, u in points)
        xs = [p[0] for p in pts]
        us = [p[1] for p in pts]
        if len(pts) < 2 or sorted(xs) != xs or sorted(us) != us or len(set(xs)) != len(xs):
            raise BadParams("table utility needs increasing x and u")
        if min(us) <= 0 or min(xs) <= 0:
            raise BadParams("table utility must be positive on positive prizes")
        return UtilitySpec("table", points=pts)


def utility_value(u: UtilitySpec, x: float) -> float:
    if not 0 < x < math.inf:
        raise NonpositivePrize(f"prize must be positive and finite, got {x}")
    if u.kind == "identity":
        return float(x)
    if u.kind == "power":
        try:
            return float(x**u.exponent)
        except OverflowError as exc:
            raise InputError(f"utility of prize {x} overflows") from exc
    if u.kind == "log":
        return float(np.log1p(x))
    if u.kind == "table":
        xs = np.array([p[0] for p in u.points])
        us = np.array([p[1] for p in u.points])
        if x < xs[0] or x > xs[-1]:
            raise InputError(f"prize {x} outside table range [{xs[0]}, {xs[-1]}]")
        return float(np.interp(x, xs, us))
    raise BadParams(f"unknown utility kind {u.kind!r}")


# ---------------------------------------------------------------------------
# time-lottery valuation

def discount_factor(t_dist: FiniteDist, rate: float) -> float:
    """E[exp(-rate * T)] for a nonnegative random time."""
    return float(np.dot(t_dist.probs, np.exp(-rate * t_dist.support)))


def time_value(
    x: float,
    t_dist: FiniteDist,
    u: UtilitySpec,
    rate: float,
    mu: MixingMeasure,
) -> float:
    """u(x) * exp(-rate * value(mu, T))."""
    if t_dist.support[0] < 0:
        raise NegativeTime("time support must be nonnegative")
    if not 0 < rate < math.inf:
        raise BadParams("rate must be positive and finite")
    return utility_value(u, x) * float(np.exp(-rate * evaluate(mu, t_dist)))


@dataclass(frozen=True)
class AgentProfile:
    rates: Tuple[float, ...]
    utility: UtilitySpec

    def __post_init__(self):
        if len(self.rates) == 0 or any(not 0 < r < math.inf for r in self.rates):
            raise BadParams("need at least one agent, each with a positive finite rate")


@dataclass(frozen=True)
class SocialPreference:
    weights: Tuple[float, ...]
    statistic: MixingMeasure
    rate: float


def aggregate(profile: AgentProfile, weights: Sequence[float]) -> SocialPreference:
    """Pareto aggregation: statistic sum_i w_i K_{-r_i}, harmonic rate."""
    w = np.asarray(list(weights), dtype=np.float64)
    rates = np.asarray(profile.rates, dtype=np.float64)
    if w.size != rates.size:
        raise WeightMismatch(f"{w.size} weights for {rates.size} rates")
    # written so that a NaN weight fails the checks
    if not (w >= 0).all() or not abs(w.sum() - 1.0) <= 1e-12:
        raise WeightMismatch("weights must be a probability vector")
    keep = w > 0
    statistic = make_measure(-rates[keep], w[keep])
    rate = 1.0 / float(np.dot(w[keep], 1.0 / rates[keep]))
    return SocialPreference(tuple(float(v) for v in w), statistic, rate)


def pareto_check(
    profile: AgentProfile,
    social: SocialPreference,
    lottery_pairs: Sequence[Tuple[Tuple[float, FiniteDist], Tuple[float, FiniteDist]]],
) -> Optional[int]:
    """None if every unanimously-preferred pair is socially preferred;
    otherwise the index of the first violation."""
    u = profile.utility
    for idx, ((x, t_dist), (y, s_dist)) in enumerate(lottery_pairs):
        ux = utility_value(u, x)
        uy = utility_value(u, y)
        unanimous = all(
            ux * discount_factor(t_dist, r) >= uy * discount_factor(s_dist, r) - 1e-12
            for r in profile.rates
        )
        if not unanimous:
            continue
        vx = time_value(x, t_dist, u, social.rate, social.statistic)
        vy = time_value(y, s_dist, u, social.rate, social.statistic)
        if vx < vy - 1e-9:
            return idx
    return None


# ---------------------------------------------------------------------------
# indifference pairs (Vandermonde construction)

@dataclass(frozen=True)
class IndifferencePair:
    t_dist: FiniteDist
    s_dist: FiniteDist
    c: float
    eta: float
    d_coeffs: Tuple[float, ...]


def indifference_pair(rates: Sequence[float], c: float) -> IndifferencePair:
    """Times T, S on {1..n+1} with E[exp(-r_i T)] = c * E[exp(-r_i S)] for
    every rate r_i.

    Solves the (n+1)x(n+1) system M d = (0,..,0,1)^T with M_ij =
    exp(-r_i * j) (last row all ones), which is a scaled Vandermonde matrix
    in the distinct values exp(-r_i). Feasibility requires c in (1 - eta, 1)
    with eta = 1 / sum_k max(d_k, 0).
    """
    rates = [float(r) for r in rates]
    n = len(rates)
    if n == 0 or any(not r > 0 for r in rates):
        raise BadParams("need at least one positive rate")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(rates[i] - rates[j]) <= 1e-8 * max(rates[i], rates[j]):
                raise DuplicateRates(f"rates {rates[i]} and {rates[j]} coincide")
    full = np.array(rates + [0.0])
    cols = np.arange(1, n + 2, dtype=np.float64)
    m = np.exp(-np.outer(full, cols))
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    try:
        d = np.linalg.solve(m, rhs)
        d = d + np.linalg.solve(m, rhs - m @ d)  # one refinement step
    except np.linalg.LinAlgError as exc:  # rates whose exp(-r j) round alike
        raise IllConditioned(f"Vandermonde matrix is singular: {exc}") from exc
    residual = float(np.max(np.abs(m @ d - rhs)))
    if not residual <= 1e-8:
        raise IllConditioned(f"Vandermonde residual {residual:g} after refinement")
    pos_sum = float(np.maximum(d, 0.0).sum())
    eta = 1.0 / pos_sum
    if not (1.0 - eta < c < 1.0):
        raise InfeasibleC(
            f"c must lie in ({1.0 - eta:g}, 1), got {c}", eta=eta
        )
    a = np.maximum((1.0 - c) * d, 0.0)
    a[0] += 1.0 - a.sum()  # slack goes to the first atom
    b = (a - (1.0 - c) * d) / c
    t_dist = make(cols, a)
    s_dist = make(cols, b)
    worst = 0.0
    for r in rates:
        lhs = discount_factor(t_dist, r)
        rhs_v = c * discount_factor(s_dist, r)
        worst = max(worst, abs(lhs - rhs_v) / rhs_v)
    if not worst <= 1e-10:
        raise IllConditioned(f"indifference residual {worst:g} exceeds 1e-10")
    return IndifferencePair(t_dist, s_dist, float(c), eta, tuple(float(v) for v in d))


# ---------------------------------------------------------------------------
# risk-invariant preferences

def risk_invariant_value(
    v: Callable[[float], float], mu_neg: MixingMeasure, d: FiniteDist
) -> float:
    """v(E[X]) + value(mu_neg, X), for mu_neg supported on [-inf, 0)."""
    if np.any(mu_neg.locations >= 0):
        raise BadSupport("risk-invariant part needs all atoms strictly negative")
    return float(v(moments(d).mean)) + evaluate(mu_neg, d)


# ---------------------------------------------------------------------------
# betweenness / independence classification

class BetweennessKind(Enum):
    POINT_MASS = "point_mass"
    BALANCED_PAIR = "balanced_pair"
    MIN_MAX_PAIR = "min_max_pair"
    NOT_BETWEENNESS = "not_betweenness"


@dataclass(frozen=True)
class BetweennessClass:
    kind: BetweennessKind
    satisfies: bool
    a: Optional[float] = None
    beta: Optional[float] = None
    reason: str = ""


def betweenness_form(beta: float, a: float) -> MixingMeasure:
    """The balanced two-atom measure beta*delta(-a*beta) + (1-beta)*delta(a*(1-beta))."""
    if not (0 < beta < 1) or not a > 0:
        raise BadParams("need beta in (0,1) and a > 0")
    return make_measure([-a * beta, a * (1.0 - beta)], [beta, 1.0 - beta])


def classify_betweenness(mu: MixingMeasure) -> BetweennessClass:
    locs, wts = mu.locations, mu.weights

    def fails(reason, kind=BetweennessKind.NOT_BETWEENNESS, beta=None):
        return BetweennessClass(kind, False, beta=beta, reason=reason)

    if locs.size == 1:
        if np.isfinite(locs[0]):
            return BetweennessClass(BetweennessKind.POINT_MASS, True, a=float(locs[0]))
        return fails("a point mass at an infinite index is min/max, which fails "
                     "the mixture-indifference requirement")
    if locs.size != 2:
        return fails(f"{locs.size} atoms; betweenness admits at most two")
    a1, a2 = float(locs[0]), float(locs[1])
    if a1 == -np.inf and a2 == np.inf:
        return fails("min/max mixtures keep mixture indifference only one way "
                     "and fail the full axiom", BetweennessKind.MIN_MAX_PAIR, float(wts[0]))
    if not (np.isfinite(a1) and np.isfinite(a2)):
        return fails("one atom is infinite and the other finite")
    if not (a1 < 0 < a2):
        return fails("two-atom form needs atoms straddling zero")
    span = a2 - a1
    expected_w1 = -a1 / span
    if abs(float(wts[0]) - expected_w1) <= 1e-10:
        return BetweennessClass(BetweennessKind.BALANCED_PAIR, True, a=span, beta=expected_w1)
    return fails(f"weight on {a1:g} is {float(wts[0]):g}, balanced form "
                 f"requires {expected_w1:g}")


# ---------------------------------------------------------------------------
# combined choices: violation search

@dataclass(frozen=True)
class GambleGrid:
    """Finite gamble universe: distributions over `values` whose
    probabilities are multiples of prob_step and whose support has at most
    max_support points. Enumeration order is the lexicographic order of the
    integer probability compositions, which fixes the search order."""

    values: Tuple[float, ...]
    prob_step: float = 0.25
    max_support: int = 2

    def gambles(self) -> List[FiniteDist]:
        step = self.prob_step
        # written so that a zero or NaN step fails before the division
        if not 0 < step <= 1 or abs(round(1.0 / step) * step - 1.0) > 1e-12:
            raise BadParams("prob_step must divide 1")
        if round(1.0 / step) > SUPPORT_CAP:
            raise BadParams(f"1 / prob_step must be at most {SUPPORT_CAP}")
        parts = _compositions(round(1.0 / step), len(self.values), self.max_support)
        return [make([self.values[i] for i in where], [c * step for c in sizes])
                for where, sizes in parts]


def _compositions(m: int, k: int, parts: int, start: int = 0) -> Iterator[tuple]:
    """(positions, sizes) of the nonzero entries of the k-tuples of
    nonnegative integers summing to m >= 1, with at most `parts` nonzero
    entries and none before `start`, in the tuples' lexicographic order (a
    later first nonzero entry comes first, then a smaller one, and so on)."""
    if parts < 1:
        return
    for p in range(k - 1, start - 1, -1):
        if parts > 1:
            for c in range(1, m):
                for where, sizes in _compositions(m - c, k, parts - 1, p + 1):
                    yield (p,) + where, (c,) + sizes
        yield (p,), (m,)


def median(d: FiniteDist) -> float:
    """Smallest outcome with cdf >= 1/2."""
    cum = np.cumsum(d.probs)
    i = int(np.searchsorted(cum, 0.5 - 1e-12, side="left"))
    return float(d.support[min(i, d.n_atoms - 1)])


def _values(preference: Callable[[FiniteDist], float], gambles) -> np.ndarray:
    return np.array([preference(g) for g in gambles], dtype=np.float64)


def _ranked(values: np.ndarray, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first `limit` index pairs (i, j) with values[i] > values[j], in
    the order the violation search walks them (i ascending, then j
    ascending), as the array of the i and the array of the j."""
    # how many values lie below each; sorted last, a NaN ranks against nothing
    below = np.where(np.isnan(values), 0, np.searchsorted(np.sort(values), values))
    limit = min(limit, int(below.sum()))
    rows = np.flatnonzero((below > 0) & (np.cumsum(below) - below < limit))
    smaller = [np.flatnonzero(values < values[i]) for i in rows.tolist()]
    return np.repeat(rows, below[rows])[:limit], np.concatenate([rows[:0], *smaller])[:limit]


#: the most quadruples one batch of the violation search decides: it
#: bounds the batch's lists, and on small grids (|U| = 7 on criterion 12's)
#: its tables, to about 60 KB each
_BATCH = 1 << 9


class _PairSums(dict):
    """Place in `laws` of the convolution of each gamble pair (i, j),
    i <= j, keyed i * len(gambles) + j and convolved on first lookup."""

    def __init__(self, gambles):
        self.gambles, self.laws = gambles, []

    def __missing__(self, key):
        i, j = divmod(key, len(self.gambles))
        self[key] = len(self.laws)
        self.laws.append(convolve(self.gambles[i], self.gambles[j]))
        return self[key]


def find_framing_violation(
    pref1: Callable[[FiniteDist], float],
    pref2: Callable[[FiniteDist], float],
    grid: GambleGrid,
    max_candidates: int = 10**5,
) -> Optional[Tuple[FiniteDist, FiniteDist, FiniteDist, FiniteDist]]:
    """First quadruple (X, X', Y, Y') in canonical grid order with
    pref1(X) > pref1(X'), pref2(Y) > pref2(Y'), and X' + Y' strictly
    first-order dominating X + Y; None if none exists within the budget.

    max_candidates, an integer (0 if negative), bounds the quadruples
    compared and the ranked pairs, held as index arrays linear in it: the
    first max_candidates inner pairs (Y, Y'), L of them, and the first
    ceil(max_candidates / L) outer pairs (X, X'); quadruple q pairs outer
    q // L with inner q % L. Every gamble is still built and ranked once.
    BadParams, before any convolution, unless twice the least and greatest
    grid values are finite and no gamble has over 2^10 atoms: every atom
    lies between them and fl(a + b) is monotone, so no convolution fails.
    """
    if not (-math.inf < max_candidates < math.inf and int(max_candidates) == max_candidates):
        raise BadParams("max_candidates must be an integer")
    budget = max(int(max_candidates), 0)
    gambles = grid.gambles()
    v1, v2 = _values(pref1, gambles), _values(pref2, gambles)
    k, kp = _ranked(v2, budget)
    if not k.size:  # else the outer pairs would be ranked for nothing
        return None
    i, ip = _ranked(v1, -(-budget // k.size))
    stop = min(budget, i.size * k.size)
    ends = np.array([min(grid.values), max(grid.values)])
    _check_sums(ends, ends)
    if max(g.n_atoms for g in gambles) ** 2 > SUPPORT_CAP:
        raise BadParams(f"gambles of over 2^10 atoms: their sums pass {SUPPORT_CAP} atom pairs")
    sums, n = _PairSums(gambles), len(gambles)
    start, size = 0, min(k.size, _BATCH)  # one outer pair's quadruples, then doubling
    while start < stop:
        outer, inner = np.divmod(np.arange(start, min(start + size, stop)), k.size)
        # the pairs (X', Y') and (X, Y) of each quadruple, in walk order
        a, b = np.stack((ip[outer], i[outer]), 1), np.stack((kp[inner], k[inner]), 1)
        keys = (np.minimum(a, b) * n + np.maximum(a, b)).ravel().tolist()
        ids = np.fromiter(map(sums.__getitem__, keys), np.intp, len(keys))
        hits = np.flatnonzero(_strict_fosd_rows(sums.laws, ids[0::2], ids[1::2], 1e-12))
        if hits.size:
            o, q = outer[hits[0]], inner[hits[0]]
            return (gambles[i[o]], gambles[ip[o]], gambles[k[q]], gambles[kp[q]])
        start, size = start + size, min(2 * size, _BATCH)
    return None


def count_candidates(
    pref1: Callable[[FiniteDist], float],
    pref2: Callable[[FiniteDist], float],
    grid: GambleGrid,
) -> int:
    """Size of the quadruple search space for the given preferences: the
    product of the ranked pairs on each side, counted from the sorted
    values without listing a pair. A NaN value ranks against nothing."""
    gambles = grid.gambles()
    count = 1
    for preference in (pref1, pref2):
        v = _values(preference, gambles)
        count *= int(np.searchsorted(np.sort(v), v)[~np.isnan(v)].sum())
    return count


def preference_mean_variance(k: float) -> Callable[[FiniteDist], float]:
    def pref(d: FiniteDist) -> float:
        m = moments(d)
        return m.mean - k * m.variance

    return pref


def preference_mas(mu: MixingMeasure) -> Callable[[FiniteDist], float]:
    def pref(d: FiniteDist) -> float:
        return evaluate(mu, d)

    return pref
