"""Mixing measures and the statistics they induce.

A MixingMeasure is a finite atomic probability measure on the extended
reals. It induces the statistic

    value(mu, d) = sum_j w_j * K_{a_j}(d),

which is monotone in first-order stochastic dominance and additive over
independent sums; this module also hosts the risk classification and the
comparative-risk-aversion test (exact, at the measures' atoms and the
limits b -> 0+-), the domain extensions from nonnegative and integer
supports, and the sub/super-additive set-valued variants.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cgf import k_a_many
from .dist import FiniteDist, _check_masses, _positive_int, floor_dist, iid_power, moments, shift
from .errors import (
    BadSupport,
    EmptyFamily,
    InfiniteAtom,
    SupportBlowup,
)

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixingMeasure:
    """Finite atomic probability measure on [-inf, +inf]."""

    locations: np.ndarray  # sorted, distinct; may include +-inf
    weights: np.ndarray  # strictly positive, sum 1

    def __post_init__(self):
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.locations.size

    def __repr__(self):
        pairs = ", ".join(
            f"{a:g}:{w:g}" for a, w in zip(self.locations, self.weights)
        )
        return f"MixingMeasure({pairs})"


def make_measure(locations, weights) -> MixingMeasure:
    locations = np.asarray(locations, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if locations.size != weights.size or locations.size == 0:
        raise EmptyFamily("need matching, nonempty locations and weights")
    if np.isnan(locations).any():
        raise BadSupport("locations must not be NaN")
    _check_masses(weights, "weights")
    order = locations.argsort(kind="stable")
    locations = locations[order]
    weights = weights[order]
    # merge exact duplicates, drop zero-weight atoms (a total near 1 keeps one)
    starts = np.concatenate(([True], locations[1:] != locations[:-1])).nonzero()[0]
    locs = locations[starts]
    wts = np.add.reduceat(weights, starts)
    keep = wts > 0
    locs, wts = locs[keep], wts[keep]
    return MixingMeasure(locs, wts / wts.sum())


def point_mass(a: float) -> MixingMeasure:
    return make_measure([a], [1.0])


def evaluate(mu: MixingMeasure, d: FiniteDist) -> float:
    """The statistic induced by mu: weighted average of K_a(d) over atoms."""
    if d.n_atoms == 1:
        # normalization is exact on constants
        return float(d.support[0])
    return float(mu.weights.dot(k_a_many(d, mu.locations)))


def evaluate_gaussian(mu: MixingMeasure, mean: float, var: float) -> float:
    """Closed form on Gaussian laws: mean + c * var / 2, c the mean of mu.

    Requires a measure with compact (finite) support; K_a of a Gaussian is
    mean + a * var / 2, which has no limit at +-inf.
    """
    # written so that a NaN mean or variance fails the check
    if not (0 <= var < np.inf and np.isfinite(mean)):
        raise BadSupport("need a finite mean and a finite nonnegative variance")
    if not np.all(np.isfinite(mu.locations)):
        raise InfiniteAtom("Gaussian closed form needs all atoms finite")
    c = float(np.dot(mu.weights, mu.locations))
    return mean + c * var / 2.0


class RiskClass(Enum):
    NEUTRAL = "neutral"
    AVERSE = "averse"
    SEEKING = "seeking"
    MIXED = "mixed"


def classify_risk(mu: MixingMeasure) -> RiskClass:
    locs = mu.locations
    if locs.size == 1 and locs[0] == 0.0:
        return RiskClass.NEUTRAL
    if np.all(locs <= 0):
        return RiskClass.AVERSE
    if np.all(locs >= 0):
        return RiskClass.SEEKING
    return RiskClass.MIXED


class CompareOrder(Enum):
    LE = "le"
    GE = "ge"
    EQ = "eq"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class CompareResult:
    """The order of two statistics; for INCOMPARABLE, the first b in
    increasing order where the LE test fails. A witness of -0.0 or 0.0
    stands for the limit b -> 0- or b -> 0+, ordered between the negative
    and the positive atoms."""

    order: CompareOrder
    witness: Optional[float] = None


def _tail_integrals(mu: MixingMeasure, b: np.ndarray) -> np.ndarray:
    """Integral of (a - b)/a over (b, +inf] (b >= 0) or [-inf, b) (b <= 0),
    for every b, as W - b S: the sums of w and of w/a over a suffix or
    prefix of the sorted atoms. A signed zero b is the limit b -> 0+ or
    b -> 0-, where the integral is the weight strictly above or below 0.

    Atoms at the matching infinity add w to W and 0 to S; an atom at a = b
    would add 0. S is summed in long double, where w/a of a subnormal atom
    stays finite. Memory is linear in atoms plus points.
    """
    a, w = mu.locations, mu.weights
    # an atom at a = 0 lies in no tail; its w/a is set to 0, never used
    terms = np.array((w, np.divide(w, a, out=np.zeros(a.size, np.longdouble),
                                   where=a != 0.0, dtype=np.longdouble)))
    prefix, suffix = np.zeros((2, 2, a.size + 1), np.longdouble)  # column k: atoms [:k], [k:]
    np.cumsum(terms, axis=1, out=prefix[:, 1:])
    np.cumsum(terms[:, ::-1], axis=1, out=suffix[:, -2::-1])
    tail = np.where(np.signbit(b), prefix[:, np.searchsorted(a, b, side="left")],
                    suffix[:, np.searchsorted(a, b, side="right")])
    return tail[0] - b * tail[1]


def compare(mu1: MixingMeasure, mu2: MixingMeasure) -> CompareResult:
    """Decide whether mu1's statistic is everywhere <= mu2's (LE), >= (GE),
    equal (EQ), or neither (with a witness b where the LE test fails).

    LE holds iff for every b > 0 the [b, inf] tail integral of (a-b)/a under
    mu1 is <= the same under mu2, and for every b < 0 the [-inf, b] integral
    is >=. On each side of 0 the difference of the two integrals is
    continuous and linear between consecutive atoms and constant past the
    last, so the finite nonzero atoms and the limits b -> 0+- decide the
    comparison exactly, at every scale.
    """
    atoms = np.concatenate((mu1.locations, mu2.locations))
    atoms = np.unique(atoms[np.isfinite(atoms) & (atoms != 0.0)])
    b = np.insert(atoms, np.searchsorted(atoms, 0.0), (-0.0, 0.0))
    # mu1 - mu2 signed so that LE fails where it is positive
    gap = np.where(np.signbit(b), -1, 1) * (_tail_integrals(mu1, b) - _tail_integrals(mu2, b))
    le_fails = gap > _WEIGHT_TOL
    le, ge = not le_fails.any(), not (gap < -_WEIGHT_TOL).any()
    if le and ge:
        return CompareResult(CompareOrder.EQ)
    if le:
        return CompareResult(CompareOrder.LE)
    if ge:
        return CompareResult(CompareOrder.GE)
    return CompareResult(CompareOrder.INCOMPARABLE, float(b[np.argmax(le_fails)]))


def extend_from_nonneg(
    stat_on_nonneg: Callable[[FiniteDist], float], d: FiniteDist
) -> float:
    """Extend a statistic defined on nonnegative supports to all of them:
    min[d] + stat(d - min[d])."""
    lo = float(d.support[0])
    return lo + float(stat_on_nonneg(shift(d, -lo)))


def extend_integer_approx(
    stat_on_integers: Callable[[FiniteDist], float],
    d: FiniteDist,
    n_max: int,
) -> Tuple[float, float]:
    """Floor-extension sandwich from integer supports to nonnegative reals.

    Uses the largest feasible n <= n_max (support cap permitting) and
    returns (midpoint, width) of the bracket
    [stat(floor(d^{*n}))/n, stat(floor(d^{*n}) + 1)/n], which contains the
    true extension. n_max itself is tried first; only if its power exceeds
    the cap are the powers scanned upward from 2, up to the last one below
    the first that exceeds it.
    """
    n_max = _positive_int(n_max, "n_max")
    if d.support[0] < 0:
        raise BadSupport("floor extension needs a nonnegative support")
    try:
        n_used = n_max
        power = iid_power(d, n_used) if n_used > 1 else d
    except SupportBlowup:
        power, n_used = d, 1
        for n in range(2, n_max + 1):
            try:
                power = iid_power(d, n)
            except SupportBlowup:
                break
            n_used = n
    floored = floor_dist(power)
    lower = float(stat_on_integers(floored)) / n_used
    upper = float(stat_on_integers(shift(floored, 1.0))) / n_used
    return (lower + upper) / 2.0, upper - lower


class FamilyMode(Enum):
    MAX = "max"
    MIN = "min"


def evaluate_family(
    measures: Sequence[MixingMeasure], mode: FamilyMode, d: FiniteDist
) -> float:
    """Set-valued statistic: max (sub-additive) or min (super-additive) of
    the member statistics."""
    if not measures:
        raise EmptyFamily("need at least one mixing measure")
    vals = [evaluate(mu, d) for mu in measures]
    return max(vals) if mode is FamilyMode.MAX else min(vals)


def statistic_mean(d: FiniteDist) -> float:
    return moments(d).mean
