"""Finite discrete probability distributions and their measure algebra.

A FiniteDist is an immutable pair of arrays: a strictly increasing support
and strictly positive probabilities summing to one. All operations are pure
functions returning new canonical distributions, so values can be shared
freely across threads.

Probabilities are stored as doubles, with a parallel array of their logs
for the CGF evaluator, which works in log space. Every law goes through one
canonicalisation (_canonical: sort, snap-merge, drop zero masses,
renormalise) of linear probabilities, whose log-probabilities are the logs
of the final masses. decay_two_point alone sets its log masses: with b*n of
a few thousand its top mass lies far below the double underflow threshold,
and only its log mass keeps it. make and FiniteDist(...) check their input;
a result canonical by construction skips the checks (_trusted).

SNAP_TOL is absolute at every scale: points 5e-10 apart merge, while
adjacent doubles near 1e8 (1.49e-8 apart) stay two atoms. A relative
tolerance would change every law's bytes and the iid_power contract.

Values derived from the atoms (moments, the cdf and survival step tables)
are computed on first use and kept on the object, so repeated calls on the
same distribution do not recompute them.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadInterval,
    BadParams,
    LambdaOutOfRange,
    LengthMismatch,
    MassNotOne,
    NegativeProb,
    SupportBlowup,
)

#: Absolute snap tolerance: support points closer than this merge into one atom.
SNAP_TOL = 1e-9

#: Cap on the atom pairs one convolution may enumerate (guards against silent
#: blowup); convolve and iid_power read it at each call.
SUPPORT_CAP = 1 << 20

MASS_TOL = 1e-9


class Moments(NamedTuple):
    mean: float
    variance: float
    lo: float
    hi: float


@dataclass(frozen=True)
class FiniteDist:
    """Finite-support distribution on the reals (canonical form)."""

    support: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self):
        x, p, lp = self.support, self.probs, self.log_probs
        for arr in (x, p, lp):
            arr.setflags(write=False)
        if x.ndim != 1 or not x.shape == p.shape == lp.shape:
            raise LengthMismatch("support, probs and log_probs must be 1-D arrays of equal length")
        if x.size == 0:
            raise LengthMismatch("distribution must have at least one atom")
        if (x[1:] <= x[:-1]).any():
            raise BadParams("support must be strictly increasing")
        _check_masses(p)
        # a mass that underflows to 0 may keep a finite log mass (decay_two_point);
        # past a log mass of 1, which is refused, exp(1) stands in for an overflow
        if not (np.abs(np.exp(np.minimum(lp, 1.0)) - p) <= MASS_TOL).all():
            raise BadParams("log_probs must be the logs of probs")

    @property
    def n_atoms(self) -> int:
        return self.support.size

    @cached_property
    def moments(self) -> Moments:
        """Mean, variance and support endpoints, computed on first use."""
        x = self.support
        mean = float(self.probs.dot(x))
        # past a span of 1e150 a squared deviation may be inf; k_a_many handles it
        with np.errstate(over="ignore") if float(x[-1]) - float(x[0]) > 1e150 else nullcontext():
            var = float(self.probs.dot((x - mean) ** 2))
        return Moments(mean, var, float(x[0]), float(x[-1]))

    @cached_property
    def min_gap(self) -> float:
        """Smallest gap between adjacent support points (inf for one atom)."""
        x = self.support
        return 2.0 * float(_half_gaps(x).min()) if x.size > 1 else math.inf

    @cached_property
    def cdf_steps(self) -> np.ndarray:
        """[0, P(X <= x_1), ..., P(X <= x_n)], renormalized to end at 1.0.

        Entry k is the cdf on [x_k, x_(k+1)), k = searchsorted(x, side="right").
        """
        steps = np.zeros(self.probs.size + 1)
        self.probs.cumsum(out=steps[1:])
        steps[1:] /= steps[-1]
        steps.setflags(write=False)
        return steps

    @cached_property
    def survival_steps(self) -> np.ndarray:
        """[P(X >= x_1), ..., P(X >= x_n), 0], accumulated from the upper
        tail so that tiny tail masses absorbed by 1 - cdf stay visible.

        Entry k is P(X > x) on [x_k, x_(k+1)), indexed as in cdf_steps.
        """
        steps = np.zeros(self.probs.size + 1)
        self.probs[::-1].cumsum(out=steps[-2::-1])
        steps[:-1] /= steps[0]
        steps.setflags(write=False)
        return steps

    def __repr__(self):
        pairs = ", ".join(
            f"{x:g}:{p:g}" for x, p in zip(self.support[:6], self.probs[:6])
        )
        tail = ", ..." if self.n_atoms > 6 else ""
        return f"FiniteDist({pairs}{tail})"


def _trusted(support, probs, lp=None) -> FiniteDist:
    """The law of arrays canonical by construction: read-only, not checked."""
    d = object.__new__(FiniteDist)
    vars(d).update(support=support, probs=probs, log_probs=np.log(probs) if lp is None else lp)
    for arr in vars(d).values():
        arr.setflags(write=False)
    return d


def _half_gaps(x: np.ndarray) -> np.ndarray:
    """(x[1:] - x[:-1]) / 2 from halves, which cannot overflow; > tol / 2 is each gap's > tol."""
    h = x * 0.5
    return np.subtract(h[1:], h[:-1], out=h[:-1])  # in place: read ahead of the write


def _canonical(support, probs):
    """Sort, snap-merge, drop zero-mass atoms, renormalize 1-d float64
    arrays into (support, probs). Input that is already canonical (strictly
    increasing with gaps above SNAP_TOL, all masses positive) skips the sort
    and merge, with the same bytes; it keeps the support array, so callers
    pass one of their own."""
    if probs.min() > 0.0 and (_half_gaps(support) > SNAP_TOL / 2).all():
        return support, probs / probs.sum()
    return _sort_merge(support, probs)


def _sort_merge(support, probs):
    """The canonicalisation of _canonical without its early return, for
    input that is not already canonical."""
    order = support.argsort(kind="stable")
    support, probs, order = support[order], probs[order], None  # order freed before the merge
    merged_v, merged_p = _merge_sorted(support, probs, SNAP_TOL)
    keep = merged_p > 0.0
    merged_v, merged_p = merged_v[keep], merged_p[keep]
    if merged_v.size == 0:
        raise MassNotOne("all atoms have zero mass")
    return merged_v, merged_p / merged_p.sum()


def _merge_sorted(values, weights, tol):
    """Snap-merge a sorted support: returns (representatives, masses).

    Consecutive entries whose gap is <= tol form one cluster; masses are
    summed and the representative is the mass-weighted mean, clamped into
    the cluster (the exact common value when the cluster is constant, so
    lattice supports stay exact). Unclamped, the rounded mean can reach the
    next cluster: 2 ulp away at |v| near 4e6, or with subnormal masses.
    """
    n = values.shape[0]
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    np.greater(_half_gaps(values), tol / 2, out=brk[1:])
    starts = brk.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = n - 1
    w = np.add.reduceat(weights, starts)
    wv = np.add.reduceat(weights * values, starts)
    # a cluster of zero mass keeps wv (as wv / 1), so no 0 / 0 to silence
    mean = np.divide(wv, w, out=wv, where=w > 0.0)
    return np.minimum(np.maximum(mean, values[starts], out=mean), values[ends], out=mean), w


def make(support, probs) -> FiniteDist:
    """Validate and canonicalize a distribution given as parallel lists.

    Raises LengthMismatch, NegativeProb, or MassNotOne on bad input.
    """
    support = np.array(support, dtype=np.float64).ravel()  # a copy, see _canonical
    probs = np.asarray(probs, dtype=np.float64).ravel()
    if support.size != probs.size or support.size == 0:
        raise LengthMismatch(
            f"support has {support.size} entries, probs has {probs.size}"
        )
    if not np.isfinite(support).all():
        raise BadParams("support points must be finite")
    _check_masses(probs)
    return _trusted(*_canonical(support, probs))


def _check_masses(probs: np.ndarray, what: str = "probabilities") -> None:
    """NegativeProb or MassNotOne unless the masses are >= 0 (not NaN) and sum to 1 (MASS_TOL)."""
    if not (probs >= 0).all():
        raise NegativeProb(f"{what} must be nonnegative numbers")
    total = probs.sum()
    if not abs(total - 1.0) <= MASS_TOL:
        raise MassNotOne(f"{what} sum to {float(total)}, expected 1")


def convolve(d1: FiniteDist, d2: FiniteDist) -> FiniteDist:
    """Distribution of X + Y for independent X ~ d1, Y ~ d2.

    fl(a + b) is monotone, so the pair sums are laid out as rows that are
    already sorted, and the stable sort in _canonical merges them. The rows
    run along the larger law: one row per d1 atom (d1-major), or, when d2
    has fewer atoms, one row per d2 atom in descending d2 order with d1
    ascending along each row. Both layouts sort to the same sequence, so
    the snap-merge sums the masses in the same order and the result is the
    same bytes. Distinct sums sort alike in any layout. Inside a group of
    exactly equal sums, ascending d1 index goes with descending d2 index
    as long as no two sums along one d1 atom tie, which holds when d2's
    smallest gap exceeds 2 ulp of the largest |sum|; ties along one d2
    atom keep ascending d1 order in both layouts. Where d2 has sub-ulp gaps
    (support near 1e8 against {0, 4e-9, 8e-9}), the sums stay d1-major.
    """
    if (n_pairs := d1.n_atoms * d2.n_atoms) > SUPPORT_CAP:
        raise SupportBlowup(f"convolution would enumerate {n_pairs} atom pairs (cap {SUPPORT_CAP})")
    x, y = d1.support, d2.support
    _check_sums(x, y)
    if 1 < y.size < x.size and d2.min_gap > 2.0 * math.ulp(
        max(-x[0], x[-1]) + max(-y[0], y[-1])
    ):
        # each row ends above the next one's start, so the sums are never
        # already canonical and _canonical's early-return test is skipped
        vals = (y[::-1, None] + x).ravel()
        wts = (d2.probs[::-1, None] * d1.probs).ravel()
        return _trusted(*_sort_merge(vals, wts))
    vals = (x[:, None] + y).ravel()
    wts = (d1.probs[:, None] * d2.probs).ravel()
    return _trusted(*_canonical(vals, wts))


def _check_sums(x: np.ndarray, y: np.ndarray) -> None:
    """BadParams unless every pair sum of the sorted supports x, y is
    finite; fl(a + b) is monotone, so the two extreme sums decide."""
    lo, hi = float(x[0]) + float(y[0]), float(x[-1]) + float(y[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadParams("sums of support points must be finite doubles")


def _positive_int(n, what: str = "n") -> int:
    """n as an int; BadParams unless it is a positive integer (not NaN or inf)."""
    if not (1 <= n < math.inf and int(n) == n):
        raise BadParams(f"{what} must be a positive integer")
    return int(n)


def iid_power(d: FiniteDist, n: int) -> FiniteDist:
    """Sum of n i.i.d. copies of d, by binary exponentiation.

    A squaring lays out only the pairs i <= j (row i: the sorted sums
    x_i + x_j, j >= i) and doubles each off-diagonal mass, which is exact;
    the cap still counts m * m pairs. Against convolve(base, base), whose
    clusters it shares but sums in another order: the same atom counts,
    supports within 2e-15 * n * max(1, |x|) over d, masses within 1e-14
    relative. Squarings take bare arrays; a law is built for a factor.
    """
    n = _positive_int(n)
    acc, base, x, p = None, d, d.support, d.probs  # base: the law of (x, p), or None
    while True:
        if n & 1:
            base = base or _trusted(x, p)
            acc = base if acc is None else convolve(acc, base)
        n >>= 1
        if n == 0:
            return acc
        if (m := x.size) * m > SUPPORT_CAP:
            raise SupportBlowup(
                f"convolution would enumerate {m * m} atom pairs (cap {SUPPORT_CAP})"
            )
        _check_sums(x, x)
        lens = np.arange(m, 0, -1)
        starts = np.cumsum(lens) - lens  # row i starts at its diagonal pair
        j = np.arange(starts[-1] + 1) - np.repeat(starts - np.arange(m), lens)
        vals, wts = np.repeat(x, lens), np.repeat(p, lens)
        vals += x[j]
        wts *= p[j]
        del j  # one temporary fewer through the sort keeps the heap from growing
        wts *= 2.0
        wts[starts] = p * p
        base, (x, p) = None, _sort_merge(vals, wts)  # _canonical's bytes, without its test


def mixture(d1: FiniteDist, d2: FiniteDist, lam: float) -> FiniteDist:
    """Probability mixture: d1 with probability lam, d2 with 1 - lam."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(f"lambda must lie in [0, 1], got {lam}")
    if lam == 1.0:
        return d1
    if lam == 0.0:
        return d2
    vals = np.concatenate((d1.support, d2.support))
    wts = np.concatenate((lam * d1.probs, (1.0 - lam) * d2.probs))
    return _trusted(*_canonical(vals, wts))


def shift(d: FiniteDist, c: float) -> FiniteDist:
    """The law of X + c. Atoms that the shift brings within SNAP_TOL merge,
    as in make; otherwise the masses are kept as they are."""
    if c == 0.0:
        return d
    _check_sums(d.support, np.array([c], dtype=np.float64))
    x = d.support + c
    if not (_half_gaps(x) > SNAP_TOL / 2).all():
        return _trusted(*_sort_merge(x, d.probs))
    return _trusted(x, d.probs, d.log_probs)  # read-only, so shared


def negate(d: FiniteDist) -> FiniteDist:
    return _trusted(-d.support[::-1], d.probs[::-1].copy(), d.log_probs[::-1].copy())


def cdf(d: FiniteDist, x):
    """Right-continuous cdf P(X <= x); accepts scalars or arrays.

    The cumulative masses are renormalized by their total so the cdf ends
    at exactly 1.0 regardless of accumulated rounding.
    """
    out = d.cdf_steps[d.support.searchsorted(x, side="right")]
    return float(out) if out.ndim == 0 else out


def moments(d: FiniteDist) -> Moments:
    return d.moments


def discretize_uniform(a: float, b: float, step: float) -> FiniteDist:
    """Midpoint discretization of the uniform law on [a, b].

    Atoms sit at midpoints of equal cells of width <= step, each with the
    cell's mass; the mean (a + b) / 2 is preserved exactly. step = b - a
    collapses to the single midpoint.
    """
    if not (a < b and 0 < step <= (b - a) * (1 + 1e-12) and math.isfinite((b - a) / step)):
        raise BadInterval(f"need finite a < b and 0 < step <= b - a, got {(a, b, step)}")
    n = int(math.ceil((b - a) / step - 1e-12))
    if n > SUPPORT_CAP:
        raise BadInterval(f"step {step} on [{a}, {b}] needs more than {SUPPORT_CAP} cells")
    h = (b - a) / n
    mids = a + (np.arange(n) + 0.5) * h
    return _trusted(*_canonical(mids, np.full(n, 1.0 / n)))


def discretize_trunc_gaussian(v: float, t: float, step: float) -> FiniteDist:
    """Gaussian density exp(-x^2 / 2V) truncated to [-T, T], midpoint-discretized.

    The grid is mirror-symmetric, so negate(Z) == Z exactly.
    """
    if not (v > 0 and t > 0 and 0 < step <= t / 4 and math.isfinite(2 * t / step)):
        raise BadParams(f"need V > 0, finite T > 0, 0 < step <= T/4, got {(v, t, step)}")
    n = int(math.ceil(2 * t / step - 1e-12))
    if n > SUPPORT_CAP:
        raise BadParams(f"step {step} on [-{t}, {t}] needs more than {SUPPORT_CAP} cells")
    # cell midpoints at integer or half-integer multiples of the cell width
    sup = (np.arange(n) - (n - 1) / 2) * (2 * t / n)
    w = np.exp(-(sup * sup) / (2.0 * v))
    total = w.sum()
    if total <= 0.0:
        raise BadParams(
            "every cell weight underflows; the grid has no point within the "
            "Gaussian's representable radius"
        )
    w = w / total
    keep = w > 0.0  # cells past the underflow radius carry no mass
    sup, w = sup[keep], w[keep]
    return _trusted(sup, w / w.sum())


def decay_two_point(n: int, b: float) -> FiniteDist:
    """Two-point test distribution {n -> exp(-b*n), 0 -> 1 - exp(-b*n)}.

    Its two atoms are always canonical, so it is built directly from its
    log masses, normalised by their log-sum-exp: masses below the double
    underflow threshold keep their log mass and still evaluate correctly
    in the CGF.
    """
    n = _positive_int(n)
    log_top = -b * n
    if not -math.inf < log_top < 0.0:
        raise BadParams("b must be positive, with b*n finite")
    # log(1 - e^{log_top}) without cancellation
    if log_top > -36.0:
        log_bottom = math.log(-math.expm1(log_top))
    else:
        log_bottom = math.log1p(-math.exp(log_top))
    lp = np.array([log_bottom, log_top])
    m = lp.max()
    lp -= m + np.log(np.sum(np.exp(lp - m)))
    p = np.exp(lp)
    p /= p.sum()
    return _trusted(np.array([0.0, float(n)]), p, lp)


def floor_dist(d: FiniteDist) -> FiniteDist:
    """Round every outcome down to an integer (with a 1e-9 snap guard)."""
    vals = np.floor(d.support + 1e-9)
    return _trusted(*_canonical(vals, d.probs))


def merged_support(d1: FiniteDist, d2: FiniteDist) -> np.ndarray:
    """The sorted union of both supports, by np.union1d's steps: of -0.0
    and 0.0 it keeps the one that sorts first."""
    u = np.concatenate((d1.support, d2.support))
    u.sort()
    return u[np.concatenate(([True], u[1:] != u[:-1]))]
