"""Normalized cumulant generating function K_a over the extended real line.

For a finite-support distribution, K_a is the CARA certainty equivalent
with risk coefficient -a:

    K_a(X) = (1/a) log E[exp(a X)]   for finite a != 0,

with K_0 the mean and K_(+/-inf) the max/min of the support. Extended-real
indices are plain IEEE floats, with +-inf playing the infinite endpoints.

Evaluation is max-shift stabilized and works on log-probabilities, so it
stays exact for atoms whose linear mass underflows a double. Values are
clipped to [min, max], where the exact statistic always lies, by clip,
which keeps the sign of a zero K (np.maximum and np.minimum would not). The
scale, the clip bounds, K_(+/-inf) and the FAILS threshold below read only
the support's ends. Only k_a_many's near-zero branch computes the moments;
the grid's K_0 is the mean alone.

Rounding. For a law of n atoms with width w = max - min and scale =
max(1, |x|) over its support, the computed K_a lies within

    eps * (4 scale + (n + 2 ln n) / |a|)        for |a| scale in [1e-6, 1e300],
    eps * (n + 1) scale + a^2 w^3 / 60          for |a| scale below 1e-6,

of the exact K_a of the law with its stored masses normalised (eps =
2^-52, first order in eps). The first is the max-shift form: a x_i, log
p_i, the shifted exponents, the sum and its log each round, and the log's
error is divided by a, so near a = 0 it is far above an ulp (7.5e-10 for
two atoms at |a| = 1e-6). The second is mean + a var / 2, whose rounding
is the mean's and whose truncation is at most a^2 |kappa_3| / 6 with
|kappa_3| <= w^3 / (6 sqrt 3). Past 1e300 the endpoint is within
|log p| / |a| < eps scale.

`_k_direct` works on one atoms x indices buffer in place. For laws of
fewer than 8 atoms its memory is atom-major, so max and sum run down
contiguous rows; from 8 atoms on it is the transposed view of an
index-major array, and numpy reduces each index's contiguous atoms.
Both give the bytes of the plain index-major evaluation: numpy's pairwise
sum adds fewer than 8 elements one after another, exactly as the
row-by-row reduction does, and splits 8 or more across 8 accumulators,
which only the index-major memory order reproduces.

The profile grid (k_profile, and k_dominates on all of it or on its
nonpositive half) skips k_a_many's masks: its interior takes one _k_direct
call (a = 0 replaced by its neighbour, a column then overwritten), and
K_(-inf), K_0 and K_(+inf) are lo, mean + 0 and hi. The bytes are the
masked path's, as _k_direct reduces each index's atoms on their own,
whichever indices share the call. Where |a| scale passes _HUGE_A on the
interior (scale past 1.5e298 at 201 points), the grid goes through
k_a_many. It never falls below _SMALL_A there: scale >= 1 and n_grid <=
SUPPORT_CAP keep |a| >= 3e-6.

k_dominates certifies K_a(X) > K_a(Y) + margin on the whole index
interval. On the profile grid, a gap below -_FAIL_TOL * max(1, |x| over
both supports) is FAILS (witness: the first such index) and one at or
below margin is WEAK. As a -> K_a is nondecreasing, the gap on a cell
[a_k, a_(k+1)] is at least K_(a_k)(X) - K_(a_(k+1))(Y), from values
already computed. Cells where this bracket does not clear the margin are
halved in t = (2/pi) atan(a), where the infinite cells are finite, and
each round's midpoints (one k_a_many call per law) are checked as the
grid is. STRICT needs every bracket clear. The check settles for WEAK
when the next round would take the new evaluations past
_EXTRA_PER_POINT per grid point, so a call costs at most
(1 + _EXTRA_PER_POINT) times the grid's K evaluations per law; a round
evaluates a midpoint or more, so this bounds the rounds too. No round
count is fixed: K_a(sX) = s K_(sa)(X), so at scale s the cells next to
a = 0 take about log2(s) halvings (989 at 1e300). The result records
the rounds and evaluations made. A gap that clears the margin by only
delta keeps about range(Y) / delta cells open, so it is WEAK, not STRICT:
X = Y shifted up by 1e-9 is WEAK at margin 0.

The FAILS threshold scales with the supports because one ulp of K_a
does: it is 1.8e-12 near 1e4, where an absolute 1e-12 read rounding as
failure (X = Y with an atom split by +-2e-9 gave a gap of -3.6e-12; the
exact gap is above -7e-19). Nothing else allows for the rounding of K_a,
whose bound above grows as 1/|a| where the bracket's midpoints next to
a = 0 fall. A gap sampled there can pass the FAILS threshold by rounding
alone, and a STRICT verdict there is not certified against it.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .dist import SUPPORT_CAP, FiniteDist, _positive_int
from .errors import BadParams

#: |a| * scale below this switches to the second-order expansion around a=0.
_SMALL_A = 1e-6

#: |a| * scale above this returns the relevant endpoint outright.
_HUGE_A = 1e300

#: laws with fewer atoms than this are evaluated atom-major (see module doc).
_ATOM_MAJOR_BELOW = 8

#: a K gap below -_FAIL_TOL * max(1, |support| of both laws) is a failure
#: of dominance, not rounding
_FAIL_TOL = 1e-12

#: new K evaluations per law the halving may make, per profile-grid point
_EXTRA_PER_POINT = 16


def k_a(d: FiniteDist, a: float) -> float:
    """K_a(d) for a single extended-real index a."""
    return float(k_a_many(d, np.asarray([a], dtype=np.float64))[0])


def k_a_many(d: FiniteDist, avec: np.ndarray) -> np.ndarray:
    """Vectorized K_a over an array of extended-real indices."""
    avec = np.asarray(avec, dtype=np.float64)
    lo, hi = float(d.support[0]), float(d.support[-1])
    scale = max(1.0, abs(lo), abs(hi))
    absa = np.abs(avec)
    # a product of Python floats past the largest double is inf, with no warning
    if (
        avec.size
        and (amin := float(np.minimum.reduce(absa, axis=None)) * scale) >= _SMALL_A
        and float(np.maximum.reduce(absa, axis=None)) * scale <= _HUGE_A
        and avec.ndim == 1
    ):
        # a 1-d vector whose every index is finite, clear of zero and below
        # the huge cutoff; 0-d and n-d arrays take the masks, which flatten
        out = _k_direct(d, avec)
    else:
        # min propagates NaN, so a NaN index fails the test above and lands here
        if avec.size and math.isnan(amin):
            raise BadParams("K_a index must not be NaN")
        # infinite or past the huge cutoff (where a*x risks overflow): the
        # endpoint, which is exact to double precision there
        out = np.where(avec > 0, hi, lo)
        # clipped so that the product stays finite; it still reads as past _HUGE_A
        absa = np.minimum(absa, 2.0 * _HUGE_A / scale) * scale
        # near zero the direct path loses ~eps/|a|; use mean + a*var/2
        near = absa < _SMALL_A
        if near.any():
            m = d.moments
            if math.isfinite(m.variance):
                out[near] = m.mean + avec[near] * m.variance / 2.0
            else:
                # the variance overflowed: take it of X / scale, which is finite
                xs = d.support / scale
                var = float(np.dot(d.probs, (xs - np.dot(d.probs, xs)) ** 2))
                out[near] = m.mean + (avec[near] * scale) * var * scale / 2.0
        reg = ~near & (absa <= _HUGE_A)
        out[reg] = _k_direct(d, avec[reg])
    return out.clip(lo, hi)


def _k_direct(d: FiniteDist, a: np.ndarray) -> np.ndarray:
    """(1/a) log sum_i p_i exp(a x_i), max-shifted, for a 1-d vector of
    regular finite a."""
    # one atoms x indices buffer; from 8 atoms on it is the transposed view
    # of an indices x atoms array, so each index's atoms stay contiguous
    if d.n_atoms < _ATOM_MAJOR_BELOW:
        buf = np.multiply.outer(d.support, a)
    else:
        buf = np.multiply.outer(a, d.support).T
    buf += d.log_probs[:, None]
    big = np.maximum.reduce(buf, axis=0)
    buf -= big
    np.exp(buf, out=buf)
    out = np.add.reduce(buf, axis=0)
    np.log(out, out=out)
    out += big
    out /= a
    return out


@dataclass(frozen=True)
class KProfile:
    """Samples of a -> K_a(d) on a fixed grid spanning [-inf, +inf]."""

    grid: np.ndarray
    values: np.ndarray


def profile_grid(n_grid: int = 201) -> np.ndarray:
    """{-inf} + tan-mapped interior points (always including 0) + {+inf}.

    n_grid, an integer from 3 to SUPPORT_CAP (BadParams otherwise), is
    bumped to the next odd integer so the mean point a = 0 is on the grid.
    The array is built once per size and is read-only.
    """
    return _grid(n_grid)[1]


@functools.lru_cache(maxsize=32)
def _grid(n_grid: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(t, profile_grid(n_grid), regular interior, its max |a|): the
    grid is tan(pi t / 2) on an even t-grid over [-1, 1], whose ends t = -1
    and 1 stand for -inf and +inf; the regular interior is the grid without
    its ends, with a = 0 replaced by its right neighbour."""
    n_grid = _positive_int(n_grid, "n_grid")
    if not 3 <= n_grid <= SUPPORT_CAP:
        raise BadParams(f"n_grid must be at least 3 and at most {SUPPORT_CAP}")
    if n_grid % 2 == 0:
        n_grid += 1
    t = np.linspace(-1.0, 1.0, n_grid + 2)
    interior = np.tan(np.pi * t[1:-1] / 2.0)
    t[n_grid // 2 + 1] = interior[n_grid // 2] = 0.0
    grid = np.concatenate(([-np.inf], interior, [np.inf]))
    interior[n_grid // 2] = interior[n_grid // 2 + 1]
    t.flags.writeable = grid.flags.writeable = interior.flags.writeable = False
    return t, grid, interior, float(np.abs(interior).max())


def _k_grid(d: FiniteDist, n_grid: int, nonpositive: bool = False) -> np.ndarray:
    """The bytes of k_a_many on the profile grid or its nonpositive half."""
    _, grid, interior, amax = _grid(n_grid)
    lo, hi = float(d.support[0]), float(d.support[-1])
    scale = max(1.0, abs(lo), abs(hi))
    c = grid.size // 2
    a = grid[: c + 1] if nonpositive else grid
    if not amax * scale <= _HUGE_A:
        return k_a_many(d, a)
    out = np.empty(a.size)
    out[1:-1] = _k_direct(d, interior[: a.size - 2])
    # mean + 0 * var / 2 at a = 0, as k_a_many gives; the mean as moments has it
    out[0], out[-1], out[c] = lo, hi, float(d.probs.dot(d.support)) + 0.0
    return out.clip(lo, hi, out=out)


def k_profile(d: FiniteDist, n_grid: int = 201) -> KProfile:
    return KProfile(profile_grid(n_grid), _k_grid(d, n_grid))


class KOrder(Enum):
    STRICT = "strict"
    WEAK = "weak"
    FAILS = "fails"


@dataclass(frozen=True)
class KDominanceResult:
    order: KOrder
    witness: Optional[float]
    min_gap: float
    rounds: int  # rounds of halving made
    evaluations: int  # K evaluations per law, the profile grid's included


def k_dominates(dx: FiniteDist, dy: FiniteDist, margin: float = 0.0) -> KDominanceResult:
    """Certify K_a(X) > K_a(Y) + margin for every a in [-inf, +inf], from
    the default profile grid and the bracket (see module doc)."""
    return _k_dominates_on(dx, dy, margin, nonpositive=False)


def _k_dominates_on(dx, dy, margin, nonpositive):
    """k_dominates, on [-inf, 0] only if nonpositive. FAILS names the
    smallest index with a failing gap in the first round that has one; WEAK
    names the index with the smallest gap sampled, and min_gap is that gap."""
    if math.isnan(margin):  # every `<= margin` test would be false: STRICT
        raise BadParams("margin must not be NaN")
    t, a = _grid(201)[:2]
    if nonpositive:
        t, a = t[: t.size // 2 + 1], a[: a.size // 2 + 1]
    kx, ky = _k_grid(dx, 201, nonpositive), _k_grid(dy, 201, nonpositive)
    gap = kx - ky
    evaluations = a.size
    budget = _EXTRA_PER_POINT * a.size
    ends = (dx.support[0], dx.support[-1], dy.support[0], dy.support[-1])
    fail = _FAIL_TOL * max(1.0, *map(abs, ends))
    best = (math.inf, math.nan)
    # the cells [a_i, a_(i+1)] between neighbouring samples, as t at both
    # ends, K(X) at the left end and K(Y) at the right end
    tl, tr, xl, yr = t[:-1], t[1:], kx[:-1], ky[1:]
    for rounds in itertools.count():
        k = int(gap.argmin())
        best = min(best, (float(gap[k]), float(a[k])))
        bad = gap < -fail
        if bad.any():
            return KDominanceResult(KOrder.FAILS, float(a[bad].min()), best[0], rounds, evaluations)
        if best[0] <= margin:
            break
        # keep the cells whose bracket K_(a_i)(X) - K_(a_(i+1))(Y) does not
        # clear the margin
        keep = xl - yr <= margin
        if not keep.any():
            return KDominanceResult(KOrder.STRICT, None, best[0], rounds, evaluations)
        tl, tr, xl, yr = tl[keep], tr[keep], xl[keep], yr[keep]
        budget -= tl.size
        if budget < 0:
            break
        mid = (tl + tr) / 2.0
        a = np.tan(np.pi * mid / 2.0)
        mx, my = k_a_many(dx, a), k_a_many(dy, a)
        evaluations += a.size
        gap = mx - my
        # each cell splits into [tl, mid] and [mid, tr]
        tl, tr = np.concatenate((tl, mid)), np.concatenate((mid, tr))
        xl, yr = np.concatenate((xl, mx)), np.concatenate((my, yr))
    return KDominanceResult(KOrder.WEAK, best[1], best[0], rounds, evaluations)
