"""Normalized cumulant generating function K_a over the extended real line.

For a finite-support distribution, K_a is the CARA certainty equivalent
with risk coefficient -a:

    K_a(X) = (1/a) log E[exp(a X)]   for finite a != 0,

with K_0 the mean and K_(+/-inf) the max/min of the support. Extended-real
indices are plain IEEE floats, with +-inf playing the infinite endpoints.

Evaluation is max-shift stabilized and works on log-probabilities, so it
stays exact for atoms whose linear mass underflows a double. Values are
clipped to [min, max], where the exact statistic always lies.

`_k_direct` works on one atoms x indices buffer in place. For laws of
fewer than 8 atoms its memory is atom-major, so max and sum run down
contiguous rows; from 8 atoms on it is the transposed view of an
index-major array, and numpy reduces each index's contiguous atoms.
Both give the bytes of the plain index-major evaluation: numpy's pairwise
sum adds fewer than 8 elements one after another, exactly as the
row-by-row reduction does, and splits 8 or more across 8 accumulators,
which only the index-major memory order reproduces.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dist import FiniteDist
from .errors import BadParams

#: |a| * scale below this switches to the second-order expansion around a=0.
_SMALL_A = 1e-6

#: |a| * scale above this returns the relevant endpoint outright.
_HUGE_A = 1e300

#: laws with fewer atoms than this are evaluated atom-major (see module doc).
_ATOM_MAJOR_BELOW = 8


def k_a(d: FiniteDist, a: float) -> float:
    """K_a(d) for a single extended-real index a."""
    return float(k_a_many(d, np.asarray([a], dtype=np.float64))[0])


def k_a_many(d: FiniteDist, avec: np.ndarray) -> np.ndarray:
    """Vectorized K_a over an array of extended-real indices."""
    avec = np.asarray(avec, dtype=np.float64)
    m = d.moments
    scale = max(1.0, abs(m.lo), abs(m.hi))
    absa = np.abs(avec) * scale
    if (
        avec.size
        and (amin := absa.min()) >= _SMALL_A
        and absa.max() <= _HUGE_A
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
        out = np.where(avec > 0, m.hi, m.lo)
        # near zero the direct path loses ~eps/|a|; use mean + a*var/2
        near = absa < _SMALL_A
        if near.any():
            if math.isfinite(m.variance):
                out[near] = m.mean + avec[near] * m.variance / 2.0
            else:
                # the variance overflowed: a*var/2 is the endpoint already in
                # out for a != 0, and 0*inf at a = 0, where K_0 is the mean
                out[avec == 0] = m.mean
        reg = ~near & (absa <= _HUGE_A)
        out[reg] = _k_direct(d, avec[reg])
    return out.clip(m.lo, m.hi)


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

    n_grid is bumped to the next odd integer so the mean point a = 0 is on
    the grid. The array is built once per size and is read-only.
    """
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    if n_grid % 2 == 0:
        n_grid += 1
    return _grid(n_grid)


@functools.lru_cache(maxsize=32)
def _grid(n_grid: int) -> np.ndarray:
    t = np.linspace(-1.0, 1.0, n_grid + 2)[1:-1]
    interior = np.tan(np.pi * t / 2.0)
    interior[n_grid // 2] = 0.0
    grid = np.concatenate(([-np.inf], interior, [np.inf]))
    grid.flags.writeable = False
    return grid


def k_profile(d: FiniteDist, n_grid: int = 201) -> KProfile:
    grid = profile_grid(n_grid)
    return KProfile(grid, k_a_many(d, grid))


class KOrder(Enum):
    STRICT = "strict"
    WEAK = "weak"
    FAILS = "fails"


@dataclass(frozen=True)
class KDominanceResult:
    order: KOrder
    witness: Optional[float]
    min_gap: float

    @property
    def is_strict(self) -> bool:
        return self.order is KOrder.STRICT


def k_dominates(
    dx: FiniteDist,
    dy: FiniteDist,
    n_grid: int = 201,
    margin: float = 0.0,
) -> KDominanceResult:
    """Grid certification of K_a(X) > K_a(Y) + margin for all a.

    STRICT needs the gap above `margin` at every grid point including the
    endpoints and zero. FAILS reports the first grid point whose gap drops
    below -1e-12 (this verdict is complete for the grid; STRICT is sound
    only up to grid resolution between sample points).
    """
    grid = profile_grid(n_grid)
    gap = k_a_many(dx, grid) - k_a_many(dy, grid)
    bad = np.flatnonzero(gap < -1e-12)
    if bad.size:
        i = int(bad[0])
        return KDominanceResult(KOrder.FAILS, float(grid[i]), float(gap.min()))
    if np.all(gap > margin):
        return KDominanceResult(KOrder.STRICT, None, float(gap.min()))
    return KDominanceResult(KOrder.WEAK, None, float(gap.min()))
