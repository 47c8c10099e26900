"""The lowest eigenvalues of a symmetric tridiagonal matrix, numpy only.

``tridiagonal_lowest`` is the Coulomb grid's solver: the lowest eigenvalues
of a symmetric tridiagonal matrix from O(n) Sturm counts, so no command
needs scipy.  A bracket holding one eigenvalue is cut at an interpolated
zero of the determinant while it halves every two counts.  Only
``fields.coulomb_radial_spectrum`` calls it, and imports this module in its
body, so no other command loads it.
"""

from __future__ import annotations

import math

import numpy as np

# Elements of the (shifts, rows) work arrays of one batch of Sturm counts:
# large enough to amortize numpy's per-call cost, small enough to stay in
# cache.  At 10^5 rows that is one shift per batch.
STURM_BATCH_ELEMENTS = 2**17
# Regula falsi on log|det| that lands further than STIFF brackets from the
# midpoint is stiff; the log model takes its place there.
STIFF = 0.3
LOG_MODEL_NEWTON_STEPS = 6
# Where each count is its own numpy pass, a count in a bracket holding more
# eigenvalues than this skips log|det|: one that later ends an isolated
# bracket costs that bracket a bisection.
LOGDET_MAX_EIGENVALUES = 8
_EPS = float(np.finfo(float).eps)


class _SturmCounter:
    """Sturm counts of tridiag(1, diagonal / scale, 1) - x by odd-even cyclic reduction.

    The even-indexed rows are not coupled to each other, so their diagonal
    entries are pivots, and eliminating them leaves a tridiagonal Schur
    complement on the odd-indexed rows.  By Sylvester's law of inertia the
    eigenvalues below x are the negative pivots over all levels: O(n) work
    in about log2(n) vectorized steps per shift.  Only the squared
    off-diagonals enter, so their sign does not matter.  A pivot with
    |d| < ``pivmin`` is set to -``pivmin``; a row's input diagonal entry
    enters no other row's Schur complement before that row pivots, so this
    perturbs that one input entry.

    The caller's diagonal is only read: each batch divides its even and
    then its odd entries by ``scale`` into one row of a free buffer, so no
    scaled copy and no full-length row is held.  A batch works in four
    (shifts, ceil(n/2)) buffers, allocated here: three rotate over the
    levels between the pivots, their reciprocals and the left/right
    products, and the reduced rows; the fourth holds the squared
    off-diagonals.
    """

    def __init__(self, diagonal: np.ndarray, scale: float, pivmin: float, max_shifts: int):
        n = diagonal.shape[0]
        self.diagonal, self.scale, self.pivmin = diagonal, scale, pivmin
        self.batch = max(1, min(max_shifts, STURM_BATCH_ELEMENTS // n))
        half = (self.batch, (n + 1) // 2)
        self.buffers = np.empty(half), np.empty(half), np.empty(half)
        self.e2 = np.empty(half)
        self.negative = np.empty(half, dtype=bool)

    def __call__(self, shifts: np.ndarray, logdet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues below each shift, and log|det(T - shift)| where ``logdet``
        (one flag per shift) asks for it; a batch with no flag set skips it
        and reads NaN there."""
        parts = [self._batch(shifts[i:i + self.batch], bool(logdet[i:i + self.batch].any()))
                 for i in range(0, len(shifts), self.batch)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def _batch(self, shifts: np.ndarray, with_logdet: bool) -> tuple[np.ndarray, np.ndarray]:
        s, pivmin, d, x = len(shifts), self.pivmin, self.diagonal, shifts[:, None]
        # the level's rows, its reciprocal pivots, and its reduced rows
        work, recip, spare = self.buffers
        rows = None  # level 0 forms its rows d / scale - x from the diagonal
        count = np.zeros(s, dtype=np.intp)
        logdet = np.zeros(s) if with_logdet else np.full(s, np.nan)
        # a flat count is several times faster than one along an axis
        axis = 1 if s > 1 else None
        m = d.shape[0]
        while True:
            h, q = (m + 1) // 2, m // 2
            if rows is None:
                pivots = np.subtract(np.divide(d[0::2], self.scale, out=recip[0, :h]), x,
                                     out=work[:s, :h])
            else:
                pivots = rows[:, 0::2]
            r = np.abs(pivots, out=recip[:s, :h])
            if r.min() < pivmin:
                np.copyto(pivots, -pivmin, where=np.less(r, pivmin, out=self.negative[:s, :h]))
                np.abs(pivots, out=r)
            if with_logdet:
                logdet += np.log(r, out=r).sum(axis=1)
            np.divide(1.0, pivots, out=r)
            count += np.count_nonzero(np.less(r, 0.0, out=self.negative[:s, :h]), axis=axis)
            if q == 0:
                return count, logdet
            below = q if m % 2 else q - 1  # odd rows with a pivot row below them
            if rows is None:  # the squared off-diagonals are all 1; the pivots are spent
                left, right = r[:, :q], r[:, 1:below + 1]
                odd = np.subtract(np.divide(d[1::2], self.scale, out=work[0, :q]), x,
                                  out=spare[:s, :q])
            else:
                left = np.multiply(e2[:, 0::2], r[:, :q], out=spare[:s, :q])
                right = np.multiply(e2[:, 1::2], r[:, 1:below + 1], out=r[:, 1:below + 1])
                odd = rows[:, 1::2]
            e2 = np.multiply(right[:, :q - 1], left[:, 1:q], out=self.e2[:s, :q - 1])
            rows = np.subtract(odd, left, out=spare[:s, :q])
            rows[:, :below] -= right
            work, recip, spare, m = spare, work, recip, q


def _log_model_point(t, logdet_lo, logdet_hi, logdet_third):
    """Zero of the model log|det(T - x)| = log|x - lam| + r0 + r1 x through
    the ends of an isolated bracket and one point outside it, in bracket
    coordinates: the ends at 0 and 1, the third point at ``t``.  Returns
    the zero s and 1 - s, each to full relative precision, and whether the
    last Newton step moved u by less than 1e-6.

    The linear term r1 x stands for the eigenvalues outside the bracket,
    which regula falsi (r1 = 0) ignores.  The zero s of
    h(s) = sum_i w_i (log|s - s_i| - L_i), with w_i the weights of the second
    divided difference at the three points s_i, is found by Newton steps in
    u = log(s / (1 - s)), from regula falsi's point u = L_lo - L_hi.
    """
    w_lo, w_hi, w_third = 1.0 / t, 1.0 / (1.0 - t), 1.0 / (t * (t - 1.0))
    target = w_hi * (logdet_hi - logdet_lo) + w_third * (logdet_third - logdet_lo)
    u = np.clip(logdet_lo - logdet_hi, -700.0, 700.0)
    for _ in range(LOG_MODEL_NEWTON_STEPS):
        s, rest = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))  # s and 1 - s
        h = w_lo * np.log(s) + w_hi * np.log(rest) + w_third * np.log(np.abs(s - t)) - target
        slope = w_lo * rest - w_hi * s + w_third * s * rest / (s - t)  # dh/du
        step = np.divide(h, slope, out=np.zeros_like(h), where=slope != 0.0)
        u = np.clip(u - step, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u)), np.abs(step) < 1e-6


def _interpolated_point(a, b, logdet_a, logdet_b, third, logdet_third, tol):
    """A zero of det(T - x) in each isolated bracket [a, b], kept tol/2 inside:
    regula falsi on log|det| at the ends, unless that lands further than
    ``STIFF`` brackets from the midpoint; there the log model through the
    ends and ``third``, the end given up last, where its Newton iteration
    converged and ``third`` lies over 1e-6 brackets outside; else the
    midpoint, as also where a log|det| is NaN."""
    width = b - a
    mid = a + 0.5 * width
    falsi = a + width / (1.0 + np.exp(np.clip(logdet_b - logdet_a, -700.0, 700.0)))
    stiff = ~(np.abs(falsi - mid) <= STIFF * width)  # NaN counts as stiff
    point = np.where(stiff, mid, falsi)
    t = (third - a) / width
    fit = np.flatnonzero(stiff & ((t < -1e-6) | (t > 1.0 + 1e-6)))
    if fit.size:
        s, rest, converged = _log_model_point(t[fit], logdet_a[fit], logdet_b[fit],
                                              logdet_third[fit])
        model = np.where(s < 0.5, a[fit] + s * width[fit], b[fit] - rest * width[fit])
        point[fit] = np.where(converged, model, mid[fit])
    return np.clip(point, a + 0.5 * tol, b - 0.5 * tol)


def tridiagonal_lowest(diagonal, off: float, n_levels: int) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues, ascending, of a symmetric tridiagonal matrix.

    The matrix T has the given ``diagonal`` and every off-diagonal entry
    equal to ``off``.  It is divided by |off|, so its squared off-diagonals
    are 1 and cannot overflow, and the eigenvalues are scaled back at the
    end; the division is made as each batch of counts reads the diagonal,
    which is neither copied nor written.  Each level is bracketed by Sturm counts (see
    ``_SturmCounter``), starting from the Gershgorin interval, until its
    bracket is narrower than 2 eps ||T||, ||T|| the larger Gershgorin bound,
    as in LAPACK's stebz; the midpoint is returned.  All levels are refined
    together, and every count tightens the bracket of every level; the
    counts alone decide the brackets.  Level j does not depend on how many
    levels are asked for.

    A bracket that holds more than one eigenvalue is bisected.  One that
    holds exactly one is cut at an interpolated zero of det(T - x) (see
    ``_interpolated_point``) while it is at most half as wide as two counts
    earlier, and bisected when not: at most three counts per halving.  The
    interpolation is regula falsi on log|det(T - x)|, but on the Coulomb
    grid the eigenvalues above a level make log|det| so steep across its
    bracket that regula falsi lands near one end; there a model with a term
    linear in x for those eigenvalues, fitted through three counts, takes
    its place.  Where each count is a numpy pass of its own (more than
    STURM_BATCH_ELEMENTS / 2 rows), a count in a bracket that holds more
    than 8 eigenvalues skips log|det|, a third of its cost, and stores NaN.

    A count from cyclic reduction is less exact than one from the sequential
    Sturm recurrence, and near a few levels it flips by one at shifts up to
    400 eps ||T|| from the level.  Over 4500 random Coulomb grids the command
    line accepts, the worst level of a grid is off from stebz by a median
    0.22 and a p99 1.55 times 4 eps max_i(|d_i| + 2|e|); 60 grids exceed
    that, by up to 65 times.  A general matrix can also miscount at a shift
    where pivots vanish.

    Raises
    ------
    ValueError
        ``off`` zero or non-finite, a non-finite diagonal, or ``n_levels``
        outside 1..len(diagonal).
    """
    c = np.asarray(diagonal, dtype=float)
    if c.ndim != 1 or c.shape[0] < 1:
        raise ValueError(f"expected a non-empty diagonal vector, got shape {c.shape}")
    if not 1 <= n_levels <= c.shape[0]:
        raise ValueError(f"n_levels = {n_levels} is outside 1..{c.shape[0]}")
    scale = abs(float(off))
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"off-diagonal must be nonzero and finite, got {off}")
    # division by scale > 0 is monotone, so these are the scaled diagonal's
    # ends, and a NaN, an inf or an overflow anywhere shows in one of them
    ends = np.array([c.min(), c.max()]) / scale
    if not np.all(np.isfinite(ends)):
        raise ValueError("diagonal has non-finite entries")
    lower, upper = float(ends[0]) - 2.0, float(ends[1]) + 2.0
    norm = max(-lower, upper)
    tol = 2.0 * _EPS * norm
    count_below = _SturmCounter(c, scale, _EPS * norm, n_levels)
    # a count of one shift at a time pays a third more for log|det|; batched,
    # it costs little, and an isolated bracket that lacks it is bisected
    logdet_max = LOGDET_MAX_EIGENVALUES if c.shape[0] > STURM_BATCH_ELEMENTS // 2 else c.shape[0]
    ends_count, ends_logdet = count_below(np.array([lower, upper]), np.array([True, True]))
    levels = np.arange(n_levels)
    lo, hi = np.full(n_levels, lower), np.full(n_levels, upper)
    count_lo, count_hi = np.full(n_levels, ends_count[0]), np.full(n_levels, ends_count[1])
    logdet_lo, logdet_hi = np.full(n_levels, ends_logdet[0]), np.full(n_levels, ends_logdet[1])
    # the end each bracket gave up last, the log model's third point
    third, logdet_third = np.full(n_levels, np.nan), np.full(n_levels, np.nan)
    # each bracket's width two counts and one count ago
    widths = np.full((2, n_levels), np.inf)
    while True:
        active = np.flatnonzero(hi - lo > tol)
        if active.size == 0:
            break
        a, b = lo[active], hi[active]
        width = b - a
        x = a + 0.5 * width
        held = count_hi[active] - count_lo[active]
        # an isolated bracket is interpolated while it halves every two counts
        cut = np.flatnonzero((held == 1) & (width <= 0.5 * widths[0, active]))
        widths[0, active], widths[1, active] = widths[1, active], width
        i = active[cut]
        x[cut] = _interpolated_point(a[cut], b[cut], logdet_lo[i], logdet_hi[i], third[i],
                                     logdet_third[i], tol)
        order = np.argsort(x, kind="stable")
        ordered = x[order]
        distinct = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        shifts = ordered[distinct]
        with_logdet = np.logical_or.reduceat(held[order] <= logdet_max, distinct)
        counts, logdets = count_below(shifts, with_logdet)
        # rounding can make counts dip as the shift grows; keep them monotone
        counts = np.maximum.accumulate(counts)
        k = np.searchsorted(counts, levels, side="right")  # shifts[:k] have count <= level
        below = shifts[np.maximum(k - 1, 0)]
        raise_lo = np.flatnonzero((k > 0) & (below > lo))
        j = k[raise_lo] - 1
        third[raise_lo], logdet_third[raise_lo] = lo[raise_lo], logdet_lo[raise_lo]
        lo[raise_lo], count_lo[raise_lo], logdet_lo[raise_lo] = shifts[j], counts[j], logdets[j]
        above = shifts[np.minimum(k, len(shifts) - 1)]
        drop_hi = np.flatnonzero((k < len(shifts)) & (above < hi))
        j = k[drop_hi]
        third[drop_hi], logdet_third[drop_hi] = hi[drop_hi], logdet_hi[drop_hi]
        hi[drop_hi], count_hi[drop_hi], logdet_hi[drop_hi] = shifts[j], counts[j], logdets[j]
    return scale * (lo + 0.5 * (hi - lo))
