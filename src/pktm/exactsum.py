"""Exact floating-point summation helpers.

Reductions in this package are defined as the *correctly rounded exact sum*
of their inputs: conceptually the terms are added as real numbers and the
result is rounded to float64 once.  Computed this way, a sum does not depend
on term order, task chunking, or whether partial sums were pre-combined, so
serial and distributed runs of the same job agree bit for bit.

Two representations are used:

* a rounded total, for final per-key results;
* an *expansion*, a short list of floats whose real-number sum equals the
  exact sum, for partial results that still have to be added to other
  partials without losing information (the map-side combiner emits these).

Two routes produce them:

* error-free extraction (Rump, Ogita and Oishi, "Accurate Floating-Point
  Summation" I-II, SIAM J. Sci. Comput. 2008/2009) splits an unsorted key
  stream's values into parts that ``np.bincount`` adds exactly in any
  order.  :func:`exact_sums`, the engine's reduce, extracts once and
  proves most keys' rounding at once from an error bound.
  :func:`grouped_expansions`, the map-side combiner, extracts in full and
  emits the exact digits unrounded.  Neither sorts its input.
* :func:`grouped_fsum` calls ``math.fsum`` once per key on a key-sorted
  stream.  The serial reference migration uses it, which makes it the
  oracle the engine is checked against, and the reduce hands it the few
  keys its bound cannot prove.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "grouped_fsum",
    "grouped_expansions",
    "exact_sums",
]

# exact_sums numbers keys as ``key - min(keys)`` while the key span is at most
# this multiple of the record count, and with np.unique beyond it.
_DENSE_SPAN_FACTOR = 4

# The extraction's level schedule needs 2**c >= (largest group) + 2 with
# c <= 26; exact_sums hands larger groups to grouped_fsum.
_MAX_COUNT_BITS = 26

# 2**-53 * (1 + 2**-20): the unit roundoff, widened to cover the rounding of
# the residual magnitudes' sum and of the bound's own products (_prove)
_BOUND_SCALE = 2.0 ** -53 + 2.0 ** -73


def _group_slices(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and unique keys of equal-key runs in a sorted key array."""
    n = sorted_keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), sorted_keys[:0]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries)).astype(np.int64)
    return starts, sorted_keys[starts]


def grouped_fsum(sorted_keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key correctly rounded exact sums over a key-sorted record stream.

    Returns (unique_keys, totals); ``sorted_keys`` must be nondecreasing.
    """
    starts, unique_keys = _group_slices(sorted_keys)
    n = sorted_keys.shape[0]
    if n == 0:
        return unique_keys, np.empty(0, dtype=np.float64)
    ends = np.concatenate((starts[1:], [n]))
    vals = values.tolist()
    totals = np.fromiter(
        (math.fsum(vals[a:b]) for a, b in zip(starts, ends)),
        dtype=np.float64,
        count=len(starts),
    )
    return unique_keys, totals


def _group_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct keys of an unsorted stream without sorting it.

    Returns (ascending unique keys, per-record group id, per-group count).
    """
    n = keys.shape[0]
    kmin = keys.min()
    span = int(keys.max()) - int(kmin)
    if span >= _DENSE_SPAN_FACTOR * n:
        unique, g = np.unique(keys, return_inverse=True)
        g = g.astype(np.intp, copy=False)
        return unique, g, np.bincount(g)
    # key - kmin in intp: keys >= 2**63 wrap, but each difference (at most
    # span) comes out right
    g = np.subtract(keys, kmin, dtype=np.intp, casting="unsafe")
    counts = np.bincount(g, minlength=span + 1)
    present = counts > 0
    slots = np.flatnonzero(present)
    if slots.shape[0] <= span:
        g = (np.cumsum(present) - 1)[g]
        counts = counts[slots]
    return slots.astype(np.uint64) + kmin, g, counts


def _stream(keys, values) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be 1-D and equally long")
    return keys, values


def _exponents(values: np.ndarray, g: np.ndarray, counts: np.ndarray):
    """The scale of each group of a nonempty stream.

    Returns (c, biased, top, direct): c = ceil(log2(n_max + 2)) for the
    largest group, each record's biased exponent, each group's largest one,
    and the mask of groups whose top level sigma_0 = 2**(c + e_g) stays
    finite (no inf, nan or overflow risk).  No group is direct when c
    exceeds 26.
    """
    c = (int(counts.max()) + 1).bit_length()
    # biased exponent e + 1022 with |v| < 2**e; inf and nan read 2047
    biased = (values.view(np.uint64) >> np.uint64(52)).astype(np.uint16)
    biased &= np.uint16(0x7FF)
    top = np.zeros(counts.shape[0], dtype=np.uint16)
    np.maximum.at(top, g, biased)
    direct = top <= 2045 - c
    if c > _MAX_COUNT_BITS:
        direct[:] = False
    return c, biased, top, direct


def _digit_table(keys: np.ndarray, values: np.ndarray):
    """Exact per-key digits of a nonempty unsorted stream, without sorting.

    Returns (unique, g, counts, direct, digits): the ascending unique keys,
    each record's group id, each group's record count, the mask of groups
    summed by extraction and the (levels, groups) digit table.  The digits
    of a direct group are floats whose exact sum is the group's exact sum;
    other columns are zero.  A group is not direct when it holds an inf or
    nan or its sum could overflow.  No group is when one exceeds 2**26 - 2
    values or the level table would outgrow twice the record count (many
    small keys spanning ~2000 binades); the table then has no levels.

    Method: with c = ceil(log2(n_max + 2)) for the largest group and
    D = 53 - c, group g sums at levels sigma_j = 2**(c + e_g - j*D), where
    2**e_g bounds its largest magnitude.  A value enters at the smallest
    sigma_j for which sigma_j/2**c still bounds it and is extracted three
    times at most (q = (sigma + r) - sigma, r -= q, next level).  Each level
    collects at most n_g parts of size <= sigma/2**c on the grid
    ulp(sigma)/2, so ``np.bincount`` adds them exactly in any order.
    """
    n = keys.shape[0]
    unique, g, counts = _group_ids(keys)
    n_groups = unique.shape[0]
    c, biased, top, direct = _exponents(values, g, counts)
    d = 53 - c
    level = top[g] - biased
    level //= np.uint16(d)
    n_levels = int(level.max()) + 3
    if n_groups * n_levels > max(2 * n, 1 << 16):
        direct[:] = False
    if not direct.any():
        return unique, g, counts, direct, np.zeros((0, n_groups))
    r, group = values, g
    if not direct.all():
        on = direct[g]
        r, group, level = values[on], g[on], level[on]
        top[~direct] = 0
    exps = top.astype(np.int64) + (c - 1022) - d * np.arange(n_levels)[:, None]
    flat_sigma = np.ldexp(1.0, exps).ravel()
    slot = np.multiply(level, n_groups, dtype=np.intp)
    slot += group
    del group, level
    digits = np.zeros(n_levels * n_groups)
    for _ in range(3):
        s = np.take(flat_sigma, slot)
        q = s + r
        q -= s
        digits += np.bincount(slot, weights=q, minlength=digits.shape[0])
        r = np.subtract(r, q, out=s)
        keep = r != 0.0
        live = np.count_nonzero(keep)
        if not live:
            break
        # a value whose residual is 0 only adds exact zeros from here on
        if live < r.shape[0] // 2:
            idx = np.flatnonzero(keep)
            slot, r = slot[idx], r[idx]
        slot += n_groups
    else:
        raise RuntimeError("_digit_table: residual left after three levels")
    return unique, g, counts, direct, digits.reshape(n_levels, n_groups)


def _residual_bound(counts: np.ndarray, absum: np.ndarray) -> np.ndarray:
    """B = fl(fl(k * A) * 2**-53 (1 + 2**-20)) per group, k = count - 1:
    a bound on the error of a group's residual sum (see :func:`_prove`)."""
    bound = (counts - 1) * absum
    bound *= _BOUND_SCALE
    return bound


def _prove(tau1: np.ndarray, tau2: np.ndarray, absum: np.ndarray,
           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round each group's tau1 + sum(r) and say where the rounding is proven.

    tau1 is exact, tau2 = bincount(r) and A = bincount(|r|) over the group's
    n_g residuals r.  Returns (h, sure) with (h, e) = TwoSum(tau1, tau2), so
    that the exact sum is S = h + e + (sum(r) - tau2).  h is S correctly
    rounded when |e| + |sum(r) - tau2| is strictly below half the gap from h
    to its nearer neighbour: ulp(h), halved below a power of two.  ``sure``
    compares fl(|e| + B) with fl(gap / 2), B from :func:`_residual_bound`
    with k = n_g - 1, and the comparison is rigorous:

    * With u = 2**-53, recursive summation in any order gives
      |sum(r) - tau2| <= gamma_k sum|r|, gamma_k = k u / (1 - k u), and
      A >= (1 - u)**k sum|r| >= (1 - k u) sum|r|, so the error is at most
      R = k u A / (1 - k u)**2.  A float addition never underflows (a sum
      below 2**-1022 is exact), so both bounds hold for subnormal residuals.
    * If A < 2**-1022, every partial sum of |r| is below 2**-1022 and exact,
      so every partial sum of r is too: the error is 0 <= B.  Otherwise
      fl(k A) >= k A (1 - u), and since k < 2**26 (a direct group) makes
      (1 - u)**2 (1 - k u)**2 (1 + 2**-20) > 1, y = fl(k A) 2**-53 (1 + 2**-20)
      has y (1 - u) >= R: B = fl(y) >= R when y is normal.  A subnormal y
      rounds to a multiple of 2**-1074 no smaller than every such multiple
      <= y, and the error, a sum of float addition errors, is one of them.
    * gap / 2 is exact unless gap is 2**-1074 (|h| <= 2**-1021), where it
      reads 0 and nothing is certified.  Rounding is monotone, so
      fl(|e| + B) < fl(gap / 2) implies |e| + B < gap / 2.

    h == 0 has gap 0 and is never certified: ``math.fsum`` decides between
    +0.0 and -0.0.
    """
    h = tau1 + tau2
    t = h - tau1
    e = (tau1 - (h - t)) + (tau2 - t)
    a = np.abs(h)
    gap = np.minimum(np.spacing(a), a - np.nextafter(a, 0.0))
    return h, np.abs(e) + _residual_bound(counts, absum) < 0.5 * gap


def _certify(g: np.ndarray, counts: np.ndarray, values: np.ndarray):
    """Stage 1 of :func:`exact_sums`: one extraction and a proof per group.

    Returns (h, sure): a candidate total per group and the mask of groups
    whose h is proven to be the correctly rounded sum (see :func:`_prove`).
    Each direct group (see :func:`_exponents`) is extracted once at
    sigma_0 = 2**(c + e_g): q = (sigma_0 + v) - sigma_0 and r = v - q are
    exact, and tau1 = bincount(q) is exact, as in :func:`_digit_table`.
    """
    n_groups = counts.shape[0]
    c, biased, top, direct = _exponents(values, g, counts)
    del biased
    if not direct.any():
        return np.zeros(n_groups), direct
    # a group that is not direct extracts at 1.0, and its result is dropped
    sigma = np.ldexp(1.0, np.where(direct, top.astype(np.int64) + (c - 1022), 0))
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.take(sigma, g)
        q = s + values
        q -= s
        tau1 = np.bincount(g, weights=q, minlength=n_groups)
        r = np.subtract(values, q, out=s)
        del q
        tau2 = np.bincount(g, weights=r, minlength=n_groups)
        absum = np.bincount(g, weights=np.abs(r, out=r), minlength=n_groups)
        del r
        h, sure = _prove(tau1, tau2, absum, counts)
    sure &= direct
    return h, sure


def exact_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key correctly rounded exact sums over an unsorted record stream.

    Returns (unique_keys, totals): keys strictly ascending, each total
    bit-identical to ``math.fsum`` over that key's values.  A key whose
    values cancel is kept with +0.0.

    Certify first: :func:`_certify` extracts every key once and proves most
    totals from an error bound.  The keys it cannot prove (a total near a
    rounding boundary, or 0, or at most 2**-1021; an inf, a nan or an
    overflow risk, see :func:`_exponents`) are summed by :func:`grouped_fsum`
    on their own records, in stream order within each key, which also
    raises ``math.fsum``'s errors.
    """
    keys, values = _stream(keys, values)
    if keys.shape[0] == 0:
        return keys.copy(), np.empty(0, dtype=np.float64)
    unique, g, counts = _group_ids(keys)
    totals, sure = _certify(g, counts, values)
    if not sure.all():
        redo = np.flatnonzero(~sure[g])
        del g
        redo = redo[np.argsort(keys[redo], kind="stable")]
        totals[~sure] = grouped_fsum(keys[redo], values[redo])[1]
    return unique, totals


def grouped_expansions(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map-side combiner: per-key exact expansions of an unsorted stream.

    Returns flat (keys_out, components) with the same exact sum per key as
    the input.  A key folds into its nonzero extraction digits when they are
    fewer than its values.  Every other key keeps its values unchanged,
    among them every key that holds an inf or a nan or could overflow, so
    the reduce's ``math.fsum`` returns or raises for it what it would
    without the combiner.  One
    exception: ``math.fsum``'s intermediate-overflow error depends on term
    order, so a key whose magnitudes, added over all map tasks, pass the
    float64 range may raise on one stream and not the other.  A key whose
    values cancel exactly drops out (absent keys read as zero downstream).
    The output is never longer than the input, and its keys come in no
    particular order.
    """
    keys, values = _stream(keys, values)
    if keys.shape[0] == 0:
        return keys.copy(), values.copy()
    unique, g, counts, direct, digits = _digit_table(keys, values)
    nonzero = digits != 0.0
    fold = direct & (np.count_nonzero(nonzero, axis=0) < counts)
    raw = ~fold[g]
    level, group = np.nonzero(nonzero & fold)
    return (np.concatenate((keys[raw], unique[group])),
            np.concatenate((values[raw], digits[level, group])))
