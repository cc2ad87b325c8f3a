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
  stream's values into parts that ``np.add.at`` adds exactly in any
  order.  :func:`exact_sums`, the engine's reduce, extracts once and
  proves most keys' rounding at once from an error bound.
  :func:`grouped_expansions`, the map-side combiner, extracts in full and
  emits the exact digits unrounded.  Neither sorts its input.
* :func:`grouped_fsum` calls ``math.fsum`` once per key on a key-sorted
  stream.  The serial reference migration uses it, which makes it the
  oracle the engine is checked against, and the reduce hands it the few
  keys its bound cannot prove.

The record-length passes run over equal contiguous blocks of at most
``_BLOCK`` records, and the extraction adds each block's parts straight into
the per-group totals with ``np.add.at``, which changes no bit of any result.
Beyond the input and the group ids, the reduce holds O(block + groups)
memory and no per-record exponent.  The combiner also holds one 16-bit
level per record, and its only levels x groups table is its digits: each
record's sigma comes from its group's top sigma by exact powers of two.
Numbering the keys holds O(key span) more, or O(records) for a sparse
stream that goes through ``np.unique``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "grouped_fsum",
    "grouped_expansions",
    "exact_sums",
]

# The record-length passes of both routes run over equal contiguous blocks
# of at most this many records.
_BLOCK = 1 << 15

# exact_sums numbers keys as ``key - min(keys)`` while the key span is at most
# this multiple of the record count, and with np.unique beyond it.
_DENSE_SPAN_FACTOR = 4

# The extraction's level schedule needs 2**c >= (largest group) + 2 with
# c <= 26; exact_sums hands larger groups to grouped_fsum.
_MAX_COUNT_BITS = 26

# 2**-53 * (1 + 2**-20): the unit roundoff, widened to cover the rounding of
# the residual magnitudes' sum and of the bound's own products (_prove)
_BOUND_SCALE = 2.0 ** -53 + 2.0 ** -73


def _blocks(n: int):
    """ceil(n / _BLOCK) contiguous slices covering range(n), whose lengths
    differ by at most one record."""
    k = -(-n // _BLOCK)
    return (slice(n * i // k, n * (i + 1) // k) for i in range(k))


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
        # number the present slots 0, 1, ... over the full counts, whose
        # absent slots no record reads
        remap = counts
        counts = counts[slots]
        remap[slots] = np.arange(slots.shape[0])
        for b in _blocks(n):
            g[b] = remap[g[b]]
    return slots.astype(np.uint64) + kmin, g, counts


def _stream(keys, values) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be 1-D and equally long")
    return keys, values


def _exponents(values: np.ndarray, g: np.ndarray, counts: np.ndarray,
               per_record: bool = False):
    """The scale of each group of a nonempty stream.

    Returns (c, biased, top, direct): c = ceil(log2(n_max + 2)) for the
    largest group, each record's biased exponent when ``per_record`` (else
    None: the pass reads each block's exponents into one block of scratch),
    each group's largest one, and the mask of groups whose top level
    sigma_0 = 2**(c + e_g) stays finite (no inf, nan or overflow risk).  No
    group is direct when c exceeds 26.
    """
    c = (int(counts.max()) + 1).bit_length()
    n = values.shape[0]
    # biased exponent e + 1022 with |v| < 2**e; inf and nan read 2047
    bits = values.view(np.uint64)
    biased = np.empty(n if per_record else min(n, _BLOCK), dtype=np.uint16)
    top = np.zeros(counts.shape[0], dtype=np.uint16)
    for b in _blocks(n):
        e = biased[b] if per_record else biased[:b.stop - b.start]
        np.right_shift(bits[b], np.uint64(52), out=e, casting="unsafe")
        e &= np.uint16(0x7FF)
        np.maximum.at(top, g[b], e)
    direct = top <= 2045 - c
    if c > _MAX_COUNT_BITS:
        direct[:] = False
    return c, biased if per_record else None, top, direct


def _top_sigma(c: int, top: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """sigma_0 = 2**(c + e_g) of each group (see :func:`_exponents`); a
    group that is not direct reads 1.0."""
    return np.ldexp(1.0, np.where(direct, top.astype(np.int64) + (c - 1022), 0))


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
    ulp(sigma)/2, so ``np.add.at`` adds them exactly in any order.  The
    level count is taken over the direct groups' records only.  A record's
    sigma is its group's sigma_0 (:func:`_top_sigma`) scaled down to its
    level and then by 2**-D per level, each step exact or a flush to the 0
    that ``np.ldexp`` returns too; no (levels, groups) sigma table is kept.
    """
    n = keys.shape[0]
    unique, g, counts = _group_ids(keys)
    n_groups = unique.shape[0]
    c, level, top, direct = _exponents(values, g, counts, per_record=True)
    if not direct.any():
        return unique, g, counts, direct, np.zeros((0, n_groups))
    partial = not direct.all()
    d = 53 - c
    # each record's level (e_g - e) // D, written over its biased exponent;
    # the extraction skips the records of groups that are not direct, so
    # they read level 0
    for b in _blocks(n):
        e, group = level[b], g[b]
        np.subtract(top[group], e, out=e)
        e //= np.uint16(d)
        if partial:
            e[~direct[group]] = 0
    n_levels = int(level.max()) + 3
    if n_groups * n_levels > max(2 * n, 1 << 16):
        direct[:] = False
        return unique, g, counts, direct, np.zeros((0, n_groups))
    sigma = _top_sigma(c, top, direct)
    del top
    # level j scales sigma_0 by 2**-(D*j) as two factors, each at least
    # 2**-1023 since D*j <= 2046: a product of powers of two is exact, or
    # flushes to 0 exactly where 2**(c + e_g - D*j) is at most 2**-1075,
    # which np.ldexp rounds to 0 as well
    dj = d * np.arange(n_levels)
    down = np.ldexp(1.0, -(dj // 2)), np.ldexp(1.0, (dj // 2) - dj)
    step = 2.0 ** -d
    digits = np.zeros(n_levels * n_groups)
    for b in _blocks(n):
        r, group, start = values[b], g[b], level[b]
        if partial:
            on = direct[group]
            r, group, start = r[on], group[on], start[on]
        s = np.take(sigma, group)
        for factor in down:
            s *= np.take(factor, start)
        slot = np.multiply(start, n_groups, dtype=np.intp)
        slot += group
        for _ in range(3):
            q = s + r
            q -= s
            np.add.at(digits, slot, q)
            r = np.subtract(r, q, out=q)
            keep = r != 0.0
            live = np.count_nonzero(keep)
            if not live:
                break
            # a value whose residual is 0 only adds exact zeros from here on
            if live < r.shape[0] // 2:
                idx = np.flatnonzero(keep)
                slot, r, s = slot[idx], r[idx], s[idx]
            slot += n_groups
            s *= step
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

    tau1 is exact, and tau2 and A add the group's n_g residuals r and their
    magnitudes |r| into zeroed totals.  Returns (h, sure) with (h, e) =
    TwoSum(tau1, tau2), so that the exact sum is S = h + e + (sum(r) - tau2).
    h is S correctly rounded when |e| + |sum(r) - tau2| is strictly below
    half the gap from h to its nearer neighbour: ulp(h), halved below a
    power of two.  ``sure`` compares fl(|e| + B) with fl(gap / 2), B from
    :func:`_residual_bound` with k = n_g - 1, and the comparison is
    rigorous:

    * With u = 2**-53, summing the n_g residuals by k float additions in
      any order (``np.add.at`` of each block's residuals straight into a
      zeroed total) gives |sum(r) - tau2| <= gamma_k sum|r|,
      gamma_k = k u / (1 - k u), and A, summed the same way, has
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
    # e = (tau1 - (h - t)) + (tau2 - t), then |e| + B, in two buffers
    e = h - t
    np.subtract(tau1, e, out=e)
    np.subtract(tau2, t, out=t)
    e += t
    np.abs(e, out=e)
    e += _residual_bound(counts, absum)
    # gap = min(ulp(|h|), |h| - nextafter(|h|, 0)), in t's buffer and one more
    a = np.abs(h, out=t)
    gap = np.nextafter(a, 0.0)
    np.subtract(a, gap, out=gap)
    np.minimum(np.spacing(a, out=a), gap, out=gap)
    gap *= 0.5
    return h, e < gap


def _certify(g: np.ndarray, counts: np.ndarray, values: np.ndarray):
    """Stage 1 of :func:`exact_sums`: one extraction and a proof per group.

    Returns (h, sure): a candidate total per group and the mask of groups
    whose h is proven to be the correctly rounded sum (see :func:`_prove`).
    Each direct group (see :func:`_exponents`) is extracted once at
    sigma_0 = 2**(c + e_g): q = (sigma_0 + v) - sigma_0 and r = v - q are
    exact, and tau1, the sum of the q, is exact, as in :func:`_digit_table`,
    however the blocks split a group.
    """
    n_groups = counts.shape[0]
    c, _, top, direct = _exponents(values, g, counts)
    if not direct.any():
        return np.zeros(n_groups), direct
    # a group that is not direct extracts at 1.0, and its result is dropped
    sigma = _top_sigma(c, top, direct)
    tau1, tau2, absum = np.zeros((3, n_groups))
    with np.errstate(invalid="ignore", over="ignore"):
        for b in _blocks(g.shape[0]):
            group, v = g[b], values[b]
            s = np.take(sigma, group)
            q = s + v
            q -= s
            np.add.at(tau1, group, q)
            r = np.subtract(v, q, out=s)
            np.add.at(tau2, group, r)
            np.add.at(absum, group, np.abs(r, out=r))
        del sigma, s, q, r
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
    # each table is dropped after its last read, before the output exists
    nonzero = digits != 0.0
    fold = direct & (np.count_nonzero(nonzero, axis=0) < counts)
    del counts, direct
    raw = np.take(fold, g)
    del g
    np.logical_not(raw, out=raw)
    nonzero &= fold
    del fold
    # digit (level j, group k) sits at j * n_groups + k of the flat table
    flat = np.flatnonzero(nonzero)
    del nonzero
    n_raw = np.count_nonzero(raw)
    out_keys = np.empty(n_raw + flat.shape[0], dtype=np.uint64)
    out_values = np.empty(out_keys.shape[0], dtype=np.float64)
    np.compress(raw, keys, out=out_keys[:n_raw])
    np.compress(raw, values, out=out_values[:n_raw])
    del raw
    np.take(digits, flat, out=out_values[n_raw:])
    del digits
    flat %= unique.shape[0]
    np.take(unique, flat, out=out_keys[n_raw:])
    return out_keys, out_values
