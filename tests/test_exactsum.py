"""Properties of the exact-sum primitives.

The reduction layer leans on three facts:

* every per-key total is the correctly rounded sum of that key's values,
  independent of input order;
* the engine's sort-free reduce, ``exact_sums``, returns for every key the
  same bits as ``math.fsum`` over that key's values;
* the map-side combiner, ``grouped_expansions``, may replace a key's values
  with exact digits of their sum without changing what ``exact_sums``
  returns or raises for that key by even one bit.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pktm import MigrationMapFn, exactsum
from pktm.exactsum import (
    exact_sums,
    grouped_expansions,
    grouped_fsum,
)
from pktm.mapreduce.partition import partitions_of

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)


def brute_group(keys, values):
    acc = {}
    for k, v in zip(keys, values):
        acc.setdefault(int(k), []).append(v)
    ordered = sorted(acc)
    return ordered, [math.fsum(acc[k]) for k in ordered]


class TestGroupedFsum:
    def test_small_example(self):
        keys = np.array([2, 2, 5, 5, 5, 9], dtype=np.uint64)
        vals = np.array([1.0, 2.0, 0.5, 0.25, 0.125, -1.0])
        uk, totals = grouped_fsum(keys, vals)
        assert uk.tolist() == [2, 5, 9]
        assert totals.tolist() == [3.0, 0.875, -1.0]

    def test_empty(self):
        uk, totals = grouped_fsum(np.array([], dtype=np.uint64),
                                  np.array([], dtype=np.float64))
        assert len(uk) == 0 and len(totals) == 0

    def test_catastrophic_cancellation_is_exact(self):
        keys = np.array([7, 7, 7], dtype=np.uint64)
        vals = np.array([1e16, 1.0, -1e16])
        _, totals = grouped_fsum(keys, vals)
        assert totals[0] == 1.0  # naive left-to-right gives 2.0

    @given(st.lists(st.tuples(st.integers(0, 6), finite),
                    min_size=0, max_size=60))
    @settings(max_examples=200)
    def test_matches_per_group_fsum(self, pairs):
        pairs.sort(key=lambda kv: kv[0])
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        vals = np.array([v for _, v in pairs], dtype=np.float64)
        uk, totals = grouped_fsum(keys, vals)
        ek, ev = brute_group(keys, vals)
        assert uk.tolist() == ek
        assert totals.tolist() == ev

    @given(st.lists(st.tuples(st.integers(0, 4), finite),
                    min_size=1, max_size=40),
           st.randoms())
    @settings(max_examples=100)
    def test_order_independent(self, pairs, rnd):
        """Shuffling the values within the sorted-key layout cannot change
        any total: fsum is exact, so only membership matters."""
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        for variant in (pairs, shuffled):
            variant.sort(key=lambda kv: kv[0])
        k1 = np.array([k for k, _ in pairs], dtype=np.uint64)
        v1 = np.array([v for _, v in pairs])
        k2 = np.array([k for k, _ in shuffled], dtype=np.uint64)
        v2 = np.array([v for _, v in shuffled])
        r1 = grouped_fsum(k1, v1)
        r2 = grouped_fsum(k2, v2)
        assert r1[0].tolist() == r2[0].tolist()
        assert r1[1].tolist() == r2[1].tolist()


# ---------------------------------------------------------------------------
# exact_sums: bit for bit against math.fsum per key, in stream order
# ---------------------------------------------------------------------------

def fsum_per_key(keys, values):
    """The oracle: math.fsum over each key's values, keys ascending."""
    acc = {}
    for k, v in zip(np.asarray(keys, dtype=np.uint64).tolist(),
                    np.asarray(values, dtype=np.float64).tolist()):
        acc.setdefault(k, []).append(v)
    ordered = sorted(acc)
    return ordered, [math.fsum(acc[k]) for k in ordered]


def assert_matches_fsum(keys, values):
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.asarray(values, dtype=np.float64)
    uk, totals = exact_sums(keys, values)
    ek, ev = fsum_per_key(keys, values)
    assert uk.dtype == np.uint64 and totals.dtype == np.float64
    assert uk.tolist() == ek
    # tobytes tells -0.0 from +0.0
    assert totals.tobytes() == np.array(ev, dtype=np.float64).tobytes()


def spy_on(monkeypatch, name):
    """Record the (key, value) records each call of exactsum.<name>
    receives."""
    calls = []
    real = getattr(exactsum, name)

    def spy(keys, values):
        calls.append(list(zip(np.asarray(keys).tolist(),
                              np.asarray(values).tolist())))
        return real(keys, values)

    monkeypatch.setattr(exactsum, name, spy)
    return calls


def keyed(values_strategy, max_key=6, max_size=60):
    return st.lists(st.tuples(st.integers(0, max_key), values_strategy),
                    min_size=0, max_size=max_size)


def unzip(pairs):
    return [k for k, _ in pairs], [v for _, v in pairs]


# m * 2**k with small m: exact halves, quarters and ties at every scale
dyadic = st.builds(lambda m, k: m * 2.0 ** k,
                   st.integers(-9, 9), st.integers(-120, 120))
# a key holding values near 0.5 and near 1e-33 needs three or more levels
mixed_scale = st.sampled_from(
    [0.5, -0.5, 0.25 + 2.0 ** -54, -(0.5 + 2.0 ** -53), 1e-33, -1e-33,
     3e-33, 1e-33 * (1 + 2.0 ** -52), 2.0 ** -110, -2.0 ** -163])
subnormal = st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308,
                      allow_nan=False, allow_infinity=False)
# an unsorted stream that interleaves certified keys (1, 4 and 6: nonzero
# sums of small integers) with uncertified ones (0 and 7 cancel exactly, 3
# totals 2**-1021, 8 is subnormal)
INTERLEAVED = [(4, 3.0), (0, 1e16), (7, 0.5), (1, -2.0), (3, 2.0 ** -1021),
               (6, 5.0), (0, 1.0), (4, -1.0), (7, -0.5), (3, 2.0 ** -1021),
               (1, 7.0), (0, -1e16), (3, -(2.0 ** -1021)), (8, 5e-324),
               (6, 1.0), (0, -1.0), (8, 5e-324)]


class TestExactSums:
    def test_small_example(self):
        uk, totals = exact_sums(np.array([9, 2, 5, 2, 5, 5], dtype=np.uint64),
                                np.array([-1.0, 1.0, 0.5, 2.0, 0.25, 0.125]))
        assert uk.tolist() == [2, 5, 9]
        assert totals.tolist() == [3.0, 0.875, -1.0]

    def test_empty(self):
        uk, totals = exact_sums(np.array([], dtype=np.uint64),
                                np.array([], dtype=np.float64))
        assert uk.shape == (0,) and totals.shape == (0,)
        assert uk.dtype == np.uint64 and totals.dtype == np.float64

    def test_cancelled_key_is_kept_as_positive_zero(self):
        uk, totals = exact_sums(np.array([4, 4, 4, 1], dtype=np.uint64),
                                np.array([1e16, -1e16, -0.0, 2.0]))
        assert uk.tolist() == [1, 4]
        assert totals.tobytes() == np.array([2.0, 0.0]).tobytes()

    def test_catastrophic_cancellation_is_exact(self):
        assert_matches_fsum([7, 7, 7], [1e16, 1.0, -1e16])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            exact_sums(np.array([1, 2], dtype=np.uint64), np.array([1.0]))

    @given(keyed(finite))
    @settings(max_examples=300)
    def test_matches_fsum_wide_range(self, pairs):
        assert_matches_fsum(*unzip(pairs))

    @given(st.lists(finite, max_size=30), st.lists(st.integers(0, 3), max_size=30),
           st.lists(dyadic, max_size=10))
    @settings(max_examples=200)
    def test_heavy_cancellation(self, vals, key_choice, noise):
        """Every value appears with its negation; only the noise survives."""
        n = min(len(vals), len(key_choice))
        keys = key_choice[:n] * 2 + [0] * len(noise)
        values = vals[:n] + [-v for v in vals[:n]] + noise
        assert_matches_fsum(keys, values)

    @given(keyed(dyadic, max_key=3))
    @settings(max_examples=300)
    def test_ties_and_half_ulps(self, pairs):
        assert_matches_fsum(*unzip(pairs))

    @given(keyed(st.one_of(subnormal, st.sampled_from(
        [5e-324, -5e-324, 2.0 ** -1022, -0.0, 1e300, -1e300, 1.0]))))
    @settings(max_examples=200)
    def test_subnormals_and_extremes(self, pairs):
        assert_matches_fsum(*unzip(pairs))

    @given(keyed(mixed_scale, max_key=2, max_size=80))
    @settings(max_examples=300)
    def test_three_level_residuals(self, pairs):
        assert_matches_fsum(*unzip(pairs))

    def test_three_level_residuals_fixed(self):
        values = [0.5, 1e-33, -0.5, 1e-33 * (1 + 2.0 ** -52), 0.25 + 2.0 ** -54,
                  2.0 ** -110, -2.0 ** -163]
        assert_matches_fsum([0] * len(values), values)

    def test_one_key_with_many_values(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-40, 40, 20_000)
        keys = np.zeros(20_000, dtype=np.uint64)
        keys[:50] = 3
        assert_matches_fsum(keys, values)

    @given(keyed(finite, max_key=8), st.randoms())
    @example(INTERLEAVED, random.Random(0))
    @example([(k * 2 ** 40, v) for k, v in INTERLEAVED], random.Random(0))
    @settings(max_examples=150)
    def test_unsorted_and_shuffled_input(self, pairs, rnd):
        """Also checks which keys reach math.fsum: every total of 0 or at
        most 2**-1021, and no nonzero sum of integers below 2**20, which
        one extraction leaves without residuals."""
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        for variant in (pairs, shuffled):
            with pytest.MonkeyPatch.context() as mp:
                redone = stage_two_keys(mp, *unzip(variant))
            per_key = {}
            for k, v in variant:
                per_key.setdefault(k, []).append(v)
            for k, vals in per_key.items():
                if abs(math.fsum(vals)) <= 2.0 ** -1021:
                    assert k in redone
                elif all(v.is_integer() and abs(v) < 2 ** 20 for v in vals):
                    assert k not in redone

    @given(st.lists(st.tuples(
        st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]), finite),
        min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_sparse_keys_at_the_u64_ends(self, pairs):
        """Keys spread over the whole u64 range take the np.unique route."""
        assert_matches_fsum(*unzip(pairs))

    def test_dense_keys_with_gaps(self):
        rng = np.random.default_rng(5)
        keys = rng.choice(np.arange(1000, 1400, 3, dtype=np.uint64), 500)
        values = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, 500)
        assert_matches_fsum(keys, values)

    def test_many_sparse_wide_range_keys(self, monkeypatch):
        """Many small keys spread over ~2000 binades, whose large values
        cancel: no key is certified after one extraction, so math.fsum
        sums every record, with the same bits."""
        fsum_calls = spy_on(monkeypatch, "grouped_fsum")
        rng = np.random.default_rng(6)
        n = 99_999
        keys = np.tile(rng.integers(0, 2 ** 40, n // 3, dtype=np.uint64) * 3, 3)
        values = np.concatenate([np.full(n // 3, 1e300), np.full(n // 3, -1e300),
                                 rng.uniform(1e-300, 2e-300, n // 3)])
        assert_matches_fsum(keys, values)
        assert [len(k) for k in fsum_calls] == [n]

    @given(keyed(st.sampled_from(
        [1e308, -1e308, 1.7e308, 8e307, 1.0, 2.0 ** 1023, 1e-300,
         math.inf, -math.inf, math.nan]), max_key=2, max_size=8))
    @settings(max_examples=300)
    def test_overflow_and_nonfinite_follow_fsum(self, pairs):
        """Keys that could overflow go to math.fsum, which raises where it
        raises; the others keep their bits."""
        keys, values = unzip(pairs)
        try:
            expected = fsum_per_key(keys, values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                exact_sums(np.asarray(keys, dtype=np.uint64),
                           np.asarray(values, dtype=np.float64))
            return
        uk, totals = exact_sums(np.asarray(keys, dtype=np.uint64),
                                np.asarray(values, dtype=np.float64))
        assert uk.tolist() == expected[0]
        assert totals.tobytes() == np.array(expected[1], dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# exact_sums certifies first and hands the rest to math.fsum: each case below
# names the stage that decides it, and a spy on grouped_fsum shows which ran
# ---------------------------------------------------------------------------

def stage_two_keys(monkeypatch, keys, values):
    """exact_sums against math.fsum; returns the keys sent to stage 2,
    grouped_fsum, after checking that it got every record of each, keys
    ascending and in stream order within a key."""
    calls = spy_on(monkeypatch, "grouped_fsum")
    assert_matches_fsum(keys, values)
    got = [record for call in calls for record in call]
    redone = sorted({k for k, _ in got})
    want = sorted(records_of(np.asarray(keys, dtype=np.uint64), values,
                             set(redone)), key=lambda kv: kv[0])
    assert [k for k, _ in got] == [k for k, _ in want]
    assert (np.array([v for _, v in got], dtype=np.float64).tobytes()
            == np.array([v for _, v in want], dtype=np.float64).tobytes())
    return redone


ULP1 = 2.0 ** -52  # the gap above 1.0


class TestCertifyThenExtract:
    def test_plain_sums_are_certified(self, monkeypatch):
        keys = [0, 0, 0, 1, 1, 2]
        values = [0.1, 0.2, 0.3, 1e16, 1.5e-3, -7.25]
        assert stage_two_keys(monkeypatch, keys, values) == []

    def test_midpoint_with_tiny_residual_is_extracted(self, monkeypatch):
        """One extraction leaves tau1 = 1 and residuals 2**-52, 2**-53 and
        -2**-120, whose float sum drops the last one.  tau1 + tau2 is then
        the midpoint 1 + 1.5 ulp, which rounds to the even 1 + 2 ulp, but
        the exact sum lies just below it and rounds to 1 + ulp."""
        values = [1.0 + ULP1, 2.0 ** -53, -2.0 ** -120]
        assert math.fsum(values) == 1.0 + ULP1
        assert stage_two_keys(monkeypatch, [5] * 3, values) == [5]

    def test_power_of_two_with_residual_toward_zero(self, monkeypatch):
        """tau1 + tau2 = 1 - 2**-54 is the midpoint below 1.0, where the gap
        is 2**-53, half the gap above.  The exact sum lies 2**-120 past it,
        so it rounds down to 1 - 2**-53, not to the even 1.0."""
        values = [1.0, -2.0 ** -54, -2.0 ** -120]
        assert math.fsum(values) == 1.0 - 2.0 ** -53
        assert stage_two_keys(monkeypatch, [3] * 3, values) == [3]

    def test_residual_rounding_after_cancellation(self, monkeypatch):
        """tau1 cancels to 0, so the residual sum is the whole total, and
        its own rounding (a tie, then a dropped 2**-110) changes the bits."""
        values = [2.0 ** 40, -(2.0 ** 40), 2.0 ** -10, 2.0 ** -63, 2.0 ** -110]
        assert math.fsum(values) == 2.0 ** -10 + 2.0 ** -62
        assert stage_two_keys(monkeypatch, [9] * 5, values) == [9]

    @pytest.mark.parametrize("values", [[0.5, 3.0, -0.5, -3.0],
                                        [1e16, 1.0, -1e16, -1.0],
                                        [-0.0, -0.0, -0.0], [-0.0]])
    def test_zero_totals_read_positive_zero(self, monkeypatch, values):
        """h == 0 is never certified; math.fsum returns +0.0."""
        keys = [2] * len(values) + [7]
        assert stage_two_keys(monkeypatch, keys, values + [1.5]) == [2]
        _, totals = exact_sums(np.asarray(keys, dtype=np.uint64),
                               np.asarray(values + [1.5]))
        assert totals.tobytes() == np.array([0.0, 1.5]).tobytes()

    def test_subnormal_residuals_are_certified(self, monkeypatch):
        """A residual sum below 2**-1022 is exact, so its bound may
        underflow to 0 and the total is still proven."""
        keys = [1, 1, 1, 4, 4]
        values = [1.0, 2.0 ** -1070, -3 * 2.0 ** -1074, -2.5, 5e-324]
        assert stage_two_keys(monkeypatch, keys, values) == []

    @pytest.mark.parametrize("values", [
        [2.0 ** -1060, -(2.0 ** -1061), 3 * 2.0 ** -1074],
        [1e-300, -1e-300, 2.0 ** -1022, 2.0 ** -1074],
        [5e-324, 5e-324, -1e-323, 2.5e-320],
        [2.0 ** -1021, 2.0 ** -1021, -(2.0 ** -1021)]])
    def test_totals_up_to_2_to_minus_1021_are_extracted(self, monkeypatch,
                                                          values):
        """Their smaller gap is 2**-1074, whose half is no float: never
        certified."""
        assert stage_two_keys(monkeypatch, [6] * len(values), values) == [6]

    def test_migration_stream_is_certified(self, monkeypatch, small_survey,
                                           small_job):
        """One partition (R = 8) of a migration's contributions, combiner
        off: stage 1 proves at least 99% of its keys."""
        fn = MigrationMapFn(small_job)
        keys, values = map(np.concatenate, zip(*(fn(t) for t in small_survey)))
        mine = partitions_of(keys, 8) == 3
        keys, values = keys[mine], values[mine]
        n_keys = np.unique(keys).shape[0]
        assert n_keys > 1000
        redone = stage_two_keys(monkeypatch, keys, values)
        assert len(redone) <= 0.01 * n_keys

    @given(st.integers(1, 16), st.integers(0, 15),
           st.lists(st.tuples(st.integers(0, 5),
                              st.floats(-1.0, 1.0, allow_subnormal=False),
                              st.integers(-60, 60)),
                    min_size=1, max_size=80))
    @settings(max_examples=300)
    def test_one_residue_class_wide_magnitudes(self, r, p, records):
        """Keys of one residue class mod R, as the reduce of partition p
        receives them, with magnitudes spread over 2**-60..2**60."""
        keys = [p % r + r * j for j, _, _ in records]
        values = [m * 2.0 ** k for _, m, k in records]
        assert_matches_fsum(keys, values)


class TestProof:
    """The decision rule of stage 1 and its error bound, on their own."""

    @pytest.mark.parametrize("k", [1, 2, 3, 100, 2 ** 16, 2 ** 26 - 3])
    @pytest.mark.parametrize("absum", [
        1.0, 1.0 + ULP1, 0.75, 3.0 * 2.0 ** 900, 2.0 ** -1022,
        1.5 * 2.0 ** -1022, 2.4 * 2.0 ** -1022, 2.0 ** -1000, 5e-324])
    def test_bound_covers_the_worst_case(self, k, absum):
        """With u = 2**-53, a k-addition float sum of residuals whose
        float sum of magnitudes is A errs by at most
        R = k u A / (1 - k u)**2, by a multiple of 2**-1074."""
        bound = exactsum._residual_bound(np.array([k + 1]), np.array([absum]))
        u = Fraction(1, 2 ** 53)
        worst = k * u * Fraction(absum) / (1 - k * u) ** 2
        eta = Fraction(1, 2 ** 1074)
        assert Fraction(bound[0]) >= (worst // eta) * eta

    def test_half_a_gap_is_never_certified(self):
        """tau1 + tau2 = 1 + 1.5 ulp rounds to 1 + 2 ulp with |e| exactly
        half the gap: however small the bound, it is not below half."""
        h, sure = exactsum._prove(np.array([1.0 + ULP1]), np.array([2.0 ** -53]),
                                  np.array([2.0 ** -200]), np.array([2]))
        assert h.tolist() == [1.0 + 2 * ULP1]
        assert sure.tolist() == [False]

    def test_below_a_power_of_two_the_gap_halves(self):
        """1 + 2**-54 rounds to 1.0 with e = 2**-54: a quarter of the gap
        above 1.0, but half the gap below it, and the rule takes the
        smaller gap whichever side e lies on."""
        h, sure = exactsum._prove(np.array([1.0, 1.0 + ULP1]),
                                  np.array([2.0 ** -54, 2.0 ** -54]),
                                  np.zeros(2), np.array([1, 1]))
        assert h.tolist() == [1.0, 1.0 + ULP1]
        assert sure.tolist() == [False, True]


# ---------------------------------------------------------------------------
# grouped_expansions: the combiner, reduced by exact_sums, against the raw
# stream reduced by exact_sums
# ---------------------------------------------------------------------------

def assert_combiner_keeps_totals(keys, values):
    """Reducing the combined stream gives every key the raw stream's bits.
    A key whose values cancel may drop out; its absent total reads as zero.
    Returns the number of keys that dropped out."""
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.asarray(values, dtype=np.float64)
    ck, cv = grouped_expansions(keys, values)
    assert ck.dtype == np.uint64 and cv.dtype == np.float64
    assert ck.shape == cv.shape and ck.shape[0] <= keys.shape[0]
    raw = dict(zip(*[a.tolist() for a in exact_sums(keys, values)]))
    combined = dict(zip(*[a.tolist() for a in exact_sums(ck, cv)]))
    assert set(combined) <= set(raw)
    for k, total in raw.items():
        if k in combined:
            assert np.float64(combined[k]).tobytes() == np.float64(total).tobytes()
        else:
            assert total == 0.0
    return len(raw) - len(combined)


def records_of(keys, values, wanted):
    return [(k, v) for k, v in zip(np.asarray(keys).tolist(),
                                   np.asarray(values).tolist()) if k in wanted]


class TestGroupedExpansions:
    def test_sum_is_preserved_exactly(self):
        keys = np.array([8, 3, 3, 8, 3], dtype=np.uint64)
        vals = np.array([0.1, 1e16, 1.0, 0.2, -1e16])
        out_keys, comps = grouped_expansions(keys, vals)
        acc = {}
        for k, v in zip(out_keys.tolist(), comps.tolist()):
            acc.setdefault(k, []).append(v)
        assert math.fsum(acc[3]) == 1.0
        assert math.fsum(acc[8]) == math.fsum([0.1, 0.2])

    def test_never_more_records_than_given(self):
        rng = np.random.default_rng(0)
        keys = rng.permutation(np.repeat(np.arange(5, dtype=np.uint64), 30))
        vals = rng.standard_normal(150) * 10.0 ** rng.integers(-10, 10, 150)
        out_keys, comps = grouped_expansions(keys, vals)
        # 30 values per key fold into a few digits each
        assert len(out_keys) < len(keys)
        assert sorted(set(out_keys.tolist())) == list(range(5))
        assert_combiner_keeps_totals(keys, vals)

    def test_single_values_pass_through(self):
        keys = np.array([9, 2, 5], dtype=np.uint64)
        vals = np.array([0.1, -3.0, 1e-300])
        out_keys, comps = grouped_expansions(keys, vals)
        assert out_keys.tolist() == keys.tolist()
        assert comps.tobytes() == vals.tobytes()

    def test_cancelled_key_drops_out(self):
        keys = np.array([4, 4, 1, 4, 4], dtype=np.uint64)
        vals = np.array([0.1, 1e16, 2.0, -0.1, -1e16])
        out_keys, comps = grouped_expansions(keys, vals)
        assert list(zip(out_keys.tolist(), comps.tolist())) == [(1, 2.0)]
        assert assert_combiner_keeps_totals(keys, vals) == 1

    def test_keys_the_reduce_sums_with_fsum_pass_through(self):
        """inf, nan and overflow risk keep their raw values, in stream
        order, so the reduce raises or returns what it would without the
        combiner."""
        keys = np.array([1, 2, 3, 2, 1, 3, 2, 4, 4, 4], dtype=np.uint64)
        vals = np.array([math.inf, 1e308, math.nan, 1e308, 1.0, 2.0,
                         -1e308, 0.5, 0.25, 0.125])
        out_keys, comps = grouped_expansions(keys, vals)
        got = records_of(out_keys, comps, {1, 2, 3})
        want = records_of(keys, vals, {1, 2, 3})
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert records_of(out_keys, comps, {4}) == [(4, 0.875)]

    def test_level_table_fallback_passes_everything_through(self):
        """Many small keys spread over ~2000 binades outgrow the level table;
        the reduce then sums them all with math.fsum, so the combiner leaves
        the stream as it is."""
        rng = np.random.default_rng(6)
        n = 4000
        keys = rng.integers(0, 2 ** 40, n, dtype=np.uint64) * 3
        keys[n // 2:] = keys[:n // 2]
        values = np.concatenate([np.full(n // 2, 1e300),
                                 rng.uniform(1e-300, 2e-300, n // 2)])
        out_keys, comps = grouped_expansions(keys, values)
        assert out_keys.tobytes() == keys.tobytes()
        assert comps.tobytes() == values.tobytes()

    def test_empty(self):
        ks, cs = grouped_expansions(np.array([], dtype=np.uint64),
                                    np.array([], dtype=np.float64))
        assert len(ks) == 0 and len(cs) == 0

    @given(keyed(st.one_of(finite, dyadic, mixed_scale, subnormal),
                 max_key=8, max_size=80))
    @settings(max_examples=300)
    def test_replacing_values_with_expansion_changes_no_total(self, pairs):
        """The combiner contract on unsorted streams: reducing the combined
        stream gives the same bits for every key as reducing the raw one."""
        assert_combiner_keeps_totals(*unzip(pairs))

    @given(st.lists(finite, max_size=30), st.lists(st.integers(0, 3), max_size=30),
           st.randoms())
    @settings(max_examples=200)
    def test_cancelling_keys_read_as_zero(self, vals, key_choice, rnd):
        n = min(len(vals), len(key_choice))
        pairs = list(zip(key_choice[:n] * 2, vals[:n] + [-v for v in vals[:n]]))
        rnd.shuffle(pairs)
        assert_combiner_keeps_totals(*unzip(pairs))

    @given(st.lists(st.tuples(st.integers(0, 3),
                              finite.filter(lambda v: v != 0.0)),
                    min_size=0, max_size=50))
    @settings(max_examples=200)
    def test_scattered_totals_bitwise_equal(self, pairs):
        """Scattering totals into a zero image gives identical bytes with and
        without the combiner pass.  Emission already discards zero values, so
        only nonzero inputs model the real stream; those can only cancel to
        +0.0, never -0.0."""
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        vals = np.array([v for _, v in pairs], dtype=np.float64)

        def scatter(ks, ts):
            dense = np.zeros(4)
            dense[ks.astype(np.int64)] = ts
            return dense.tobytes()

        ck, cv = grouped_expansions(keys, vals)
        assert scatter(*exact_sums(keys, vals)) == scatter(*exact_sums(ck, cv))

    @given(keyed(st.sampled_from(
        [1e308, -1e308, 1.7e308, 8e307, 1.0, 2.0 ** 1023, 1e-300,
         math.inf, -math.inf, math.nan]), max_key=2, max_size=8))
    @settings(max_examples=300)
    def test_overflow_and_nonfinite_follow_the_raw_stream(self, pairs):
        """The reduce raises on the combined stream exactly where it raises
        on the raw one, and otherwise returns the same bits."""
        keys = np.asarray(unzip(pairs)[0], dtype=np.uint64)
        values = np.asarray(unzip(pairs)[1], dtype=np.float64)
        ck, cv = grouped_expansions(keys, values)
        try:
            raw = exact_sums(keys, values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                exact_sums(ck, cv)
            return
        combined = exact_sums(ck, cv)
        assert combined[0].tolist() == raw[0].tolist()
        assert combined[1].tobytes() == raw[1].tobytes()
