"""Tests for the PPJoin+ kernel, including differential testing
against the naive oracle (the library's strongest correctness check)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.ppjoin import PPJoinIndex, ppjoin_rs_join, ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core import ppjoin as ppjoin_module
from repro.core.similarity import Cosine, Dice, Jaccard
from repro.core.verification import overlap

from tests.conftest import CountingSim


def projections(list_of_sets, base=0):
    return [
        Projection(base + i, tuple(sorted(s))) for i, s in enumerate(list_of_sets)
    ]


proj_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=25), max_size=12),
    max_size=25,
)


class TestPPJoinIndexBasics:
    def test_probe_then_add_finds_pair(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        index.add(1, (1, 2, 3))
        results = index.probe(2, (1, 2, 3))
        assert results == [(1, 1.0)]

    def test_probe_empty_index(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        assert index.probe(1, (1, 2)) == []

    def test_empty_tokens_noop(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        index.add(1, ())
        assert index.probe(2, ()) == []
        assert index.live_entries == 0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), 0.5, mode="both")

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), -0.5)

    def test_unsorted_add_rejected_with_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.5, evict=True)
        index.add(1, (1, 2, 3))
        with pytest.raises(ValueError, match="non-decreasing"):
            index.add(2, (1,))

    def test_unsorted_add_allowed_without_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.5, evict=False)
        index.add(1, (1, 2, 3))
        index.add(2, (1,))  # fine

    def test_true_size_smaller_than_tokens_rejected(self):
        index = PPJoinIndex(Jaccard(), 0.5, mode="rs", evict=False)
        index.add(1, (1, 2))
        with pytest.raises(ValueError, match="true_size"):
            index.probe(2, (1, 2, 3), true_size=2)


class TestEvictionAndMemory:
    def test_eviction_drops_short_entries(self):
        index = PPJoinIndex(Jaccard(), 0.9)
        index.add(1, tuple(range(2)))
        index.add(2, tuple(range(20)))
        # probing with a long record makes size-2 entries unreachable
        index.probe(3, tuple(range(100, 120)))
        assert index.live_entries == 1

    def test_live_bytes_tracks_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.9)
        index.add(1, tuple(range(4)))
        before = index.live_bytes
        assert before > 0
        index.probe(2, tuple(range(50, 80)))
        assert index.live_bytes < before

    def test_peak_live_entries(self):
        index = PPJoinIndex(Jaccard(), 0.8)
        for i in range(5):
            index.add(i, tuple(range(10)))
        assert index.peak_live_entries == 5

    def test_eviction_never_loses_results(self):
        """Differential check with sizes crafted to trigger eviction."""
        rng = random.Random(5)
        sets = [set(rng.sample(range(30), rng.randint(1, 3))) for _ in range(20)]
        sets += [set(rng.sample(range(30), rng.randint(10, 14))) for _ in range(20)]
        projs = projections(sets)
        assert ppjoin_self_join(projs, Jaccard(), 0.6) == naive_self_join(
            projs, Jaccard(), 0.6
        )


class TestSelfJoinDifferential:
    @pytest.mark.parametrize("sim", [Jaccard(), Cosine(), Dice()])
    @pytest.mark.parametrize("threshold", [0.5, 0.8, 0.95])
    def test_random_corpus(self, sim, threshold):
        rng = random.Random(hash((sim.name, threshold)) & 0xFFFF)
        sets = [
            set(rng.sample(range(25), rng.randint(0, 10))) for _ in range(80)
        ]
        # inject near-duplicates
        for i in range(0, 80, 4):
            dup = set(sets[i])
            if dup and rng.random() < 0.5:
                dup.pop()
            sets.append(dup)
        projs = projections(sets)
        expected = naive_self_join(projs, sim, threshold)
        got = ppjoin_self_join(projs, sim, threshold)
        assert [p[:2] for p in got] == [p[:2] for p in expected]
        for (_, _, s1), (_, _, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2)

    @given(proj_sets, st.sampled_from([0.5, 0.7, 0.8, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, sets, threshold):
        projs = projections(sets)
        sim = Jaccard()
        assert [p[:2] for p in ppjoin_self_join(projs, sim, threshold)] == [
            p[:2] for p in naive_self_join(projs, sim, threshold)
        ]

    def test_filters_off_still_correct(self):
        rng = random.Random(9)
        sets = [set(rng.sample(range(20), rng.randint(1, 8))) for _ in range(50)]
        projs = projections(sets)
        base = naive_self_join(projs, Jaccard(), 0.6)
        for pos, suf in [(False, False), (True, False), (False, True)]:
            got = ppjoin_self_join(
                projs, Jaccard(), 0.6, use_positional=pos, use_suffix=suf
            )
            assert [p[:2] for p in got] == [p[:2] for p in base]


class TestRSJoinDifferential:
    @given(proj_sets, proj_sets, st.sampled_from([0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_oracle(self, r_sets, s_sets, threshold):
        r = projections(r_sets)
        s = projections(s_sets, base=1000)
        sim = Jaccard()
        assert [p[:2] for p in ppjoin_rs_join(r, s, sim, threshold)] == [
            p[:2] for p in naive_rs_join(r, s, sim, threshold)
        ]

    def test_true_size_probe(self):
        """Dropped S-only tokens: similarity must use the original size."""
        index = PPJoinIndex(Jaccard(), 0.5, mode="rs", evict=False)
        index.add(1, (1, 2, 3, 4))
        # S record originally had 5 tokens; one was S-only and dropped
        results = index.probe(2, (1, 2, 3, 4), true_size=5)
        assert results == [(1, pytest.approx(4 / 5))]

    def test_true_size_excludes_near_miss(self):
        index = PPJoinIndex(Jaccard(), 0.9, mode="rs", evict=False)
        index.add(1, (1, 2, 3, 4))
        # with true size 6 the best possible jaccard is 4/6 < 0.9
        assert index.probe(2, (1, 2, 3, 4), true_size=6) == []


class TestBitmapIndex:
    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), 0.5, bitmap_width=0)

    def test_eviction_accounting_balanced_with_signatures(self):
        """Regression: ``_entry_bytes`` must charge the signature word
        on add AND on evict — a one-sided charge drifts ``live_bytes``
        and eventually over- or under-evicts the memory meter."""
        index = PPJoinIndex(Jaccard(), 0.9, bitmap_width=64)
        for i in range(10):
            index.add(i, tuple(range(3)))
        assert index.live_bytes == 10 * (8 * 3 + 32 + 8)
        # a long probe makes every size-3 entry evictable
        index.probe(99, tuple(range(100, 140)))
        assert index.live_entries == 0
        assert index.live_bytes == 0

    def test_live_bytes_never_negative_mixed_sizes(self):
        rng = random.Random(11)
        index = PPJoinIndex(Jaccard(), 0.8, bitmap_width=64)
        size = 1
        for i in range(50):
            size += rng.randint(0, 2)
            index.add(i, tuple(range(size)))
            index.probe(1000 + i, tuple(range(size)))
            assert index.live_bytes >= 0

    def test_filter_stats_keys_and_bitmap_prunes(self):
        index = PPJoinIndex(Jaccard(), 0.5, bitmap_width=64, use_suffix=False)
        assert set(index.filter_stats) == {
            "length", "bitmap", "positional", "suffix",
        }
        # same prefix token, disjoint suffixes: survives the length
        # filter, dies on the bitmap bound before verification
        index.add(1, (0, 1, 2, 3))
        index.probe(2, (0, 10, 11, 12))
        assert index.filter_stats["bitmap"] == 1
        assert index.filter_stats["suffix"] == 0

    def test_bitmap_never_prunes_true_pair(self):
        rng = random.Random(12)
        sets = [set(rng.sample(range(200), rng.randint(1, 10))) for _ in range(60)]
        projs = projections(sets)
        for width in (1, 2, 64):
            assert ppjoin_self_join(
                projs, Jaccard(), 0.5, use_suffix=False, bitmap_width=width
            ) == naive_self_join(projs, Jaccard(), 0.5)


class TestDeterminism:
    def test_output_sorted(self):
        rng = random.Random(2)
        sets = [set(rng.sample(range(15), rng.randint(1, 6))) for _ in range(40)]
        projs = projections(sets)
        result = ppjoin_self_join(projs, Jaccard(), 0.5)
        assert result == sorted(result)

    def test_repeat_runs_identical(self):
        rng = random.Random(3)
        sets = [set(rng.sample(range(15), rng.randint(1, 6))) for _ in range(40)]
        projs = projections(sets)
        assert ppjoin_self_join(projs, Jaccard(), 0.5) == ppjoin_self_join(
            projs, Jaccard(), 0.5
        )


class _RecordingSanitizer:
    """Stand-in sanitizer that records every prune it is shown."""

    def __init__(self):
        self.prunes = []

    def check_prune(self, stage, x_tokens, nx_true, y_tokens, ny_true):
        self.prunes.append((stage, tuple(y_tokens)))


class TestProbeContract:
    """The per-probe bookkeeping of :meth:`PPJoinIndex.probe`: one
    entry state per candidate (pruned is final), one required-overlap
    computation per indexed size, results in first-encounter order."""

    def test_positional_prune_after_first_match_is_final(self, monkeypatch):
        sim, threshold = Jaccard(), 0.5
        # y (6 tokens, probing prefix 0 1 2 3) and x (12 tokens) share
        # 0, 2 and 3; alpha(12, 6) = 6.  Token 0 (i=0, j=0) passes the
        # positional bound 1 + min(11, 5) = 6 and creates y's state;
        # token 2 (i=1, j=2) fails it: 2 + min(10, 3) = 5 < 6.  Token 3
        # (i=2, j=3) hits y again after the prune.
        y = (0, 1, 2, 3, 40, 41)
        x = (0, 2, 3, 10, 11, 12, 13, 14, 15, 16, 17, 18)
        assert sim.overlap_threshold(len(x), len(y), threshold) == 6
        assert sim.prefix_length(len(y), threshold) == 4
        assert sim.prefix_length(len(x), threshold) >= 3
        sanitizer = _RecordingSanitizer()
        index = PPJoinIndex(
            sim, threshold, mode="rs", evict=False, use_suffix=False,
            sanitizer=sanitizer,
        )
        index.add(1, y)
        merges = []

        def counting_overlap(*args, **kwargs):
            merges.append(args)
            return overlap(*args, **kwargs)

        monkeypatch.setattr(ppjoin_module, "overlap", counting_overlap)
        assert index.probe(2, x) == []
        assert merges == []  # never verified
        assert index.filter_stats == {
            "length": 0, "bitmap": 0, "positional": 1, "suffix": 0,
        }
        assert sanitizer.prunes == [("positional", y)]

    @given(
        proj_sets,
        proj_sets,
        st.sampled_from([Jaccard(), Cosine(), Dice()]),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([None, 1, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_every_filter_combination_matches_naive(
        self, r_sets, s_sets, sim, threshold, positional, suffix, bitmap
    ):
        flags = dict(
            use_positional=positional, use_suffix=suffix, bitmap_width=bitmap
        )
        r = projections(r_sets)
        s = projections(s_sets, base=1000)

        def same(got, expected):
            assert [p[:2] for p in got] == [p[:2] for p in expected]
            for (_, _, s1), (_, _, s2) in zip(got, expected):
                assert s1 == pytest.approx(s2)

        same(
            ppjoin_self_join(r, sim, threshold, **flags),
            naive_self_join(r, sim, threshold),
        )
        same(
            ppjoin_rs_join(r, s, sim, threshold, **flags),
            naive_rs_join(r, s, sim, threshold),
        )

    @pytest.mark.parametrize("bitmap", [None, 64])
    @pytest.mark.parametrize("mode", ["self", "rs"])
    def test_one_overlap_threshold_call_per_size_per_probe(self, mode, bitmap):
        rng = random.Random(5)
        # a dense vocabulary: most pairs share a prefix token, so one
        # probe meets many entries of each size
        records = sorted(
            (tuple(sorted(rng.sample(range(14), rng.randint(5, 8)))) for _ in range(120)),
            key=len,
        )
        sim = CountingSim(Jaccard())
        index = PPJoinIndex(sim, 0.5, mode=mode, bitmap_width=bitmap)
        reference = PPJoinIndex(Jaccard(), 0.5, mode=mode, bitmap_width=bitmap)
        if mode == "rs":
            for rid, tokens in enumerate(records):
                index.add(rid, tokens)
                reference.add(rid, tokens)
        most_matches_of_one_size = 0
        for rid, tokens in enumerate(records, start=1000):
            sim.calls.clear()
            got = index.probe(rid, tokens)
            assert got == reference.probe(rid, tokens)
            assert all(n == 1 for n in sim.calls.values()), sim.calls
            sizes = Counter(len(records[other % 1000]) for other, _ in got)
            most_matches_of_one_size = max(
                most_matches_of_one_size, max(sizes.values(), default=0)
            )
            if mode == "self":
                index.add(rid, tokens)
                reference.add(rid, tokens)
        assert index.filter_stats == reference.filter_stats
        # a per-candidate call would have shown up as a repeated size
        assert most_matches_of_one_size >= 3

    def test_results_in_first_encounter_order(self):
        index = PPJoinIndex(Jaccard(), 0.5, mode="rs", evict=False)
        index.add(1, (5, 6, 7))
        index.add(2, (1, 6, 7))
        # prefix token 1 reaches entry 2 before token 5 reaches entry 1
        assert [rid for rid, _ in index.probe(9, (1, 5, 6, 7))] == [2, 1]
