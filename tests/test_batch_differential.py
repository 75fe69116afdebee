"""Differential tests for the columnar batch kernels (`repro.core.batch`).

The batched Stage-2 reducers must be *bit-identical* to the scalar
pair-at-a-time path: same RID pairs, same similarities, and — because
every filter fires in the same order on the same candidates — the same
filter counters.  ``stage2.batches`` is the single intentional
difference (it counts blocks, which the scalar path does not have), so
counter comparisons exclude it.

Covers: kernels (BK/PK) x encodings (rank/string) x join types
(self/R-S) x batch sizes including 1 and non-dividing sizes, and the
row-level ``verify_rows`` vs ``verify_pair`` equivalence.  The R-S BK
reducer, whose batched scan hoists per-row filter bounds, additionally
gets its write order, sanitizer probe sequence and per-row bound
computation pinned.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import repro.join.stage2_rs as stage2_rs
from repro.core.batch import REL_R, REL_S, TokenBatch, batch_spans, verify_rows
from repro.core.bitmaps import signature
from repro.core.ordering import TokenOrder
from repro.core.similarity import Jaccard, get_similarity_function
from repro.core.verification import verify_pair
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.join.records import join_value, make_line
from repro.join.stage2 import STAGE2_BATCHES
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context

from tests.conftest import SCHEMA_1, CountingSim, make_cluster, random_records

BATCH_SIZES = [1, 2, 3, 64]
CONFIG = dict(threshold=0.5, schema=SCHEMA_1)


def _run(records, config, rs=False, ordered=False):
    """Join output and counters (minus ``stage2.batches``); the pairs
    are sorted unless *ordered* asks for them in output order."""
    cluster = make_cluster()
    if rs:
        r, s = records
        cluster.dfs.write("r", r)
        cluster.dfs.write("s", s)
        report = ssjoin_rs(cluster, "r", "s", config)
    else:
        cluster.dfs.write("records", records)
        report = ssjoin_self(cluster, "records", config)
    pairs = cluster.dfs.read_all(report.output_file)
    if not ordered:
        pairs = sorted(pairs)
    counters = {
        k: v for k, v in report.counters().items() if k != STAGE2_BATCHES
    }
    return pairs, counters


class TestStage2BatchDifferential:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("encoding", ["rank", "string"])
    def test_self_join_batched_equals_scalar(self, rng, kernel, encoding):
        records = random_records(rng, 60)
        scalar = _run(
            records,
            JoinConfig(
                kernel=kernel, token_encoding=encoding, batch_size=None, **CONFIG
            ),
        )
        for batch_size in BATCH_SIZES:
            batched = _run(
                records,
                JoinConfig(
                    kernel=kernel,
                    token_encoding=encoding,
                    batch_size=batch_size,
                    **CONFIG,
                ),
            )
            assert batched == scalar, (kernel, encoding, batch_size)

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("encoding", ["rank", "string"])
    def test_rs_join_batched_equals_scalar(self, rng, kernel, encoding):
        r = random_records(rng, 40)
        s = random_records(rng, 40, rid_base=1000)
        scalar = _run(
            (r, s),
            JoinConfig(
                kernel=kernel, token_encoding=encoding, batch_size=None, **CONFIG
            ),
            rs=True,
        )
        for batch_size in BATCH_SIZES:
            batched = _run(
                (r, s),
                JoinConfig(
                    kernel=kernel,
                    token_encoding=encoding,
                    batch_size=batch_size,
                    **CONFIG,
                ),
                rs=True,
            )
            assert batched == scalar, (kernel, encoding, batch_size)

    @given(seed=st.integers(0, 2**20), batch_size=st.sampled_from([1, 3, 7, 64]))
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_batched_equals_scalar(self, seed, batch_size):
        rng = random.Random(seed)
        records = random_records(rng, 35)
        scalar = _run(records, JoinConfig(batch_size=None, **CONFIG))
        batched = _run(records, JoinConfig(batch_size=batch_size, **CONFIG))
        assert batched == scalar

    def test_batches_counter_counts_blocks(self, rng):
        records = random_records(rng, 60)
        cluster = make_cluster()
        cluster.dfs.write("records", records)
        report = ssjoin_self(
            cluster, "records", JoinConfig(batch_size=2, **CONFIG)
        )
        assert report.counters()[STAGE2_BATCHES] > 0


SIMILARITIES = ["jaccard", "cosine", "dice"]
#: ``None`` = bitmap filter off, else the signature width
BITMAPS = [None, 1, 64]
RS_BATCH_SIZES = [1, 3, 64]


def _bitmap_options(width):
    if width is None:
        return dict(bitmap_filter=False)
    return dict(bitmap_filter=True, bitmap_width=width)


class _RecordingSanitizer:
    """Stand-in sanitizer that records every ``check_prune`` call."""

    def __init__(self):
        self.prunes: list[tuple] = []

    def sorted_values(self, values, size_of, group_of=None):
        return values

    def check_prune(self, stage, x_tokens, nx, y_tokens, ny):
        self.prunes.append((stage, nx, ny, tuple(x_tokens), tuple(y_tokens)))


def _s_records(rng, r_records):
    """S records, half of them near-duplicates of R records.  Words
    ``s0..`` are unknown to R's token ordering, so S rows holding them
    ship fewer tokens than their true size."""
    records = []
    for i, line in enumerate(r_records):
        words = join_value(line, SCHEMA_1).split()
        if rng.random() < 0.5:
            words = [f"w{rng.randrange(30)}" for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.4:
            words.append(f"s{rng.randrange(5)}")
        records.append(make_line(1000 + i, [" ".join(words), "payload"]))
    return records


def _rs_group(rng, config, count=40, vocab=24):
    """One R-S reduce group in the order the shuffle delivers it.

    Near-duplicate rows make verification accept pairs; about a third
    of the S rows ship fewer tokens than their true size, as S rows do
    once tokens unknown to R's ordering are dropped.
    """
    width = config.bitmap_width if config.bitmap_filter else None
    pool: list[list[int]] = []
    keyed = []
    for rel in (REL_R, REL_S):
        for i in range(count):
            if pool and rng.random() < 0.5:
                ranks = set(rng.choice(pool))
                if rng.random() < 0.5:
                    ranks.discard(rng.choice(sorted(ranks)))
                ranks.add(rng.randrange(vocab))
            else:
                ranks = set(rng.sample(range(vocab), rng.randint(2, 9)))
            ranks = sorted(ranks)
            pool.append(ranks)
            true_size = len(ranks)
            if rel == REL_S and rng.random() < 0.35:
                true_size += rng.randint(1, 3)
            sig = signature(ranks, width) if width else None
            value = (rel, 1000 * rel + i, true_size, sig, array("i", ranks))
            cls = stage2_rs._length_class(rel, true_size, config)
            keyed.append(((cls, rel, len(ranks)), value))
    keyed.sort(key=lambda item: item[0])
    return [value for _key, value in keyed]


def _reduce_rs_bk(config, group):
    """Run the R-S BK reducer over one group: written records in write
    order, and counters minus ``stage2.batches``."""
    ctx = Context("reduce", Counters())
    stage2_rs.make_bk_rs_reducer(config)(0, iter(group), ctx)
    counters = ctx.counters.as_dict()
    counters.pop(STAGE2_BATCHES, None)
    return ctx._written, counters


class TestRsBkContract:
    """The batched R-S BK scan against the scalar oracle: same writes
    in the same order, same counters, same sanitizer probes, and filter
    bounds computed per row rather than per pair."""

    @pytest.mark.parametrize("bitmap", BITMAPS)
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_join_batched_equals_scalar_in_output_order(
        self, rng, similarity, bitmap
    ):
        r = random_records(rng, 40)
        s = _s_records(rng, r)
        options = dict(
            kernel="bk",
            similarity=similarity,
            **_bitmap_options(bitmap),
            **CONFIG,
        )
        scalar = _run(
            (r, s), JoinConfig(batch_size=None, **options), rs=True, ordered=True
        )
        assert scalar[0], "the workload must produce pairs"
        for batch_size in RS_BATCH_SIZES:
            batched = _run(
                (r, s),
                JoinConfig(batch_size=batch_size, **options),
                rs=True,
                ordered=True,
            )
            assert batched == scalar, (similarity, bitmap, batch_size)

    @pytest.mark.parametrize("bitmap", BITMAPS)
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_reducer_writes_counters_and_probes_match_scalar(
        self, rng, monkeypatch, similarity, bitmap
    ):
        options = dict(similarity=similarity, threshold=0.5, **_bitmap_options(bitmap))
        group = _rs_group(rng, JoinConfig(**options))
        assert any(v[0] == REL_S and v[2] > len(v[4]) for v in group)
        recorders: list[_RecordingSanitizer] = []

        def recording_sanitizer(config, counters):
            recorders.append(_RecordingSanitizer())
            return recorders[-1]

        monkeypatch.setattr(stage2_rs, "make_sanitizer", recording_sanitizer)
        scalar = _reduce_rs_bk(JoinConfig(batch_size=None, **options), group)
        scalar_prunes = recorders[-1].prunes
        assert scalar[0], "the group must produce pairs"
        assert scalar_prunes, "the group must exercise the filters"
        for batch_size in RS_BATCH_SIZES:
            batched = _reduce_rs_bk(JoinConfig(batch_size=batch_size, **options), group)
            assert batched == scalar, (similarity, bitmap, batch_size)
            assert recorders[-1].prunes == scalar_prunes, (similarity, bitmap, batch_size)

    @pytest.mark.parametrize("bitmap", [None, 64])
    def test_bounds_computed_per_row_not_per_pair(self, rng, bitmap):
        options = dict(threshold=0.5, **_bitmap_options(bitmap))
        group = _rs_group(rng, JoinConfig(**options))
        sim = CountingSim(get_similarity_function("jaccard"))
        written, _counters = _reduce_rs_bk(
            JoinConfig(similarity=sim, batch_size=3, **options), group
        )
        assert written == _reduce_rs_bk(JoinConfig(batch_size=None, **options), group)[0]
        r_rows = [v for v in group if v[0] == REL_R]
        assert sum(sim.length_bounds_calls.values()) == len(r_rows)
        # at most one alpha per (S row, distinct R size) it reaches past
        # the length filter; the per-pair count would exceed it
        per_row_bound = 0
        length_passing_pairs = 0
        stored_sizes: list[int] = []
        for rel, _rid, size, _sig, _ranks in group:
            if rel == REL_R:
                stored_sizes.append(size)
                continue
            passing = []
            for n_r in stored_sizes:
                lo, hi = sim.inner.length_bounds(n_r, 0.5)
                if lo <= size <= hi:
                    passing.append(n_r)
            per_row_bound += len(set(passing))
            length_passing_pairs += len(passing)
        calls = sum(sim.calls.values())
        assert calls <= per_row_bound < length_passing_pairs


token_sets = st.lists(
    st.sets(st.integers(0, 40), min_size=1, max_size=14),
    min_size=2,
    max_size=12,
)


class TestVerifyRowsEquivalence:
    @given(sets=token_sets, threshold=st.sampled_from([0.5, 0.75, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_verify_rows_matches_verify_pair(self, sets, threshold):
        sim = Jaccard()
        freqs: dict = {}
        for s in sets:
            for tok in s:
                freqs[f"t{tok}"] = freqs.get(f"t{tok}", 0) + 1
        order = TokenOrder.from_frequencies(freqs)
        tokens = [order.encode_array(sorted(f"t{t}" for t in s)) for s in sets]
        batch = TokenBatch.from_projections(
            [(0, i, len(arr), None, arr) for i, arr in enumerate(tokens)]
        )
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                scalar = verify_pair(
                    tokens[i], tokens[j], sim, threshold, presorted=True
                )
                batched = verify_rows(batch, i, batch, j, sim, threshold)
                assert scalar == batched

    def test_batch_spans_cover_every_row_once(self):
        for count in (0, 1, 5, 64, 65, 130):
            for size in (1, 3, 64):
                spans = batch_spans(count, size)
                rows = [r for start, stop in spans for r in range(start, stop)]
                assert rows == list(range(count))
