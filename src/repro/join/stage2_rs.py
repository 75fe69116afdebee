"""Stage 2 — RID-pair generation, R-S join case (Section 4).

Differences from the self-join case, all realized through key
manipulation:

* records are tagged with their relation (R = 0, S = 1); the custom
  partitioner still hashes only the route, and the relation tag makes
  R sort before S inside each group;
* the token ordering was built on R only, so S tokens absent from it
  are dropped at projection time (they cannot produce candidates);
  each S projection carries its *original* token count so verification
  stays exact;
* for the PK kernel, keys carry a **length class** — the actual length
  for S records, the length-filter *lower bound* for R records — so
  every R projection that could join an S record is streamed to the
  reducer before that record (Figure 6), enabling index eviction;
* Section 5 block processing sub-partitions only the R side; the S
  stream is replicated per R block (map-based) or spilled once and
  re-read per block (reduce-based).

**Hot-group splitting** (see :mod:`repro.join.planner` and the
self-join module) extends keys to ``(route, shard, class, relation,
length)``: a split route replicates its R records to every shard and
partitions its S records by home shard — the textbook
fragment-replicate split, which the R-S reducers already handle
because their roles are purely tag-driven.  Every shard streams
the complete R side before its ``1/k`` slice of S, so pairs and filter
counters sum to exactly the unsplit run's.

The PK and map-based-blocks reducers are shared with the self-join
module (:func:`repro.join.stage2.make_pk_reducer` in ``rs`` mode,
:func:`repro.join.stage2.make_bk_map_blocks_reducer`); the BK
store/stream reducer here also runs the split shards of a self-join.

Output records are ``(r_rid, s_rid, similarity)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.bitmaps import signature as bitmap_signature
from repro.join.blocks import (
    MAP_BASED,
    ROLE_LOAD,
    SPILL_READ,
    SPILL_WRITTEN,
    BlockPolicy,
    projection_spill_bytes,
)
from repro.analysis.sanitize import make_sanitizer
from repro.core.batch import TokenBatch
from repro.join.config import JoinConfig
from repro.join.stage2 import (
    CANDIDATE_PAIRS,
    PAIRS_OUTPUT,
    PRUNED_BITMAP,
    PRUNED_LENGTH,
    REL_R,
    REL_S,
    STAGE2_BATCHES,
    _projection_rel,
    _projection_size,
    _write_rs_pair,
    _write_self_pair,
    bk_verify,
    # unused here since the batched scan inlines its filters; kept bound
    # because the per-layer tracer (perfbench/tracing.py) wraps
    # ``bk_verify_block`` in every Stage-2 module by name
    bk_verify_block as bk_verify_block,
    make_bk_map_blocks_reducer,
    make_map_setup,
    make_pk_reducer,
    project_record,
)
from repro.mapreduce.hashing import shard_of, shard_partition
from repro.mapreduce.job import Context, MapReduceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.join.planner import Stage2Plan


def _length_class(rel: int, true_size: int, config: JoinConfig) -> int:
    """Composite-key length class (Section 4, Figure 6).

    S records use their actual length; R records use the lower bound of
    the lengths they can join, so that sorting by (class, relation)
    streams every R record before any S record it might pair with:
    for a true pair, ``len(R) <= upper_bound(len(S))`` iff
    ``lower_bound(len(R)) <= len(S)``.
    """
    if rel == REL_S:
        return true_size
    lo, _hi = config.sim.length_bounds(true_size, config.threshold)
    return lo


def make_rs_mapper(
    config: JoinConfig,
    blocks: BlockPolicy | None,
    token_order_file: str,
    r_file: str,
    s_file: str,
    plan: "Stage2Plan | None" = None,
):
    """R-S Stage-2 mapper: tags by input file, drops S-only tokens.

    With a split-carrying *plan*, keys take the extended ``(route,
    shard, class, relation, length)`` shape: split routes replicate R
    records to every shard and send each S record to its home shard
    only; unsplit routes emit a single copy with ``shard == -1``.
    """
    sim, threshold = config.sim, config.threshold
    split_mode = plan is not None and bool(plan.splits)
    state, map_setup = make_map_setup(config, token_order_file, plan)
    bitmap_width = config.bitmap_width if config.bitmap_filter else None

    def mapper(line: str, ctx: Context) -> None:
        if ctx.input_file == r_file:
            rel, unknown = REL_R, "error"
        elif ctx.input_file == s_file:
            rel, unknown = REL_S, "drop"
        else:  # pragma: no cover - job wiring guarantees the inputs
            raise ValueError(f"unexpected input file {ctx.input_file!r}")
        rid, ranks, true_size = project_record(line, config, state["order"], unknown)
        n = len(ranks)
        if n == 0:
            return
        prefix = ranks[: sim.prefix_length(n, threshold)]
        # The signature covers the *shipped* (S-filtered) token array —
        # exactly the elements the kernels' overlap() merges.
        sig = bitmap_signature(ranks, bitmap_width) if bitmap_width else None
        value = (rel, rid, true_size, sig, ranks)
        cls = _length_class(rel, true_size, config)
        route_list = state["routes"](prefix)
        ctx.observe("stage2.prefix_tokens", len(prefix))
        ctx.observe("stage2.record_routes", len(route_list))
        for route in route_list:
            if split_mode:
                num_shards = state["splits"].get(route)
                if num_shards is None:
                    ctx.emit((route, -1, cls, rel, n), value)
                elif rel == REL_R:
                    for shard in range(num_shards):
                        ctx.emit((route, shard, cls, rel, n), value)
                else:
                    home = shard_of(rid, num_shards)
                    ctx.emit((route, home, cls, rel, n), value)
            elif blocks is None:
                # The trailing actual length keeps same-class R records
                # sorted by size: length classes are not injective
                # (e.g. Jaccard tau=0.8 maps lengths 4 and 5 both to
                # class 4), and the PK index requires non-decreasing
                # insertion sizes for eviction.
                ctx.emit((route, cls, rel, n), value)
            elif blocks.strategy == MAP_BASED:
                if rel == REL_R:
                    block = blocks.block_of(rid)
                    ctx.emit((route, block, ROLE_LOAD, rel), (block, ROLE_LOAD) + value)
                else:
                    for step, role in blocks.rs_stream_schedule():
                        ctx.emit((route, step, role, rel), (step, role) + value)
            else:
                block = blocks.block_of(rid) if rel == REL_R else 0
                ctx.emit((route, rel, block), (block,) + value)

    return map_setup, mapper


# ---------------------------------------------------------------------------
# reducers (the rest are shared with the self-join module)
# ---------------------------------------------------------------------------


def make_bk_rs_reducer(config: JoinConfig, split_self: bool = False) -> Callable:
    """Basic Kernel, store/stream: store the ``REL_R`` projections,
    stream every other record against the ones stored so far.

    Two stream roles share it.  In an R-S group the R projections sort
    first in each length class (Section 4).  In one shard of a split
    self-join group (``split_self=True``) the replicated add copies are
    stored and each at-home probe copy verifies against every add
    before it — precisely the ``j < i`` half-loop of the unsplit nested
    loop, restricted to the probes homed on the shard.  A split shard
    runs the scalar loop always: probe/add copies interleave at the
    record grain, so columnar blocks would degenerate to single rows.

    The batched R-S path (``config.batch_size`` set) packs *runs* of
    same-relation records into columnar :class:`TokenBatch` blocks.
    R and S interleave across length classes inside one group, and the
    scalar loop verifies each S against exactly the R records that
    arrived before it — so a pending S buffer is flushed whenever an R
    record arrives (and vice versa), keeping candidate order, emitted
    pairs and all counters except ``stage2.batches`` bit-identical to
    the scalar loop.

    The batched scan runs the filters of :func:`bk_verify` in the same
    order but hoists everything that depends on one row of a pair: the
    similarity methods are resolved once per reducer; each stored R row
    gets its length bounds and bitmap slack (``size - popcount``) once,
    when its block is packed; each S row gets its slack once and
    memoizes the required overlap per distinct R size (with the S row
    fixed, ``overlap_threshold`` depends on the R size alone).
    Candidate and prune counters are added per R block and per flush,
    with the same totals; sanitizer probes still run per prune.
    """
    batch_size = None if split_self else config.batch_size
    write_pair = _write_self_pair if split_self else _write_rs_pair
    stored_what = "BK candidate list" if split_self else "BK stored R partition"
    group_of = None if split_self else _projection_rel
    sim, threshold = config.sim, config.threshold
    length_bounds = sim.length_bounds
    overlap_threshold = sim.overlap_threshold
    similarity_from_overlap = sim.similarity_from_overlap

    def reducer(route, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        if sanitizer is not None:
            values = sanitizer.sorted_values(
                values, _projection_size, group_of=group_of
            )
        if batch_size is None:
            stored: list[tuple] = []
            charged = 0
            group_records = 0
            group_candidates = 0
            try:
                for value in values:
                    group_records += 1
                    if value[0] == REL_R:
                        charged += ctx.reserve_memory_for(value, stored_what)
                        stored.append(value)
                        continue
                    group_candidates += len(stored)
                    for other in stored:
                        ctx.counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(
                            other, value, config, ctx.counters, sanitizer
                        )
                        if similarity is not None:
                            write_pair(ctx, other[1], value[1], similarity)
                ctx.observe("stage2.group_records", group_records)
                if not split_self:
                    ctx.observe("stage2.group_candidates", group_candidates)
            finally:
                ctx.release_memory(charged)
            return

        counters = ctx.counters
        # stored R blocks, each beside its per-row length bounds and
        # bitmap slack (``size - popcount(sig)``)
        r_blocks: list[tuple[TokenBatch, list[int], list[int], list[int]]] = []
        stored_count = 0
        r_buf: list[tuple] = []
        s_buf: list[tuple] = []
        charged = 0
        group_records = 0
        group_candidates = 0

        def flush_r() -> None:
            nonlocal stored_count
            if not r_buf:
                return
            block = TokenBatch.from_projections(r_buf)
            r_buf.clear()
            counters.increment(STAGE2_BATCHES)
            los: list[int] = []
            his: list[int] = []
            for n_r in block.true_sizes:
                lo, hi = length_bounds(n_r, threshold)
                los.append(lo)
                his.append(hi)
            slacks = [
                0 if sig is None else block.size(ri) - sig.bit_count()
                for ri, sig in enumerate(block.sigs)
            ]
            r_blocks.append((block, los, his, slacks))
            stored_count += block.count

        def flush_s() -> None:
            if not s_buf:
                return
            block = TokenBatch.from_projections(s_buf)
            s_buf.clear()
            counters.increment(STAGE2_BATCHES)
            pruned_length = 0
            pruned_bitmap = 0
            for si in range(block.count):
                n_s = block.true_sizes[si]
                sig_s = block.sigs[si]
                slack_s = 0 if sig_s is None else block.size(si) - sig_s.bit_count()
                # alpha depends on the R size alone once the S row is fixed
                alpha_of: dict[int, int] = {}
                for r_block, los, his, slacks in r_blocks:
                    counters.increment(CANDIDATE_PAIRS, r_block.count)
                    r_sizes = r_block.true_sizes
                    r_sigs = r_block.sigs
                    for ri in range(r_block.count):
                        if not los[ri] <= n_s <= his[ri]:
                            pruned_length += 1
                            if sanitizer is not None:
                                sanitizer.check_prune(
                                    "length",
                                    r_block.view(ri),
                                    r_sizes[ri],
                                    block.view(si),
                                    n_s,
                                )
                            continue
                        n_r = r_sizes[ri]
                        alpha = alpha_of.get(n_r)
                        if alpha is None:
                            alpha = alpha_of[n_r] = overlap_threshold(
                                n_r, n_s, threshold
                            )
                        sig_r = r_sigs[ri]
                        if sig_r is not None and sig_s is not None:
                            slack_r = slacks[ri]
                            bound = (sig_r & sig_s).bit_count() + (
                                slack_r if slack_r < slack_s else slack_s
                            )
                            if bound < alpha:
                                pruned_bitmap += 1
                                if sanitizer is not None:
                                    sanitizer.check_prune(
                                        "bitmap",
                                        r_block.view(ri),
                                        n_r,
                                        block.view(si),
                                        n_s,
                                    )
                                continue
                        common = r_block.overlap(ri, block, si)
                        if common < alpha:
                            continue
                        similarity = similarity_from_overlap(n_r, n_s, common)
                        if similarity >= threshold:
                            ctx.write((r_block.rids[ri], block.rids[si], similarity))
                            counters.increment(PAIRS_OUTPUT)
            if pruned_length:
                counters.increment(PRUNED_LENGTH, pruned_length)
            if pruned_bitmap:
                counters.increment(PRUNED_BITMAP, pruned_bitmap)

        try:
            for value in values:
                group_records += 1
                if value[0] == REL_R:
                    flush_s()
                    charged += ctx.reserve_memory_for(value, stored_what)
                    r_buf.append(value)
                    if len(r_buf) >= batch_size:
                        flush_r()
                else:
                    flush_r()
                    group_candidates += stored_count
                    s_buf.append(value)
                    if len(s_buf) >= batch_size:
                        flush_s()
            flush_s()
            ctx.observe("stage2.group_records", group_records)
            ctx.observe("stage2.group_candidates", group_candidates)
        finally:
            ctx.release_memory(charged)

    return reducer


def make_bk_rs_reduce_blocks_reducer(config: JoinConfig) -> Callable:
    """Reduce-based block processing, R-S: load the first R block,
    spill the other R blocks and the whole S stream to local disk,
    then re-read the S stream once per remaining R block."""

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        loaded: list[tuple] = []
        charged = 0
        loaded_block = None
        spilled_r: dict[int, list[tuple]] = {}
        spilled_s: list[tuple] = []
        try:
            for block, rel, rid, true_size, sig, ranks in values:
                projection = (rel, rid, true_size, sig, ranks)
                if rel == REL_R:
                    if loaded_block is None:
                        loaded_block = block
                    if block == loaded_block:
                        charged += ctx.reserve_memory_for(
                            projection, "BK loaded R block"
                        )
                        loaded.append(projection)
                    else:
                        spilled_r.setdefault(block, []).append(projection)
                        ctx.counters.increment(
                            SPILL_WRITTEN,
                            projection_spill_bytes(len(ranks), sig is not None),
                        )
                    continue
                for r_proj in loaded:
                    ctx.counters.increment(CANDIDATE_PAIRS)
                    similarity = bk_verify(
                        r_proj, projection, config, ctx.counters, sanitizer
                    )
                    if similarity is not None:
                        _write_rs_pair(ctx, r_proj[1], rid, similarity)
                if spilled_r:
                    spilled_s.append(projection)
                    ctx.counters.increment(
                        SPILL_WRITTEN,
                        projection_spill_bytes(len(ranks), sig is not None),
                    )
        finally:
            ctx.release_memory(charged)

        for block in sorted(spilled_r):
            loaded = []
            charged = 0
            try:
                for projection in spilled_r[block]:
                    ctx.counters.increment(
                        SPILL_READ,
                        projection_spill_bytes(
                            len(projection[4]), projection[3] is not None
                        ),
                    )
                    charged += ctx.reserve_memory_for(projection, "BK loaded R block")
                    loaded.append(projection)
                for s_proj in spilled_s:
                    ctx.counters.increment(
                        SPILL_READ,
                        projection_spill_bytes(len(s_proj[4]), s_proj[3] is not None),
                    )
                    for r_proj in loaded:
                        ctx.counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(
                            r_proj, s_proj, config, ctx.counters, sanitizer
                        )
                        if similarity is not None:
                            _write_rs_pair(ctx, r_proj[1], s_proj[1], similarity)
            finally:
                ctx.release_memory(charged)

    return reducer


# ---------------------------------------------------------------------------
# job assembly
# ---------------------------------------------------------------------------


def stage2_rs_job(
    config: JoinConfig,
    r_file: str,
    s_file: str,
    token_order_file: str,
    output: str,
    num_reducers: int,
    plan: "Stage2Plan | None" = None,
) -> MapReduceJob:
    """Build the single Stage-2 job for an R-S join.

    A split-carrying *plan* switches to the extended ``(route, shard,
    class, relation, length)`` key shape with
    :func:`shard_partition` placement and ``(route, shard)`` grouping;
    the reducers are unchanged — a split shard is just an ordinary R-S
    group holding all of R and a slice of S.
    """
    blocks = config.blocks
    if blocks is not None and config.kernel != "bk":
        raise ValueError(
            "Section 5 block processing applies to the BK kernel; "
            "use kernel='bk' or blocks=None"
        )
    split_mode = plan is not None and bool(plan.splits)
    if split_mode and blocks is not None:
        raise ValueError(
            "hot-group splitting composes with the plain kernels only; "
            "drop blocks or run without splits"
        )
    map_setup, mapper = make_rs_mapper(
        config, blocks, token_order_file, r_file, s_file, plan
    )
    if blocks is None:
        reducer = (
            make_pk_reducer(config, mode="rs")
            if config.kernel == "pk"
            else make_bk_rs_reducer(config)
        )
    elif blocks.strategy == MAP_BASED:
        reducer = make_bk_map_blocks_reducer(config, self_join=False)
    else:
        reducer = make_bk_rs_reduce_blocks_reducer(config)

    return MapReduceJob(
        name=f"stage2-{config.kernel}-rs",
        inputs=[r_file, s_file],
        output=output,
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        partition=lambda key: key[0],
        partitioner=(
            (lambda key, n: shard_partition(key[0], key[1], n)) if split_mode else None
        ),
        sort_key=lambda key: key,
        group_key=(lambda key: (key[0], key[1])) if split_mode else (lambda key: key[0]),
        broadcast=[token_order_file],
        map_setup=map_setup,
    )
