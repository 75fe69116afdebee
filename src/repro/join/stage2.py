"""Stage 2 — RID-pair generation, self-join case (Section 3.2).

The mapper loads the Stage-1 token ordering (distributed cache),
projects each record on (RID, rank-encoded join-attribute tokens),
extracts the probing prefix and replicates the projection under one
routing key per prefix token (individual routing) or per distinct
prefix-token group (grouped routing).

Keys are composite, exactly as the paper manipulates them:

    (route, length, relation)

partitioned on ``route`` only (custom partitioner), sorted on the full
key, grouped on ``route`` — so each reduce call sees one candidate
group with values streaming in ascending set-size order, which is what
lets the PK kernel evict index entries below the length-filter lower
bound (Section 3.2.2) and the R-S kernel stream R before S
(Section 4).  The relation component is 0 for self-joins.

Reducers:

* **BK** (Basic Kernel) — materializes the group (memory-metered) and
  verifies its cross product pairwise with the length filter plus
  merge-based verification.
* **PK** (PPJoin+ Kernel) — runs :class:`repro.core.ppjoin.PPJoinIndex`
  over the length-sorted stream.

Both may emit the same RID pair from different groups; duplicates are
eliminated in Stage 3, per the paper.  Output records are
``(rid1, rid2, similarity)`` with ``rid1 < rid2``.

Section 5 plugs into the BK path in two forms: block processing
(see :mod:`repro.join.blocks` and the ``*_blocks_*`` reducers here)
and the length filter as a *secondary routing criterion*
(``JoinConfig.length_class_width`` — reducer keys become
``(token, length-class)`` so each reduce step holds one class).

**Hot-group splitting** (the skew-adaptive layer, see
:mod:`repro.join.planner`): when an adaptive :class:`Stage2Plan`
marks token groups for splitting, keys extend to

    (route, shard, length, relation)

partitioned on ``(route, shard)`` via
:func:`repro.mapreduce.hashing.shard_partition`.  A split group's
records are shipped twice — an *add copy* (``REL_R``) replicated to
every shard, and a *probe copy* (``REL_S``) sent only to the record's
home shard, emitted immediately before its own add copy under the
identical key.  Every shard therefore indexes the complete group in
the original arrival order while probing only its ``1/k`` share of the
records, so each candidate pair is found exactly once (at the later
record's home shard) against exactly the index state the unsplit
reducer would have had — pairs *and* per-filter prune counters are
bit-identical in sum to the static plan (differential-tested).
Unsplit routes ride along with ``shard == -1``, keeping their classic
partition placement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.analysis.sanitize import Sanitizer, make_sanitizer
from repro.core.batch import REL_R, REL_S, TokenBatch, batch_spans
from repro.core.bitmaps import overlap_upper_bound, signature as bitmap_signature
from repro.core.ordering import TokenOrder
from repro.core.ppjoin import PPJoinIndex
from repro.core.prefixes import TokenGrouping
from repro.core.verification import overlap
from repro.join.blocks import (
    ROLE_LOAD,
    ROLE_STREAM,
    SPILL_READ,
    SPILL_WRITTEN,
    BlockPolicy,
    MAP_BASED,
    projection_spill_bytes,
)
from repro.join.config import JoinConfig
from repro.join.records import join_value, rid_of
from repro.mapreduce.hashing import shard_of, shard_partition
from repro.mapreduce.job import Context, MapReduceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.join.planner import Stage2Plan

#: user counters
CANDIDATE_PAIRS = "stage2.candidate_pairs"
PAIRS_OUTPUT = "stage2.pairs_output"
#: columnar blocks packed by the batched reducers (a pure function of
#: the group sizes and ``batch_size``, so it merges identically on
#: every engine — safe to compare cross-engine like the other counters)
STAGE2_BATCHES = "stage2.batches"
#: candidates pruned per filter stage (filter-effectiveness counters)
PRUNED_LENGTH = "stage2.pruned_length"
PRUNED_BITMAP = "stage2.pruned_bitmap"
PRUNED_POSITIONAL = "stage2.pruned_positional"
PRUNED_SUFFIX = "stage2.pruned_suffix"

#: PPJoinIndex.filter_stats key -> counter name
FILTER_COUNTERS = {
    "length": PRUNED_LENGTH,
    "bitmap": PRUNED_BITMAP,
    "positional": PRUNED_POSITIONAL,
    "suffix": PRUNED_SUFFIX,
}


def merge_index_filter_stats(ctx: Context, index: PPJoinIndex) -> None:
    """Fold a PK index's per-filter prune tallies into the job counters."""
    for stage, count in index.filter_stats.items():
        if count:
            ctx.counters.increment(FILTER_COUNTERS[stage], count)


def make_pk_index(
    config: JoinConfig,
    mode: str,
    evict: bool,
    sanitizer: Sanitizer | None = None,
) -> PPJoinIndex:
    """The PK kernel's index under *config*: with the bitmap filter on,
    the bitmap bound replaces the recursive suffix filter (which it
    empirically subsumes at a fraction of the cost — both admissible,
    identical output either way)."""
    width = config.bitmap_width if config.bitmap_filter else None
    return PPJoinIndex(
        config.sim,
        config.threshold,
        mode=mode,
        evict=evict,
        use_suffix=width is None,
        bitmap_width=width,
        sanitizer=sanitizer,
    )


#: value layout shared by every Stage-2 projection:
#: ``(rel, rid, true_size, signature, tokens)``
def _projection_size(value: tuple) -> int:
    return value[2]


def _projection_rel(value: tuple) -> int:
    return value[0]

# Relation tags inside keys/values (R sorts before S); canonical
# definitions live in repro.core.batch, re-exported here because the
# Stage-2 modules are their historical home.
assert REL_R == 0 and REL_S == 1


# ---------------------------------------------------------------------------
# shared mapper machinery
# ---------------------------------------------------------------------------


def load_token_order(ctx: Context, token_order_file: str) -> TokenOrder:
    """Rebuild the global token order from the distributed cache.

    This happens once per map task — the per-task constant cost the
    paper attributes to loading the ordered tokens in Stage 2.
    """
    return TokenOrder(ctx.broadcast[token_order_file])


def make_router(config: JoinConfig, order: TokenOrder) -> Callable:
    """Return ``routes(prefix) -> list`` for the configured routing
    strategy.  Prefix elements are ranks (``token_encoding="rank"``) or
    raw tokens (``"string"``); individual routing uses the element
    itself as the route, grouped routing maps it to its group id."""
    if config.routing == "individual":
        def routes(prefix) -> list:
            return list(dict.fromkeys(prefix))
        return routes
    num_groups = config.num_groups or max(1, len(order))
    grouping = TokenGrouping(order, num_groups)
    if config.token_encoding == "string":
        def routes(prefix) -> list:
            return grouping.groups_of_tokens(prefix)
        return routes
    def routes(prefix) -> list:
        return grouping.groups_of_ranks(prefix)
    return routes


def resolve_splits(
    plan: "Stage2Plan | None", config: JoinConfig, order: TokenOrder
) -> dict:
    """Re-anchor a plan's hot-token splits on the real Stage-1 order.

    The planner worked on a *sample-local* token order, so the plan
    names hot groups by token string; this maps each one to the routing
    key the configured router would actually emit — the token's rank
    (individual routing, rank encoding), the token itself (individual,
    string encoding) or its group id (grouped routing).  Tokens the
    real order never saw are skipped (they cannot be hot); two hot
    tokens collapsing into one grouped route keep the larger shard
    count.  Routes with fewer than two shards are dropped — splitting
    one way is the unsplit plan.
    """
    if plan is None or not plan.splits:
        return {}
    resolved: dict = {}
    num_tokens = len(order)
    if config.routing == "grouped":
        num_groups = config.num_groups or max(1, num_tokens)
        for token, k in plan.splits:
            rank = order.rank(token)
            if rank >= num_tokens:
                continue
            group = rank % num_groups
            resolved[group] = max(resolved.get(group, 1), k)
    elif config.token_encoding == "string":
        for token, k in plan.splits:
            if order.rank(token) < num_tokens:
                resolved[token] = max(resolved.get(token, 1), k)
    else:
        for token, k in plan.splits:
            rank = order.rank(token)
            if rank < num_tokens:
                resolved[rank] = max(resolved.get(rank, 1), k)
    return {route: k for route, k in resolved.items() if k > 1}


def project_record(
    line: str, config: JoinConfig, order: TokenOrder, unknown: str
) -> tuple[int, "Sequence", int]:
    """Parse a record line into (rid, encoded tokens, true size).

    The token array is globally ordered in the configured wire format:
    ascending ranks in a compact ``array('i')`` for
    ``token_encoding="rank"`` (the kernel fast path), lexicographically
    sorted raw tokens for ``"string"`` (the opt-out baseline).  ``true
    size`` counts tokens *before* dropping unknowns — for R and
    self-join inputs it equals ``len(tokens)``.
    """
    rid = rid_of(line)
    raw = config.tokenizer.tokenize(join_value(line, config.schema))
    if config.token_encoding == "string":
        tokens = order.encode_strings(raw, unknown=unknown)
    else:
        tokens = order.encode_array(raw, unknown=unknown)
    return rid, tokens, len(raw)


def make_self_mapper(
    config: JoinConfig,
    blocks: BlockPolicy | None,
    token_order_file: str,
    plan: "Stage2Plan | None" = None,
):
    """Self-join Stage-2 mapper (shared by BK and PK).

    With a split-carrying *plan*, keys take the extended
    ``(route, shard, length, relation)`` shape: split routes replicate
    an add copy to every shard and send one probe copy (tagged
    ``REL_S``, emitted first so the stable sort keeps it immediately
    before its own add) to the record's home shard; unsplit routes emit
    a single dual-role copy with ``shard == -1``.
    """
    sim, threshold = config.sim, config.threshold
    split_mode = plan is not None and bool(plan.splits)
    state: dict = {}

    def map_setup(ctx: Context) -> None:
        order = load_token_order(ctx, token_order_file)
        state["order"] = order
        state["routes"] = make_router(config, order)
        state["splits"] = resolve_splits(plan, config, order)

    width = config.length_class_width
    bitmap_width = config.bitmap_width if config.bitmap_filter else None

    def mapper(line: str, ctx: Context) -> None:
        rid, ranks, _true = project_record(line, config, state["order"], "error")
        n = len(ranks)
        if n == 0:
            return
        prefix = ranks[: sim.prefix_length(n, threshold)]
        sig = bitmap_signature(ranks, bitmap_width) if bitmap_width else None
        value = (REL_R, rid, n, sig, ranks)
        route_list = state["routes"](prefix)
        ctx.observe("stage2.prefix_tokens", len(prefix))
        ctx.observe("stage2.record_routes", len(route_list))
        for route in route_list:
            if split_mode:
                num_shards = state["splits"].get(route)
                if num_shards is None:
                    ctx.emit((route, -1, n, REL_R), value)
                else:
                    home = shard_of(rid, num_shards)
                    ctx.emit((route, home, n, REL_R), (REL_S,) + value[1:])
                    for shard in range(num_shards):
                        ctx.emit((route, shard, n, REL_R), value)
            elif blocks is not None:
                block = blocks.block_of(rid)
                if blocks.strategy == MAP_BASED:
                    for step, role in blocks.replication_schedule(block):
                        ctx.emit((route, step, role), (step, role) + value)
                else:
                    ctx.emit((route, block), (block,) + value)
            elif width is not None:
                # Section 5, first paragraph: the length filter as a
                # secondary routing criterion.  The record is *indexed*
                # in its own length class and *probes* every lower
                # class that can hold a join partner, so each reduce
                # step holds one class in memory.
                own_class = n // width
                lowest = sim.length_bounds(n, threshold)[0] // width
                for cls in range(lowest, own_class):
                    ctx.emit((route, cls, ROLE_STREAM), (cls, ROLE_STREAM) + value)
                ctx.emit((route, own_class, ROLE_LOAD), (own_class, ROLE_LOAD) + value)
            else:
                ctx.emit((route, n, REL_R), value)

    return map_setup, mapper


# ---------------------------------------------------------------------------
# pairwise verification used by the BK reducers
# ---------------------------------------------------------------------------


def bk_verify(
    p1: tuple,
    p2: tuple,
    config: JoinConfig,
    counters=None,
    sanitizer: Sanitizer | None = None,
) -> float | None:
    """Length-filter + bitmap-filter + merge-verify two projections.

    Each projection is ``(rel, rid, true_size, signature, tokens)``;
    overlaps are computed on the (possibly S-filtered) token arrays
    while the length filter and required overlap use the true set
    sizes, keeping the reported similarity exact (see Section 4
    Stage 1).  When both projections carry a bitmap signature, the
    admissible popcount upper bound (:mod:`repro.core.bitmaps`) prunes
    the pair before the O(n) merge; *counters*, when given, tallies
    per-filter prunes.
    """
    sim, threshold = config.sim, config.threshold
    _rel1, _rid1, n1, sig1, toks1 = p1
    _rel2, _rid2, n2, sig2, toks2 = p2
    lo, hi = sim.length_bounds(n1, threshold)
    if not lo <= n2 <= hi:
        if counters is not None:
            counters.increment(PRUNED_LENGTH)
        if sanitizer is not None:
            sanitizer.check_prune("length", toks1, n1, toks2, n2)
        return None
    alpha = sim.overlap_threshold(n1, n2, threshold)
    if sig1 is not None and sig2 is not None:
        # The signature covers the shipped token array, which in R-S
        # joins is S-filtered — so bound with the array lengths, the
        # lengths overlap() actually merges (common <= min of both).
        if overlap_upper_bound(len(toks1), len(toks2), sig1, sig2) < alpha:
            if counters is not None:
                counters.increment(PRUNED_BITMAP)
            if sanitizer is not None:
                sanitizer.check_prune("bitmap", toks1, n1, toks2, n2)
            return None
    common = overlap(toks1, toks2, required=alpha)
    if common < alpha:
        return None
    similarity = sim.similarity_from_overlap(n1, n2, common)
    return similarity if similarity >= threshold else None


def bk_verify_block(
    b1: TokenBatch,
    i1: int,
    b2: TokenBatch,
    i2: int,
    config: JoinConfig,
    counters=None,
    sanitizer: Sanitizer | None = None,
) -> float | None:
    """:func:`bk_verify` over columnar block rows (self-join BK reducers;
    the R-S reducer inlines the same filters with per-row bounds).

    Filter order, counter increments and sanitizer probes mirror the
    scalar function exactly; the O(n) Python merge is replaced by one
    exact C-level intersection (:meth:`TokenBatch.overlap`).  Because
    :func:`repro.core.verification.overlap` early-aborts only when the
    result is provably below ``alpha``, branching on the exact
    cardinality takes the same path every time — decisions, similarity
    values and counters are bit-identical (differential-tested).
    """
    sim, threshold = config.sim, config.threshold
    n1 = b1.true_sizes[i1]
    n2 = b2.true_sizes[i2]
    lo, hi = sim.length_bounds(n1, threshold)
    if not lo <= n2 <= hi:
        if counters is not None:
            counters.increment(PRUNED_LENGTH)
        if sanitizer is not None:
            sanitizer.check_prune("length", b1.view(i1), n1, b2.view(i2), n2)
        return None
    alpha = sim.overlap_threshold(n1, n2, threshold)
    sig1 = b1.sigs[i1]
    sig2 = b2.sigs[i2]
    if sig1 is not None and sig2 is not None:
        if overlap_upper_bound(b1.size(i1), b2.size(i2), sig1, sig2) < alpha:
            if counters is not None:
                counters.increment(PRUNED_BITMAP)
            if sanitizer is not None:
                sanitizer.check_prune("bitmap", b1.view(i1), n1, b2.view(i2), n2)
            return None
    common = b1.overlap(i1, b2, i2)
    if common < alpha:
        return None
    similarity = sim.similarity_from_overlap(n1, n2, common)
    return similarity if similarity >= threshold else None


def _write_self_pair(ctx: Context, rid1: int, rid2: int, similarity: float) -> None:
    low, high = (rid1, rid2) if rid1 < rid2 else (rid2, rid1)
    ctx.write((low, high, similarity))
    ctx.counters.increment(PAIRS_OUTPUT)


# ---------------------------------------------------------------------------
# self-join reducers
# ---------------------------------------------------------------------------


def make_bk_self_reducer(config: JoinConfig) -> Callable:
    """Basic Kernel: nested-loop verification of the whole group.

    With ``config.batch_size`` set (the default) the group is packed
    into columnar :class:`TokenBatch` blocks and the cross product runs
    over block rows (:func:`bk_verify_block`); ``batch_size=None``
    keeps the scalar pair-at-a-time loop, which doubles as the
    differential oracle.  Candidate order, emitted pairs and every
    counter except ``stage2.batches`` are identical between the two.
    """
    batch_size = config.batch_size

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        if sanitizer is not None:
            values = sanitizer.sorted_values(values, _projection_size)
        projections: list[tuple] = []
        charged = 0
        try:
            for value in values:
                charged += ctx.reserve_memory_for(value, "BK candidate list")
                projections.append(value)
            total = len(projections)
            ctx.observe("stage2.group_records", total)
            ctx.observe("stage2.group_candidates", total * (total - 1) // 2)
            counters = ctx.counters
            if batch_size is None:
                for i, p1 in enumerate(projections):
                    for p2 in projections[i + 1 :]:
                        counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(p1, p2, config, counters, sanitizer)
                        if similarity is not None:
                            _write_self_pair(ctx, p1[1], p2[1], similarity)
                return
            batches = [
                TokenBatch.from_projections(projections[start:stop])
                for start, stop in batch_spans(total, batch_size)
            ]
            if batches:
                counters.increment(STAGE2_BATCHES, len(batches))
            del projections  # the packed blocks now own the token payloads
            for bi, b1 in enumerate(batches):
                for i1 in range(b1.count):
                    rid1 = b1.rids[i1]
                    for i2 in range(i1 + 1, b1.count):
                        counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify_block(
                            b1, i1, b1, i2, config, counters, sanitizer
                        )
                        if similarity is not None:
                            _write_self_pair(ctx, rid1, b1.rids[i2], similarity)
                    for b2 in batches[bi + 1 :]:
                        for i2 in range(b2.count):
                            counters.increment(CANDIDATE_PAIRS)
                            similarity = bk_verify_block(
                                b1, i1, b2, i2, config, counters, sanitizer
                            )
                            if similarity is not None:
                                _write_self_pair(
                                    ctx, rid1, b2.rids[i2], similarity
                                )
        finally:
            ctx.release_memory(charged)

    return reducer


def make_pk_self_reducer(config: JoinConfig) -> Callable:
    """PPJoin+ Kernel over the length-sorted value stream.

    With ``config.batch_size`` set the stream is packed into columnar
    :class:`TokenBatch` blocks and driven through
    :meth:`PPJoinIndex.probe_batch` — the index holds zero-copy views
    into the flat arrays instead of per-record tuples.  Per-record
    memory metering (and therefore OOM timing) matches the scalar loop
    via the ``meter`` callback.
    """
    batch_size = config.batch_size

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        index = make_pk_index(config, mode="self", evict=True, sanitizer=sanitizer)
        if sanitizer is not None:
            values = sanitizer.sorted_values(values, _projection_size)
        group_records = 0
        if batch_size is None:
            charged = 0
            for _rel, rid, _n, sig, ranks in values:
                group_records += 1
                for other_rid, similarity in index.probe(rid, ranks, signature=sig):
                    _write_self_pair(ctx, rid, other_rid, similarity)
                index.add(rid, ranks, signature=sig)
                delta = index.live_bytes - charged
                if delta >= 0:
                    ctx.reserve_memory(delta, "PK index")
                else:
                    ctx.release_memory(-delta)
                charged = index.live_bytes
        else:
            state = {"charged": 0}

            def meter() -> None:
                delta = index.live_bytes - state["charged"]
                if delta >= 0:
                    ctx.reserve_memory(delta, "PK index")
                else:
                    ctx.release_memory(-delta)
                state["charged"] = index.live_bytes

            buffered: list[tuple] = []

            def flush() -> None:
                if not buffered:
                    return
                block = TokenBatch.from_projections(buffered)
                buffered.clear()
                ctx.counters.increment(STAGE2_BATCHES)

                def emit(row: int, other_rid: int, similarity: float) -> None:
                    _write_self_pair(ctx, block.rids[row], other_rid, similarity)

                index.probe_batch(block, 0, block.count, emit, meter=meter)

            for value in values:
                group_records += 1
                buffered.append(value)
                if len(buffered) >= batch_size:
                    flush()
            flush()
            charged = state["charged"]
        ctx.observe("stage2.group_records", group_records)
        if sanitizer is not None:
            sanitizer.check_index_accounting(index)
        merge_index_filter_stats(ctx, index)
        ctx.release_memory(charged)

    return reducer


# ---------------------------------------------------------------------------
# self-join reducers for split (sharded) hot groups
# ---------------------------------------------------------------------------
#
# A split shard's value stream carries two copies per group record: an
# add copy (REL_R, replicated to every shard) and — for the 1/k of the
# records homed here — a probe copy (REL_S) sorted immediately before
# its own add copy.  Each role is performed exactly once per record
# across the shards, against the same arrival-ordered add sequence the
# unsplit reducer sees, so pairs and filter counters sum to exactly the
# unsplit run's (the admissibility argument in DESIGN.md §5g).


def make_bk_split_self_reducer(config: JoinConfig) -> Callable:
    """Basic Kernel over one shard of a split group.

    Stores the replicated add copies; each probe copy verifies against
    every add stored so far — precisely the ``j < i`` half-loop of the
    unsplit nested loop, restricted to the probes homed on this shard.
    Runs scalar always: probe/add copies interleave at the record
    grain, so columnar blocks would degenerate to single rows.
    """

    def reducer(route, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        if sanitizer is not None:
            values = sanitizer.sorted_values(values, _projection_size)
        counters = ctx.counters
        stored: list[tuple] = []
        charged = 0
        group_records = 0
        try:
            for value in values:
                group_records += 1
                if value[0] == REL_R:
                    charged += ctx.reserve_memory_for(value, "BK candidate list")
                    stored.append(value)
                    continue
                for other in stored:
                    counters.increment(CANDIDATE_PAIRS)
                    similarity = bk_verify(other, value, config, counters, sanitizer)
                    if similarity is not None:
                        _write_self_pair(ctx, other[1], value[1], similarity)
            ctx.observe("stage2.group_records", group_records)
        finally:
            ctx.release_memory(charged)

    return reducer


def make_pk_split_self_reducer(config: JoinConfig) -> Callable:
    """PPJoin+ Kernel over one shard of a split group.

    The index is the *self-mode* index (same prefixes, filters and
    eviction as the unsplit reducer) driven in tagged mode: add copies
    only insert, probe copies only probe.  Because every shard indexes
    the full add sequence and a probe sorts exactly where the record's
    own dual-role copy would, the index state at each probe — eviction
    frontier included — matches the unsplit run's bit for bit.
    """
    batch_size = config.batch_size

    def reducer(route, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters)
        index = make_pk_index(config, mode="self", evict=True, sanitizer=sanitizer)
        if sanitizer is not None:
            values = sanitizer.sorted_values(values, _projection_size)
        group_records = 0
        if batch_size is None:
            charged = 0
            for rel, rid, _n, sig, ranks in values:
                group_records += 1
                if rel == REL_R:
                    index.add(rid, ranks, signature=sig)
                else:
                    for other_rid, similarity in index.probe(rid, ranks, signature=sig):
                        _write_self_pair(ctx, rid, other_rid, similarity)
                delta = index.live_bytes - charged
                if delta >= 0:
                    ctx.reserve_memory(delta, "PK index")
                else:
                    ctx.release_memory(-delta)
                charged = index.live_bytes
        else:
            state = {"charged": 0}

            def meter() -> None:
                delta = index.live_bytes - state["charged"]
                if delta >= 0:
                    ctx.reserve_memory(delta, "PK index")
                else:
                    ctx.release_memory(-delta)
                state["charged"] = index.live_bytes

            buffered: list[tuple] = []

            def flush() -> None:
                if not buffered:
                    return
                block = TokenBatch.from_projections(buffered)
                buffered.clear()
                ctx.counters.increment(STAGE2_BATCHES)

                def emit(row: int, other_rid: int, similarity: float) -> None:
                    _write_self_pair(ctx, block.rids[row], other_rid, similarity)

                index.probe_batch(block, 0, block.count, emit, meter=meter, tagged=True)

            for value in values:
                group_records += 1
                buffered.append(value)
                if len(buffered) >= batch_size:
                    flush()
            flush()
            charged = state["charged"]
        ctx.observe("stage2.group_records", group_records)
        if sanitizer is not None:
            sanitizer.check_index_accounting(index)
        merge_index_filter_stats(ctx, index)
        ctx.release_memory(charged)

    return reducer


# ---------------------------------------------------------------------------
# self-join reducers with Section 5 block processing (BK only)
# ---------------------------------------------------------------------------


def make_bk_self_map_blocks_reducer(config: JoinConfig) -> Callable:
    """Map-based block processing: the mapper interleaved load/stream
    copies; only the currently loaded block is held in memory."""

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        loaded: list[tuple] = []
        charged = 0
        current_step = -1
        try:
            for step, role, rel, rid, n, sig, ranks in values:
                if step != current_step:
                    ctx.release_memory(charged)
                    charged = 0
                    loaded = []
                    current_step = step
                projection = (rel, rid, n, sig, ranks)
                for other in loaded:
                    ctx.counters.increment(CANDIDATE_PAIRS)
                    similarity = bk_verify(other, projection, config, ctx.counters)
                    if similarity is not None:
                        _write_self_pair(ctx, other[1], rid, similarity)
                if role == ROLE_LOAD:
                    charged += ctx.reserve_memory_for(projection, "BK loaded block")
                    loaded.append(projection)
        finally:
            ctx.release_memory(charged)

    return reducer


def make_bk_self_reduce_blocks_reducer(config: JoinConfig) -> Callable:
    """Reduce-based block processing: spill later blocks to local disk
    and re-read them for the remaining steps (Figure 7(b))."""

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        loaded: list[tuple] = []
        charged = 0
        loaded_block = None
        spilled: dict[int, list[tuple]] = {}
        try:
            for block, rel, rid, n, sig, ranks in values:
                projection = (rel, rid, n, sig, ranks)
                if loaded_block is None:
                    loaded_block = block
                if block == loaded_block:
                    for other in loaded:
                        ctx.counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(other, projection, config, ctx.counters)
                        if similarity is not None:
                            _write_self_pair(ctx, other[1], rid, similarity)
                    charged += ctx.reserve_memory_for(projection, "BK loaded block")
                    loaded.append(projection)
                else:
                    for other in loaded:
                        ctx.counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(other, projection, config, ctx.counters)
                        if similarity is not None:
                            _write_self_pair(ctx, other[1], rid, similarity)
                    spilled.setdefault(block, []).append(projection)
                    ctx.counters.increment(
                        SPILL_WRITTEN,
                        projection_spill_bytes(len(ranks), sig is not None),
                    )
        finally:
            ctx.release_memory(charged)

        remaining = sorted(spilled)
        for idx, block in enumerate(remaining):
            loaded = []
            charged = 0
            try:
                for projection in spilled[block]:
                    ctx.counters.increment(
                        SPILL_READ,
                        projection_spill_bytes(
                            len(projection[4]), projection[3] is not None
                        ),
                    )
                    for other in loaded:
                        ctx.counters.increment(CANDIDATE_PAIRS)
                        similarity = bk_verify(other, projection, config, ctx.counters)
                        if similarity is not None:
                            _write_self_pair(ctx, other[1], projection[1], similarity)
                    charged += ctx.reserve_memory_for(projection, "BK loaded block")
                    loaded.append(projection)
                for later in remaining[idx + 1 :]:
                    for projection in spilled[later]:
                        ctx.counters.increment(
                            SPILL_READ,
                            projection_spill_bytes(
                                len(projection[4]), projection[3] is not None
                            ),
                        )
                        for other in loaded:
                            ctx.counters.increment(CANDIDATE_PAIRS)
                            similarity = bk_verify(
                                other, projection, config, ctx.counters
                            )
                            if similarity is not None:
                                _write_self_pair(
                                    ctx, other[1], projection[1], similarity
                                )
            finally:
                ctx.release_memory(charged)

    return reducer


# ---------------------------------------------------------------------------
# job assembly
# ---------------------------------------------------------------------------


def stage2_self_job(
    config: JoinConfig,
    records_file: str,
    token_order_file: str,
    output: str,
    num_reducers: int,
    plan: "Stage2Plan | None" = None,
) -> MapReduceJob:
    """Build the single Stage-2 job for a self-join.

    A split-carrying *plan* switches the job to the extended
    ``(route, shard, length, relation)`` key shape: partitioning goes
    through :func:`shard_partition` (unsplit routes keep their classic
    placement), grouping is on ``(route, shard)``, and split-shard
    groups (``shard >= 0``) dispatch to the split reducers.
    """
    blocks = config.blocks
    if blocks is not None and config.kernel != "bk":
        raise ValueError(
            "Section 5 block processing applies to the BK kernel "
            "(the paper sub-partitions when no further filters help); "
            "use kernel='bk' or blocks=None"
        )
    if config.length_class_width is not None and config.kernel != "bk":
        raise ValueError(
            "length-class secondary routing is a BK enhancement "
            "(the PK kernel already exploits the length filter via its "
            "composite keys); use kernel='bk' or length_class_width=None"
        )
    split_mode = plan is not None and bool(plan.splits)
    if split_mode and (blocks is not None or config.length_class_width is not None):
        raise ValueError(
            "hot-group splitting composes with the plain kernels only; "
            "drop blocks/length_class_width or run without splits"
        )
    map_setup, mapper = make_self_mapper(config, blocks, token_order_file, plan)
    if blocks is None and config.length_class_width is None:
        reducer = (
            make_pk_self_reducer(config)
            if config.kernel == "pk"
            else make_bk_self_reducer(config)
        )
    elif blocks is not None and blocks.strategy != MAP_BASED:
        reducer = make_bk_self_reduce_blocks_reducer(config)
    else:
        # Map-based Section-5 blocks and length-class routing share one
        # reduce shape: values arrive as (step/class, role, projection),
        # load-role records are held (and self-joined), stream-role
        # records verify against the loaded set only.
        reducer = make_bk_self_map_blocks_reducer(config)

    if split_mode:
        split_reducer = (
            make_pk_split_self_reducer(config)
            if config.kernel == "pk"
            else make_bk_split_self_reducer(config)
        )
        plain_reducer = reducer

        def dispatch_reducer(key, values: Iterator, ctx: Context) -> None:
            if key[1] >= 0:
                split_reducer(key, values, ctx)
            else:
                plain_reducer(key, values, ctx)

        return MapReduceJob(
            name=f"stage2-{config.kernel}-self",
            inputs=[records_file],
            output=output,
            mapper=mapper,
            reducer=dispatch_reducer,
            num_reducers=num_reducers,
            partition=lambda key: key[0],
            partitioner=lambda key, n: shard_partition(key[0], key[1], n),
            sort_key=lambda key: key,
            group_key=lambda key: (key[0], key[1]),
            broadcast=[token_order_file],
            map_setup=map_setup,
        )

    return MapReduceJob(
        name=f"stage2-{config.kernel}-self",
        inputs=[records_file],
        output=output,
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        partition=lambda key: key[0],
        sort_key=lambda key: key,
        group_key=lambda key: key[0],
        broadcast=[token_order_file],
        map_setup=map_setup,
    )
