"""Shuffle byte accounting against an independent pair-by-pair recount.

Map tasks size every shuffled pair once, at emit, and the engines only
sum the per-partition totals the tasks return.  These tests recount
from the other end: each reducer writes out every ``(key, value)`` pair
of its reduce input, and the test sizes them itself with
``approx_bytes((key, value))``.  The recount must equal the job's
``shuffle_bytes``, the framework shuffle/map-output byte counters, the
summed ``TaskStats.partition_bytes`` and every bucket of the
``shuffle.partition_bytes`` histogram — on the sequential engine and on
the persistent engine forced onto its pool under both shuffle
transports.

The jobs are built so that a sizing shortcut shows: keys of different
sizes share a partition, one key carries values of different sizes, and
the split mapper emits one value object under several keys.
"""

import multiprocessing

import pytest

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.counters import MAP_OUTPUT_BYTES, SHUFFLE_BYTES, Counters
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import approx_bytes
from repro.obs.metrics import observe_into

NUM_REDUCERS = 5
HIST = "hist.shuffle.partition_bytes."
WORDS = ("a", "bb", "ccc", "dddd", "eeeee", "ab", "abc", "bcd", "cdefgh", "eel")
ROUTES = ("x", "yy", "zzz")


def _records() -> list[str]:
    return [
        " ".join(WORDS[(i * 7 + j) % len(WORDS)] for j in range(1 + i % 6))
        for i in range(300)
    ]


def _word_mapper(record, ctx):
    for word in record.split():
        ctx.emit(word, 1)


def _sum_combiner(key, values, ctx):
    ctx.emit(key, sum(values))


def _split_mapper(record, ctx):
    # one value object fanned out under several keys (the split mapper's
    # add copies), then a differently sized value under the same keys
    words = record.split()
    value = (len(words), tuple(words))
    route = ROUTES[len(words) % len(ROUTES)]
    for shard in range(len(words) % 3 + 1):
        ctx.emit((route, shard), value)
    ctx.emit((route, 0), (len(words),))


def _echo_reducer(key, values, ctx):
    for value in values:
        ctx.write((ctx.task_id, key, value))


def _combine_job() -> MapReduceJob:
    # default hash partitioning on the first letter: words of several
    # lengths land in one partition
    return MapReduceJob(
        name="wordcount", inputs=["records"], output="wordcount-out",
        mapper=_word_mapper, reducer=_echo_reducer, combiner=_sum_combiner,
        num_reducers=NUM_REDUCERS, partition=lambda word: word[0],
    )


def _split_job() -> MapReduceJob:
    return MapReduceJob(
        name="split", inputs=["records"], output="split-out",
        mapper=_split_mapper, reducer=_echo_reducer,
        num_reducers=NUM_REDUCERS,
        partitioner=lambda key, n: (len(key[0]) + key[1]) % n,
    )


def _cluster(engine: str) -> SimulatedCluster:
    config = ClusterConfig(num_nodes=2)
    dfs = InMemoryDFS(num_nodes=2, block_bytes=1024)
    if engine == "sequential":
        return SimulatedCluster(config, dfs)
    transport = engine.split("-")[1]
    return PersistentParallelCluster(
        config, dfs, workers=2, assume_cores=4, min_tasks_for_pool=2,
        transport=transport,
    )


_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
ENGINES = [
    "sequential",
    pytest.param("pool-shm", marks=_needs_fork),
    pytest.param("pool-disk", marks=_needs_fork),
]


@pytest.mark.parametrize("make_job", [_combine_job, _split_job], ids=["combiner", "split"])
@pytest.mark.parametrize("engine", ENGINES)
def test_shuffle_bytes_match_pair_recount(engine, make_job):
    cluster = _cluster(engine)
    job = make_job()
    cluster.dfs.write("records", _records())
    try:
        stats = cluster.run_job(job)
    finally:
        if isinstance(cluster, PersistentParallelCluster):
            cluster.close()
    if engine != "sequential":
        # the pooled spill path really ran, on the requested transport
        assert stats.map_executor.mode == "pool"
        assert stats.reduce_executor.mode == "pool"
        if engine == "pool-shm":
            assert stats.map_executor.shm_bytes > 0
        else:
            assert stats.map_executor.spill_bytes_written > 0

    reduce_input = cluster.dfs.read_all(job.output)
    recount = [0] * NUM_REDUCERS
    unframed = 0
    for partition, key, value in reduce_input:
        recount[partition] += approx_bytes((key, value))
        unframed += approx_bytes(key) + approx_bytes(value)
    assert len(reduce_input) == stats.counters["framework.reduce_input_records"]
    assert sum(1 for n in recount if n) >= 3  # the jobs really spread out

    assert stats.shuffle_bytes == sum(recount)
    assert stats.counters[SHUFFLE_BYTES] == sum(recount)
    assert stats.counters[MAP_OUTPUT_BYTES] == unframed
    summed = [0] * NUM_REDUCERS
    for task in stats.map_tasks:
        for partition, num_bytes in task.partition_bytes.items():
            summed[partition] += num_bytes
    assert summed == recount

    expected = Counters()
    for num_bytes in recount:
        observe_into(expected.increment, "shuffle.partition_bytes", num_bytes)
    histogram = {
        name: count for name, count in stats.counters.items() if name.startswith(HIST)
    }
    assert histogram == expected.as_dict()
