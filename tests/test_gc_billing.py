"""Cyclic-GC pauses are kept out of measured task CPU.

A collection runs wherever the allocation count happens to trip a
threshold, so its pause is not the work of the task it lands in; task
CPU is billed ``cpu_scale``-fold into simulated time.  These tests run
tasks that spend nearly all their time in explicit full collections
(over a large live heap) and check that the pause shows up in
``TaskStats.gc_seconds`` instead of ``cpu_seconds`` — on the sequential
engine and on the persistent engine's forked pool workers.
"""

import gc
import multiprocessing

import pytest

from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.job import MapReduceJob

from tests.conftest import random_records


def _collecting_mapper(record, ctx):
    gc.collect()
    ctx.emit(record[:4], 1)


def _collecting_reducer(key, values, ctx):
    gc.collect()
    ctx.write((key, sum(values)))


def _cluster(engine: str) -> SimulatedCluster:
    config = ClusterConfig(num_nodes=2)
    dfs = InMemoryDFS(num_nodes=2, block_bytes=1024)
    if engine == "sequential":
        return SimulatedCluster(config, dfs)
    return PersistentParallelCluster(
        config, dfs, workers=2, assume_cores=4, min_tasks_for_pool=2
    )


_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


@pytest.mark.parametrize(
    "engine", ["sequential", pytest.param("pool", marks=_needs_fork)]
)
def test_collections_inside_tasks_are_not_billed(engine):
    # live container objects give every full collection real work (the
    # pool's workers are forked after this, so they inherit the heap)
    ballast = [[i] for i in range(200_000)]
    cluster = _cluster(engine)
    cluster.dfs.write("records", [f"{i:04d}" + "x" * 600 for i in range(4)])
    job = MapReduceJob(
        name="collect", inputs=["records"], output="out",
        mapper=_collecting_mapper, reducer=_collecting_reducer, num_reducers=2,
    )
    try:
        stats = cluster.run_job(job)
    finally:
        if isinstance(cluster, PersistentParallelCluster):
            cluster.close()
    del ballast
    if engine == "pool":
        assert stats.map_executor.mode == "pool"
    assert sorted(cluster.dfs.read_all("out")) == [
        (f"{i:04d}", 1) for i in range(4)
    ]
    tasks = [*stats.map_tasks, *stats.reduce_tasks]
    assert len(stats.map_tasks) >= 2
    for task in tasks:
        if not task.input_records:
            continue  # an empty reduce partition never collected
        assert task.gc_seconds > 0
        # the task did nothing but collect: what is left is the
        # framework's own bookkeeping, well under the pause
        assert task.cpu_seconds < task.gc_seconds


def test_join_report_gauge_sums_task_gc(rng):
    cluster = SimulatedCluster(
        ClusterConfig(num_nodes=2), InMemoryDFS(num_nodes=2, block_bytes=4096)
    )
    cluster.dfs.write("input", random_records(rng, 80))
    report = ssjoin_self(cluster, "input", JoinConfig(threshold=0.5))
    tasks = [
        task
        for stats in report.stages.values()
        for phase in stats.phases
        for task in (*phase.map_tasks, *phase.reduce_tasks)
    ]
    gauges = report.metrics().gauges()
    assert gauges["task.gc_pause_s"] == pytest.approx(sum(t.gc_seconds for t in tasks))
    assert all(t.gc_seconds >= 0 for t in tasks)
