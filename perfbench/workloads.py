"""Workload recipes of the wall-clock benchmark.

Each workload is generated from one seed, written to disk before any
timing starts, and joined through the public driver API on a fresh
cluster.  With the default seed 42 the inputs are exactly the
``repro.bench.workloads`` corpora (DBLP seed 42, CITESEERX seed 43,
SKEWED seed 44); any other seed shifts all three generator seeds by
the same amount.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

#: generator seed offsets, matching repro.bench.workloads (42, 43, 44)
_DBLP, _CITESEERX, _SKEWED = 0, 1, 2
#: records of one base copy, as in repro.bench.workloads
BASE_RECORDS = 1200
NUM_NODES = 10
BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    #: "self" joins one relation, "rs" joins R with S
    kind: str
    #: dataset-increase factor applied to each base copy
    factor: int
    #: JoinConfig keyword arguments (threshold is always 0.8, Jaccard)
    options: dict
    #: "sequential" (SimulatedCluster) or "pool" (PersistentParallelCluster)
    engine: str

    def join_config(self, control: bool = False):
        from repro.join.config import JoinConfig

        options = {**self.options, **(CONTROL if control else {})}
        return JoinConfig(similarity="jaccard", threshold=0.8, **options)


#: the negative control: a plan with output identical to the workload's
#: own, which test_perfbench.py uses to show what the benchmark detects.
#: Raw string tokens under the lexicographic order instead of frequency
#: ranks, the documented opt-out, give a less selective prefix.
CONTROL = {"token_encoding": "string"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "self_dblp", "self", 10,
            {"stage1": "bto", "kernel": "pk", "stage3": "brj", "routing": "individual"},
            "sequential",
        ),
        Workload(
            "rs_pool", "rs", 6,
            {"stage1": "bto", "kernel": "bk", "stage3": "oprj"},
            "pool",
        ),
        Workload(
            "skew_adaptive", "self", 2,
            {"stage1": "opto", "kernel": "pk", "stage3": "brj", "adaptive": True},
            "sequential",
        ),
    )
}


def generate(workload: Workload, seed: int) -> dict[str, list[str]]:
    """The workload's input relations, keyed by DFS file name."""
    from repro.data.increase import increase_dataset, token_shift_order
    from repro.data.synthetic import (
        generate_citeseerx,
        generate_dblp,
        generate_skewed,
    )

    if workload.name == "skew_adaptive":
        base = generate_skewed(BASE_RECORDS, seed=seed + _SKEWED)
        return {"records": increase_dataset(base, workload.factor)}
    dblp = generate_dblp(BASE_RECORDS, seed=seed + _DBLP)
    if workload.kind == "self":
        return {"records": increase_dataset(dblp, workload.factor)}
    citeseerx = generate_citeseerx(
        BASE_RECORDS, seed=seed + _CITESEERX, rid_base=10_000_000,
        shared_with=dblp,
    )
    # both relations shift along one order, so shared publications stay
    # similar in every copy (as repro.bench.workloads.rs_workload does)
    order = token_shift_order(dblp + citeseerx)
    return {
        "r": increase_dataset(dblp, workload.factor, order=order),
        "s": increase_dataset(citeseerx, workload.factor, order=order),
    }


def digest(relations: dict[str, list[str]]) -> str:
    """sha256 over the relations in file-name order, one line each."""
    h = hashlib.sha256()
    for name in sorted(relations):
        h.update(f"{name}\n".encode())
        for line in relations[name]:
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def write_inputs(relations: dict[str, list[str]], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, lines in relations.items():
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)


def read_inputs(workload: Workload, directory: str) -> dict[str, list[str]]:
    names = ("records",) if workload.kind == "self" else ("r", "s")
    relations = {}
    for name in names:
        with open(os.path.join(directory, f"{name}.txt"), encoding="utf-8") as f:
            relations[name] = f.read().splitlines()
    return relations


def make_cluster(workload: Workload):
    """A fresh cluster + in-memory DFS for one measured run."""
    from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
    from repro.mapreduce.dfs import InMemoryDFS

    config = ClusterConfig(num_nodes=NUM_NODES)
    dfs = InMemoryDFS(num_nodes=NUM_NODES, block_bytes=BLOCK_BYTES)
    if workload.engine == "pool":
        from repro.mapreduce.executor import PersistentParallelCluster

        workers = min(2, len(os.sched_getaffinity(0)))
        return PersistentParallelCluster(config, dfs, workers=workers)
    return SimulatedCluster(config, dfs)


def run_join(workload: Workload, cluster, config):
    """Call the public join API on the DFS files ``read_inputs`` names."""
    from repro.join.driver import ssjoin_rs, ssjoin_self

    if workload.kind == "self":
        return ssjoin_self(cluster, "records", config)
    return ssjoin_rs(cluster, "r", "s", config)


def canonical_pairs(workload: Workload, output: list) -> list[tuple[int, int, float]]:
    """Joined ``(line1, line2, similarity)`` records as sorted RID
    triples, in the oracle's shape."""
    from repro.join.records import rid_of

    triples = []
    for line1, line2, similarity in output:
        a, b = rid_of(line1), rid_of(line2)
        if workload.kind == "self" and a > b:
            a, b = b, a
        triples.append((a, b, similarity))
    triples.sort()
    return triples


def pairs_digest(triples: list[tuple[int, int, float]]) -> str:
    return hashlib.sha256(
        "\n".join(f"{a} {b} {s!r}" for a, b, s in triples).encode()
    ).hexdigest()
