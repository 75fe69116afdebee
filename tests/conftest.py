"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.prefixes import Projection
from repro.core.similarity import SimilarityFunction
from repro.core.tokenizers import WordTokenizer
from repro.join.records import RecordSchema, join_value, make_line, rid_of
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS

#: single-field schema used by most small-record tests
SCHEMA_1 = RecordSchema((1,))
_TOKENIZER = WordTokenizer()


def make_cluster(num_nodes: int = 4, **config_overrides) -> SimulatedCluster:
    """A small, fast test cluster with tiny DFS blocks (more tasks)."""
    defaults = dict(
        num_nodes=num_nodes,
        job_startup_s=0.0,
        task_startup_s=0.0,
        cpu_scale=1.0,
        data_scale=1.0,
    )
    defaults.update(config_overrides)
    config = ClusterConfig(**defaults)
    return SimulatedCluster(config, InMemoryDFS(num_nodes=num_nodes, block_bytes=512))


def random_records(
    rng: random.Random,
    count: int,
    vocab_size: int = 30,
    max_words: int = 10,
    dup_rate: float = 0.4,
    rid_base: int = 0,
) -> list[str]:
    """Random single-attribute records with injected near-duplicates so
    joins have non-trivial answers."""
    vocab = [f"w{i}" for i in range(vocab_size)]
    records: list[str] = []
    for rid in range(rid_base, rid_base + count):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, max_words))]
        if records and rng.random() < dup_rate:
            source = join_value(rng.choice(records), SCHEMA_1).split()
            if source and rng.random() < 0.5:
                source[rng.randrange(len(source))] = rng.choice(vocab)
            words = source or words
        records.append(make_line(rid, [" ".join(words), "payload"]))
    return records


def oracle_projections(records: list[str], schema: RecordSchema = SCHEMA_1) -> list[Projection]:
    """Rank-free projections for the naive oracle (any total order works:
    we sort token strings lexicographically)."""
    return [
        Projection(
            rid_of(line),
            tuple(sorted(set(_TOKENIZER.tokenize(join_value(line, schema))))),
        )
        for line in records
    ]


def pair_keys(pairs) -> list[tuple[int, int]]:
    """Strip similarity values, keeping canonical RID pairs."""
    return sorted({(min(a, b), max(a, b)) for a, b, _s in pairs})


class CountingSim(SimilarityFunction):
    """Delegating similarity that counts a kernel's bound calls:
    ``calls`` per ``(nx, ny)`` for ``overlap_threshold`` and
    ``length_bounds_calls`` per size.  The inner function's own helpers
    call the inner methods, so only the kernel's calls are counted."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = Counter()
        self.length_bounds_calls = Counter()

    def similarity(self, x, y):
        return self.inner.similarity(x, y)

    def overlap_threshold(self, nx, ny, threshold):
        self.calls[(nx, ny)] += 1
        return self.inner.overlap_threshold(nx, ny, threshold)

    def length_bounds(self, n, threshold):
        self.length_bounds_calls[n] += 1
        return self.inner.length_bounds(n, threshold)

    def similarity_from_overlap(self, nx, ny, overlap):
        return self.inner.similarity_from_overlap(nx, ny, overlap)

    def accepts_overlap(self, nx, ny, overlap, threshold):
        return self.inner.accepts_overlap(nx, ny, overlap, threshold)

    def prefix_length(self, n, threshold):
        return self.inner.prefix_length(n, threshold)

    def index_prefix_length(self, n, threshold):
        return self.inner.index_prefix_length(n, threshold)


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Run manifests are on by default in the CLI; point the registry
    at a per-test directory so tests never pollute ``.repro-runs``."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_cluster() -> SimulatedCluster:
    return make_cluster()
