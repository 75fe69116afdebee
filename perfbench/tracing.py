"""Span recorder for the benchmark's traced run.

The benchmark times each layer from outside: it replaces the public
functions at each layer boundary, as the calling module binds them,
with wrappers that open a span around the call.  Nothing under
``src/`` changes.  A span is ``(id, name, start, end, parent id)``.
The join call is the root span.  A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of
all layers plus the root's own self time (``unattributed.s``) add up
to the root's duration.

Hot leaf layers (byte accounting, tokenizing, kernel calls) run up
to hundreds of thousands of times per join, so they add to their layer totals but do
not append span records.  Pool workers fork from the traced process;
an at-fork hook turns the recorder off in them, so the benchmark does
not reach into workers.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: span names of the wrapped layers, in the breakdown's print order
LAYERS = (
    "plan",
    "stage1",
    "stage2",
    "stage3",
    "mr.job",
    "mr.map_task",
    "mr.reduce_task",
    "pool.map",
    "pool.reduce",
    "kernel.probe",
    "kernel.add",
    "kernel.verify",
    "tokenize",
    "acct",
    "dfs.write",
    "dfs.read",
)


class SpanRecorder:
    def __init__(self) -> None:
        self.active = True
        #: open frames: [name, span id, time covered by children]
        self.stack: list[list] = []
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, record: bool) -> list:
        span_id = -1
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, record: bool) -> None:
        self.stack.pop()
        duration = end - start
        name = frame[0]
        self.self_s[name] += duration - frame[2]
        self.total_s[name] += duration
        self.calls[name] += 1
        parent_id = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent_id = self.stack[-1][1]
        if record:
            self.spans.append((frame[1], name, start, end, parent_id))

    @contextmanager
    def root(self, name: str):
        """The root span (the measured join)."""
        frame = self._open(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter(), True)

    def wrap(self, name: str, fn, record: bool = True, count=None):
        """*fn* timed as layer *name* while a root span is open.

        A call made directly inside a span of the same name is not a
        new span (``probe_batch`` calling ``probe``).  *count(result)*
        adds to ``counts[name]``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            if not recorder.active or not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = recorder._open(name, record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame, start, perf_counter(), record)
            if count is not None:
                recorder.counts[name] += count(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, record: bool = True, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, record, count))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Dump the recorded spans as JSON (start/end relative to the
        first span, in seconds)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                [
                    {"id": i, "name": n, "start": s - origin, "end": e - origin, "parent": p}
                    for i, n, s, e, p in self.spans
                ],
                f,
            )


def _stage_of(jobs) -> str:
    names = [job.name for job in jobs]
    if any(n.startswith("stage2-") for n in names):
        return "stage2"
    if any(n in ("brj-fill", "brj-join", "oprj") for n in names):
        return "stage3"
    return "stage1"


def install(recorder: SpanRecorder) -> None:
    """Wrap the public function at each layer boundary, as bound in
    the module that calls it."""
    import repro.join.driver as driver
    import repro.join.stage2 as stage2
    import repro.join.stage2_rs as stage2_rs
    import repro.mapreduce.cluster as cluster
    import repro.mapreduce.executor as executor
    import repro.mapreduce.job as job
    from repro.core.ppjoin import PPJoinIndex
    from repro.core.tokenizers import Tokenizer
    from repro.mapreduce.dfs import InMemoryDFS

    for attr in ("sample_prefix_frequencies", "plan_stage2", "plan_admission"):
        recorder.patch(driver, attr, "plan")

    original_pipeline = driver.run_pipeline
    wrapped = {
        stage: recorder.wrap(stage, original_pipeline)
        for stage in ("stage1", "stage2", "stage3")
    }

    def run_pipeline(cluster_, jobs):
        jobs = list(jobs)
        return wrapped[_stage_of(jobs)](cluster_, jobs)

    recorder._patched.append((driver, "run_pipeline", original_pipeline))
    driver.run_pipeline = run_pipeline

    recorder.patch(cluster.SimulatedCluster, "run_job", "mr.job")
    recorder.patch(executor.PersistentParallelCluster, "run_job", "mr.job")
    for module in (cluster, executor):
        recorder.patch(module, "execute_map_task", "mr.map_task")
        recorder.patch(module, "execute_reduce_task", "mr.reduce_task")
    recorder.patch(executor.PersistentExecutor, "run_map_phase", "pool.map")
    recorder.patch(executor.PersistentExecutor, "run_reduce_phase", "pool.reduce")

    recorder.patch(PPJoinIndex, "probe", "kernel.probe", record=False)
    recorder.patch(PPJoinIndex, "probe_batch", "kernel.probe", record=False)
    recorder.patch(PPJoinIndex, "add", "kernel.add", record=False)
    for module in (stage2, stage2_rs):
        recorder.patch(module, "bk_verify", "kernel.verify", record=False)
        recorder.patch(module, "bk_verify_block", "kernel.verify", record=False)

    recorder.patch(Tokenizer, "tokenize", "tokenize", record=False)
    for module in (cluster, job, executor):
        recorder.patch(module, "approx_bytes", "acct", record=False)

    recorder.patch(
        InMemoryDFS, "write", "dfs.write", count=lambda dfs_file: dfs_file.num_records
    )
    recorder.patch(InMemoryDFS, "read_all", "dfs.read")
