"""One measured join, in a fresh process.

    python3 perfbench/sample.py --workload NAME --inputs DIR --expect DIGEST
        [--trace SPANS.json] [--control]

Set-up (imports, cluster construction, reading the generated input and
writing it into the DFS) is timed from the first line of this file.
The join is timed from the driver call until the sorted joined output
is in hand; the host-speed calibration (``calibrate.py``) runs right
before and right after it.  The last stdout line is one JSON object;
``run.py`` aggregates many of them.
"""

from time import perf_counter, process_time

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def layer_metrics(recorder, report, cluster, num_records: int) -> dict:
    """The traced run's per-layer figures (``BENCHMARK.json`` names)."""
    from tracing import LAYERS

    counters = report.counters()
    total, calls, counts = recorder.total_s, recorder.calls, recorder.counts
    phases = {name: stats.phases for name, stats in report.stages.items()}
    map_tasks = [t for ps in phases.values() for p in ps for t in p.map_tasks]
    reduce_tasks = [t for ps in phases.values() for p in ps for t in p.reduce_tasks]
    s2_reduce = [t.cpu_seconds for p in phases["stage2"] for t in p.reduce_tasks]
    s2_in = sum(t.input_records for p in phases["stage2"] for t in p.map_tasks)
    s2_out = sum(p.map_output_records for p in phases["stage2"])
    candidates = counters.get("stage2.candidate_pairs", 0)
    pairs = counters.get("stage2.pairs_output", 0)
    summary = report.executor_summary()
    workers = getattr(cluster, "workers", 0)
    pool_wall = summary["pool_wall_s"]
    metrics = {
        "plan.s": total["plan"],
        "plan.splits": counters.get("plan.splits", 0),
        "stage1.s": total["stage1"],
        "stage1.records": sum(t.input_records for t in phases["stage1"][0].map_tasks),
        "stage2.s": total["stage2"],
        "stage2.candidates": candidates,
        "stage2.pairs": pairs,
        "stage2.yield": pairs / candidates if candidates else 0.0,
        "stage2.replication": s2_out / s2_in if s2_in else 0.0,
        "stage2.pruned_length": counters.get("stage2.pruned_length", 0),
        "stage2.pruned_bitmap": counters.get("stage2.pruned_bitmap", 0),
        "stage2.pruned_positional": counters.get("stage2.pruned_positional", 0),
        "stage2.pruned_suffix": counters.get("stage2.pruned_suffix", 0),
        "kernel.probe_s": total["kernel.probe"],
        "kernel.add_s": total["kernel.add"],
        "kernel.verify_s": total["kernel.verify"],
        "stage3.s": total["stage3"],
        "stage3.record_pairs": counters.get("stage3.record_pairs_output", 0),
        "tokenize.s": total["tokenize"],
        "tokenize.calls_per_record": calls["tokenize"] / num_records,
        "mr.map_task_s": sum(t.cpu_seconds for t in map_tasks),
        "mr.reduce_task_s": sum(t.cpu_seconds for t in reduce_tasks),
        "mr.stage2_straggler_share": max(s2_reduce) / sum(s2_reduce) if sum(s2_reduce) else 0.0,
        "mr.shuffle_bytes": sum(stats.shuffle_bytes for stats in report.stages.values()),
        "mr.framework_s": total["mr.job"] - total["mr.map_task"] - total["mr.reduce_task"],
        "acct.calls": calls["acct"],
        "acct.s": total["acct"],
        "pool.map_s": total["pool.map"],
        "pool.reduce_s": total["pool.reduce"],
        "pool.utilization": summary["busy_s"] / (workers * pool_wall) if workers and pool_wall else 0.0,
        "pool.pooled_phases": summary["pooled_phases"],
        "pool.inline_phases": summary["inline_phases"],
        "pool.pools_created": summary["pools_created"],
        "pool.bytes_to_workers": summary["bytes_to_workers"],
        "pool.bytes_from_workers": summary["bytes_from_workers"],
        "pool.spill_bytes": summary["spill_bytes_written"],
        "pool.shm_bytes": summary["shm_bytes"],
        "dfs.write_s": total["dfs.write"],
        "dfs.read_s": total["dfs.read"],
        "dfs.records_written": counts["dfs.write"],
        "task.retries": counters.get("task.retries", 0),
        "task.lost": counters.get("task.lost", 0),
        "memory.replans": counters.get("memory.replans", 0),
        "trace.join_s": total["join"],
        "unattributed.s": recorder.self_s["join"],
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = recorder.self_s[layer]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, help="directory run.py wrote the inputs to")
    parser.add_argument("--expect", required=True, help="digest of the oracle's output")
    parser.add_argument("--trace", help="time each layer and write the spans to this file")
    parser.add_argument("--control", action="store_true",
                        help="run the negative-control plan (workloads.CONTROL) instead")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    import repro.join.driver  # noqa: F401  (the public join API)
    import repro.mapreduce.executor  # noqa: F401  (the pool engine)

    cluster = workloads.make_cluster(workload)
    relations = workloads.read_inputs(workload, args.inputs)
    for name, lines in relations.items():
        cluster.dfs.write(name, lines)
    config = workload.join_config(control=args.control)
    setup_s = perf_counter() - _T0

    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    import calibrate  # after set-up, which it is not part of

    calibration0 = calibrate.measure()
    children0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    cpu0 = process_time()
    start = perf_counter()
    with recorder.root("join") if recorder else nullcontext():
        report = workloads.run_join(workload, cluster, config)
        output = sorted(cluster.dfs.read_all(report.output_file))
    join_s = perf_counter() - start
    cpu_self = process_time() - cpu0
    calibration_s = (calibration0 + calibrate.measure()) / 2
    if recorder is not None:
        recorder.unpatch()
    close = getattr(cluster, "close", None)
    if close is not None:
        close()  # reaps the pool workers, so their CPU shows in RUSAGE_CHILDREN
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    triples = workloads.canonical_pairs(workload, output)
    digest = workloads.pairs_digest(triples)
    result = {
        "ok": digest == args.expect,
        "pairs": len(triples),
        "digest": digest,
        "setup_s": setup_s,
        "join_s": join_s,
        "cpu_s": cpu_self + _cpu(children) - children0,
        "calibration_s": calibration_s,
        # run.py adds the process tree's peak, which it polls
        "self_peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "model": {
            "model.sim_total_s": report.total_simulated_s,
            **{f"model.{name}_sim_s": s for name, s in report.stage_times().items()},
        },
    }
    if recorder is not None:
        records = sum(len(lines) for lines in relations.values())
        result["layers"] = layer_metrics(recorder, report, cluster, records)
        recorder.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
