"""Wall-clock benchmark of the three-stage set-similarity join.

    python3 perfbench/run.py --workload self_dblp --seed 42 --seconds 30 --trace 0

Generates the workload's input from ``--seed``, writes it under
``.perfbench/`` and computes the reference output (``oracle.py``)
before any timing.  Then, for ``--seconds``, it runs one join per
fresh process (``sample.py``): set-up, the join through the public
driver API, and a check of the sorted output against the reference.

``--trace 0`` reports the end-to-end metrics: medians over the joins of
``join_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``, the times scaled
to the host's reference speed (``calibrate.py``).  ``--trace 1``
alternates untraced runs with traced ones and reports the per-layer
metrics of the traced run with the median ``join_s``, plus
``trace.overhead_pct`` against the untraced median.  Every metric is
printed by name with its unit; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
what each metric means and which workload it should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
#: a sample that has not finished by then is killed and counts as failed
SAMPLE_TIMEOUT_S = 60
#: runs of each kind made even when --seconds is shorter than they take
MIN_SAMPLES = 3
MIN_TRACED = 2
#: how often the resident memory of a running sample is read
MEMORY_POLL_S = 0.1
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
#: prctl(2) option that re-parents orphaned descendants to this process
PR_SET_CHILD_SUBREAPER = 36


def _load_spec() -> dict:
    with open(os.path.join(HERE, "seeds.json"), encoding="utf-8") as f:
        return json.load(f)


def _tree_kb(root: int) -> int:
    """Resident kB of *root*'s process tree.  Pool workers are forked,
    so they share copy-on-write pages with the root: count the root's
    whole resident set and only the pages private to each descendant."""
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
                todo.extend(int(child) for child in f.read().split())
            if pid == root:
                with open(f"/proc/{pid}/statm", encoding="ascii") as f:
                    total += int(f.read().split()[1]) * PAGE_KB
                continue
            with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as f:
                for line in f:
                    if line.startswith("Private_"):
                        total += int(line.split()[1])
        except (OSError, ValueError):
            continue  # exited while we looked
    return total


class _PeakMemory(threading.Thread):
    """Polls a running sample's process tree for its peak ``_tree_kb``."""

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, _tree_kb(self.root))
            if self.done.wait(MEMORY_POLL_S):
                return


def _end_session(pgid: int) -> None:
    """Kill what is left of a sample's session and wait for it: the
    shared-memory resource trackers of a pool outlive the sample.  This
    process is a child subreaper, so they are re-parented to it when the
    sample exits, and ``waitpid`` sees each of them end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_sample(args: list[str], hash_seed: int = 0) -> tuple[dict | None, float]:
    """One ``sample.py`` process; returns (its result or None, wall s).

    String hashing decides the order of set iteration in the join, and
    so some of its work: each sample gets ``PYTHONHASHSEED=hash_seed``,
    and a run gives its n-th sample the seed n, so runs compare alike."""
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sample.py"), *args],
        stdout=subprocess.PIPE, text=True, start_new_session=True, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
    )
    memory = _PeakMemory(proc.pid)
    memory.start()
    try:
        stdout, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: sample killed after {SAMPLE_TIMEOUT_S}s", file=sys.stderr)
        return None, perf_counter() - start
    finally:
        memory.done.set()
        memory.join()
        _end_session(proc.pid)
    wall = perf_counter() - start
    if proc.returncode != 0 or not stdout.strip():
        print(f"perfbench: sample exited {proc.returncode}", file=sys.stderr)
        return None, wall
    result = json.loads(stdout.strip().splitlines()[-1])
    # the sample's own exact peak, in case it fell between two polls
    result["peak_rss_mb"] = max(memory.peak_kb, result["self_peak_kb"]) / 1024.0
    return result, wall


def _print_breakdown(layers: dict) -> None:
    from tracing import LAYERS

    join_s = layers["trace.join_s"]
    print(f"traced join_s {join_s:.4f} s, self time by layer:")
    for layer in LAYERS:
        value = layers[f"self.{layer}_s"]
        print(f"  {layer:<16} {value:9.4f} s  {100 * value / join_s:5.1f}%")
    rest = layers["unattributed.s"]
    print(f"  {'unattributed':<16} {rest:9.4f} s  {100 * rest / join_s:5.1f}%")
    total = rest + sum(layers[f"self.{layer}_s"] for layer in LAYERS)
    print(f"  {'sum':<16} {total:9.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    start = perf_counter()
    relations = workloads.generate(workload, args.seed)
    input_digest = workloads.digest(relations)
    recorded = _load_spec()["input_sha256"][workload.name].get(str(args.seed))
    inputs_match = recorded in (None, input_digest)
    if not inputs_match:
        print(f"perfbench: input digest {input_digest} differs from the "
              f"recorded {recorded} for seed {args.seed}", file=sys.stderr)
    rundir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    workloads.write_inputs(relations, rundir)
    reference = oracle.reference_pairs(relations, workload.join_config())
    expect = workloads.pairs_digest(reference)
    records = sum(len(lines) for lines in relations.values())
    print(f"{workload.name} seed {args.seed}: {records} records, input sha256 "
          f"{input_digest[:16]}, {len(reference)} reference pairs "
          f"({perf_counter() - start:.1f}s to generate and join by oracle)")
    del relations, reference

    base = ["--workload", workload.name, "--inputs", rundir, "--expect", expect]
    plain: list[dict] = []
    traced: list[tuple[dict, str]] = []
    walls: list[float] = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    try:
        while True:
            want_traced = args.trace and len(traced) < len(plain)
            enough = len(plain) >= MIN_SAMPLES and (
                not args.trace or len(traced) >= MIN_TRACED
            )
            if enough and perf_counter() + statistics.median(walls) > deadline:
                break
            sample_args = list(base)
            spans = os.path.join(rundir, f"spans-{attempted}.json")
            if want_traced:
                sample_args += ["--trace", spans]
            result, wall = run_sample(sample_args, hash_seed=attempted)
            attempted += 1
            walls.append(wall)
            if result is None or not result["ok"]:
                failed += 1
                if result is not None:
                    print(f"perfbench: output differs from the reference "
                          f"({result['pairs']} pairs, sha256 {result['digest'][:16]})",
                          file=sys.stderr)
                if failed > attempted // 2:
                    break
            elif want_traced:
                traced.append((result, spans))
            else:
                plain.append(result)
        if not plain or (args.trace and not traced):
            print("perfbench: no successful run", file=sys.stderr)
            return 1

        join_median = statistics.median(r["join_s"] for r in plain)
        calibration = statistics.median(r["calibration_s"] for r in plain)
        scaled = [_at_reference_speed(r) for r in plain]
        joins = sorted(r["join_s"] for r in scaled)
        print(f"join_s {statistics.median(joins):.4f} s at reference host speed "
              f"(median of {len(joins)} joins; min {joins[0]:.4f}, max {joins[-1]:.4f}); "
              f"wall {join_median:.4f} s; calibration {calibration:.4f} s against "
              f"{calibrate.REFERENCE_S} s; model.sim_total_s "
              f"{statistics.median(r['model']['model.sim_total_s'] for r in plain):.1f} s "
              f"(simulated, not gated)")
        if args.trace:
            traced.sort(key=lambda item: item[0]["join_s"])
            chosen, spans = traced[(len(traced) - 1) // 2]
            metrics = dict(chosen["layers"])
            for name in chosen["model"]:
                metrics[name] = statistics.median(r["model"][name] for r in plain)
            metrics["trace.overhead_pct"] = 100.0 * (
                metrics["trace.join_s"] - join_median
            ) / join_median
            metrics["failed_share"] = failed / attempted
            metrics["wall.join_s"] = join_median
            metrics["host.calibration_s"] = calibration
            spec = _units("per_layer")
            metrics = {name: metrics[name] for name in spec}
            os.makedirs(WORK, exist_ok=True)
            shutil.copyfile(spans, os.path.join(WORK, f"spans-{workload.name}-{args.seed}.json"))
            _print_breakdown(metrics)
        else:
            spec = _units("end_to_end")
            metrics = {name: statistics.median(r[name] for r in scaled) for name in spec}
        for name, value in metrics.items():
            print(f"{name} {value} {spec[name]}")
        print(json.dumps({
            "correct": failed == 0 and inputs_match,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": spec[name]} for name, value in metrics.items()
            },
        }))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _at_reference_speed(result: dict) -> dict:
    """A sample's end-to-end figures, its times scaled by the host speed
    its calibration measured (calibrate.py)."""
    speed = calibrate.REFERENCE_S / result["calibration_s"]
    return {
        "join_s": result["join_s"] * speed,
        "cpu_s": result["cpu_s"] * speed,
        "setup_s": result["setup_s"] * speed,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's *kind* list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
