"""The benchmark's own tests: oracle, trace accounting, controls, seeds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.naive import naive_rs_join, naive_self_join  # noqa: E402


def _bound(name: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == name)


def _prepared(tmp_path, name: str, seed: int = 42, limit: int | None = None):
    workload = workloads.WORKLOADS[name]
    relations = workloads.generate(workload, seed)
    if limit is not None:
        relations = {rel: lines[:limit] for rel, lines in relations.items()}
    directory = str(tmp_path / name)
    workloads.write_inputs(relations, directory)
    expect = workloads.pairs_digest(oracle.reference_pairs(relations, workload.join_config()))
    return ["--workload", name, "--inputs", directory, "--expect", expect]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_matches_naive(name):
    workload = workloads.WORKLOADS[name]
    config = workload.join_config()
    relations = {
        rel: lines[:400] for rel, lines in workloads.generate(workload, 42).items()
    }
    if workload.kind == "self":
        projections = oracle.naive_projections(relations["records"], config)
        expected = naive_self_join(projections, config.sim, config.threshold)
    else:
        expected = naive_rs_join(
            oracle.naive_projections(relations["r"], config),
            oracle.naive_projections(relations["s"], config),
            config.sim, config.threshold,
        )
    assert expected, "the cut must have answers"
    assert oracle.reference_pairs(relations, config) == expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_self_times_add_up(tmp_path, name):
    spans = str(tmp_path / "spans.json")
    result, _ = run.run_sample(_prepared(tmp_path, name, limit=1200) + ["--trace", spans])
    assert result is not None and result["ok"]
    if workloads.WORKLOADS[name].engine == "pool":
        # the polled tree peak counts the workers' private pages too
        assert result["peak_rss_mb"] * 1024 > result["self_peak_kb"]
    layers = result["layers"]
    total = layers["unattributed.s"] + sum(
        value for key, value in layers.items() if key.startswith("self.")
    )
    assert total == pytest.approx(layers["trace.join_s"], rel=1e-9)
    assert layers["unattributed.s"] < 0.05 * layers["trace.join_s"]
    assert layers["task.retries"] == layers["task.lost"] == layers["memory.replans"] == 0
    with open(spans, encoding="utf-8") as f:
        recorded = json.load(f)
    roots = [s for s in recorded if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["join"]
    assert {"stage1", "stage2", "stage3", "mr.job"} <= {s["name"] for s in recorded}


def test_control_slows_join_beyond_bound(tmp_path):
    """The control gives the same output with a median join_s (at
    reference host speed) beyond the bound.  The plans alternate which
    runs first, so slow drift of the host hits both alike."""
    args = _prepared(tmp_path, "self_dblp")
    plain, controlled = [], []
    for i in range(3):
        order = [(plain, []), (controlled, ["--control"])]
        for sink, extra in order if i % 2 == 0 else order[::-1]:
            result, _ = run.run_sample(args + extra, hash_seed=i)
            assert result is not None and result["ok"], "output differs from the reference"
            sink.append(result)
    assert {r["digest"] for r in plain} == {r["digest"] for r in controlled}
    plain_s = statistics.median(run._at_reference_speed(r)["join_s"] for r in plain)
    control_s = statistics.median(run._at_reference_speed(r)["join_s"] for r in controlled)
    print(f"self_dblp join_s plain {plain_s:.3f}s, string-tokens {control_s:.3f}s")
    assert control_s > plain_s * (1 + _bound("join_s"))


def test_recorded_seed_inputs():
    with open(os.path.join(HERE, "seeds.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for name, workload in workloads.WORKLOADS.items():
        for seed in (spec["default_seed"], spec["held_out_seed"]):
            relations = workloads.generate(workload, seed)
            assert workloads.digest(relations) == spec["input_sha256"][name][str(seed)]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "self_dblp",
         "--seed", "42", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
