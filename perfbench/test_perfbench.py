"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each run test starts its own Ray session (about 20 s apiece)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

NAMED = {"ingest": {"encode_tok_per_s", "encode_tok_per_cpu_s",
                    "upsert_compact_s", "upsert_compact_cpu_s"},
         "train_read": {"decode_tok_per_s", "decode_tok_per_cpu_s",
                        "fetch_p50_s", "fetch_cpu_p50_s"},
         "pushdown": {"query_p50_s", "query_cpu_p50_s", "query_mix_cpu_s",
                      "query_rows_per_s", "query_rows_per_cpu_s"}}


def run(*args, cwd=None):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        *args], capture_output=True, text=True,
                       timeout=900, cwd=cwd or "/")
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ingest", "train_read", "pushdown"])
def test_tiny_run_prints_every_metric(workload, trace):
    res, detail = run("--workload", workload, "--seed", "3", "--seconds",
                      "1", "--trace", str(trace), "--size", "tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert detail["failed_op_frac"] == 0
    assert set(detail["named_metrics"]) == NAMED[workload]
    for m in detail["named_metrics"].values():
        assert m["unit"] and m["samples"]
    if trace:
        assert detail["span_self_s"] and os.path.isfile(detail["trace_file"])
        assert "trace_overhead" in detail["layer_detail"]
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_flipped_payload_byte_fails_ops():
    res, detail = run("--workload", "train_read", "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--size", "tiny",
                      "--flip-payload-byte")
    assert res["failed"] > 0 and not res["correct"]
    assert detail["failed_op_frac"] > 0
    assert res["metrics"]["ok_op_frac"]["value"] < 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "ingest", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       timeout=180, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_span_self_time_subtracts_children():
    from common import Tracer

    tr = Tracer(enabled=True)
    op = tr.new_op()
    with tr.span("outer", op):
        with tr.span("inner", op):
            pass
    st = tr.self_times()
    assert st["outer"]["calls"] == 1 and st["inner"]["calls"] == 1
    spans = {s["name"]: s for s in tr.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    assert abs(st["outer"]["self_s"] - (st["outer"]["total_s"] - inner)) \
        < 1e-9
    # untraced ops record nothing
    tr.new_op()
    with tr.span("skipped", 2):
        pass
    assert "skipped" not in tr.self_times()
