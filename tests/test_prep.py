"""End-to-end tests for the training-data prep pipeline
(tokrle.pipelines.prep + the `prep` CLI path)."""
from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_training_examples_invariants(ray_session):
    from tokrle.pipelines.prep import training_examples

    ex = training_examples(f"{SF}/documents.parquet", seq_len=128,
                           eos=3).to_pandas()
    assert len(ex) > 0
    flat = np.concatenate([np.asarray(t) for t in ex["tokens"]])
    # every doc contributes exactly one EOS; pads are 0; real tokens are
    # ascii(first)*32+len >= 32, so the three classes are disjoint
    n_eos = int((flat == 3).sum())
    assert n_eos > 0
    assert ((flat == 0) | (flat == 3) | (flat >= 32)).all()
    # all examples are exactly seq_len (last one per key padded)
    assert (ex["n_tok"] == 128).all()
    # decontam dropped the eval split: every doc in the clean set has
    # doc_id & 15 != 0, so eos count <= total quality-passing train docs
    no_decontam = training_examples(f"{SF}/documents.parquet",
                                    seq_len=128, eos=3,
                                    eval_mask=None).to_pandas()
    flat2 = np.concatenate([np.asarray(t) for t in no_decontam["tokens"]])
    assert int((flat2 == 3).sum()) >= n_eos


def test_prep_encode_roundtrip(ray_session, tmp_path):
    from tokrle.pipelines.encode import decode_tokens, encode_tokens, \
        roundtrip_check
    from tokrle.pipelines.prep import training_examples

    ex = training_examples(f"{SF}/documents.parquet", seq_len=256, eos=3)
    enc = encode_tokens(ex, by_source=True, batch_size=4096)
    chk = roundtrip_check(
        training_examples(f"{SF}/documents.parquet", seq_len=256, eos=3),
        decode_tokens(enc))
    assert chk["source"] == chk["decoded"], chk


def test_prep_cli_stage_resume_requires_sentinel(tmp_path):
    """A stage dir without the _SUCCESS sentinel (e.g. a run killed mid
    write_parquet) must be regenerated, not silently reused (r4 advice:
    partial-stage resume produced wrong output with no error)."""
    import json
    import os
    import subprocess
    import sys

    stage = tmp_path / "stage"
    out = tmp_path / "enc"

    def run_prep():
        proc = subprocess.run(
            [sys.executable, "-m", "tokrle.cli", "prep",
             "--in-path", f"{SF}/documents.parquet",
             "--out-dir", str(out), "--stage-dir", str(stage),
             "--seq-len", "128", "--num-cpus", "4"],
            capture_output=True, text=True, cwd="/root/repo",
            env={**os.environ, "RAY_ADDRESS": "local"})
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    first = run_prep()
    assert (stage / "_SUCCESS").is_file()
    full_tokens = first["n_tokens"]
    assert full_tokens > 0

    # simulate a mid-write kill: keep ONE parquet file, drop the rest
    # and the sentinel
    (stage / "_SUCCESS").unlink()
    parquets = sorted(p for p in stage.iterdir()
                      if p.name.endswith(".parquet"))
    for p in parquets[1:]:
        p.unlink()
    import shutil

    shutil.rmtree(out)
    second = run_prep()
    # resume regenerated the full stage: token count matches, sentinel
    # restored
    assert second["n_tokens"] == full_tokens
    assert (stage / "_SUCCESS").is_file()


def test_prep_cli_sentinel_invalidates_on_param_change(tmp_path):
    """The _SUCCESS sentinel records the stage-shaping parameters: a
    rerun with a different --seq-len must regenerate the stage, not
    reuse the old packing."""
    import json
    import os
    import shutil
    import subprocess
    import sys

    stage = tmp_path / "stage"
    out = tmp_path / "enc"

    def run_prep(seq_len):
        proc = subprocess.run(
            [sys.executable, "-m", "tokrle.cli", "prep",
             "--in-path", f"{SF}/documents.parquet",
             "--out-dir", str(out), "--stage-dir", str(stage),
             "--seq-len", str(seq_len), "--num-cpus", "4"],
            capture_output=True, text=True, cwd="/root/repo",
            env={**os.environ, "RAY_ADDRESS": "local"})
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    import pyarrow.parquet as pq

    run_prep(128)
    n128 = pq.read_table(stage, columns=["n_tok"])
    shutil.rmtree(out)
    run_prep(64)
    n64 = pq.read_table(stage, columns=["n_tok"])
    # regenerated: every packed example now has the new length
    assert max(x.as_py() for x in n64.column("n_tok")) <= 64
    assert max(x.as_py() for x in n128.column("n_tok")) > 64
