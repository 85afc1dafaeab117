"""End-to-end Ray Data pipeline tests: tokenize -> encode -> write -> read
-> decode -> per-row bit-identity, plus resume semantics."""

import os

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def token_ds(ray_session):
    from tokrle.sources.tokens import documents_to_tokens

    return documents_to_tokens(SF)


def _tokens_by_doc(df):
    return {d: np.asarray(t) for d, t in zip(df["doc_id"], df["tokens"])}


def test_tokenizer_matches_duckdb(ray_session, token_ds):
    import duckdb

    df = token_ds.to_pandas()
    con = duckdb.connect()
    oracle = con.sql(f"""
        select cast(doc_id as varchar) doc_id,
               list(ascii(w) * 32 + length(w) order by i) tokens
        from (select doc_id, unnest(string_split(text, ' ')) w,
                     generate_subscripts(string_split(text, ' '), 1) i
              from '{SF}/documents.parquet')
        group by doc_id
    """).df()
    got = _tokens_by_doc(df)
    want = _tokens_by_doc(oracle)
    assert set(got) == set(want)
    for d in want:
        assert np.array_equal(got[d], want[d]), d


def test_encode_decode_roundtrip_bit_identical(ray_session, token_ds):
    from tokrle.pipelines.encode import decode_tokens, encode_tokens

    enc = encode_tokens(token_ds, batch_size=64)
    dec = decode_tokens(enc).to_pandas()
    src = token_ds.to_pandas()
    got = _tokens_by_doc(dec)
    want = _tokens_by_doc(src)
    assert set(got) == set(want)
    for d in want:
        assert got[d].dtype == np.int32
        assert np.array_equal(got[d], want[d]), d


def test_encoded_chunks_have_lineage_and_compress(ray_session, token_ds):
    from tokrle.pipelines.encode import encode_tokens

    enc = encode_tokens(token_ds, batch_size=128).to_pandas()
    assert (enc["encoded_bytes"] <= enc["raw_bytes"]).all()
    assert enc["codec"].isin(["plain", "rle", "dict", "bitpack", "for", "fsst"]).all()
    assert enc["chunk_id"].is_unique
    # total compression must beat raw int32
    assert enc["encoded_bytes"].sum() < 0.8 * enc["raw_bytes"].sum()
    # row offsets cover every doc
    assert enc["n_docs"].sum() == 500


def test_roundtrip_check_streaming(ray_session, token_ds):
    from tokrle.pipelines.encode import (decode_tokens, encode_tokens,
                                         roundtrip_check)

    dec = decode_tokens(encode_tokens(token_ds, batch_size=64))
    res = roundtrip_check(token_ds, dec)
    assert res["source"] == res["decoded"]
    assert res["source"]["n_docs"] == 500


@pytest.mark.parametrize("by_source", [False, True])
def test_corpus_encode_resume(ray_session, tmp_path, by_source):
    """Killed-run resume: second invocation skips completed units, with
    and without per-batch source grouping."""
    import pyarrow.parquet as pq

    from tokrle.pipelines.corpus import encode_corpus
    from tokrle.sources.tokens import documents_to_tokens

    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    df = documents_to_tokens(SF).to_pandas()
    pq.write_table(pa.Table.from_pandas(df.iloc[:250]), f"{in_dir}/a.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[250:]), f"{in_dir}/b.parquet")

    r1 = encode_corpus(in_dir, out_dir, batch_size=64, group_files=1,
                       by_source=by_source)
    assert r1["units_total"] == 2 and r1["units_skipped"] == 0
    assert r1["n_tokens"] == int(df["n_tok"].sum())
    r2 = encode_corpus(in_dir, out_dir, batch_size=64, group_files=1,
                       by_source=by_source)
    assert r2["units_skipped"] == 2 and r2["n_tokens"] == 0
    # decoded output matches source bit-identically
    import ray.data

    from tokrle.pipelines.encode import decode_tokens

    enc = ray.data.read_parquet(out_dir)
    dec = decode_tokens(enc).to_pandas()
    got = _tokens_by_doc(dec)
    want = _tokens_by_doc(df)
    assert set(got) == set(want)
    for d in want:
        assert np.array_equal(got[d], want[d])


def test_upsert_corpus_replaces_and_appends(ray_session, tmp_path):
    """Doc-level upsert: updated docs replaced, new docs appended,
    untouched groups never rewritten (their files keep byte-identical
    content), and re-running the same upsert is idempotent."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.corpus import encode_corpus, upsert_corpus
    from tokrle.pipelines.encode import decode_tokens
    from tokrle.sources.tokens import documents_to_tokens

    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    df = documents_to_tokens(SF).to_pandas()
    pq.write_table(pa.Table.from_pandas(df.iloc[:250]), f"{in_dir}/a.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[250:]), f"{in_dir}/b.parquet")
    encode_corpus(in_dir, out_dir, batch_size=64, group_files=1)

    # delta: replace two docs from the FIRST group only + insert one new
    upd_ids = [int(df.iloc[0]["doc_id"]), int(df.iloc[1]["doc_id"])]
    delta = pa.table({
        "doc_id": pa.array(upd_ids + [999_999], type=pa.int64()),
        "tokens": pa.array([[7, 7, 7], [8], [1, 2, 3]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([3, 1, 3], type=pa.int32()),
        "source": pa.array(["sX", "sX", "sY"]),
    })
    untouched = sorted(p for p in _glob.glob(f"{out_dir}/group=*/*.parquet"))
    before = {}
    for p in untouched:
        with open(p, "rb") as f:
            before[p] = f.read()

    run = upsert_corpus(out_dir, ray.data.from_arrow(delta), batch_size=64)
    assert run["docs_replaced"] == 2
    assert run["docs_added"] == 3
    assert run["groups_rewritten"] == 1

    dec = decode_tokens(ray.data.read_parquet(out_dir)).to_pandas()
    got = _tokens_by_doc(dec)
    want = _tokens_by_doc(df)
    want[str(upd_ids[0])] = np.array([7, 7, 7])
    want[str(upd_ids[1])] = np.array([8])
    want["999999"] = np.array([1, 2, 3])
    assert set(got) == set(want)
    for d in want:
        assert np.array_equal(got[d], want[d]), d
    # the group NOT holding the updated docs was not rewritten
    n_same = sum(1 for p, blob in before.items()
                 if os.path.exists(p) and open(p, "rb").read() == blob)
    assert n_same >= 1

    # idempotent re-run: same delta -> same final corpus
    run2 = upsert_corpus(out_dir, ray.data.from_arrow(delta), batch_size=64)
    assert run2["docs_replaced"] == 3  # the delta's own group now holds them
    dec2 = decode_tokens(ray.data.read_parquet(out_dir)).to_pandas()
    got2 = _tokens_by_doc(dec2)
    assert set(got2) == set(want)
    for d in want:
        assert np.array_equal(got2[d], want[d]), d


@pytest.mark.parametrize("executor", ["ray_job", "caller"])
def test_encode_corpus_sigkill_mid_run_resumes(tmp_path, executor):
    """Kill-mid-run resume at real crash granularity (r3 verdict item 6):
    a subprocess SIGKILLs itself (uncatchable — a true crash) right after
    encode_corpus publishes its 2nd group; the restart must encode ONLY
    the remaining groups (completed groups' files untouched
    byte-for-byte) and the final corpus must be chunk-payload-identical
    to an uninterrupted run.  ``ray_job`` sets the in-caller ceiling to
    0 so the file tasks run as a Ray Data job; ``caller`` keeps the
    default, under which this small corpus encodes in the calling
    process.  Runs its own Ray sessions in subprocesses, so it does not
    take the shared ray_session fixture."""
    import glob as _glob
    import subprocess
    import sys
    import textwrap

    import pyarrow.parquet as pq

    from tokrle.state.manifest import Manifest

    in_dir = str(tmp_path / "in")
    out_crash = str(tmp_path / "crash")
    out_ref = str(tmp_path / "ref")
    os.makedirs(in_dir)
    full = pq.read_table(f"{SF}/documents.parquet")
    script = textwrap.dedent("""
        import os, signal, sys
        sys.path.insert(0, {repo!r})
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from tokrle.pipelines import encode
        from tokrle.pipelines.corpus import encode_corpus
        from tokrle.state.manifest import Manifest

        if {ray_job!r}:
            encode._LOCAL_DECODE_BYTES = 0
        kill_after = int(os.environ.get("KILL_AFTER_GROUPS", "0"))
        if kill_after:
            mark_done, published = Manifest.mark_done, []

            def mark_done_then_die(self, unit, metrics):
                mark_done(self, unit, metrics)
                published.append(unit)
                if len(published) == kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)

            Manifest.mark_done = mark_done_then_die
        encode_corpus({indir!r}, {out!r}, batch_size=64, group_files=1)
        ray.shutdown()
    """)

    # deterministic 6-file token table written WITHOUT Ray (the
    # subprocesses own their sessions)
    from tokrle.sources.tokens import tokenize_batch

    tok = tokenize_batch(full)
    step = -(-len(tok) // 6)
    for i in range(6):
        pq.write_table(tok.slice(i * step, step),
                       f"{in_dir}/part{i}.parquet")

    env = dict(os.environ, KILL_AFTER_GROUPS="2")
    proc = subprocess.run(
        [sys.executable, "-c",
         script.format(repo=REPO, out=out_crash, indir=in_dir,
                      ray_job=executor == "ray_job")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == -9, proc.stderr[-2000:]  # SIGKILL landed
    done_before = Manifest(out_crash).completed_units()
    assert len(done_before) == 2     # killed right after the 2nd publish

    completed_files = {}
    for gid in done_before:
        for p in _glob.glob(f"{out_crash}/group={gid}/*.parquet"):
            with open(p, "rb") as f:
                completed_files[p] = f.read()

    # restart (fresh process, no kill): must skip the finished groups
    proc2 = subprocess.run(
        [sys.executable, "-c",
         script.format(repo=REPO, out=out_crash, indir=in_dir,
                      ray_job=executor == "ray_job")],
        env=dict(os.environ, KILL_AFTER_GROUPS="0"),
        capture_output=True, text=True, timeout=600)
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    assert len(Manifest(out_crash).completed_units()) == 6
    # finished groups were skipped, not rewritten: byte-identical files
    for p, blob in completed_files.items():
        with open(p, "rb") as f:
            assert f.read() == blob, p

    # uninterrupted reference run -> chunk-payload-identical corpus
    proc3 = subprocess.run(
        [sys.executable, "-c",
         script.format(repo=REPO, out=out_ref, indir=in_dir,
                      ray_job=executor == "ray_job")],
        env=dict(os.environ, KILL_AFTER_GROUPS="0"),
        capture_output=True, text=True, timeout=600)
    assert proc3.returncode == 0, proc3.stderr[-2000:]

    def chunks(d):
        import pandas as pd

        parts = [pq.read_table(p).to_pandas() for p in
                 sorted(_glob.glob(f"{d}/group=*/*.parquet"))]
        df = pd.concat(parts, ignore_index=True)
        df["payload"] = df["payload"].map(bytes)
        return df.sort_values("chunk_id").reset_index(drop=True)[
            ["chunk_id", "codec", "payload", "n_tokens"]]

    a, b = chunks(out_crash), chunks(out_ref)
    assert a.equals(b)


def test_upsert_crash_states_recoverable(ray_session, tmp_path):
    """Every interruption point of the upsert group swap (rename old
    ASIDE -> publish new -> GC old) leaves a fully readable corpus:
    readers (live_groups/read_corpus) see exactly one complete copy of
    the group, and recover_groups converges the leftovers (r3 advisor:
    the old rmtree-then-rename swap lost the group on a crash between
    the two)."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.corpus import (encode_corpus, live_groups,
                                         read_corpus, recover_groups)
    from tokrle.pipelines.encode import decode_tokens
    from tokrle.sources.tokens import documents_to_tokens

    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    df = documents_to_tokens(SF).to_pandas()
    pq.write_table(pa.Table.from_pandas(df.iloc[:250]), f"{in_dir}/a.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[250:]), f"{in_dir}/b.parquet")
    encode_corpus(in_dir, out_dir, batch_size=64, group_files=1)
    all_docs = set(df["doc_id"].astype(str))
    g = sorted(live_groups(out_dir))[0]

    # crash state A: old renamed aside, replacement still in .tmp —
    # the .old dir is the ONLY complete copy and must serve reads
    os.rename(g, g + ".old")
    shutil.copytree(g + ".old", g + ".tmp")
    assert g + ".old" in live_groups(out_dir)
    assert not any(p.endswith(".tmp") for p in live_groups(out_dir))
    dec = decode_tokens(read_corpus(out_dir)).to_pandas()
    assert set(dec["doc_id"].astype(str)) == all_docs  # nothing lost
    stats = recover_groups(out_dir)
    assert stats == {"restored": 1, "gc_old": 0, "gc_tmp": 1}
    assert os.path.isdir(g) and not os.path.exists(g + ".old") \
        and not os.path.exists(g + ".tmp")

    # crash state B: new group published, old '.old' not yet GC'd —
    # readers must see the new copy exactly once
    shutil.copytree(g, g + ".old")
    assert live_groups(out_dir).count(g) == 1
    assert g + ".old" not in live_groups(out_dir)
    dec = decode_tokens(read_corpus(out_dir)).to_pandas()
    assert set(dec["doc_id"].astype(str)) == all_docs  # no duplicates
    assert len(dec) == len(df)
    stats = recover_groups(out_dir)
    assert stats == {"restored": 0, "gc_old": 1, "gc_tmp": 0}
    assert os.path.isdir(g) and not os.path.exists(g + ".old")


def test_compact_corpus_merges_small_groups(ray_session, tmp_path):
    """LSM compaction: many tiny groups (incl. an upsert delta) fold into
    consolidated groups behind an atomic live-group pointer; content is
    bit-identical before/after; member dirs are garbage-collected;
    re-running is a no-op; a later upsert keeps the pointer in sync."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.corpus import (compact_corpus, encode_corpus,
                                         live_groups, read_corpus,
                                         upsert_corpus)
    from tokrle.pipelines.encode import decode_tokens
    from tokrle.sources.tokens import documents_to_tokens

    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    df = documents_to_tokens(SF).to_pandas()
    for i in range(5):
        pq.write_table(pa.Table.from_pandas(df.iloc[i * 100:(i + 1) * 100]),
                       f"{in_dir}/f{i}.parquet")
    encode_corpus(in_dir, out_dir, batch_size=64, group_files=1)
    delta = pa.table({
        "doc_id": pa.array(["999999"]),
        "tokens": pa.array([[5, 6]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2], type=pa.int32()),
        "source": pa.array(["sZ"]),
    })
    upsert_corpus(out_dir, ray.data.from_arrow(delta), batch_size=64)
    n_before = len(live_groups(out_dir))
    assert n_before == 6

    run = compact_corpus(out_dir, target_bytes=1 << 30, batch_size=64)
    assert run["groups_before"] == 6
    assert run["groups_after"] < 6
    assert run["bins"] >= 1
    live = live_groups(out_dir)
    assert len(live) == run["groups_after"]
    # pointer exists and member dirs are gone from disk
    assert os.path.exists(os.path.join(out_dir, "_manifest", "groups.json"))
    on_disk = {p for p in _glob.glob(os.path.join(out_dir, "group=*"))
               if os.path.isdir(p)}
    assert on_disk == set(live)

    dec = decode_tokens(read_corpus(out_dir)).to_pandas()
    got = _tokens_by_doc(dec)
    want = _tokens_by_doc(df)
    want["999999"] = np.array([5, 6])
    assert set(got) == set(want)
    for d in want:
        assert np.array_equal(got[d], want[d]), d

    # idempotent: everything is now target-sized (one bin) -> no-op
    run2 = compact_corpus(out_dir, target_bytes=1 << 30, batch_size=64)
    assert run2["bins"] == 0 and run2["groups_after"] == len(live)

    # an upsert AFTER compaction joins the pointer view
    delta2 = pa.table({
        "doc_id": pa.array(["999999"]),
        "tokens": pa.array([[9]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([1], type=pa.int32()),
        "source": pa.array(["sZ"]),
    })
    upsert_corpus(out_dir, ray.data.from_arrow(delta2), batch_size=64)
    dec2 = decode_tokens(read_corpus(out_dir)).to_pandas()
    got2 = _tokens_by_doc(dec2)
    want["999999"] = np.array([9])
    assert set(got2) == set(want)
    for d in want:
        assert np.array_equal(got2[d], want[d]), d


def test_synth_tokens_deterministic_any_partitioning(ray_session):
    from tokrle.sources.tokens import synth_tokens

    a = synth_tokens(50, override_num_blocks=2).to_pandas().sort_values("doc_id")
    b = synth_tokens(50, override_num_blocks=7).to_pandas().sort_values("doc_id")
    for x, y in zip(a["tokens"], b["tokens"]):
        assert np.array_equal(np.asarray(x), np.asarray(y))


def test_ray_free_consumer_api(ray_session, token_ds, tmp_path):
    """Encoded output must be readable WITHOUT Ray (pure pyarrow consumer)."""
    import pyarrow.parquet as pq

    from tokrle.pipelines.corpus import encode_corpus
    from tokrle.sources.encoded import iter_decoded, lineage_summary

    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    df = token_ds.to_pandas()
    pq.write_table(pa.Table.from_pandas(df), f"{in_dir}/a.parquet")
    out_dir = str(tmp_path / "enc")
    encode_corpus(in_dir, out_dir, batch_size=128)

    want = {d: np.asarray(t, dtype=np.int32)
            for d, t in zip(df["doc_id"], df["tokens"])}
    got = dict(iter_decoded(out_dir))
    assert set(got) == set(want)
    for d in want:
        assert np.array_equal(got[d], want[d])
    summ = lineage_summary(out_dir)
    assert summ["n_tokens"] == int(df["n_tok"].sum())
    assert summ["encoded_bytes"] < summ["raw_bytes"]


def test_ray_free_consumer_reads_the_live_view(ray_session, tmp_path):
    """The Ray-free consumer and the compression report read the live
    view: a crashed upsert's 'group=<gid>.tmp' copy of a group adds no
    doc, no token and no chunk."""
    import importlib.util

    from tokrle.sources.encoded import iter_decoded, lineage_summary

    enc, tok = _encoded_corpus(tmp_path, "grouped")
    df = tok.to_pandas()
    _plant_tmp_group(enc)
    got = list(iter_decoded(enc))
    assert len(got) == len(df)
    want = _tokens_by_doc(df)
    for d, t in got:
        assert np.array_equal(t, want[d]), d
    assert lineage_summary(enc)["n_tokens"] == int(df["n_tok"].sum())
    spec = importlib.util.spec_from_file_location(
        "compression_report", os.path.join(
            os.path.dirname(__file__), "..", "tools",
            "compression_report.py"))
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    assert report.report(enc)["n_tokens"] == int(df["n_tok"].sum())


def test_crashed_group_leaves_no_duplicates(ray_session, token_ds, tmp_path):
    """A group that wrote files but died before publishing its manifest row
    must be fully redone without duplicating chunks."""
    import pyarrow.parquet as pq

    from tokrle.pipelines.corpus import _group_id, encode_corpus, list_units
    from tokrle.state.manifest import Manifest

    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    df = token_ds.to_pandas()
    pq.write_table(pa.Table.from_pandas(df), f"{in_dir}/a.parquet")

    # simulate the crash: stale partial output, no manifest row
    gid = _group_id(list_units(in_dir))
    stale = os.path.join(out_dir, f"group={gid}")
    os.makedirs(stale)
    pq.write_table(pa.Table.from_pandas(df.iloc[:1]),
                   f"{stale}/leftover.parquet")

    encode_corpus(in_dir, out_dir, batch_size=128)
    assert not os.path.exists(f"{stale}/leftover.parquet")

    from tokrle.sources.encoded import iter_decoded

    got = list(iter_decoded(out_dir))
    assert len(got) == len(df)  # no duplicated docs
    assert Manifest(out_dir).completed_units() == {gid}


def test_plan_groups_size_aware(tmp_path):
    from tokrle.pipelines.corpus import plan_groups

    files = []
    for i, size in enumerate([100, 100, 300, 50, 500, 10]):
        p = tmp_path / f"f{i}.parquet"
        p.write_bytes(b"x" * size)
        files.append(str(p))
    groups = plan_groups(files, target_bytes=400, max_files=3)
    # deterministic, consecutive, every file exactly once
    assert [f for g in groups for f in g] == files
    assert plan_groups(files, target_bytes=400, max_files=3) == groups
    import os
    for g in groups[:-1]:
        assert len(g) <= 3
    # no group exceeds target unless it is a single oversized file
    for g in groups:
        total = sum(os.path.getsize(f) for f in g)
        assert total <= 400 or len(g) == 1


@pytest.mark.parametrize("by_source", [False, True])
def test_recompress_roundtrip_and_resume(ray_session, tmp_path, by_source):
    import ray.data

    from tokrle.pipelines.corpus import encode_corpus, recompress
    from tokrle.pipelines.encode import decode_tokens, roundtrip_check
    from tokrle.sources.tokens import synth_tokens

    src = str(tmp_path / "tokens")
    synth_tokens(2000).repartition(4).write_parquet(src)
    enc1 = str(tmp_path / "enc1")
    encode_corpus(src, enc1, batch_size=512)
    # recompress with and without source grouping (codec-fit migration)
    enc2 = str(tmp_path / "enc2")
    run = recompress(enc1, enc2, batch_size=1024, by_source=by_source)
    assert run["units_skipped"] == 0 and run["n_tokens"] > 0
    # decoded output identical to the original token stream
    chk = roundtrip_check(
        ray.data.read_parquet(src),
        decode_tokens(ray.data.read_parquet(enc2, columns=[
            "codec", "payload", "n_tokens", "row_offsets", "doc_id",
            "doc_source"])))
    assert chk["source"] == chk["decoded"]
    assert run["n_tokens"] == chk["source"]["n_tokens"]
    # second run resumes: everything skipped
    run2 = recompress(enc1, enc2, batch_size=1024, by_source=by_source)
    assert run2["units_skipped"] == run["units_total"]


def test_table_columns_roundtrip_bit_identical(ray_session, tmp_path):
    import pandas as pd

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "a": rng.integers(0, 50, 10_000).astype("int32"),       # low card
        "b": (1_000_000 + rng.integers(0, 512, 10_000)).astype("int64"),
        "c": np.repeat(rng.integers(0, 8, 100), 100).astype("int32"),
    })
    ds = ray.data.from_pandas(df)
    enc = encode_table_columns(ds, ["a", "b", "c"], batch_size=4096)
    enc_df = enc.to_pandas()
    assert (enc_df["encoded_bytes"] < enc_df["raw_bytes"]).all()
    dec = decode_table_columns(
        ray.data.from_pandas(enc_df), ["a", "b", "c"]).to_pandas()
    # order within batches is preserved; whole-table multiset equality +
    # per-column sums pin bit-identity
    for c in ("a", "b", "c"):
        assert sorted(dec[c].tolist()) == sorted(df[c].tolist())


@pytest.mark.parametrize("text_codec", ["fsst", "fsstg"])
def test_table_string_columns_roundtrip(ray_session, text_codec):
    """String columns split into length + flat-byte payloads; decode must
    rebuild every string bit-identically — including empty strings,
    non-ASCII text, and an all-empty column."""
    import pandas as pd

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        "s": (["the quick brown fox", "", "héllo wörld 結構", "x"] * 75),
        "empty": [""] * 300,
    })
    cols = ["id", "s", "empty"]
    ds = ray.data.from_pandas(df)
    enc = encode_table_columns(ds, cols, batch_size=128,
                               text_codec=text_codec)
    dec = decode_table_columns(enc, cols).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    for c in cols:
        assert dec[c].tolist() == df[c].tolist(), c


def test_table_string_auto_codec_picks_greedy_on_text(ray_session):
    """text_codec='auto' samples both fsst variants and records the winner
    in the lineage column; on wordy text that is the greedy parse."""
    import pandas as pd

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    rng = np.random.default_rng(5)
    # wide enough vocabulary that aligned windows dilute across phases
    # (with very few distinct words the aligned tables legitimately win
    # and auto correctly picks plain fsst)
    vocab = ["the", "model", "data", "token", "stream", "encode", "ray",
             "batch", "compression", "symbol", "greedy", "parse", "with",
             "and", "for", "column"]
    texts = [" ".join(vocab[i] for i in rng.integers(0, len(vocab), 40))
             for _ in range(400)]
    df = pd.DataFrame({"id": np.arange(400, dtype=np.int64), "s": texts})
    ds = ray.data.from_pandas(df)
    enc = encode_table_columns(ds, ["id", "s"], batch_size=400,
                               text_codec="auto")
    enc_df = enc.to_pandas()
    assert (enc_df["s__codec"] == "str:for:fsstg").any() or \
        (enc_df["s__codec"].str.endswith(":fsstg")).all()
    dec = decode_table_columns(ray.data.from_pandas(enc_df), ["id", "s"]) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert dec["s"].tolist() == df["s"].tolist()


def test_column_checksums_batching_independent(ray_session):
    import pandas as pd

    import ray.data

    from tokrle.pipelines.table_encode import _column_checksums

    df = pd.DataFrame({
        "a": np.arange(1000, dtype=np.int64),
        "s": [f"doc {i % 37}" for i in range(1000)],
    })
    ds1 = ray.data.from_pandas(df)
    ds2 = ray.data.from_pandas(df).repartition(7)
    c1 = _column_checksums(ds1, ["a", "s"])
    c2 = _column_checksums(ds2, ["a", "s"])
    assert c1 == c2
    df3 = df.copy()
    df3.loc[500, "s"] = "tampered"
    c3 = _column_checksums(ray.data.from_pandas(df3), ["a", "s"])
    assert c3["h_s"] != c1["h_s"] and c3["h_a"] == c1["h_a"]


def test_table_large_string_roundtrip(ray_session):
    """large_string columns carry int64 offsets — the buffer reader must
    honor that (int32 reads would garble lengths)."""
    import pandas as pd

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    t = pa.table({
        "id": pa.array(np.arange(100, dtype=np.int64)),
        "s": pa.array([f"value {i} " * (i % 5 + 1) for i in range(100)],
                      type=pa.large_string()),
    })
    ds = ray.data.from_arrow(t)
    enc = encode_table_columns(ds, ["id", "s"], batch_size=64)
    dec = decode_table_columns(enc, ["id", "s"]).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert dec["s"].tolist() == t.column("s").to_pylist()


def test_table_null_values_roundtrip(ray_session):
    """Null strings and nullable ints must round-trip as nulls, not '' / 0
    (validity bitmap carried per column; advisor-flagged r2 corruption)."""
    import pyarrow as pa

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    n = 500
    s = [None if i % 7 == 0 else f"doc {i}" for i in range(n)]
    ints = [None if i % 11 == 0 else i * 3 for i in range(n)]
    t = pa.table({
        "id": pa.array(range(n), type=pa.int64()),
        "s": pa.array(s, type=pa.string()),
        "v": pa.array(ints, type=pa.int64()),
        "dense": pa.array(range(n), type=pa.int32()),   # no-null fast path
    })
    cols = ["id", "s", "v", "dense"]
    enc = encode_table_columns(ray.data.from_arrow(t), cols, batch_size=128)
    dec = decode_table_columns(enc, cols).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    got_s = [None if x is None else x for x in dec["s"].tolist()]
    assert got_s == s
    got_v = [None if pd_isna(x) else int(x) for x in dec["v"].tolist()]
    assert got_v == ints
    assert dec["dense"].tolist() == list(range(n))


def pd_isna(x):
    import pandas as pd

    return pd.isna(x)


def test_zonemap_lineage_and_pruned_scan(ray_session, tmp_path):
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    # clustered table: sorted key -> tight, disjoint chunk zone maps
    n = 20000
    df = pd.DataFrame({"k": np.sort(np.arange(n) % 100),
                       "v": np.arange(n, dtype=np.int64)})
    ds = ray.data.from_pandas(df)
    enc = encode_table_columns(ds, ["k", "v"], batch_size=2048)
    out_dir = str(tmp_path / "zm")
    enc.write_parquet(out_dir)

    et = ray.data.read_parquet(out_dir).to_pandas()
    # zone maps recorded and consistent per chunk
    assert {"k__vmin", "k__vmax", "v__vmin", "v__vmax"} <= set(et.columns)
    assert (et["k__vmin"] <= et["k__vmax"]).all()

    keep = (pc.field("k__vmax") >= 10) & (pc.field("k__vmin") <= 13)
    kept = ray.data.read_parquet(out_dir, filter=keep)
    assert kept.count() < len(et), "sorted layout must prune chunks"
    dec = decode_table_columns(kept, ["k", "v"]).to_pandas()
    got = dec[(dec["k"] >= 10) & (dec["k"] <= 13)]
    want = df[(df["k"] >= 10) & (df["k"] <= 13)]
    assert len(got) == len(want)
    assert got["v"].sum() == want["v"].sum()


def test_zorder_key_and_clustering(ray_session):
    import pandas as pd
    import ray.data

    from tokrle.functions.layout import cluster_zorder, zorder_key

    # bit-interleave vs a literal per-bit reference
    rng = np.random.default_rng(8)
    a = rng.integers(0, 1 << 31, 200).astype(np.int64)
    b = rng.integers(0, 1 << 31, 200).astype(np.int64)
    got = zorder_key(a, b)
    for i in range(20):
        want = 0
        for bit in range(32):
            want |= ((int(a[i]) >> bit) & 1) << (2 * bit)
            want |= ((int(b[i]) >> bit) & 1) << (2 * bit + 1)
        assert int(got[i]) == want
    with pytest.raises(ValueError):
        zorder_key(np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        zorder_key(np.array([1 << 31]), np.array([0]))

    # clustering: after the sort, contiguous chunks have tighter per-chunk
    # extents on BOTH columns than the unsorted layout
    n = 8192
    df = pd.DataFrame({"x": rng.integers(0, 256, n),
                       "y": rng.integers(0, 256, n)})
    ds = cluster_zorder(ray.data.from_pandas(df), "x", "y")
    out = ds.to_pandas()
    assert sorted(out["x"] * 1000 + out["y"]) == \
        sorted(df["x"] * 1000 + df["y"])     # a permutation
    spans = []
    for s in range(0, n, 512):
        w = out.iloc[s:s + 512]
        spans.append((w["x"].max() - w["x"].min())
                     * (w["y"].max() - w["y"].min()))
    # mean chunk area far below the full 256x256 space
    assert np.mean(spans) < 256 * 256 / 4


def _encoded_corpus(tmp_path, layout):
    """The sf0.001 token table encoded in 64-doc chunks, either as a
    plain ``encode_tokens(...).write_parquet`` directory or through
    ``encode_corpus`` (two files -> two ``group=*`` directories).
    Returns (enc_dir, token Dataset)."""
    import pyarrow.parquet as pq

    from tokrle.pipelines.corpus import encode_corpus
    from tokrle.pipelines.encode import encode_tokens
    from tokrle.sources.tokens import documents_to_tokens

    enc_dir = str(tmp_path / f"enc_{layout}")
    tok = documents_to_tokens(SF)
    if layout == "plain":
        encode_tokens(tok, batch_size=64).write_parquet(enc_dir)
        return enc_dir, tok
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    df = tok.to_pandas()
    pq.write_table(pa.Table.from_pandas(df.iloc[:250]), f"{in_dir}/a.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[250:]), f"{in_dir}/b.parquet")
    encode_corpus(in_dir, enc_dir, batch_size=64, group_files=1)
    return enc_dir, tok


@pytest.mark.parametrize("layout", ["plain", "grouped"])
def test_fetch_docs_point_lookup(ray_session, tmp_path, layout):
    from tokrle.pipelines.encode import fetch_docs

    enc_dir, tok = _encoded_corpus(tmp_path, layout)
    want = tok.to_pandas()
    want["doc_id"] = want["doc_id"].astype(str)

    wanted = want["doc_id"].iloc[[0, 3, 3, 117, 499]].tolist()  # dup ok
    got = fetch_docs(enc_dir, wanted).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert sorted(got["doc_id"]) == sorted(set(wanted))
    for _, r in got.iterrows():
        ref = want[want["doc_id"] == r["doc_id"]].iloc[0]
        assert list(r["tokens"]) == list(ref["tokens"])
        assert r["source"] == ref["source"]
    # unknown ids return nothing rather than erroring
    assert fetch_docs(enc_dir, ["no-such-doc"]).count() == 0


def test_table_timestamp_roundtrip_with_nulls(ray_session):
    """timestamp[us] columns through the generic table encode: encoded as
    int64 counts, decoded to the same logical type, nulls preserved via
    the validity bitmap, and zone-map extrema recorded."""
    import pyarrow as pa

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    n = 600
    base = 1_704_067_200_000_000
    us = [None if i % 13 == 0 else base + i * 977_131 for i in range(n)]
    t = pa.table({
        "id": pa.array(range(n), type=pa.int64()),
        "ts": pa.array(us, type=pa.timestamp("us")),
    })
    enc_ds = encode_table_columns(ray.data.from_arrow(t), ["id", "ts"],
                                  batch_size=200)
    enc = enc_ds.to_pandas()
    assert "ts__vmin" in enc.columns and "ts__vmax" in enc.columns
    present = [v for v in us if v is not None]
    assert int(enc["ts__vmax"].max()) == max(present)
    dec = decode_table_columns(
        ray.data.from_pandas(enc), ["id", "ts"]).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    got = [None if pd_isna(x) else int(x.value // 1000)
           for x in dec["ts"].tolist()]
    assert got == us


def test_table_list_columns_roundtrip(ray_session):
    """list<numeric> columns through the generic table encode: lengths +
    flat child each auto-selected; null LISTS preserved via from_arrays
    mask; float32 children bit-exact; nested lists / null elements
    rejected honestly."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    rng = np.random.default_rng(5)
    lists = [[1, 2, 3], None, [], [7], None, [5, 5, 5, 5], [2**31 - 1]]
    fl = [list(rng.standard_normal(rng.integers(0, 9)).astype(np.float32))
          for _ in range(7)]
    t = pa.table({
        "id": pa.array(range(7), type=pa.int64()),
        "toks": pa.array(lists, type=pa.list_(pa.int32())),
        "emb": pa.array(fl, type=pa.list_(pa.float32())),
    })
    enc = encode_table_columns(ray.data.from_arrow(t), ["id", "toks", "emb"],
                               batch_size=4)
    rows = {r["id"]: r for r in
            decode_table_columns(enc, ["id", "toks", "emb"]).take_all()}
    got_toks = [None if rows[i]["toks"] is None else list(rows[i]["toks"])
                for i in range(7)]
    assert got_toks == lists
    for i in range(7):
        a = np.asarray(rows[i]["emb"], dtype=np.float32)
        b = np.asarray(fl[i], dtype=np.float32)
        assert np.array_equal(a.view(np.int32), b.view(np.int32))

    bad = pa.table({"x": pa.array([[[1]]], type=pa.list_(pa.list_(pa.int64())))})
    with pytest.raises(Exception, match="nested|Nested"):
        encode_table_columns(ray.data.from_arrow(bad), ["x"],
                             batch_size=4).materialize()


def test_encoded_column_agg_compressed_domain(ray_session, tmp_path):
    """COUNT/SUM/MIN/MAX answered from the payloads + zone maps of an
    encoded table (no decode) must equal direct NumPy aggregates over
    the raw columns, across a codec-diverse column mix."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_column_agg)

    rng = np.random.default_rng(11)
    n = 30000
    df = pd.DataFrame({
        "sorted_id": np.sort(rng.integers(0, 10**9, n)),      # delta
        "runs": np.repeat(rng.integers(-50, 50, 300), 100),   # rle
        "lowcard": rng.choice([3, 17, 9000], n),              # dict
        "uniform": rng.integers(0, 1 << 20, n),               # bitpack/for
    })
    cols = list(df.columns)
    ds = ray.data.from_pandas(df)
    out_dir = str(tmp_path / "agg")
    encode_table_columns(ds, cols, batch_size=4096).write_parquet(out_dir)

    got = encoded_column_agg(out_dir, cols).set_index("col")
    for c in cols:
        assert got.loc[c, "n"] == n
        assert got.loc[c, "sum_val"] == int(df[c].sum()), c
        assert got.loc[c, "min_val"] == int(df[c].min()), c
        assert got.loc[c, "max_val"] == int(df[c].max()), c


def test_encoded_range_agg_three_way_split(ray_session, tmp_path):
    """Clustered table: filtered SUM must split chunks into skipped /
    ALL-match (compressed-domain) / boundary (run-list) classes and
    match a direct pandas aggregate exactly."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_range_agg)

    rng = np.random.default_rng(13)
    n = 40000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 1000, n)),
        "v1": rng.integers(-500, 500, n),
        "v2": np.repeat(rng.integers(0, 9, 400), 100),   # rle-friendly
    })
    out_dir = str(tmp_path / "ra")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v1", "v2"],
                         batch_size=2048).write_parquet(out_dir)

    lo, hi = 200, 700
    got, counters = encoded_range_agg(out_dir, "k", lo, hi, ["v1", "v2"])
    sel = df[(df["k"] >= lo) & (df["k"] <= hi)]
    assert got.loc[0, "n_rows"] == len(sel)
    assert got.loc[0, "sum_v1"] == int(sel["v1"].sum())
    assert got.loc[0, "sum_v2"] == int(sel["v2"].sum())
    assert counters["chunks_skipped"] > 0, counters
    assert counters["all_hit_chunks"] > 0, counters
    assert counters["chunks_scanned"] > counters["all_hit_chunks"], \
        counters
    assert counters["chunks_skipped"] + counters["chunks_scanned"] == \
        counters["chunks_total"]

    # unclustered table: still exact, no chunk is an ALL-match
    shuf = df.sample(frac=1, random_state=0).reset_index(drop=True)
    out2 = str(tmp_path / "ra2")
    encode_table_columns(ray.data.from_pandas(shuf), ["k", "v1"],
                         batch_size=2048).write_parquet(out2)
    got2, c2 = encoded_range_agg(out2, "k", lo, hi, ["v1"])
    assert got2.loc[0, "n_rows"] == len(sel)
    assert got2.loc[0, "sum_v1"] == int(sel["v1"].sum())
    assert c2["all_hit_chunks"] == 0 and c2["chunks_skipped"] == 0


def test_encoded_group_agg_pure_and_mixed(ray_session, tmp_path):
    """Clustered grouped aggregate: group-pure chunks fold in the
    compressed domain, boundary chunks via reduceat; result must equal
    a direct pandas groupby exactly, on clustered AND shuffled layouts."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_agg)

    rng = np.random.default_rng(17)
    n = 30000
    df = pd.DataFrame({
        "g": np.sort(rng.integers(0, 12, n)),
        "v": rng.integers(-1000, 1000, n),
    })
    want = df.groupby("g").agg(n=("v", "size"), sum_v=("v", "sum")) \
        .reset_index()

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=1)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["g", "v"],
                             batch_size=1024).write_parquet(out_dir)
        got, counters = encoded_group_agg(out_dir, "g", ["v"])
        assert list(got["g"]) == list(want["g"]), layout
        assert list(got["n"]) == list(want["n"]), layout
        assert list(got["sum_v"]) == list(want["sum_v"]), layout
        if layout == "clustered":
            assert counters["pure_group_chunks"] > 0, counters


@pytest.mark.parametrize("layout", ["plain", "grouped"])
def test_doc_index_point_lookup(ray_session, tmp_path, layout):
    """Persistent doc index: indexed fetch returns exactly the same docs
    as the scan-based fetch_docs AND the source table; the lookup reads
    only the requested ids' bucket partitions (path-level pruning)."""
    import glob as _glob

    import pandas as _pd

    from tokrle.pipelines.encode import (build_doc_index, fetch_docs,
                                         fetch_docs_indexed)

    enc_dir, ds = _encoded_corpus(tmp_path, layout)
    idx_dir = build_doc_index(enc_dir, n_buckets=16)
    parts = _glob.glob(os.path.join(idx_dir, "bucket=*"))
    assert len(parts) > 4      # ids actually spread over buckets

    df = ds.to_pandas()
    wanted = [str(d) for d in df["doc_id"].iloc[::71]]
    got = fetch_docs_indexed(enc_dir, wanted).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    ref = fetch_docs(enc_dir, wanted).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == sorted(wanted)
    assert got[["doc_id", "n_tok", "source"]].equals(
        ref[["doc_id", "n_tok", "source"]])
    src = {str(d): np.asarray(t) for d, t in zip(df["doc_id"], df["tokens"])}
    for d, t in zip(got["doc_id"], got["tokens"]):
        assert np.array_equal(np.asarray(t), src[d]), d
    # pruning: a single id's probe set is a strict subset of the buckets
    one = [wanted[0]]
    b = (_pd.util.hash_array(np.asarray(one, dtype=object),
                             categorize=False) % np.uint64(16))
    assert len(set(b.tolist())) == 1 and len(parts) > 1
    # unknown ids return empty, not an error
    assert fetch_docs_indexed(enc_dir, ["no-such-doc"]).count() == 0
    empty = fetch_docs_indexed(enc_dir, [])
    assert empty.count() == 0
    assert empty.schema().names == ["doc_id", "tokens", "n_tok", "source"]


def test_stale_doc_index_raises_until_rebuilt(ray_session, tmp_path):
    """An upsert rewrites the chunk holding a replaced doc, so a doc
    index built before it names a chunk the live view no longer has: the
    indexed fetch must raise (it used to drop that doc silently), and
    after build_doc_index it returns the new tokens."""
    import ray.data

    from tokrle.pipelines.corpus import upsert_corpus
    from tokrle.pipelines.encode import build_doc_index, fetch_docs_indexed

    enc_dir, tok = _encoded_corpus(tmp_path, "grouped")
    build_doc_index(enc_dir, n_buckets=8)
    df = tok.to_pandas()
    upd, other = str(df["doc_id"].iloc[5]), str(df["doc_id"].iloc[300])
    upsert_corpus(enc_dir, ray.data.from_arrow(pa.table({
        "doc_id": pa.array([int(upd)], type=pa.int64()),
        "tokens": pa.array([[9, 8, 7, 6]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([4], type=pa.int32()),
        "source": pa.array(["sX"]),
    })), batch_size=64)
    with pytest.raises(ValueError, match="build_doc_index"):
        fetch_docs_indexed(enc_dir, [upd, other])

    build_doc_index(enc_dir, n_buckets=8)
    got = fetch_docs_indexed(enc_dir, [upd, other]).to_pandas()
    toks = {d: list(t) for d, t in zip(got["doc_id"], got["tokens"])}
    assert set(toks) == {upd, other}
    assert toks[upd] == [9, 8, 7, 6]
    assert toks[other] == list(df["tokens"].iloc[300])


def test_decode_tokens_fuses_read_and_decode(ray_session, tmp_path):
    """decode_tokens over one 10-chunk file (a block of two 4-chunk
    slices and a remainder) is bit-identical to the source, and Ray runs
    the read and the decode as ONE fused operator."""
    import re

    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.encode import decode_tokens, encode_tokens
    from tokrle.sources.tokens import documents_to_tokens

    def table(ds):
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow",
                                                     batch_size=None)))

    tok = table(documents_to_tokens(SF))       # 500 docs in one block
    enc = table(encode_tokens(ray.data.from_arrow(tok), batch_size=50))
    assert enc.num_rows == 10
    path = str(tmp_path / "chunks.parquet")
    pq.write_table(enc, path)

    # one read block of all 10 chunks: Ray fuses a map into a read only
    # when it does not split the read's blocks afterwards
    ds = decode_tokens(ray.data.read_parquet(
        path, override_num_blocks=1)).materialize()
    got = _tokens_by_doc(ds.to_pandas())
    want = _tokens_by_doc(tok.to_pandas())
    assert len(got) == ds.count() == len(want)
    for d in want:
        assert got[str(d)].dtype == np.int32
        assert np.array_equal(got[str(d)], want[d]), d
    ops = re.findall(r"^Operator \d+ (\S+):", ds.stats(), re.M)
    assert ops == ["ReadParquet->MapBatches(_decode_block)"], ops


def _decode_ops(ds) -> str:
    """The operator lines of a materialized Dataset's stats."""
    return "\n".join(ln for ln in ds.stats().splitlines()
                     if ln.startswith("Operator "))


def _plant_tmp_group(enc_dir: str) -> None:
    """Leave a copy of the first live group as 'group=<gid>.tmp', as an
    upsert that crashed mid-rewrite does."""
    import shutil

    from tokrle.pipelines.corpus import live_groups

    g = live_groups(enc_dir)[0]
    shutil.copytree(g, g + ".tmp")


@pytest.mark.parametrize("case", ["fresh", "plain", "upsert_compact",
                                  "tmp_leftover", "columns", "empty"])
def test_decode_tokens_same_answer_both_sides_of_ceiling(
        ray_session, tmp_path, monkeypatch, case):
    """decode_tokens(read_corpus(...)) gives the same per-doc int32
    tokens and the same schema whether the corpus decodes in the caller
    (ceiling infinite) or in the Ray job (ceiling 0, where only an empty
    view still decodes in the caller)."""
    import ray.data

    from tokrle.pipelines import encode as E
    from tokrle.pipelines.corpus import (_publish_groups, compact_corpus,
                                         read_corpus, upsert_corpus)
    from tokrle.stages.encoder import TOKEN_SCHEMA

    columns = None
    if case == "empty":
        enc = str(tmp_path / "enc_empty")
        _publish_groups(enc, [])     # a pointer that names no group
        want = {}
    else:
        enc, tok = _encoded_corpus(
            tmp_path, "plain" if case == "plain" else "grouped")
        want = {str(d): t for d, t in _tokens_by_doc(tok.to_pandas()).items()}
    if case == "upsert_compact":
        rid = next(iter(want))
        upsert_corpus(enc, ray.data.from_arrow(pa.table({
            "doc_id": pa.array([rid, "new_doc"], type=pa.string()),
            "tokens": pa.array([[4, 5], [1, 2, 3]],
                               type=pa.list_(pa.int32())),
            "n_tok": pa.array([2, 3], type=pa.int32()),
            "source": pa.array(["sX", "sX"]),
        })), batch_size=64)
        compact_corpus(enc, target_bytes=1 << 30, batch_size=64)
        want[rid] = np.array([4, 5])
        want["new_doc"] = np.array([1, 2, 3])
    elif case == "tmp_leftover":
        _plant_tmp_group(enc)
    elif case == "columns":
        columns = ["codec", "payload", "n_tokens", "row_offsets", "doc_id",
                   "doc_source"]

    sides = {}
    for ceiling in (0, float("inf")):
        monkeypatch.setattr(E, "_LOCAL_DECODE_BYTES", ceiling)
        ds = E.decode_tokens(read_corpus(enc, columns=columns)).materialize()
        ran_job = "MapBatches(_decode_block)" in _decode_ops(ds)
        assert ran_job == (ceiling == 0 and case != "empty"), case
        sides[ceiling] = ds
    slow, fast = sides[0], sides[float("inf")]
    assert slow.schema() == fast.schema()
    assert fast.schema().base_schema == TOKEN_SCHEMA
    if case == "empty":      # Ray drops the empty block on either side
        assert slow.count() == fast.count() == 0
        return
    got_slow = _tokens_by_doc(slow.to_pandas())
    got_fast = _tokens_by_doc(fast.to_pandas())
    assert slow.count() == fast.count() == len(want)
    assert set(got_slow) == set(got_fast) == set(want)
    for d, t in want.items():
        assert got_fast[d].dtype == got_slow[d].dtype == np.int32
        assert np.array_equal(got_fast[d], got_slow[d]), d
        assert np.array_equal(got_fast[d], t), d


def test_decode_tokens_small_corpus_runs_no_ray_job(ray_session, tmp_path):
    """Below the default ceiling an untransformed corpus read decodes in
    the caller into ONE block; a transformed read (here ``limit``) keeps
    the Ray job and still decodes correctly."""
    from tokrle.pipelines.corpus import read_corpus
    from tokrle.pipelines.encode import decode_tokens

    enc, tok = _encoded_corpus(tmp_path, "grouped")
    want = {str(d): t for d, t in _tokens_by_doc(tok.to_pandas()).items()}

    ds = decode_tokens(read_corpus(enc)).materialize()
    assert "MapBatches(_decode_block)" not in _decode_ops(ds)
    assert ds.num_blocks() == 1
    got = _tokens_by_doc(ds.to_pandas())
    assert len(got) == ds.count() == len(want)
    assert all(np.array_equal(got[d], t) for d, t in want.items())

    n = 3    # chunks of 64 docs
    lim = decode_tokens(read_corpus(enc).limit(n)).materialize()
    assert "MapBatches(_decode_block)" in _decode_ops(lim)
    got = _tokens_by_doc(lim.to_pandas())
    assert len(got) == lim.count() == 64 * n
    for d, t in got.items():
        assert t.dtype == np.int32
        assert np.array_equal(t, want[d]), d


@pytest.mark.parametrize("case", ["fresh", "plain", "tmp_leftover",
                                  "columns", "empty"])
def test_read_corpus_matches_read_parquet(ray_session, tmp_path, case):
    """read_corpus builds its read from the footers, with no Ray task,
    yet gives what ``read_parquet`` of the live-view files gives: the
    same schema, count and rows, the hive ``group`` column included."""
    import ray.data

    from tokrle.pipelines.corpus import (_publish_groups, corpus_files,
                                         read_corpus)

    columns = None
    if case == "empty":
        enc = str(tmp_path / "enc_empty")
        _publish_groups(enc, [])
    else:
        enc, _ = _encoded_corpus(
            tmp_path, "plain" if case == "plain" else "grouped")
    if case == "tmp_leftover":
        _plant_tmp_group(enc)
    elif case == "columns":
        columns = ["chunk_id", "codec", "payload", "n_tokens", "doc_id"]

    def rows(ds):
        tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tables).sort_by("chunk_id") if tables \
            else None

    ours = read_corpus(enc, columns=columns)
    ref = ray.data.read_parquet(corpus_files(enc), columns=columns)
    assert ours.schema() == ref.schema()
    assert ours.count() == ref.count()
    if case == "empty":
        assert ours.count() == 0 and rows(ours) is None
        return
    got, want = rows(ours), rows(ref)
    assert got.equals(want)
    assert ("group" in got.column_names) == (case in ("fresh",
                                                      "tmp_leftover"))


def test_read_corpus_ray_decode_is_one_fused_operator(ray_session, tmp_path,
                                                      monkeypatch):
    """Above the ceiling a multi-file corpus decodes in ONE fused
    ``ReadParquet->MapBatches(_decode_block)`` operator, bit-identical
    to the caller-side decode: one read task per file when there are at
    least two per CPU, so Ray does not split the read's blocks."""
    import re

    import pyarrow.parquet as pq

    from tokrle.pipelines import encode as E
    from tokrle.pipelines.corpus import corpus_files, encode_corpus, \
        read_corpus
    from tokrle.sources.tokens import documents_to_tokens

    df = documents_to_tokens(SF).to_pandas()
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    for k in range(8):
        pq.write_table(pa.Table.from_pandas(df.iloc[k::8]),
                       f"{in_dir}/{k}.parquet")
    enc = str(tmp_path / "enc")
    encode_corpus(in_dir, enc, batch_size=64, group_files=1)
    assert len(corpus_files(enc)) == 8

    sides = {}
    for ceiling in (0, float("inf")):
        monkeypatch.setattr(E, "_LOCAL_DECODE_BYTES", ceiling)
        sides[ceiling] = E.decode_tokens(read_corpus(enc)).materialize()
    ops = re.findall(r"^Operator \d+ (\S+):", sides[0].stats(), re.M)
    assert ops == ["ReadParquet->MapBatches(_decode_block)"], ops
    slow = _tokens_by_doc(sides[0].to_pandas())
    fast = _tokens_by_doc(sides[float("inf")].to_pandas())
    want = {str(d): t for d, t in _tokens_by_doc(df).items()}
    assert set(slow) == set(fast) == set(want)
    for d, t in want.items():
        assert slow[d].dtype == fast[d].dtype == np.int32
        assert np.array_equal(slow[d], t) and np.array_equal(fast[d], t), d


def test_caller_answers_start_no_ray_task(ray_session, tmp_path,
                                          monkeypatch):
    """Below the ceiling the read path and the row scans build their
    answer Datasets in the caller: with ``ray.data.read_parquet`` and
    ``ray.data.from_arrow`` (which starts a metadata task per table)
    made to raise, every answer still equals its source."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.corpus import read_corpus
    from tokrle.pipelines.encode import (build_doc_index, decode_tokens,
                                         fetch_docs, fetch_docs_indexed)
    from tokrle.pipelines.table_encode import (encoded_lookup_join,
                                               encoded_scan_where)

    enc, tok = _encoded_corpus(tmp_path, "grouped")
    build_doc_index(enc, n_buckets=8)
    src = tok.to_pandas()
    want = {str(d): t for d, t in _tokens_by_doc(src).items()}
    kv, kv_dir, _ = _clustered_kv(tmp_path)

    def boom(*a, **kw):
        raise AssertionError("started a Ray task")

    monkeypatch.setattr(ray.data, "read_parquet", boom)
    monkeypatch.setattr(ray.data, "from_arrow", boom)

    def same_docs(ds, ids):
        got = _tokens_by_doc(ds.to_pandas())
        assert set(got) == set(ids)
        for d in ids:
            assert got[d].dtype == np.int32
            assert np.array_equal(got[d], want[d]), d

    same_docs(decode_tokens(read_corpus(enc)), want)
    ids = [str(d) for d in src["doc_id"].iloc[[3, 117, 499]]]
    same_docs(fetch_docs_indexed(enc, ids), ids)
    assert fetch_docs_indexed(enc, []).count() == 0
    same_docs(fetch_docs(enc, ids), ids)

    expr = ("and", ("range", "key", 10, 20), ("range", "v", 0, 49))
    got = encoded_scan_where(kv_dir, expr, ["key", "v"]).to_pandas() \
        .sort_values(["key", "v"]).reset_index(drop=True)
    sel = kv[kv["key"].between(10, 20) & kv["v"].between(0, 49)] \
        .sort_values(["key", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, sel)

    dim = pd.DataFrame({"dk": np.arange(5, 9), "attr": np.arange(4) * 10})
    got = encoded_lookup_join(kv_dir, "key", dim, "dk", ["attr"], ["v"]) \
        .to_pandas().sort_values(["key", "v"]).reset_index(drop=True)
    joined = kv.merge(dim, left_on="key", right_on="dk")[
        ["key", "v", "attr"]].sort_values(["key", "v"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, joined)


def test_cli_and_bench_decode_read_the_live_view(ray_session, tmp_path,
                                                 capsys):
    """The CLI ``decode`` and ``verify`` commands and bench.py's
    bench_decode read only the corpus's live view: a leftover
    'group=<gid>.tmp' from a crashed upsert is not decoded again.  The
    CLI leaves the caller's Ray session (the 4-CPU fixture) running."""
    import json
    import sys

    import ray
    import ray.data

    from tokrle import cli

    enc, tok = _encoded_corpus(tmp_path, "grouped")
    _plant_tmp_group(enc)
    n = tok.count()

    out = str(tmp_path / "decoded")
    assert cli.main(["decode", "--in-dir", enc, "--out-dir", out]) == 0
    assert ray.is_initialized() and ray.cluster_resources()["CPU"] == 4
    ids = ray.data.read_parquet(out).to_pandas()["doc_id"]
    assert len(ids) == ids.nunique() == n

    assert cli.main(["verify", "--tokens", str(tmp_path / "in"),
                     "--encoded", enc]) == 0
    assert ray.is_initialized() and ray.cluster_resources()["CPU"] == 4
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["match"] and res["decoded"]["n_docs"] == n

    sys.path.insert(0, REPO)
    try:
        import bench
    finally:
        sys.path.remove(REPO)
    assert bench.bench_decode(enc, passes=1)["n_docs"] == n


def test_live_groups_ignores_crashed_tmp_dirs(tmp_path):
    """A crashed rewrite leaves 'group=<gid>.tmp' beside the intact
    original; the live view must never include the partial dir."""
    from tokrle.pipelines.corpus import live_groups

    enc = str(tmp_path / "enc")
    for name in ("group=aaa", "group=bbb", "group=bbb.tmp"):
        os.makedirs(os.path.join(enc, name))
    live = [os.path.basename(g) for g in live_groups(enc)]
    assert live == ["group=aaa", "group=bbb"]


def test_upsert_plain_layout_adopts_base_group(ray_session, tmp_path):
    """Upsert on a PLAIN encode_tokens(...).write_parquet output (no
    group=* dirs): the plain files are adopted into group=base so the
    pre-existing docs stay in the live view, replacements are scanned,
    and the delta does not hide the corpus."""
    import ray.data

    from tokrle.pipelines.corpus import read_corpus, upsert_corpus
    from tokrle.pipelines.encode import decode_tokens, encode_tokens
    from tokrle.sources.tokens import synth_tokens

    enc = str(tmp_path / "plain_enc")
    toks = synth_tokens(300).materialize()
    encode_tokens(toks, batch_size=64).write_parquet(enc)
    orig = decode_tokens(read_corpus(enc)).to_pandas()
    rid = str(orig.iloc[0]["doc_id"])
    delta = pa.table({
        "doc_id": pa.array([rid, "brand_new"], type=pa.string()),
        "tokens": pa.array([[9, 9], [1, 2, 3]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 3], type=pa.int32()),
        "source": pa.array(["sX", "sX"]),
    })
    run = upsert_corpus(enc, ray.data.from_arrow(delta), batch_size=64)
    assert run["docs_replaced"] == 1 and run["docs_added"] == 2
    assert os.path.isdir(os.path.join(enc, "group=base"))
    after = decode_tokens(read_corpus(enc)).to_pandas()
    # every original doc still present; the replaced one has new tokens
    assert set(after["doc_id"]) == set(orig["doc_id"]) | {"brand_new"}
    assert list(after.set_index("doc_id").loc[rid, "tokens"]) == [9, 9]
    assert len(after) == len(orig) + 1


def test_adopt_plain_layout_resumes_partial_move(ray_session, tmp_path):
    """A crash mid-adoption (some files moved into group=base.tmp, some
    still plain) converges on the next writer run; recover_groups never
    GCs the adoption staging dir."""
    import glob
    import shutil

    from tokrle.pipelines.corpus import (_adopt_plain_layout,
                                         recover_groups)
    from tokrle.pipelines.encode import encode_tokens
    from tokrle.sources.tokens import synth_tokens

    enc = str(tmp_path / "adopt")
    encode_tokens(synth_tokens(200), batch_size=64) \
        .repartition(3).write_parquet(enc)
    plain = sorted(glob.glob(os.path.join(enc, "*.parquet")))
    assert len(plain) >= 2
    # simulate the crash: one file already staged
    tmp = os.path.join(enc, "group=base.tmp")
    os.makedirs(tmp)
    shutil.move(plain[0], os.path.join(tmp, os.path.basename(plain[0])))
    recover_groups(enc)  # must NOT delete the staging dir
    assert os.path.isdir(tmp)
    _adopt_plain_layout(enc)
    base = os.path.join(enc, "group=base")
    assert sorted(os.path.basename(p) for p in plain) == \
        sorted(os.listdir(base))
    assert not glob.glob(os.path.join(enc, "*.parquet"))
    assert not os.path.isdir(tmp)


def test_recompress_skips_docindex_and_tmp_leftovers(ray_session, tmp_path):
    """recompress scans the LIVE corpus view only: _docindex partitions
    (different schema) and group=*.tmp crash leftovers must not enter
    the decode."""
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.corpus import encode_corpus, recompress
    from tokrle.pipelines.encode import (build_doc_index, decode_tokens,
                                         roundtrip_check)
    from tokrle.sources.tokens import synth_tokens

    src = str(tmp_path / "tokens")
    synth_tokens(800).repartition(2).write_parquet(src)
    enc1 = str(tmp_path / "enc1")
    encode_corpus(src, enc1, batch_size=256)
    build_doc_index(enc1)  # writes enc1/_docindex/... with its own schema
    # plant a crash leftover: a partial rewrite dir with a bogus file
    leftover = os.path.join(enc1, "group=deadbeef.tmp")
    os.makedirs(leftover)
    pq.write_table(pa.table({"junk": [1, 2]}),
                   os.path.join(leftover, "x.parquet"))
    enc2 = str(tmp_path / "enc2")
    run = recompress(enc1, enc2, batch_size=512)
    assert run["n_tokens"] > 0
    chk = roundtrip_check(
        ray.data.read_parquet(src),
        decode_tokens(ray.data.read_parquet(enc2, columns=[
            "codec", "payload", "n_tokens", "row_offsets", "doc_id",
            "doc_source"])))
    assert chk["source"] == chk["decoded"]


def test_clean_corpus_rerun_counts_stable(ray_session, tmp_path):
    """Re-running clean_corpus into the same out_dir must not count (or
    leave live) the previous run's shards."""
    import pyarrow.parquet as pq

    from tokrle.pipelines.clean import clean_corpus

    docs = pa.table({
        "doc_id": pa.array(range(40), type=pa.int64()),
        "source": pa.array(["s0"] * 40),
        "text": pa.array([" ".join(chr(97 + (i + j) % 26) + "y" * (j % 7)
                                   for j in range(30))
                          for i in range(40)]),
    })
    src = str(tmp_path / "docs.parquet")
    pq.write_table(docs, src)
    out = str(tmp_path / "cleaned")
    r1 = clean_corpus(src, out, min_words=5)
    r2 = clean_corpus(src, out, min_words=5)
    assert r1["n_kept"] == r2["n_kept"] > 0


def test_table_encode_uint64_full_range_roundtrip(ray_session, tmp_path):
    """Full-range uint64 (hash/signature) columns are storage+decode
    exact through table_encode; the value-domain compressed aggregates
    reject them LOUDLY (no int64 zone maps exist for them, and sums
    exceed the int64 partial-row domain)."""
    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns,
                                               encoded_column_agg)

    n = 3000
    ids = np.arange(n, dtype=np.uint64)
    u = ids * np.uint64(0x9E3779B97F4A7C15)  # wraps; top bit exercised
    t = pa.table({"k": pa.array(ids, type=pa.uint64()),
                  "h": pa.array(u, type=pa.uint64())})
    enc = encode_table_columns(ray.data.from_arrow(t), ["k", "h"],
                               batch_size=512)
    d = str(tmp_path / "enc")
    enc.write_parquet(d)
    # no zone-map columns for uint64
    names = ray.data.read_parquet(d).schema().names
    assert "h__vmin" not in names and "k__vmin" not in names
    dec = decode_table_columns(
        ray.data.read_parquet(d), ["k", "h"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert dec["h"].dtype == np.uint64
    assert np.array_equal(dec["h"].to_numpy(), u)
    with pytest.raises(Exception):
        encoded_column_agg(d, ["h"])


def test_encoded_value_count_compressed_domain(ray_session, tmp_path):
    """COUNT WHERE col=value from zone maps + count_eq: clustered keys
    prune chunks, absent values never scan a payload, and every count
    matches the direct pandas answer exactly."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_value_count)

    rng = np.random.default_rng(23)
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 40, 20_000)).astype("int64"),
        "tag": rng.integers(1, 8, 20_000).astype("int32"),
    })
    out_dir = str(tmp_path / "pred")
    encode_table_columns(ray.data.from_pandas(df), ["key", "tag"],
                         batch_size=1024).write_parquet(out_dir)

    # clustered key, present value: exact count + zone-map pruning
    got, counters = encoded_value_count(out_dir, "key", 17)
    assert int(got["n_match"].iloc[0]) == int((df["key"] == 17).sum())
    assert counters["chunks_skipped"] > 0, counters
    assert counters["chunks_scanned"] + counters["chunks_skipped"] == \
        counters["chunks_total"]

    # unclustered low-cardinality column: no pruning, still exact
    got, counters = encoded_value_count(out_dir, "tag", 3)
    assert int(got["n_match"].iloc[0]) == int((df["tag"] == 3).sum())

    # absent value: answered from zone maps alone
    got, counters = encoded_value_count(out_dir, "key", -5)
    assert int(got["n_match"].iloc[0]) == 0
    assert counters["chunks_scanned"] == 0, counters


def test_encoded_range_count_three_way_split(ray_session, tmp_path):
    """Range COUNT over a clustered table must prune outside chunks,
    answer ALL-match chunks from metadata alone, count boundary chunks
    in the compressed domain, and match pandas exactly — clustered and
    unclustered layouts both."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_range_count)

    rng = np.random.default_rng(31)
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 50, 30_000)).astype("int64"),
        "tag": rng.integers(1, 8, 30_000).astype("int32"),
    })
    out_dir = str(tmp_path / "rcount")
    encode_table_columns(ray.data.from_pandas(df), ["key", "tag"],
                         batch_size=1024).write_parquet(out_dir)

    got, counters = encoded_range_count(out_dir, "key", 12, 30)
    assert int(got["n_match"].iloc[0]) == \
        int(df["key"].between(12, 30).sum())
    assert counters["chunks_skipped"] > 0, counters
    assert counters["all_hit_chunks"] > 0, counters
    assert counters["chunks_scanned"] + \
        counters["chunks_skipped"] == counters["chunks_total"]

    # unclustered column: run-lists everywhere, still exact
    got, counters = encoded_range_count(out_dir, "tag", 2, 4)
    assert int(got["n_match"].iloc[0]) == \
        int(df["tag"].between(2, 4).sum())

    # disjoint window: every chunk pruned
    got, counters = encoded_range_count(out_dir, "key", 100, 200)
    assert int(got["n_match"].iloc[0]) == 0
    assert counters["chunks_scanned"] == 0


def _clustered_kv(tmp_path):
    """(frame, encoded dir, zone maps): 8192 rows in 16 chunks of 512,
    ``key`` sorted over 0..39 and ``v`` uniform over -50..49; the zone
    maps are ``{col: (chunk mins, chunk maxes)}``."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import encode_table_columns

    rng = np.random.default_rng(33)
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 40, 8192)).astype("int64"),
        "v": rng.integers(-50, 50, 8192).astype("int64"),
    })
    out_dir = str(tmp_path / "rscan")
    encode_table_columns(ray.data.from_pandas(df), ["key", "v"],
                         batch_size=512).write_parquet(out_dir)
    zones = {c: (x.min(axis=1), x.max(axis=1)) for c, x in
             ((c, df[c].to_numpy().reshape(16, 512)) for c in df)}
    return df, out_dir, zones


def _zone_overlaps(zones, ranges) -> int:
    """Chunks whose zone maps overlap every ``(col, lo, hi)``."""
    keep = np.ones(16, bool)
    for c, lo, hi in ranges:
        keep &= (zones[c][1] >= lo) & (zones[c][0] <= hi)
    return int(keep.sum())


def test_zone_pruned_ranges_rows_and_counts(ray_session, tmp_path):
    """An ``and`` of two ``range`` leaves: the rows ``encoded_scan_where``
    returns equal the pandas selection, and ``encoded_boolean_agg``
    counts them and the chunks the zone filter keeps; a disjoint range
    keeps no chunk."""
    import pandas as pd

    from tokrle.pipelines.table_encode import (encoded_boolean_agg,
                                               encoded_scan_where)

    df, out_dir, zones = _clustered_kv(tmp_path)
    expr = ("and", ("range", "key", 10, 20), ("range", "v", 0, 49))
    got = encoded_scan_where(out_dir, expr, ["key", "v"]).to_pandas() \
        .sort_values(["key", "v"]).reset_index(drop=True)
    want = df[df["key"].between(10, 20) & df["v"].between(0, 49)] \
        .sort_values(["key", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    agg, stats = encoded_boolean_agg(out_dir, expr, [])
    assert int(agg["n_match"].iloc[0]) == len(want)
    assert stats["chunks_total"] == 16
    assert stats["chunks_scanned"] == _zone_overlaps(
        zones, [("key", 10, 20), ("v", 0, 49)])
    assert 0 < stats["chunks_scanned"] < 16
    _, stats = encoded_boolean_agg(out_dir, ("range", "key", 100, 200), [])
    assert (stats["chunks_total"], stats["chunks_scanned"]) == (16, 0)


def test_cli_table_scan_counts_pruned_ranges(ray_session, tmp_path,
                                             capsys):
    """``tokrle table-scan`` with two ``--where`` ranges prints its four
    JSON keys, the pandas row count and the zone-overlap chunk count; a
    disjoint range prints 0 rows and 0 scanned chunks."""
    import json

    from tokrle import cli

    df, out_dir, zones = _clustered_kv(tmp_path)

    def scan(*where):
        argv = ["table-scan", "--encoded", out_dir]
        for w in where:
            argv += ["--where", w]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    got = scan("key:10:20", "v:-5:30")
    assert list(got) == ["status", "n_rows", "chunks_total",
                         "chunks_scanned"]
    assert got["status"] == "ok" and got["chunks_total"] == 16
    assert got["n_rows"] == int((df["key"].between(10, 20)
                                 & df["v"].between(-5, 30)).sum())
    assert got["chunks_scanned"] == _zone_overlaps(
        zones, [("key", 10, 20), ("v", -5, 30)])
    assert 0 < got["chunks_scanned"] < 16
    assert scan("key:100:200", "v:-5:30") == {
        "status": "ok", "n_rows": 0, "chunks_total": 16,
        "chunks_scanned": 0}


def test_cli_table_scan_and_agg_start_no_ray_session(ray_session, tmp_path,
                                                     capsys, monkeypatch):
    """``table-scan`` and the three ``table-agg`` modes scan in the
    caller, so they start no Ray session: with ``_ray_up`` made to raise
    they still print their pandas answers, and the caller's session is
    still up afterwards."""
    import json

    import ray

    from tokrle import cli

    df, out_dir, _ = _clustered_kv(tmp_path)

    def no_ray(num_cpus):
        raise AssertionError("started a Ray session")

    monkeypatch.setattr(cli, "_ray_up", no_ray)

    def run(*argv):
        assert cli.main(list(argv)) == 0
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["status"] == "ok"
        return got

    hit = df["key"].between(10, 20)
    got = run("table-scan", "--encoded", out_dir, "--where", "key:10:20")
    assert got["n_rows"] == int(hit.sum())
    agg = "table-agg", "--encoded", out_dir, "--columns", "v"
    assert run(*agg)["rows"] == [{
        "col": "v", "n": len(df), "sum_val": int(df["v"].sum()),
        "min_val": int(df["v"].min()), "max_val": int(df["v"].max())}]
    assert run(*agg, "--where", "key:10:20")["rows"] == [{
        "n_rows": int(hit.sum()), "sum_v": int(df["v"][hit].sum())}]
    by_key = df.groupby("key")["v"].agg(["size", "sum"])
    assert run(*agg, "--group-by", "key")["rows"] == [
        {"key": int(k), "n": int(n), "sum_v": int(s)}
        for k, n, s in by_key.itertuples()]
    assert ray.is_initialized()


@pytest.fixture(scope="module")
def nullable_kv(ray_session, tmp_path_factory):
    """(table, encoded dir) with NULLs in both ``k`` and ``v``; the
    first 512 rows are null-free, so null-free and nullable chunks
    mix, and value 0 (the encoder's null filler) occurs in both.  Over
    the 128-row chunks, the null-free sorted group key ``g`` has
    chunk-aligned groups 0-3 (group-pure chunks only), a 100-row group
    4 (mixed chunks only) and groups spanning both.  ``w`` never holds
    0, so a counted null filler shows, and is all NULL in groups 2
    and 4.  The string column ``s`` is NULL where ``w`` is, and holds
    ``''`` (the encoder's string null filler) too."""
    import ray.data

    from tokrle.pipelines.table_encode import encode_table_columns

    rng = np.random.default_rng(41)
    n = 4096
    kmask = rng.random(n) < 0.2
    vmask = rng.random(n) < 0.2
    kmask[:512] = vmask[:512] = False
    k = np.sort(rng.integers(0, 8, n))
    v = rng.integers(-3, 4, n)
    g = np.repeat(np.arange(16), [256] * 4 + [100, 356, 200, 312, 100, 412,
                                              256, 300, 236, 300, 200, 300])
    wmask = (rng.random(n) < 0.2) | (g == 2) | (g == 4)
    tbl = pa.table({"k": pa.array(k, mask=kmask),
                    "v": pa.array(v, mask=vmask),
                    "g": pa.array(g),
                    "w": pa.array(rng.integers(1, 10, n), mask=wmask),
                    "s": pa.array(rng.choice(["", "ab", "b", "cde", "zz"],
                                             n), mask=wmask)})
    out_dir = str(tmp_path_factory.mktemp("nullable_kv"))
    encode_table_columns(ray.data.from_arrow(tbl),
                         ["k", "v", "g", "w", "s"],
                         batch_size=128).write_parquet(out_dir)
    return tbl, out_dir


def _rows(name: str):
    """A row-returning entry point as ``(frame, counters)``: the rows of
    the Dataset it returns (concatenated as Arrow, so an empty answer
    keeps its typed columns), and the counters of the shared row scan
    (``_scan_rows``) it ran."""
    def run(*args, **kwargs):
        from unittest import mock

        import ray

        from tokrle.pipelines import table_encode

        scan, seen = table_encode._scan_rows, []

        def spy(*a, **kw):
            seen.append(scan(*a, **kw))
            return seen[-1]

        with mock.patch.object(table_encode, "_scan_rows", spy):
            ds = getattr(table_encode, name)(*args, **kwargs)
        return pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas(), \
            seen[0][1]

    return run


def _chunk_rows(enc_dir: str) -> int:
    """Chunk rows of a table-encode directory."""
    import pyarrow.parquet as pq

    return pq.read_table(enc_dir, columns=["n_rows"]).num_rows


def _entry(fn):
    """A case's entry point: a ``table_encode`` name or a callable."""
    from tokrle.pipelines import table_encode

    return fn if callable(fn) else getattr(table_encode, fn)


#: the dimension of the lookup-join cases, and the same rows in SQL
_DIM = {"dk": [1, 2, 5], "name": [10, 20, 50]}
_DIM_SQL = "(SELECT * FROM (VALUES (1, 10), (2, 20), (5, 50)) d(dk, name))"

#: wrapper -> (args after enc_dir, SQL WHERE, output columns)
_NULLABLE_CASES = {
    "encoded_range_agg": (("k", 0, 2, ["v"]), "k BETWEEN 0 AND 2",
                          ["n_rows", "sum_v"]),
    "encoded_value_count": (("k", 0), "k = 0", ["n_match"]),
    "encoded_range_count": (("v", -1, 0), "v BETWEEN -1 AND 0",
                            ["n_match"]),
    "encoded_filtered_agg": (("k", 0, ["v"]), "k = 0",
                             ["n_match", "sum_v"]),
    "encoded_conjunction_agg": (
        ([("range", "k", 0, 3), ("eq", "v", 0)], ["k", "v"]),
        "k BETWEEN 0 AND 3 AND v = 0", ["n_match", "sum_k", "sum_v"]),
}


@pytest.mark.parametrize("fn", list(_NULLABLE_CASES))
def test_pushdown_wrappers_nullable_match_duckdb(nullable_kv, any_batching,
                                                  fn):
    """Every single-predicate / conjunctive pushdown entry point answers
    nullable key AND aggregate columns like SQL: a NULL never matches a
    predicate (not even ``= 0``, the null filler) and SUM skips NULLs,
    alike per chunk and per batch."""
    import duckdb

    from tokrle.pipelines import table_encode

    args, where, cols = _NULLABLE_CASES[fn]
    tbl, out_dir = nullable_kv
    got, counters = any_batching(getattr(table_encode, fn), out_dir, *args)
    sel = ", ".join(f"coalesce(sum({c[4:]}), 0)" if c.startswith("sum_")
                    else "count(*)" for c in cols)
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(f"SELECT {sel} FROM t WHERE {where}").fetchone()
    assert [int(got.loc[0, c]) for c in cols] == \
        [int(x) for x in exp], (fn, counters)
    assert counters["chunks_scanned"] + counters["chunks_skipped"] == \
        counters["chunks_total"]


def _quartile_sql(group_col: str, agg: str, where: str = "true") -> str:
    """DuckDB rows ``(group, q_num, q_den, quantile_disc, count)`` in the
    layout of the grouped quantile entry points."""
    return " UNION ALL ".join(
        f"SELECT {group_col}, {a}, {b}, quantile_disc({agg}, {a / b}), "
        f"count({agg}) FROM t WHERE {where} GROUP BY {group_col}"
        for a, b in ((1, 4), (1, 2), (3, 4)))


#: case -> (entry point, args after enc_dir, kwargs, SQL); the entry
#: point's output columns map onto the SQL select list in order
_NULL_SKIP_CASES = {
    "encoded_column_agg": (
        "encoded_column_agg", (["k", "v", "w"],), {},
        "SELECT c, count(*), coalesce(sum(x), 0), min(x), max(x) FROM "
        "(SELECT 'k' c, k x FROM t UNION ALL SELECT 'v', v FROM t "
        "UNION ALL SELECT 'w', w FROM t) GROUP BY c"),
    "encoded_histogram": (
        "encoded_histogram", ("w",), {},
        "SELECT w, count(*) FROM t WHERE w IS NOT NULL GROUP BY w"),
    "encoded_group_agg": (
        "encoded_group_agg", ("g", ["v", "w"]), {"with_minmax": True},
        "SELECT g, count(*), coalesce(sum(v), 0), coalesce(sum(w), 0), "
        "min(v), min(w), max(v), max(w) FROM t GROUP BY g"),
    "encoded_filtered_group_agg": (
        "encoded_filtered_group_agg", ("g", ("range", "k", 0, 3), ["w"]),
        {"with_minmax": True},
        "SELECT g, count(*), coalesce(sum(w), 0), min(w), max(w) FROM t "
        "WHERE k BETWEEN 0 AND 3 GROUP BY g"),
    "encoded_group_quantiles": (
        "encoded_group_quantiles", ("g", "w"), {}, _quartile_sql("g", "w")),
    "encoded_group_where_quantiles": (
        "encoded_group_where_quantiles",
        (("not", ("eq", "k", 5)), "g", "v"), {},
        _quartile_sql("g", "v", "NOT (k = 5)")),
    "encoded_group_agg-null_key": (
        "encoded_group_agg", ("k", ["v", "w"]), {"with_minmax": True},
        "SELECT k, count(*), coalesce(sum(v), 0), coalesce(sum(w), 0), "
        "min(v), min(w), max(v), max(w) FROM t GROUP BY k"),
    "encoded_filtered_group_agg-null_key": (
        "encoded_filtered_group_agg", ("k", ("range", "v", -1, 2), ["w"]),
        {"with_minmax": True},
        "SELECT k, count(*), coalesce(sum(w), 0), min(w), max(w) FROM t "
        "WHERE v BETWEEN -1 AND 2 GROUP BY k"),
    "encoded_group_quantiles-null_key": (
        "encoded_group_quantiles", ("k", "v"), {}, _quartile_sql("k", "v")),
    "encoded_group_where_quantiles-null_key": (
        "encoded_group_where_quantiles", (("range", "v", -1, 2), "k", "w"),
        {}, _quartile_sql("k", "w", "v BETWEEN -1 AND 2")),
    "encoded_distinct_count": (
        "encoded_distinct_count", ("w",), {},
        "SELECT count(DISTINCT w) FROM t"),
    "encoded_distinct_count-where": (
        "encoded_distinct_count", ("w",), {"expr": ("range", "k", 0, 3)},
        "SELECT count(DISTINCT w) FROM t WHERE k BETWEEN 0 AND 3"),
    "encoded_group_by_str": (
        "encoded_group_by_str", ("g", ["v", "w"]),
        {"expr": ("range", "k", 0, 3)},
        "SELECT g, count(*), coalesce(sum(v), 0), coalesce(sum(w), 0) "
        "FROM t WHERE k BETWEEN 0 AND 3 GROUP BY g"),
    "encoded_group_by_str-null_key": (
        "encoded_group_by_str", ("s", ["w"]), {},
        "SELECT s, count(*), coalesce(sum(w), 0) FROM t GROUP BY s"),
    "encoded_group_by_str-null_composite": (
        "encoded_group_by_str", (["s", "g"], ["v"]), {},
        "SELECT s, g, count(*), coalesce(sum(v), 0) FROM t GROUP BY s, g"),
    "encoded_str_distinct-where": (
        "encoded_str_distinct", ("s",), {"expr": ("range", "k", 0, 3)},
        "SELECT count(DISTINCT s) FROM t WHERE k BETWEEN 0 AND 3"),
    "encoded_string_value_count": (
        "encoded_string_value_count", ("s", ""), {},
        "SELECT count(*) FROM t WHERE s = ''"),
    "encoded_str_minmax": (
        "encoded_str_minmax", ("s",), {}, "SELECT min(s), max(s) FROM t"),
    "encoded_scan_where": (
        _rows("encoded_scan_where"),
        (("not", ("eq", "k", 5)), ["k", "v", "w", "s"]), {},
        "SELECT k, v, w, s FROM t WHERE NOT (k = 5)"),
    "encoded_lookup_join": (
        _rows("encoded_lookup_join"),
        ("k", _DIM, "dk", ["name"], ["v", "w", "s"]),
        {"expr": ("not", ("eq", "v", 0))},
        f"SELECT k, v, w, s, name FROM t JOIN {_DIM_SQL} ON k = dk "
        "WHERE NOT (v = 0)"),
}


@pytest.mark.parametrize("case", list(_NULL_SKIP_CASES))
def test_null_skipping_aggregates_match_duckdb(nullable_kv, any_batching,
                                               case):
    """The unfiltered aggregates (thin wrappers over the where-family
    cores), the grouped cores and COUNT(DISTINCT) answer nullable
    columns like SQL: aggregates and DISTINCT skip NULLs — value 0, the
    encoder's null filler, is never counted for a NULL slot — and
    NULL predicate operands never match.  Multi-row outputs compare as
    sorted row lists, alike per chunk and per batch.  The string cores
    skip NULL strings the same way, and the row scans return NULL for a
    NULL projected slot."""
    import duckdb

    fn, args, kwargs, sql = _NULL_SKIP_CASES[case]
    tbl, out_dir = nullable_kv
    got, _ = any_batching(_entry(fn), out_dir, *args, **kwargs)
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute(sql).fetchall()

    def py(v):
        # a NULL row value reads as NaN from a float-typed frame column
        return None if v is None or v != v else \
            v if isinstance(v, str) else int(v)

    # repr orders rows that hold None next to ints
    assert sorted((tuple(py(v) for v in row)
                   for row in got.itertuples(index=False)), key=repr) == \
        sorted((tuple(py(v) for v in row) for row in want), key=repr), case


@pytest.mark.parametrize("fn", ["encoded_group_agg",
                                "encoded_filtered_group_agg",
                                "encoded_group_quantiles",
                                "encoded_group_where_quantiles"])
def test_null_group_key_is_its_own_group(ray_session, tmp_path,
                                         any_batching, fn):
    """A NULL group key is its own group, as in SQL, and sorts last.
    The encoder fills NULL slots with 0, so the all-NULL key chunk here
    has the zone map 0..0 of a group-pure chunk, next to real group-0
    chunks: a key step that took it for pure would put its rows into
    group 0.  Every grouped entry point matches DuckDB per chunk and
    per batch."""
    import duckdb
    import ray.data

    from tokrle.pipelines import table_encode

    g = np.repeat([0, 1, 0, 2], 128)
    tbl = pa.table({"g": pa.array(g, mask=np.repeat([0, 0, 1, 0], 128)
                                  .astype(bool)),
                    "v": pa.array(np.arange(512) % 8)})
    out_dir = str(tmp_path / "null_group")
    table_encode.encode_table_columns(
        ray.data.from_arrow(tbl), ["g", "v"],
        batch_size=128).write_parquet(out_dir)
    assert _chunk_rows(out_dir) == 4
    args, kwargs, sql = {
        "encoded_group_agg": (("g", ["v"]), {"with_minmax": True},
                              "SELECT g, count(*), sum(v), min(v), max(v) "
                              "FROM t GROUP BY g"),
        "encoded_filtered_group_agg": (
            ("g", ("range", "v", 1, 7), ["v"]), {},
            "SELECT g, count(*), sum(v) FROM t WHERE v BETWEEN 1 AND 7 "
            "GROUP BY g"),
        "encoded_group_quantiles": (("g", "v"), {}, _quartile_sql("g", "v")),
        "encoded_group_where_quantiles": (
            (("range", "v", 1, 7), "g", "v"), {},
            _quartile_sql("g", "v", "v BETWEEN 1 AND 7"))}[fn]
    got, counters = any_batching(getattr(table_encode, fn), out_dir, *args,
                                 **kwargs)
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute(sql).fetchall()
    rows = [tuple(None if v is None else int(v) for v in row)
            for row in got.itertuples(index=False)]
    assert sorted(rows, key=repr) == sorted(want, key=repr)
    # the NULL group sorts last, its key an object column holding None
    keys = [r[0] for r in rows]
    first_null = keys.index(None)
    assert got["g"].dtype == object and set(keys[first_null:]) == {None}
    assert keys[:first_null] == sorted(keys[:first_null])


#: core -> (entry point, args after enc_dir, kwargs, columns and dtypes
#: of the empty answer, its rows, counters beyond chunks_total/scanned/
#: skipped); the predicate admits no chunk of ``nullable_kv``
_PRUNED = ("range", "g", 300, 400)
_PRUNED_CASES = {
    "encoded_boolean_agg": (
        "encoded_boolean_agg", (_PRUNED, ["w"]), {"with_minmax": True},
        [("n_match", "int64"), ("sum_w", "int64"), ("min_w", "object"),
         ("max_w", "object")], [[0, 0, None, None]],
        {"all_hit_chunks": 0, "run_chunks": 0, "pure_group_chunks": 0,
         "nvalid_w": 0}),
    "_hist_core": (
        "encoded_boolean_histogram", (_PRUNED, "w"), {},
        [("value", "int64"), ("n", "int64")], [],
        {"all_hit_chunks": 0, "run_chunks": 0, "closed_form_chunks": 0,
         "gathered_chunks": 0, "hist_rows": 0}),
    "encoded_filtered_group_agg": (
        "encoded_filtered_group_agg", ("g", _PRUNED, ["w"]),
        {"with_minmax": True},
        [("g", "int64"), ("n", "int64"), ("sum_w", "int64"),
         ("min_w", "int64"), ("max_w", "int64")], [],
        {"all_hit_chunks": 0, "run_chunks": 0, "pure_group_chunks": 0,
         "nvalid_w": 0}),
    "encoded_group_where_quantiles": (
        "encoded_group_where_quantiles", (_PRUNED, "g", "w"), {},
        [("g", "int64"), ("q_num", "int64"), ("q_den", "int64"),
         ("quantile", "int64"), ("n_rows", "int64")], [],
        {"all_hit_chunks": 0, "run_chunks": 0, "closed_form_chunks": 0,
         "gathered_chunks": 0, "groups": 0, "hist_rows": 0}),
    "encoded_group_by_str": (
        "encoded_group_by_str", ("g", ["w"]), {"expr": _PRUNED},
        [("g", "int64"), ("n", "int64"), ("sum_w", "int64")], [],
        {"all_hit_chunks": 0, "run_chunks": 0, "pure_group_chunks": 0,
         "nvalid_w": 0}),
    "encoded_distinct_count": (
        "encoded_distinct_count", ("w",), {"expr": _PRUNED},
        [("n_distinct", "int64")], [[0]],
        {"closed_form_chunks": 0, "gathered_chunks": 0}),
    "encoded_str_distinct": (
        "encoded_str_distinct", ("s",), {"expr": _PRUNED},
        [("n_distinct", "int64")], [[0]],
        {"closed_form_chunks": 0, "gathered_chunks": 0}),
    "encoded_scan_where": (
        _rows("encoded_scan_where"), (_PRUNED, ["k", "w", "s"]), {},
        [("k", "int64"), ("w", "int64"), ("s", "object")], [],
        {"all_hit_chunks": 0, "run_chunks": 0}),
    "encoded_lookup_join": (
        _rows("encoded_lookup_join"),
        ("g", {"dk": [300, 301], "name": [1, 2]}, "dk", ["name"], ["s"]),
        {}, [("g", "int64"), ("s", "object"), ("name", "int64")], [],
        {"all_hit_chunks": 0, "run_chunks": 0}),
}


@pytest.mark.parametrize("case", list(_PRUNED_CASES))
def test_pruned_scan_empty_answer(nullable_kv, any_batching, case):
    """A zone filter that admits no chunk reads nothing: each
    predicate-tree scan core returns its
    empty answer with fixed columns and dtypes, and counts every chunk
    as skipped."""
    fn, args, kwargs, dtypes, rows, extra = _PRUNED_CASES[case]
    _, out_dir = nullable_kv
    got, counters = any_batching(_entry(fn), out_dir, *args, **kwargs)
    assert [(c, str(t)) for c, t in got.dtypes.items()] == dtypes
    assert got.values.tolist() == rows
    assert counters == {"chunks_total": 32, "chunks_scanned": 0,
                        "chunks_skipped": 32, **extra}


#: core -> (entry point, args after enc_dir, kwargs) over ``nullable_kv``
_SCANS = {
    "encoded_boolean_agg": ("encoded_boolean_agg",
                            (("range", "k", 0, 3), ["v", "w"]),
                            {"with_minmax": True}),
    "_hist_core": ("encoded_boolean_quantiles",
                            (("not", ("eq", "k", 5)), "w"), {}),
    "encoded_filtered_group_agg": ("encoded_filtered_group_agg",
                                   ("g", ("range", "k", 0, 3), ["w"]), {}),
    "encoded_group_where_quantiles": ("encoded_group_where_quantiles",
                                      (("range", "k", 0, 3), "g", "v"), {}),
    "encoded_topk_rows": ("encoded_topk_rows", ("g", 40), {}),
    "encoded_group_by_str": ("encoded_group_by_str",
                             ("g", []), {"expr": ("range", "g", 3, 9)}),
    "encoded_distinct_count": ("encoded_distinct_count", ("w",),
                               {"expr": ("range", "k", 0, 3)}),
    "encoded_string_value_count": ("encoded_string_value_count",
                                   ("s", "ab"), {}),
    "encoded_str_distinct": ("encoded_str_distinct", ("s",),
                             {"expr": ("range", "k", 0, 3)}),
    "encoded_str_quantiles": ("encoded_str_quantiles", ("s",), {}),
    "encoded_str_minmax": ("encoded_str_minmax", ("s",), {}),
    "encoded_scan_where": (_rows("encoded_scan_where"),
                           (("range", "k", 0, 3), ["k", "w", "s"]), {}),
    "encoded_lookup_join": (_rows("encoded_lookup_join"),
                            ("k", _DIM, "dk", ["name"], ["w", "s"]), {}),
}


@pytest.mark.parametrize("case", list(_SCANS))
def test_scans_start_no_ray_job(nullable_kv, monkeypatch, case):
    """The scan cores read in the caller: with Ray Data's Parquet reader
    made to raise, every scan core still answers, and answers as
    before."""
    import pandas as pd
    import ray.data

    fn, args, kwargs = _SCANS[case]
    _, out_dir = nullable_kv
    want, want_ctr = _entry(fn)(out_dir, *args, **kwargs)

    def no_job(*a, **kw):
        raise AssertionError("a scan started a Ray job")

    monkeypatch.setattr(ray.data, "read_parquet", no_job)
    got, ctr = _entry(fn)(out_dir, *args, **kwargs)
    pd.testing.assert_frame_equal(got, want)
    assert ctr == want_ctr and ctr["chunks_scanned"] > 0


@pytest.mark.parametrize("case", list(_SCANS))
def test_scan_counters_add_up(nullable_kv, case):
    """Every scan core counts chunks alike: scanned plus skipped chunks
    are the directory's chunks, and the chunks a core answered whole or
    through a selection run-list are among the scanned ones."""
    fn, args, kwargs = _SCANS[case]
    _, out_dir = nullable_kv
    _, ctr = _entry(fn)(out_dir, *args, **kwargs)
    assert ctr["chunks_scanned"] > 0
    assert ctr["chunks_scanned"] + ctr["chunks_skipped"] == \
        ctr["chunks_total"] == _chunk_rows(out_dir)
    if "all_hit_chunks" in ctr and "run_chunks" in ctr:
        assert ctr["all_hit_chunks"] + ctr["run_chunks"] <= \
            ctr["chunks_scanned"]


#: scan case -> (its core, the keys its entry point adds to the core's)
_CORE_OF = {
    "encoded_boolean_agg": ("count_sum", set()),
    "encoded_filtered_group_agg": ("count_sum", set()),
    "encoded_group_by_str": ("count_sum", set()),
    "encoded_string_value_count": ("count_sum", set()),
    "_hist_core": ("histogram", set()),
    "encoded_group_where_quantiles": ("histogram", {"groups"}),
    "encoded_topk_rows": ("histogram", {"threshold"}),
    "encoded_str_quantiles": ("histogram", set()),
    "encoded_distinct_count": ("distinct", set()),
    "encoded_str_distinct": ("distinct", set()),
}

#: core -> its counter keys beyond chunks_total/scanned/skipped (and,
#: for COUNT/SUM, one nvalid_<c> per aggregate column)
_CORE_KEYS = {
    "count_sum": {"all_hit_chunks", "run_chunks", "pure_group_chunks"},
    "histogram": {"all_hit_chunks", "run_chunks", "closed_form_chunks",
                  "gathered_chunks", "hist_rows"},
    "distinct": {"closed_form_chunks", "gathered_chunks"},
}


@pytest.mark.parametrize("core", list(_CORE_KEYS))
def test_scan_counter_keys_per_core(nullable_kv, core):
    """Every entry point of a core returns that core's counter keys:
    the three scan keys, the core's own, ``nvalid_<c>`` for each
    aggregate column of a COUNT/SUM call, and only the documented key
    its wrapper adds."""
    _, out_dir = nullable_kv
    cases = [c for c, (cr, _) in _CORE_OF.items() if cr == core]
    assert len(cases) >= 2
    for case in cases:
        fn, args, kwargs = _SCANS[case]
        _, ctr = _entry(fn)(out_dir, *args, **kwargs)
        aggs = args[-1] if core == "count_sum" and \
            isinstance(args[-1], list) else []
        assert set(ctr) == {"chunks_total", "chunks_scanned",
                            "chunks_skipped"} | _CORE_KEYS[core] | \
            {f"nvalid_{c}" for c in aggs} | _CORE_OF[case][1], case


def test_uint64_sum_raises_before_any_chunk(ray_session, tmp_path,
                                            monkeypatch):
    """A SUM over a full-range uint64 column can exceed the int64 answer
    column, so every COUNT/SUM entry point raises ``TypeError`` from the
    footer probe, before a chunk is read — the grouped ones included,
    which used to return wrapped int64 sums.  The uint64 histogram and
    its distinct count still answer."""
    import ray.data

    from tokrle.pipelines import table_encode as te

    u = np.uint64(1 << 63) + np.arange(512, dtype=np.uint64) * \
        np.uint64(337)
    tbl = pa.table({"u": pa.array(u), "g": pa.array(np.arange(512) % 3)})
    out_dir = str(tmp_path / "u64sum")
    te.encode_table_columns(ray.data.from_arrow(tbl), ["u", "g"],
                            batch_size=256).write_parquet(out_dir)
    hist, _ = te.encoded_histogram(out_dir, "u")
    assert hist["value"].tolist() == sorted(int(x) for x in u)
    assert te.encoded_distinct_count(out_dir, "u")[0].loc[0,
                                                          "n_distinct"] == 512

    def no_scan(*a, **kw):
        raise AssertionError("a chunk was read")

    monkeypatch.setattr(te, "_scan_partials", no_scan)
    for call in (lambda: te.encoded_filtered_group_agg(out_dir, "g", None,
                                                       ["u"]),
                 lambda: te.encoded_group_agg(out_dir, "g", ["u"]),
                 lambda: te.encoded_group_by_str(out_dir, "g", ["u"]),
                 lambda: te.encoded_boolean_agg(out_dir, None, ["u"]),
                 lambda: te.encoded_column_agg(out_dir, ["u"])):
        with pytest.raises(TypeError, match="uint64 sums"):
            call()


def test_uint64_group_key_keeps_its_order(ray_session, tmp_path,
                                          any_batching):
    """A uint64 GROUP BY key at or above 2^63 folds in the xor-2^63
    image, so it sorts after the smaller keys, and comes back as its
    uint64 value: keys 1, 2^63+5 and 7 in 8-row chunks (a uint64 key
    has no zone map, so every chunk gathers it) through the COUNT/SUM
    core with and without a predicate and through the quantile core,
    against DuckDB."""
    import duckdb
    import ray.data

    from tokrle.pipelines import table_encode as te

    keys = np.array([1, (1 << 63) + 5, 7], np.uint64)[np.arange(32) * 5 % 3]
    tbl = pa.table({"g": pa.array(keys),
                    "v": pa.array(np.arange(32) * 3 % 11, pa.int64())})
    out_dir = str(tmp_path / "u64key")
    te.encode_table_columns(ray.data.from_arrow(tbl), ["g", "v"],
                            batch_size=8).write_parquet(out_dir)
    con = duckdb.connect()
    con.register("t", tbl)

    def rows(df):
        return [tuple(map(int, r)) for r in df.itertuples(index=False)]

    got, _ = any_batching(te.encoded_group_agg, out_dir, "g", ["v"],
                          with_minmax=True)
    assert got["g"].dtype == np.uint64
    assert rows(got) == con.execute(
        "select g, count(*), sum(v), min(v), max(v) from t group by g "
        "order by g").fetchall()
    got, _ = any_batching(te.encoded_filtered_group_agg, out_dir, "g",
                          ("range", "v", 2, 8), ["v"])
    assert rows(got) == con.execute(
        "select g, count(*), sum(v) from t where v between 2 and 8 "
        "group by g order by g").fetchall()
    got, _ = any_batching(te.encoded_group_quantiles, out_dir, "g", "v")
    want = con.execute(
        "select g, quantile_disc(v, 0.25), quantile_disc(v, 0.5), "
        "quantile_disc(v, 0.75), count(v) from t group by g order by g"
    ).fetchall()
    assert rows(got) == sorted((g, a, b, q, n) for g, *qs, n in want for
                               (a, b), q in zip(((1, 4), (1, 2), (3, 4)), qs))


def test_int64_sum_past_range_raises(ray_session, tmp_path, monkeypatch,
                                     any_batching):
    """Sums fold exactly: 8 rows of 2^61 in 2-row chunks sum to 2^64
    while every chunk's sum fits in int64, so every COUNT/SUM path —
    ungrouped (closed form, run list, MIN/MAX gather), grouped by a pure
    key and by a mixed one — raises ``OverflowError`` per chunk and per
    batch instead of wrapping.  A sum whose running total leaves int64
    but whose total fits comes out exact."""
    import ray.data

    from tokrle.pipelines import table_encode as te

    big = 1 << 61
    tbl = pa.table({"b": pa.array([big] * 8, pa.int64()),
                    "s": pa.array([big, big, big, big, -big, -big, -big, 5],
                                  pa.int64()),
                    "k": pa.array([0, 1] * 4, pa.int64()),
                    "one": pa.array([0] * 8, pa.int64()),
                    "r": pa.array([0, 1, 2, 3, 4, 5, 6, 7], pa.int64())})
    out_dir = str(tmp_path / "i64sum")
    te.encode_table_columns(ray.data.from_arrow(tbl), tbl.column_names,
                            batch_size=2).write_parquet(out_dir)
    # chunks 0 and 2 select one row of two: run lists, not ALL
    run_list = ("in", "r", [0, 2, 3, 4, 6, 7])
    calls = [lambda: te.encoded_boolean_agg(out_dir, None, ["b"]),
             lambda: te.encoded_boolean_agg(out_dir, None, ["b"],
                                            with_minmax=True),
             lambda: te.encoded_boolean_agg(out_dir, ("range", "r", 1, 7),
                                            ["b"]),
             lambda: te.encoded_boolean_agg(out_dir, ("range", "r", 1, 7),
                                            ["b"], with_minmax=True),
             lambda: te.encoded_column_agg(out_dir, ["b"]),
             lambda: te.encoded_group_agg(out_dir, "one", ["b"]),
             lambda: te.encoded_group_agg(out_dir, "k", ["b"]),
             lambda: te.encoded_filtered_group_agg(out_dir, "k", run_list,
                                                   ["b"], with_minmax=True)]
    for b in (1, te._SCAN_BATCH_CHUNKS):
        monkeypatch.setattr(te, "_SCAN_BATCH_CHUNKS", b)
        for call in calls:
            with pytest.raises(OverflowError, match="'b'"):
                call()
    got, _ = any_batching(te.encoded_boolean_agg, out_dir, None, ["s"],
                          with_minmax=True)
    assert got.loc[0, "sum_s"] == big + 5
    got, _ = any_batching(te.encoded_group_agg, out_dir, "one", ["s"])
    assert got["sum_s"].tolist() == [big + 5]


def test_siblings_present_timestamps_and_narrow_ints_alike(ray_session,
                                                           tmp_path):
    """The histogram, quantile and top-k entry points present a
    ``timestamp[ns]`` and an ``int8`` column alike: quantiles in epoch
    microseconds (int64), histogram and top-k values in the stored
    dtype, with a predicate, with a GROUP BY and without either."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines import table_encode as te

    sec = np.arange(512) * 7 % 13
    ts = np.datetime64("2020-01-01T00:00:00", "ns") + \
        (sec * 1_000_000_000 + 999).astype("timedelta64[ns]")
    tbl = pa.table({"ts": pa.array(ts),
                    "i8": pa.array((np.arange(512) % 11 - 5)
                                   .astype(np.int8)),
                    "one": pa.array(np.zeros(512, np.int64))})
    out_dir = str(tmp_path / "present")
    te.encode_table_columns(ray.data.from_arrow(tbl), ["ts", "i8", "one"],
                            batch_size=256).write_parquet(out_dir)
    every = ("range", "one", 0, 0)
    for col, stored in (("ts", np.dtype("datetime64[ns]")),
                        ("i8", np.dtype(np.int8))):
        plain = np.sort(tbl[col].to_numpy().astype(
            "datetime64[us]" if col == "ts" else np.int64).astype(np.int64))
        want, _ = te.encoded_quantiles(out_dir, col, with_moments=False)
        assert want["quantile"].dtype == np.int64
        assert want["quantile"].tolist() == [
            int(plain[-(-a * 512 // b) - 1]) for a, b in ((1, 4), (1, 2),
                                                          (3, 4))]
        got, _ = te.encoded_boolean_quantiles(out_dir, every, col)
        pd.testing.assert_frame_equal(got, want)
        got, _ = te.encoded_group_where_quantiles(out_dir, every, "one", col)
        pd.testing.assert_frame_equal(
            got.drop(columns="one"),
            want.sort_values(["q_num", "q_den"], ignore_index=True))
        hist, _ = te.encoded_histogram(out_dir, col)
        assert hist["value"].dtype == stored
        got, _ = te.encoded_boolean_histogram(out_dir, every, col)
        pd.testing.assert_frame_equal(got, hist)
        top, _ = te.encoded_topk_rows(out_dir, col, 3)
        assert top["value"].dtype == stored
        assert top["value"].tolist() == hist["value"].tolist()[::-1][:1]


def test_scan_batches_bound_chunks(ray_session, tmp_path, monkeypatch):
    """A scan core's per-batch function sees at most
    ``_SCAN_BATCH_CHUNKS`` chunk rows, however well they compress: a
    constant column (a few payload bytes per 4096-row chunk) in 40
    chunks is scanned in batches of at most 8 chunks, and the answer is
    exact."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines import table_encode

    n = 40 * 4096
    ds = ray.data.from_pandas(pd.DataFrame(
        {"k": np.full(n, 7, np.int64), "v": np.full(n, 3, np.int64)}))
    out_dir = str(tmp_path / "const")
    table_encode.encode_table_columns(
        ds, ["k", "v"], batch_size=4096).write_parquet(out_dir)
    seen = []
    scan = table_encode._scan_partials

    def spy(enc_dir, columns, flt, fn):
        def rec(batch):
            seen.append(len(batch))
            return fn(batch)
        return scan(enc_dir, columns, flt, rec)

    monkeypatch.setattr(table_encode, "_SCAN_BATCH_CHUNKS", 8)
    monkeypatch.setattr(table_encode, "_scan_partials", spy)
    got, ctr = table_encode.encoded_boolean_agg(
        out_dir, ("range", "v", 0, 5), ["v"])
    assert got.loc[0, "n_match"] == n and got.loc[0, "sum_v"] == 3 * n
    assert sum(seen) == ctr["chunks_scanned"] == 40
    assert max(seen) <= 8 and len(seen) >= 5


def test_encoded_distinct_count_closed_form(ray_session, tmp_path):
    """Exact distinct counts from the encoded layout: clustered
    low-cardinality columns answer via dict/rle closed forms, arbitrary
    columns via decode fallback — both match pandas nunique."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_distinct_count)

    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        # wide-spread low-cardinality values select the dict codec, so
        # this column's distinct sets come from the dictionary stream
        # alone (the closed form under test)
        "label": rng.choice(np.array([3, 900017, -12, 10**9, 77],
                                     dtype=np.int64), 20_000),
        "key": np.sort(rng.integers(0, 30, 20_000)).astype("int64"),
        "wide": rng.integers(0, 10**12, 20_000).astype("int64"),
    })
    out_dir = str(tmp_path / "distinct")
    encode_table_columns(ray.data.from_pandas(df),
                         ["label", "key", "wide"],
                         batch_size=1024).write_parquet(out_dir)

    got, counters = encoded_distinct_count(out_dir, "label")
    assert int(got["n_distinct"].iloc[0]) == df["label"].nunique()
    # every chunk answers from its closed form, and the label chunks
    # are dict/rle ones: ``closed_form_chunks`` counts any null-free
    # chunk selected whole, so the codec check pins the dictionary path
    codecs = [c for f in sorted(glob.glob(out_dir + "/*.parquet"))
              for c in pq.read_table(f, columns=["label__codec"])
              .column(0).to_pylist()]
    assert codecs and set(codecs) <= {"dict", "rle"}, set(codecs)
    assert counters["closed_form_chunks"] == counters["chunks_total"] \
        == len(codecs), counters

    # sorted key lands on delta-family codecs (decode fallback) and a
    # wide uniform column on bitpack — both still exact
    got, counters = encoded_distinct_count(out_dir, "key")
    assert int(got["n_distinct"].iloc[0]) == df["key"].nunique()

    got, counters = encoded_distinct_count(out_dir, "wide")
    assert int(got["n_distinct"].iloc[0]) == df["wide"].nunique()


def test_encoded_distinct_count_filtered(ray_session, tmp_path):
    """COUNT(DISTINCT) under predicate trees: closed-form on wholly
    matching chunks, gather on run-list chunks, zero scan on a
    disjoint range — all equal to pandas on the selected subset."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_distinct_count)

    rng = np.random.default_rng(83)
    n = 12_000
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 50, n)).astype("int64"),
        "label": rng.choice(np.array([7, -3, 10**9, 42],
                                     dtype=np.int64), n),
    })
    out_dir = str(tmp_path / "wdistinct")
    encode_table_columns(ray.data.from_pandas(df), ["key", "label"],
                         batch_size=512).write_parquet(out_dir)

    for expr, mask in (
            (("range", "key", 5, 30),
             (df["key"] >= 5) & (df["key"] <= 30)),
            (("not", ("eq", "key", 10)), df["key"] != 10),
            (("range", "key", 500, 900), df["key"] > 10**9)):
        got, counters = encoded_distinct_count(out_dir, "label",
                                               expr=expr)
        want = df.loc[mask, "label"].nunique()
        assert int(got["n_distinct"].iloc[0]) == want, (expr, counters)
    # the clustered whole-range case must keep the closed form
    _, c = encoded_distinct_count(out_dir, "label",
                                  expr=("range", "key", 0, 49))
    assert c["closed_form_chunks"] > 0 and c["gathered_chunks"] == 0, c
    # disjoint range: nothing scans
    _, c = encoded_distinct_count(out_dir, "label",
                                  expr=("range", "key", 500, 900))
    assert c["closed_form_chunks"] + c["gathered_chunks"] == 0, c


def test_encoded_distinct_filtered_uint64_mixed_batches(ray_session,
                                                        tmp_path):
    """Regression: a batch whose whole selection is empty emits only
    counter rows; with a full-range uint64 column the value rows of
    OTHER batches must still concat with them (everything normalizes
    into the int64 image before the exchange — previously a
    mixed-schema block crash)."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_distinct_count)

    rng = np.random.default_rng(97)
    n = 4_000
    h = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    h[::2] |= np.uint64(1) << np.uint64(63)
    key = np.sort(rng.integers(0, 50, n)).astype("int64")
    tbl = pa.table({"key": pa.array(key), "h": pa.array(h)})
    out_dir = str(tmp_path / "u64dist")
    encode_table_columns(ray.data.from_arrow(tbl), ["key", "h"],
                         batch_size=256).write_parquet(out_dir)

    # NOT(range) keeps the scan unprunable: chunks inside the range
    # survive the scan but select nothing (counter-only batches)
    expr = ("not", ("range", "key", 10, 40))
    got, counters = encoded_distinct_count(out_dir, "h", expr=expr)
    mask = (key < 10) | (key > 40)
    want = len(np.unique(h[mask]))
    assert int(got["n_distinct"].iloc[0]) == want, counters


def test_encoded_histogram_matches_pandas(ray_session, tmp_path):
    """GROUP BY value COUNT(*) from the encoded layout must equal pandas
    value_counts row for row across codec mixes, and conserve row
    totals."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_histogram)

    rng = np.random.default_rng(47)
    df = pd.DataFrame({
        "label": rng.choice(np.array([3, 900017, -12, 10**9, 77],
                                     dtype=np.int64), 15_000),
        "key": np.sort(rng.integers(0, 25, 15_000)).astype("int64"),
    })
    out_dir = str(tmp_path / "hist")
    encode_table_columns(ray.data.from_pandas(df), ["label", "key"],
                         batch_size=1024).write_parquet(out_dir)

    for col in ("label", "key"):
        hist, counters = encoded_histogram(out_dir, col)
        want = df[col].value_counts().sort_index()
        assert hist["value"].tolist() == want.index.tolist(), col
        assert hist["n"].tolist() == want.values.tolist(), col
        assert int(hist["n"].sum()) == len(df), col


def test_encoded_quantiles_match_duckdb(ray_session, tmp_path):
    """quantile_disc + exact power sums from the encoded layout must
    match DuckDB bit-exactly across codec mixes, including rank
    boundaries where q*n is an exact integer (the ceil-div edge)."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_quantiles)

    rng = np.random.default_rng(59)
    # n = 12_000 makes q*n integral for q in {1/4, 1/2, 3/4}: the exact
    # rank-boundary case where a float-rounded rank would pick the
    # wrong neighbour on tied-free columns
    n = 12_000
    df = pd.DataFrame({
        "label": rng.choice(np.array([3, 900017, -12, 10**6, 77],
                                     dtype=np.int64), n),
        "key": np.sort(rng.integers(0, 25, n)).astype("int64"),
        "wide": rng.integers(-10**6, 10**6, n).astype("int64"),
    })
    out_dir = str(tmp_path / "quant")
    encode_table_columns(ray.data.from_pandas(df),
                         ["label", "key", "wide"],
                         batch_size=1024).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", df)
    for col in ("label", "key", "wide"):
        got, counters = encoded_quantiles(out_dir, col)
        want = con.sql(f"""
            select quantile_disc({col}, 0.25) q25,
                   quantile_disc({col}, 0.50) q50,
                   quantile_disc({col}, 0.75) q75,
                   sum({col}) sv, sum({col}*{col}) sv2
            from t""").fetchone()
        assert got["quantile"].tolist() == list(want[:3]), col
        assert int(got["sum_v"].iloc[0]) == int(want[3]), col
        assert int(got["sum_v2"].iloc[0]) == int(want[4]), col
        assert int(got["n_rows"].iloc[0]) == n, col


def test_encoded_quantiles_datetime_any_unit(ray_session, tmp_path):
    """Datetime quantiles come back as epoch microseconds whatever the
    column's unit: date32 (numpy ``D``) and s, ms, us and ns timestamps
    holding the same dates, pre-1970 ones included, all rank to the
    same answer."""
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_quantiles)

    days = np.repeat(np.array(
        ["1961-07-14", "1969-12-31", "1999-02-28", "2020-01-01",
         "2020-06-01", "2021-01-01", "2022-03-04"], dtype="datetime64[D]"),
        [3, 1, 2, 2, 5, 1, 4])
    units = {"d": "D", "s": "s", "ms": "ms", "us": "us", "ns": "ns"}
    t = pa.table({c: pa.array(days.astype(f"datetime64[{u}]"))
                  for c, u in units.items()})
    assert t.schema.field("d").type == pa.date32()
    out_dir = str(tmp_path / "dates")
    encode_table_columns(ray.data.from_arrow(t), list(units),
                         batch_size=8).write_parquet(out_dir)

    qs = ((1, 18), (1, 4), (1, 2), (3, 4), (1, 1))
    ordered = np.sort(days.astype("datetime64[us]").view(np.int64))
    want = [int(ordered[-(-num * len(days) // den) - 1])
            for num, den in qs]
    for c in units:
        got, _ = encoded_quantiles(out_dir, c, qs, with_moments=False)
        assert got["quantile"].tolist() == want, c


def test_encoded_group_quantiles_match_duckdb(ray_session, tmp_path):
    """Per-group quantile_disc from the encoded layout must match DuckDB
    for both chunk classes: a clustered group key (pure chunks, group
    from the zone map) and an unclustered one (mixed chunks, lexsort
    fold), across codec mixes."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_quantiles)

    rng = np.random.default_rng(61)
    n = 10_000
    df = pd.DataFrame({
        # sorted low-cardinality key: clustered -> pure chunks
        "key": np.sort(rng.integers(0, 12, n)).astype("int64"),
        # unclustered grouping column -> mixed chunks
        "cat": rng.integers(0, 5, n).astype("int64"),
        "val": rng.integers(-10**6, 10**6, n).astype("int64"),
    })
    out_dir = str(tmp_path / "gquant")
    encode_table_columns(ray.data.from_pandas(df), ["key", "cat", "val"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", df)
    for group_col, agg_col in (("key", "val"), ("cat", "val"),
                               ("key", "cat")):
        got, counters = encoded_group_quantiles(out_dir, group_col,
                                                agg_col)
        want = con.sql(f"""
            select {group_col} grp,
                   quantile_disc({agg_col}, 0.25) q25,
                   quantile_disc({agg_col}, 0.50) q50,
                   quantile_disc({agg_col}, 0.75) q75,
                   count(*) n
            from t group by {group_col} order by grp""").df()
        for (_, w) in want.iterrows():
            sub = got[got[group_col] == w["grp"]]
            by_q = {(int(r["q_num"]), int(r["q_den"])): int(r["quantile"])
                    for _, r in sub.iterrows()}
            assert by_q == {(1, 4): int(w["q25"]), (1, 2): int(w["q50"]),
                            (3, 4): int(w["q75"])}, \
                (group_col, agg_col, int(w["grp"]))
            assert (sub["n_rows"] == int(w["n"])).all()
        if group_col == "key":
            assert counters["closed_form_chunks"] > 0, counters


def test_encoded_boolean_quantiles_match_duckdb(ray_session, tmp_path):
    """Quantiles under predicate trees must match DuckDB's FILTER-ed
    quantile_disc, including a NOT branch, a 3VL nullable predicate
    column (NULL never matches), and an empty selection (None)."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_quantiles)

    rng = np.random.default_rng(67)
    n = 8_000
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 40, n)).astype("int64"),
        "flag": rng.integers(0, 4, n).astype("int64"),
        "val": rng.integers(-10**5, 10**5, n).astype("int64"),
    })
    # nullable predicate column: every flag==0 slot becomes NULL
    nullable = pa.table({
        "key": pa.array(df["key"]),
        "flag": pa.array(df["flag"].to_numpy(),
                         mask=(df["flag"] == 0).to_numpy()),
        "val": pa.array(df["val"]),
    })
    out_dir = str(tmp_path / "bquant")
    encode_table_columns(ray.data.from_arrow(nullable),
                         ["key", "flag", "val"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", nullable)
    for expr, where in (
            (("and", ("range", "key", 5, 20), ("not", ("eq", "flag", 2))),
             "key between 5 and 20 and not (flag = 2)"),
            (("or", ("eq", "flag", 1), ("eq", "flag", 3)),
             "flag = 1 or flag = 3"),
            (("range", "key", 500, 900), "key between 500 and 900")):
        got, counters = encoded_boolean_quantiles(out_dir, expr, "val")
        want = con.sql(f"""
            select quantile_disc(val, 0.25) q25,
                   quantile_disc(val, 0.50) q50,
                   quantile_disc(val, 0.75) q75, count(*) n
            from t where {where}""").fetchone()
        by_q = {(int(r["q_num"]), int(r["q_den"])): r["quantile"]
                for _, r in got.iterrows()}
        assert by_q == {(1, 4): want[0], (1, 2): want[1],
                        (3, 4): want[2]}, (where, counters)
        assert (got["n_rows"] == int(want[3])).all()

    # a nullable AGG column skips its NULLs, like SQL quantile_disc
    got, _ = encoded_boolean_quantiles(out_dir, ("range", "key", 0, 50),
                                       "flag")
    want = con.sql("""
        select quantile_disc(flag, 0.25), quantile_disc(flag, 0.50),
               quantile_disc(flag, 0.75), count(flag)
        from t where key between 0 and 50""").fetchone()
    assert [int(q) for q in got["quantile"]] == list(want[:3])
    assert (got["n_rows"] == int(want[3])).all()


def test_encoded_quantiles_uint64_full_range(ray_session, tmp_path):
    """Grouped and filtered quantiles over a FULL-RANGE uint64 column
    (hash/signature values straddling 2^63) must not wrap: the fold
    rides the order-preserving xor-2^63 image and the driver unbiases,
    matching DuckDB's UBIGINT quantile_disc exactly."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_quantiles,
                                               encoded_group_quantiles)

    rng = np.random.default_rng(73)
    n = 4_000
    h = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    h[::2] |= np.uint64(1) << np.uint64(63)  # half the values >= 2^63
    tbl = pa.table({
        "key": pa.array(np.sort(rng.integers(0, 8, n)).astype("int64")),
        "h": pa.array(h),
    })
    out_dir = str(tmp_path / "u64quant")
    encode_table_columns(ray.data.from_arrow(tbl), ["key", "h"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", tbl)

    got, _ = encoded_boolean_quantiles(out_dir,
                                       ("range", "key", 2, 5), "h")
    want = con.sql("""
        select quantile_disc(h, 0.25), quantile_disc(h, 0.50),
               quantile_disc(h, 0.75), count(*)
        from t where key between 2 and 5""").fetchone()
    # NOTE: iterrows() would upcast the mixed-dtype row through float64
    # and corrupt >2^53 values — read columns directly
    by_q = {(int(a), int(b)): int(q) for a, b, q in
            zip(got["q_num"], got["q_den"], got["quantile"])}
    assert by_q == {(1, 4): int(want[0]), (1, 2): int(want[1]),
                    (3, 4): int(want[2])}
    assert max(by_q.values()) >= (1 << 63)  # actually exercised the top

    gotg, _ = encoded_group_quantiles(out_dir, "key", "h")
    # fetchall, not .df(): duckdb's pandas conversion routes the mixed
    # result through float64 and corrupts >2^53 UBIGINT values
    wantg = con.sql("""
        select key, quantile_disc(h, 0.50) q50 from t
        group by key order by key""").fetchall()
    med = gotg[(gotg["q_num"] == 1) & (gotg["q_den"] == 2)] \
        .sort_values("key")
    assert [int(v) for v in med["quantile"]] == \
        [int(q50) for _, q50 in wantg]


def test_encoded_group_where_quantiles_match_duckdb(ray_session,
                                                    tmp_path, any_batching):
    """WHERE + GROUP BY + quantile_disc composed: both chunk classes
    (closed-form: wholly selected + group-pure; gathered: run-list or
    group-mixed) must match DuckDB, including a uint64 agg column and
    an empty selection, alike per chunk and per batch."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (
        encode_table_columns, encoded_group_where_quantiles)

    rng = np.random.default_rng(79)
    n = 9_000
    h = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    h[::3] |= np.uint64(1) << np.uint64(63)
    df = pd.DataFrame({
        "key": np.sort(rng.integers(0, 10, n)).astype("int64"),
        "flag": rng.integers(0, 5, n).astype("int64"),
        "val": rng.integers(-10**6, 10**6, n).astype("int64"),
    })
    tbl = pa.table({**{c: pa.array(df[c]) for c in df.columns},
                    "h": pa.array(h)})
    out_dir = str(tmp_path / "gwquant")
    encode_table_columns(ray.data.from_arrow(tbl),
                         ["key", "flag", "val", "h"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", tbl)
    for expr, where, agg in (
            (("range", "key", 2, 7), "key between 2 and 7", "val"),
            (("and", ("range", "key", 0, 9),
              ("not", ("eq", "flag", 3))),
             "key between 0 and 9 and not (flag = 3)", "val"),
            (("range", "key", 3, 6), "key between 3 and 6", "h"),
            (("range", "key", 300, 400), "key between 300 and 400",
             "val")):
        got, counters = any_batching(encoded_group_where_quantiles,
                                   out_dir, expr, "key", agg)
        want = con.sql(f"""
            select key, quantile_disc({agg}, 0.50) q50, count(*) c
            from t where {where} group by key order by key""").fetchall()
        med = got[(got["q_num"] == 1) & (got["q_den"] == 2)] \
            .sort_values("key")
        assert [int(v) for v in med["quantile"]] == \
            [int(q50) for _, q50, _ in want], (where, agg)
        assert [int(v) for v in med["n_rows"]] == \
            [int(c) for _, _, c in want]
        if where == "key between 2 and 7":
            # clustered key, whole-range selection: interior chunks are
            # wholly selected AND group-pure -> closed form must fire
            assert counters["closed_form_chunks"] > 0, counters
        if where == "key between 300 and 400":
            assert counters["chunks_scanned"] == 0, counters
            assert len(got) == 0


def test_encoded_boolean_histogram_topk_match_duckdb(ray_session,
                                                     tmp_path):
    """Filtered histogram and filtered top-k: exact counts under
    predicate trees incl. heavy ties at the k boundary, an empty
    selection, and a full-range uint64 column."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_histogram,
                                               encoded_boolean_topk)

    rng = np.random.default_rng(89)
    n = 8_000
    h = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    h[::2] |= np.uint64(1) << np.uint64(63)
    tbl = pa.table({
        "key": pa.array(np.sort(rng.integers(0, 30, n)).astype("int64")),
        # heavy ties: only 6 distinct values
        "val": pa.array(rng.integers(0, 6, n).astype("int64")),
        "h": pa.array(h),
    })
    out_dir = str(tmp_path / "bht")
    encode_table_columns(ray.data.from_arrow(tbl), ["key", "val", "h"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", tbl)
    expr, where = (("and", ("range", "key", 3, 20),
                    ("not", ("eq", "val", 2))),
                   "key between 3 and 20 and not (val = 2)")

    hist, _ = encoded_boolean_histogram(out_dir, expr, "val")
    want = con.sql(f"""select val, count(*) n from t where {where}
                      group by val order by val""").fetchall()
    assert [(int(v), int(c)) for v, c in
            zip(hist["value"], hist["n"])] == \
        [(int(v), int(c)) for v, c in want]

    for col, k in (("val", 100), ("h", 17)):
        top, counters = encoded_boolean_topk(out_dir, expr, col, k)
        wt = con.sql(f"""
            with s as (select {col} v from t where {where}
                       order by v desc limit {k})
            select v, count(*) n from s group by v
            order by v desc""").fetchall()
        assert [(int(v), int(c)) for v, c in
                zip(top["value"], top["n"])] == \
            [(int(v), int(c)) for v, c in wt], (col, k, counters)

    # empty selection: no rows, nothing scanned
    top, counters = encoded_boolean_topk(
        out_dir, ("range", "key", 500, 900), "val", 5)
    assert len(top) == 0 and counters["chunks_scanned"] == 0


def test_encoded_str_quantiles_match_duckdb(ray_session, tmp_path):
    """String quantile_disc must match DuckDB's binary collation,
    including non-ASCII values (UTF-8 byte order == code-point order),
    NULL slots (skipped like SQL), and both chunk forms (sdict code
    histogram vs full decode)."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_str_quantiles)

    rng = np.random.default_rng(71)
    n = 6_000
    pool = np.array(["", "a", "ab", "zz", "émile", "Ωmega", "日本語",
                     "src1", "src10", "src2"], dtype=object)
    vals = pool[rng.integers(0, len(pool), n)]
    mask = rng.random(n) < 0.1
    # unique-ish long values defeat the sdict probe -> plain str chunks
    wide = np.array([f"doc-{i:06d}-{'x' * (i % 37)}" for i in range(n)],
                    dtype=object)
    tbl = pa.table({
        "cat": pa.array(vals, type=pa.string(), mask=mask),
        # null-free twin: eligible for the sdict code-only closed form
        "catn": pa.array(vals, type=pa.string()),
        "wide": pa.array(wide, type=pa.string()),
    })
    out_dir = str(tmp_path / "squant")
    encode_table_columns(ray.data.from_arrow(tbl),
                         ["cat", "catn", "wide"],
                         batch_size=512).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", tbl)
    seen = {}
    for col in ("cat", "wide", "catn"):
        got, counters = encoded_str_quantiles(out_dir, col)
        seen[col] = counters
        want = con.sql(f"""
            select quantile_disc({col}, 0.25) q25,
                   quantile_disc({col}, 0.50) q50,
                   quantile_disc({col}, 0.75) q75, count({col}) n
            from t""").fetchone()
        by_q = {(int(r["q_num"]), int(r["q_den"])): r["quantile"]
                for _, r in got.iterrows()}
        assert by_q == {(1, 4): want[0], (1, 2): want[1],
                        (3, 4): want[2]}, (col, counters)
        assert (got["n_rows"] == int(want[3])).all()
    # null-free low-cardinality column: the sdict CODE-ONLY closed form
    # must actually run (text never decodes beyond the dictionary)
    assert seen["catn"]["closed_form_chunks"] > 0, seen["catn"]
    # high-cardinality long values must never probe the dictionary, and
    # nullable chunks must take the decode path (null skip gathers)
    assert seen["wide"]["closed_form_chunks"] == 0, seen["wide"]
    assert seen["cat"]["gathered_chunks"] > 0, seen["cat"]


def test_encoded_quantiles_overflow_guard(ray_session, tmp_path):
    """Σv² beyond int64 must raise, not wrap: the fold itself is exact
    (Python ints), so the guard is the presentation boundary."""
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_quantiles)

    big = np.full(1000, 2**40, dtype=np.int64)  # Σv² = 1000 * 2^80
    ds = ray.data.from_arrow(pa.table({"x": pa.array(big)}))
    out_dir = str(tmp_path / "quant_ovf")
    encode_table_columns(ds, ["x"], batch_size=256).write_parquet(out_dir)
    with pytest.raises(OverflowError, match="sum_v2"):
        encoded_quantiles(out_dir, "x")


def test_encoded_string_value_count(ray_session, tmp_path):
    """String equality against the encoded layout: the lengths stream
    prefilter skips chunks with no candidate byte length, matches are
    exact vs pandas (including empty strings, non-ASCII values, and an
    absent same-length value), and null slots never match."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_string_value_count)

    rng = np.random.default_rng(53)
    vals = np.array(["en", "de", "français", "", "zh中文", "longer-tag"],
                    dtype=object)
    df = pd.DataFrame({"lang": rng.choice(vals, 8_000)})
    out_dir = str(tmp_path / "strpred")
    encode_table_columns(ray.data.from_pandas(df), ["lang"],
                         batch_size=512).write_parquet(out_dir)

    for v in ("en", "français", "", "zh中文", "xx", "absent-but-long"):
        got, counters = encoded_string_value_count(out_dir, "lang", v)
        want = int((df["lang"] == v).sum())
        assert int(got["n_match"].iloc[0]) == want, v
        hit = counters["all_hit_chunks"] + counters["run_chunks"]
        assert hit <= counters["chunks_scanned"], (v, counters)
        assert (hit > 0) == (want > 0), (v, counters)

    # a value whose byte length appears nowhere selects no chunk (that
    # its text is never decoded is pinned on match_eq_str in
    # tests/test_codecs.py)
    got, counters = encoded_string_value_count(out_dir, "lang", "xyzw")
    assert int(got["n_match"].iloc[0]) == 0
    assert counters["all_hit_chunks"] + counters["run_chunks"] == 0, \
        counters


def test_encoded_string_value_count_nulls_never_match(ray_session,
                                                      tmp_path):
    """Null slots encode as '' with a validity bitmap; counting '' must
    exclude them (SQL col = '' never matches NULL)."""
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_string_value_count)

    ds = ray.data.from_arrow(pa.table({
        "s": pa.array(["", None, "a", "", None, "b"] * 40)}))
    out_dir = str(tmp_path / "strpred_null")
    encode_table_columns(ds, ["s"], batch_size=64).write_parquet(out_dir)
    got, _ = encoded_string_value_count(out_dir, "s", "")
    assert int(got["n_match"].iloc[0]) == 80      # the real '' rows only
    got, _ = encoded_string_value_count(out_dir, "s", "a")
    assert int(got["n_match"].iloc[0]) == 40


def test_encoded_string_value_count_rejects_int_column(ray_session,
                                                       tmp_path):
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_string_value_count)

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(list(range(200)), type=pa.int64())}))
    out_dir = str(tmp_path / "strpred_int")
    encode_table_columns(ds, ["x"], batch_size=64).write_parquet(out_dir)
    with pytest.raises(Exception, match="not a string column"):
        encoded_string_value_count(out_dir, "x", "5")


def test_encoded_token_histogram_matches_flat_counts(ray_session):
    """Token frequencies computed from the ENCODED corpus (value_counts
    over chunk payloads, flat buffer never rebuilt) must equal direct
    numpy counts over the token table."""
    from collections import Counter

    from tokrle.pipelines.queries import encoded_token_histogram_stats
    from tokrle.sources.tokens import documents_to_tokens

    got = encoded_token_histogram_stats(SF)
    flat = np.concatenate(
        documents_to_tokens(SF).to_pandas()["tokens"].map(
            np.asarray).to_list())
    counts = Counter(flat.tolist())
    want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert list(zip(got["token"], got["n"])) == \
        [(int(t), int(n)) for t, n in want]


def test_encoded_filtered_agg_matches_pandas(ray_session, tmp_path):
    """Filtered aggregate (SUM WHERE key = value) against the encoded
    layout: exact vs pandas on clustered AND shuffled layouts; the
    clustered layout must prune chunks and hit the metadata-only
    ALL-match path; absent values answer from zone maps alone."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_filtered_agg)

    rng = np.random.default_rng(23)
    n = 30000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)),
        "v1": rng.integers(-1000, 1000, n),
        "v2": rng.integers(0, 7, n),       # low-cardinality -> dict/rle
    })

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=2)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame),
                             ["k", "v1", "v2"],
                             batch_size=1024).write_parquet(out_dir)
        for key in (5, 0, 11):
            got, counters = encoded_filtered_agg(out_dir, "k", key,
                                                 ["v1", "v2"])
            sel = frame[frame["k"] == key]
            assert got.loc[0, "n_match"] == len(sel), (layout, key)
            assert got.loc[0, "sum_v1"] == int(sel["v1"].sum())
            assert got.loc[0, "sum_v2"] == int(sel["v2"].sum())
            if layout == "clustered":
                assert counters["chunks_skipped"] > 0, (key, counters)
                assert counters["all_hit_chunks"] > 0, (key, counters)
        # absent value: zone maps answer with zero chunks scanned
        got, counters = encoded_filtered_agg(out_dir, "k", 99,
                                             ["v1", "v2"])
        assert got.loc[0, "n_match"] == 0 and counters["chunks_scanned"] \
            == 0 and got.loc[0, "sum_v1"] == 0


def test_encoded_conjunction_agg_matches_pandas(ray_session, tmp_path):
    """Compound-predicate aggregate (AND via run-list intersection)
    against the encoded layout: exact vs pandas on clustered AND
    shuffled layouts, including zone-map ALL-match shortcuts and
    impossible conjunctions answered scan-free."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_conjunction_agg)

    rng = np.random.default_rng(31)
    n = 30000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)),
        "r": rng.integers(0, 100, n),
        "v": rng.integers(-1000, 1000, n),
    })

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=3)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["k", "r", "v"],
                             batch_size=1024).write_parquet(out_dir)
        preds = [("eq", "k", 5), ("range", "r", 20, 60)]
        got, counters = encoded_conjunction_agg(out_dir, preds, ["v"])
        sel = frame[(frame["k"] == 5) & frame["r"].between(20, 60)]
        assert got.loc[0, "n_match"] == len(sel), layout
        assert got.loc[0, "sum_v"] == int(sel["v"].sum()), layout
        assert counters["run_chunks"] > 0, (layout, counters)
        if layout == "clustered":
            assert counters["chunks_skipped"] > 0, counters

        # range covering a predicate column's whole domain: that
        # predicate is an ALL-match everywhere and builds no run-list
        got2, c2 = encoded_conjunction_agg(
            out_dir, [("range", "r", 0, 99), ("eq", "k", 5)], ["v"])
        sel2 = frame[frame["k"] == 5]
        assert got2.loc[0, "n_match"] == len(sel2)
        assert got2.loc[0, "sum_v"] == int(sel2["v"].sum())

        # impossible second predicate: zone maps answer scan-free
        got3, c3 = encoded_conjunction_agg(
            out_dir, [("eq", "k", 5), ("range", "r", 500, 600)], ["v"])
        assert got3.loc[0, "n_match"] == 0 and c3["chunks_scanned"] == 0


def test_encoded_boolean_agg_matches_pandas(ray_session, tmp_path):
    """Boolean predicate trees (AND/OR/NOT) over the encoded layout:
    exact vs pandas on clustered and shuffled layouts, including a
    NOT branch (which disables zone pruning but must stay run-exact)
    and an OR whose zone filter still prunes."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(37)
    n = 30000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)),
        "r": rng.integers(0, 100, n),
        "v": rng.integers(-1000, 1000, n),
    })

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=4)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["k", "r", "v"],
                             batch_size=1024).write_parquet(out_dir)

        cases = [
            (("or", ("eq", "k", 3), ("eq", "k", 8)),
             frame[(frame["k"] == 3) | (frame["k"] == 8)]),
            (("and", ("range", "k", 2, 6),
              ("not", ("range", "r", 30, 70))),
             frame[frame["k"].between(2, 6) & ~frame["r"].between(30, 70)]),
            (("or", ("and", ("eq", "k", 5), ("range", "r", 0, 49)),
              ("not", ("range", "k", 0, 10))),
             frame[((frame["k"] == 5) & frame["r"].between(0, 49)) |
                   ~frame["k"].between(0, 10)]),
        ]
        for expr, sel in cases:
            got, counters = encoded_boolean_agg(out_dir, expr, ["v"])
            assert got.loc[0, "n_match"] == len(sel), (layout, expr)
            assert got.loc[0, "sum_v"] == int(sel["v"].sum()), \
                (layout, expr)
        if layout == "clustered":
            _, c_or = encoded_boolean_agg(
                out_dir, ("or", ("eq", "k", 3), ("eq", "k", 8)), ["v"])
            assert c_or["chunks_skipped"] > 0, c_or


def test_encoded_boolean_agg_nullable(ray_session, tmp_path):
    """NULLABLE columns through the whole boolean-aggregate path: SQL
    three-valued predicate semantics (DuckDB is the referee), payload-
    free is_null leaves with bitmap-length zone pruning on a clustered
    layout, and null-skipping SUM/MIN/MAX over a nullable aggregate
    column — including the all-null-selection case where MIN/MAX must
    come back NULL (None) even though rows matched."""
    import duckdb
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(11)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 40, n)),
        "r": rng.integers(0, 9, n),
        "v": rng.integers(-1000, 1000, n),
    })
    # plant nulls deterministically: k == 7 -> kn NULL; r == 3 -> vn NULL
    df["kn"] = df["k"].where(df["k"] != 7).astype("Int64")
    df["vn"] = df["v"].where(df["r"] != 3).astype("Int64")

    out_dir = str(tmp_path / "nullable")
    encode_table_columns(ray.data.from_pandas(df),
                         ["k", "r", "v", "kn", "vn"],
                         batch_size=1024).write_parquet(out_dir)

    con = duckdb.connect()
    con.register("t", df)
    cases = [
        ("is_null", ("is_null", "kn")),
        ("not_null", ("not_null", "kn")),
        ("not_of_range", ("not", ("range", "kn", 10, 30))),
        ("tree", ("and", ("or", ("eq", "kn", 5), ("is_null", "kn")),
                  ("not", ("range", "r", 4, 6)))),
        ("allnull_sel", ("and", ("eq", "r", 3), ("eq", "k", 7))),
    ]
    where = {
        "is_null": "kn IS NULL",
        "not_null": "kn IS NOT NULL",
        "not_of_range": "NOT (kn BETWEEN 10 AND 30)",
        "tree": "(kn = 5 OR kn IS NULL) AND NOT (r BETWEEN 4 AND 6)",
        "allnull_sel": "r = 3 AND k = 7",
    }
    for name, expr in cases:
        got, counters = encoded_boolean_agg(out_dir, expr, ["vn"],
                                            with_minmax=True)
        exp = con.execute(
            f"SELECT count(*), coalesce(sum(vn), 0), count(vn), "
            f"min(vn), max(vn) FROM t WHERE {where[name]}").fetchone()
        assert got.loc[0, "n_match"] == exp[0], name
        assert got.loc[0, "sum_vn"] == int(exp[1]), name
        assert counters["nvalid_vn"] == exp[2], name
        for col, idx in (("min_vn", 3), ("max_vn", 4)):
            if exp[idx] is None:
                assert pd.isna(got.loc[0, col]), (name, col)
            else:
                assert got.loc[0, col] == exp[idx], (name, col)
    # clustered layout: an IS NULL scan prunes chunks without nulls
    _, c = encoded_boolean_agg(out_dir, ("is_null", "kn"), ["v"])
    assert c["chunks_skipped"] > 0, c
    con.close()


def test_encoded_filtered_group_agg_matches_pandas(ray_session, tmp_path):
    """GROUP BY under a boolean predicate tree in the compressed
    domain: exact vs pandas on clustered and shuffled layouts.  On the
    clustered layout (group == sort key) the group-pure path must fire
    (group column never decodes); a miss-everything predicate returns
    an empty frame with nothing scanned."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_filtered_group_agg)

    rng = np.random.default_rng(53)
    n = 30000
    df = pd.DataFrame({
        "g": np.sort(rng.integers(0, 12, n)),
        "r": rng.integers(0, 100, n),
        "v": rng.integers(-1000, 1000, n),
    })

    cases = [
        ("and", ("range", "g", 2, 9), ("not", ("range", "r", 30, 70))),
        ("or", ("eq", "g", 3), ("eq", "g", 8)),
        ("range", "r", 10, 55),
    ]

    def oracle(frame, expr):
        def ev(e):
            if e[0] == "and":
                return ev(e[1]) & ev(e[2])
            if e[0] == "or":
                return ev(e[1]) | ev(e[2])
            if e[0] == "not":
                return ~ev(e[1])
            if e[0] == "eq":
                return frame[e[1]] == e[2]
            return frame[e[1]].between(e[2], e[3])
        sel = frame[ev(expr)]
        return sel.groupby("g").agg(
            n=("v", "size"), sum_v=("v", "sum")).reset_index()

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=7)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["g", "r", "v"],
                             batch_size=1024).write_parquet(out_dir)
        for expr in cases:
            want = oracle(frame, expr)
            got, counters = encoded_filtered_group_agg(
                out_dir, "g", expr, ["v"])
            assert list(got["g"]) == list(want["g"]), (layout, expr)
            assert list(got["n"]) == list(want["n"]), (layout, expr)
            assert list(got["sum_v"]) == list(want["sum_v"]), \
                (layout, expr)
        if layout == "clustered":
            _, c = encoded_filtered_group_agg(
                out_dir, "g", ("range", "r", 10, 55), ["v"])
            assert c["pure_group_chunks"] > 0, c
            _, c_or = encoded_filtered_group_agg(
                out_dir, "g", ("or", ("eq", "g", 3), ("eq", "g", 8)),
                ["v"])
            assert c_or["chunks_skipped"] > 0, c_or
        # miss-everything predicate: empty frame, nothing scanned
        got0, c0 = encoded_filtered_group_agg(
            out_dir, "g", ("eq", "g", 99), ["v"])
        assert len(got0) == 0 and c0["chunks_scanned"] == 0, (layout, c0)


def test_encoded_lookup_join_matches_pandas(ray_session, tmp_path):
    """Broadcast lookup join in the compressed domain: fact rows whose
    key hits the dimension late-materialize and pick up the dimension
    attributes; result must equal pandas merge (inner) exactly, on
    clustered and shuffled layouts, with and without an extra
    predicate.  Duplicate dim keys and column collisions raise."""
    import pandas as pd
    import pytest as _pytest
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_lookup_join)

    rng = np.random.default_rng(71)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)),
        "r": rng.integers(0, 100, n),
        "v": rng.integers(-1000, 1000, n),
    })
    dim = pd.DataFrame({"dk": np.arange(2, 9),
                        "attr": np.arange(2, 9) * 100 + 7})

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=9)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["k", "r", "v"],
                             batch_size=1024).write_parquet(out_dir)
        for expr, mask in ((None, np.ones(len(frame), bool)),
                           (("range", "r", 20, 60),
                            frame["r"].between(20, 60).to_numpy())):
            want = frame[mask].merge(
                dim, left_on="k", right_on="dk")[["k", "v", "attr"]] \
                .sort_values(["k", "v", "attr"]).reset_index(drop=True)
            got = encoded_lookup_join(
                out_dir, "k", dim, "dk", ["attr"], ["v"], expr=expr) \
                .to_pandas().sort_values(["k", "v", "attr"]) \
                .reset_index(drop=True)
            assert len(got) == len(want), (layout, expr)
            for c in ("k", "v", "attr"):
                assert list(got[c]) == list(want[c]), (layout, expr, c)

    out_dir = str(tmp_path / "clustered")
    with _pytest.raises(ValueError, match="unique"):
        encoded_lookup_join(out_dir, "k",
                            pd.DataFrame({"dk": [1, 1], "attr": [2, 3]}),
                            "dk", ["attr"], ["v"])
    with _pytest.raises(ValueError, match="collide"):
        encoded_lookup_join(out_dir, "k",
                            pd.DataFrame({"dk": [1], "v": [2]}),
                            "dk", ["v"], ["v"])


def test_encoded_scan_where_matches_pandas(ray_session, tmp_path):
    """Predicate-tree row retrieval with late materialization: the
    retrieved multiset (values AND dtypes) must equal the pandas
    selection, on clustered and shuffled layouts; a miss-everything
    predicate returns zero rows."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_scan_where)

    rng = np.random.default_rng(43)
    n = 30000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)).astype(np.int64),
        "r": rng.integers(0, 100, n).astype(np.int32),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
    })

    for layout, frame in (("clustered", df),
                          ("shuffled",
                           df.sample(frac=1, random_state=5)
                           .reset_index(drop=True))):
        out_dir = str(tmp_path / layout)
        encode_table_columns(ray.data.from_pandas(frame), ["k", "r", "v"],
                             batch_size=1024).write_parquet(out_dir)
        cases = [
            (("eq", "k", 5), frame[frame["k"] == 5]),
            (("and", ("eq", "k", 5), ("range", "r", 20, 60)),
             frame[(frame["k"] == 5) & frame["r"].between(20, 60)]),
            (("or", ("eq", "k", 3), ("not", ("range", "r", 0, 90))),
             frame[(frame["k"] == 3) | ~frame["r"].between(0, 90)]),
        ]
        for expr, sel in cases:
            got = encoded_scan_where(out_dir, expr,
                                     ["v", "r"]).to_pandas()
            assert len(got) == len(sel), (layout, expr)
            assert sorted(got["v"].tolist()) == \
                sorted(sel["v"].tolist()), (layout, expr)
            assert sorted(got["r"].tolist()) == \
                sorted(sel["r"].tolist()), (layout, expr)
            assert got["r"].dtype == np.int32      # dtype preserved
        got = encoded_scan_where(out_dir, ("eq", "k", 99),
                                 ["v"]).to_pandas()
        assert len(got) == 0


def test_encoded_topk_rows_matches_pandas(ray_session, tmp_path,
                                          any_batching):
    """Metadata-pruned top-k: the returned (value, n) multiset must
    equal pandas nlargest exactly — high-cardinality (many distinct
    values in the top-k), heavy-tie, k > n_rows, and clustered-pruning
    cases, alike per chunk and per batch."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_topk_rows)

    rng = np.random.default_rng(47)
    n = 30000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)).astype(np.int64),
        "hi": rng.integers(0, 10**9, n).astype(np.int64),   # high card
        "lo": rng.integers(0, 5, n).astype(np.int64),       # heavy ties
    })
    out_dir = str(tmp_path / "topk")
    encode_table_columns(ray.data.from_pandas(df), ["k", "hi", "lo"],
                         batch_size=1024).write_parquet(out_dir)

    def want_multiset(col, k):
        top = df[col].nlargest(k)
        return top.value_counts().sort_index(ascending=False)

    for col, k in (("hi", 37), ("lo", 100), ("k", 17),
                   ("hi", n + 50)):       # k past the table size
        got, counters = any_batching(encoded_topk_rows, out_dir, col, k)
        want = want_multiset(col, k)
        assert got["value"].tolist() == want.index.tolist(), (col, k)
        assert got["n"].tolist() == want.values.tolist(), (col, k)
        assert int(got["n"].sum()) == min(k, n)
    # the clustered key's top-k must prune chunks via the vmin threshold
    _, c = any_batching(encoded_topk_rows, out_dir, "k", 17)
    assert c["chunks_skipped"] > 0, c
    assert c["threshold"] is not None
    # an empty directory reports the same counter keys
    empty = tmp_path / "empty"
    empty.mkdir()
    assert set(encoded_topk_rows(str(empty), "k", 3)[1]) == set(c)


def test_topk_nullable_and_uint64_match_duckdb(ray_session, tmp_path,
                                              any_batching):
    """The one top-k on a nullable column and on uint64 equals DuckDB's
    ``ORDER BY c DESC LIMIT k`` over the non-NULL rows.  Chunk 0 holds
    -10..-5 and is 90% NULL: its 0 filler lifts its vmax, and its 512
    slots would cover k = 500 if NULL slots counted, setting T to -10 and
    wrongly pruning chunk 1 (-30..-20, no NULLs).  Only null-free rows
    cover k, so T is -30 and the two null-free chunks below it are the
    ones skipped.  uint64 has no zone map, so no threshold; ``k = 0``
    raises for both entry points, and the counter keys are the same
    with a predicate, without one and on an empty directory."""
    import duckdb
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_topk,
                                               encoded_topk_rows)

    rng = np.random.default_rng(61)
    m = 512
    c = np.concatenate([rng.integers(-10, -4, m), rng.integers(-30, -19, m),
                        rng.integers(-100, -39, 4 * m)])
    null = np.zeros(6 * m, bool)
    null[:m] = rng.random(m) < 0.9
    null[4 * m:] = rng.random(2 * m) < 0.2
    h = rng.integers(0, 1 << 63, 6 * m, dtype=np.uint64)
    h[::3] |= np.uint64(1) << np.uint64(63)
    tbl = pa.table({"c": pa.array(c, mask=null),
                    "key": pa.array(np.repeat(np.arange(6), m)),
                    "h": pa.array(h)})
    out_dir = str(tmp_path / "ntopk")
    encode_table_columns(ray.data.from_arrow(tbl), ["c", "key", "h"],
                         batch_size=m).write_parquet(out_dir)
    con = duckdb.connect()
    con.register("t", tbl)

    def want(col, k, where="true"):
        return con.sql(f"""
            select v, count(*) from (select {col} v from t
            where {col} is not null and {where} order by v desc limit {k})
            group by 1 order by 1 desc""").fetchall()

    def pairs(top):
        return [(int(v), int(n)) for v, n in zip(top["value"], top["n"])]

    n_valid = int((~null).sum())
    for k in (40, 500, n_valid - 1, n_valid + 100):
        top, ctr = any_batching(encoded_topk_rows, out_dir, "c", k)
        assert pairs(top) == want("c", k), (k, ctr)
        assert int(top["n"].sum()) == min(k, n_valid)
    _, ctr = any_batching(encoded_topk_rows, out_dir, "c", 500)
    assert ctr["threshold"] == -30 and ctr["chunks_skipped"] == 2, ctr
    top, where_ctr = any_batching(encoded_boolean_topk, out_dir,
                                  ("range", "key", 0, 4), "c", 300)
    assert pairs(top) == want("c", 300, "key between 0 and 4")
    top, u_ctr = any_batching(encoded_topk_rows, out_dir, "h", 17)
    assert pairs(top) == want("h", 17)
    assert u_ctr["threshold"] is None and u_ctr["chunks_skipped"] == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert set(ctr) == set(where_ctr) == set(u_ctr) == \
        set(encoded_topk_rows(str(empty), "c", 3)[1])
    with pytest.raises(ValueError, match="k must be positive"):
        encoded_topk_rows(out_dir, "c", 0)
    with pytest.raises(ValueError, match="k must be positive"):
        encoded_boolean_topk(out_dir, ("range", "key", 0, 4), "c", 0)


def test_encoded_boolean_agg_in_leaf(ray_session, tmp_path):
    """IN-list leaves inside predicate trees: exact vs pandas isin,
    including the narrow-window ALL shortcut (a set covering the zone
    window) and an all-misses set answered scan-free."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(53)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
    })
    out_dir = str(tmp_path / "in_leaf")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v"],
                         batch_size=1024).write_parquet(out_dir)

    cases = [
        [2, 5, 9],
        list(range(0, 12)),        # covers every zone window -> ALL
        [99, 120],                 # nothing matches, zone-pruned
        [],
    ]
    for keys in cases:
        got, counters = encoded_boolean_agg(
            out_dir, ("in", "k", keys), ["v"])
        sel = df[df["k"].isin(keys)]
        assert got.loc[0, "n_match"] == len(sel), keys
        assert got.loc[0, "sum_v"] == int(sel["v"].sum()), keys
    _, c_all = encoded_boolean_agg(out_dir,
                                   ("in", "k", list(range(12))), ["v"])
    assert c_all["all_hit_chunks"] > 0, c_all
    _, c_miss = encoded_boolean_agg(out_dir, ("in", "k", [99]), ["v"])
    assert c_miss["chunks_scanned"] == 0, c_miss
    # IN composed under NOT: complement of the set
    got, _ = encoded_boolean_agg(out_dir,
                                 ("not", ("in", "k", [2, 5, 9])), ["v"])
    sel = df[~df["k"].isin([2, 5, 9])]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())


def test_eq_str_leaf_predicate_trees(ray_session, tmp_path):
    """String-equality leaves (eq_str -> match_eq_str) across every
    pushdown entry point: exact vs pandas on a mixed int/string table,
    including the lengths-stream prefilter (a value whose byte length
    appears in no chunk decodes no text), composition under AND/OR/NOT,
    late-materialized scans, the lookup join, and the grouped path."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg,
                                               encoded_filtered_group_agg,
                                               encoded_lookup_join,
                                               encoded_scan_where)

    rng = np.random.default_rng(61)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "flag": rng.choice(["A", "B", "NONE", "longer_value"], n),
    })
    out_dir = str(tmp_path / "eq_str")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "flag"],
                         batch_size=1024).write_parquet(out_dir)

    # lone string leaf
    got, counters = encoded_boolean_agg(
        out_dir, ("eq_str", "flag", "A"), ["v"])
    sel = df[df["flag"] == "A"]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())
    assert counters["run_chunks"] > 0

    # a byte length present in NO chunk: the lengths prefilter answers
    # every chunk empty without decoding text payloads
    got, _ = encoded_boolean_agg(
        out_dir, ("eq_str", "flag", "zz"), ["v"])
    assert got.loc[0, "n_match"] == 0

    # composition with integer leaves under AND / OR / NOT
    expr = ("and", ("range", "k", 10, 40),
            ("or", ("eq_str", "flag", "B"),
             ("not", ("eq_str", "flag", "NONE"))))
    m = df["k"].between(10, 40) & ((df["flag"] == "B")
                                   | (df["flag"] != "NONE"))
    got, _ = encoded_boolean_agg(out_dir, expr, ["v"])
    assert got.loc[0, "n_match"] == int(m.sum())
    assert got.loc[0, "sum_v"] == int(df.loc[m, "v"].sum())

    # grouped path, group-pure and mixed chunks both exercised
    gdf, _ = encoded_filtered_group_agg(
        out_dir, "k", ("eq_str", "flag", "longer_value"), ["v"])
    egrp = (df[df["flag"] == "longer_value"].groupby("k")
            .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index())
    assert list(gdf["k"]) == list(egrp["k"])
    assert list(gdf["n"]) == list(egrp["n"])
    assert list(gdf["sum_v"]) == list(egrp["sum_v"])

    # late-materialized scan under a mixed tree
    rows = encoded_scan_where(
        out_dir, ("and", ("eq_str", "flag", "B"),
                  ("range", "v", 0, 100)), ["k", "v"]).to_pandas()
    em = df[(df["flag"] == "B") & df["v"].between(0, 100)]
    assert len(rows) == len(em)
    assert int(rows["v"].sum()) == int(em["v"].sum())

    # lookup join with a string residual predicate
    dim = pd.DataFrame({"dk": [5, 6, 7], "name": [50, 60, 70]})
    j = encoded_lookup_join(out_dir, "k", dim, "dk", ["name"], ["v"],
                            expr=("eq_str", "flag", "A")).to_pandas()
    ej = df[df["k"].isin([5, 6, 7]) & (df["flag"] == "A")]
    assert len(j) == len(ej)
    assert int(j["v"].sum()) == int(ej["v"].sum())


#: string predicate over ``nullable_kv``'s nullable ``s`` column -> the
#: same predicate in SQL
_STR_3VL_CASES = {
    "eq_str-empty": (("eq_str", "s", ""), "s = ''"),
    "in_str": (("in_str", "s", ["", "ab", "zz"]), "s IN ('', 'ab', 'zz')"),
    "prefix_str": (("prefix_str", "s", "c"), "s LIKE 'c%'"),
    "suffix_str": (("suffix_str", "s", "b"), "s LIKE '%b'"),
    "contains_str": (("contains_str", "s", "d"), "s LIKE '%d%'"),
    "not-eq_str": (("not", ("eq_str", "s", "ab")), "NOT (s = 'ab')"),
}


@pytest.mark.parametrize("case", list(_STR_3VL_CASES))
def test_str_leaves_nullable_follow_3vl(nullable_kv, any_batching, case):
    """String leaves over nullable chunks follow SQL three-valued logic,
    alike in an aggregate and in a row scan: a NULL never matches, not
    even ``= ''`` (the encoder's string null filler), and ``not`` never
    resurrects it."""
    import duckdb

    from tokrle.pipelines.table_encode import encoded_boolean_agg

    expr, where = _STR_3VL_CASES[case]
    tbl, out_dir = nullable_kv
    con = duckdb.connect()
    con.register("t", tbl)
    got, _ = any_batching(encoded_boolean_agg, out_dir, expr, ["w"])
    want = con.execute("SELECT count(*), coalesce(sum(w), 0) FROM t "
                       f"WHERE {where}").fetchone()
    assert [int(got.loc[0, "n_match"]), int(got.loc[0, "sum_w"])] == \
        list(want)
    rows, _ = any_batching(_rows("encoded_scan_where"), out_dir, expr,
                           ["k", "s"])
    want = con.execute(f"SELECT k, s FROM t WHERE {where}").fetchall()

    def norm(rs):
        # a NULL k reads as NaN from the float frame column; repr orders
        # rows that hold None next to ints
        return sorted(((None if k is None or k != k else int(k), v)
                       for k, v in rs), key=repr)

    assert want and norm(rows.itertuples(index=False)) == norm(want)


def test_prefix_str_leaf_and_group_by_str(ray_session, tmp_path):
    """prefix_str leaves (match_prefix_str: lengths-stream >=len
    prefilter + first-bytes compare) and GROUP BY a string column
    (encoded_group_by_str: gather_str_runs late materialization),
    exact vs pandas, including empty prefix (matches everything),
    a prefix longer than every row (matches nothing), and grouping
    under a mixed int/string predicate tree."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg,
                                               encoded_group_by_str)

    rng = np.random.default_rng(67)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": rng.choice(["src0", "src1", "src10", "src15",
                           "other", ""], n),
    })
    out_dir = str(tmp_path / "prefix_str")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)

    got, _ = encoded_boolean_agg(
        out_dir, ("prefix_str", "src", "src1"), ["v"])
    sel = df[df["src"].str.startswith("src1")]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())

    got, _ = encoded_boolean_agg(out_dir, ("prefix_str", "src", ""),
                                 ["v"])
    assert got.loc[0, "n_match"] == n           # '' prefixes every row

    got, _ = encoded_boolean_agg(
        out_dir, ("prefix_str", "src", "src10xxx"), ["v"])
    assert got.loc[0, "n_match"] == 0           # longer than every row

    # GROUP BY string, no predicate: every group, exact
    gdf, ctr = encoded_group_by_str(out_dir, "src", ["v"])
    egrp = (df.groupby("src").agg(n=("v", "size"), sum_v=("v", "sum"))
            .reset_index())
    assert list(gdf["src"]) == list(egrp["src"])
    assert list(gdf["n"]) == list(egrp["n"])
    assert list(gdf["sum_v"]) == list(egrp["sum_v"])
    assert ctr["all_hit_chunks"] == ctr["chunks_scanned"]

    # GROUP BY string under a mixed tree with NOT over a prefix leaf
    expr = ("and", ("range", "k", 10, 40),
            ("not", ("prefix_str", "src", "src1")))
    m = df["k"].between(10, 40) & ~df["src"].str.startswith("src1")
    gdf, _ = encoded_group_by_str(out_dir, "src", ["v"], expr=expr)
    egrp = (df[m].groupby("src").agg(n=("v", "size"), sum_v=("v", "sum"))
            .reset_index())
    assert list(gdf["src"]) == list(egrp["src"])
    assert list(gdf["sum_v"]) == list(egrp["sum_v"])


def test_gather_str_runs_kernel():
    """gather_str_runs against a plain-Python oracle: selected rows'
    strings in position order, zero-length rows included, across both
    text codecs and an empty selection."""
    from tokrle.codecs.core import encode as codec_encode
    from tokrle.codecs.core import gather_str_runs
    from tokrle.select import auto_encode

    rng = np.random.default_rng(71)
    words = ["", "a", "bb", "unicodeé中", "longer_value",
             "x" * 300]
    vals = [words[i] for i in rng.integers(0, len(words), 500)]
    data = "".join(vals).encode("utf-8")
    lens = np.array([len(w.encode("utf-8")) for w in vals],
                    dtype=np.int64)
    lcodec, lpayload, _ = auto_encode(lens)
    for tcodec in ("fsst", "fsstg"):
        tpayload = codec_encode(
            tcodec, np.frombuffer(data, dtype=np.uint8).view(np.int8))
        spec = f"str:{lcodec}:{tcodec}"
        starts = np.array([0, 10, 499], dtype=np.int64)
        lengths = np.array([3, 5, 1], dtype=np.int64)
        got = gather_str_runs(spec, lpayload, tpayload, len(vals),
                              starts, lengths).to_pylist()
        exp = vals[0:3] + vals[10:15] + vals[499:500]
        assert got == exp, tcodec
        empty = gather_str_runs(spec, lpayload, tpayload, len(vals),
                                np.empty(0, np.int64),
                                np.empty(0, np.int64))
        assert len(empty) == 0


def test_encoded_boolean_agg_minmax(ray_session, tmp_path):
    """with_minmax: ALL-match chunks answer min/max from the agg
    column's zone map, run chunks from gathered positions; empty
    selections return None (SQL NULL semantics)."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(73)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 12, n)).astype(np.int64),
        "v": rng.integers(-10**12, 10**12, n).astype(np.int64),
    })
    out_dir = str(tmp_path / "minmax")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v"],
                         batch_size=1024).write_parquet(out_dir)

    # clustered range: interior chunks are zone-map ALL hits
    got, counters = encoded_boolean_agg(
        out_dir, ("range", "k", 2, 9), ["v"], with_minmax=True)
    sel = df[df["k"].between(2, 9)]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "min_v"] == int(sel["v"].min())
    assert got.loc[0, "max_v"] == int(sel["v"].max())
    assert counters["all_hit_chunks"] > 0

    # run-list path under a NOT
    got, _ = encoded_boolean_agg(
        out_dir, ("and", ("range", "k", 3, 5), ("not", ("eq", "k", 4))),
        ["v"], with_minmax=True)
    sel = df[df["k"].between(3, 5) & (df["k"] != 4)]
    assert got.loc[0, "min_v"] == int(sel["v"].min())
    assert got.loc[0, "max_v"] == int(sel["v"].max())

    # empty selection: min/max are None, sum 0, count 0
    got, _ = encoded_boolean_agg(out_dir, ("eq", "k", 99), ["v"],
                                 with_minmax=True)
    assert got.loc[0, "n_match"] == 0
    assert got.loc[0, "min_v"] is None or pd.isna(got.loc[0, "min_v"])
    assert got.loc[0, "max_v"] is None or pd.isna(got.loc[0, "max_v"])


def test_encoded_scan_where_string_projection(ray_session, tmp_path):
    """String projections in the late-materialized scan: selected rows'
    strings decode via gather_str_runs (only at selected positions),
    exact row multiset vs pandas; a fully-zone-pruned scan still
    reports the typed projection schema via the seed block."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_scan_where)

    rng = np.random.default_rng(79)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": rng.choice(["src0", "src1", "src10", "src15",
                           "other", ""], n),
    })
    out_dir = str(tmp_path / "scan_str")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)

    expr = ("and", ("range", "k", 10, 40),
            ("prefix_str", "src", "src1"))
    rows = encoded_scan_where(out_dir, expr,
                              ["src", "v", "k"]).to_pandas()
    em = df[df["k"].between(10, 40) & df["src"].str.startswith("src1")]
    a = sorted(map(tuple, rows[["k", "v", "src"]]
                   .itertuples(index=False)))
    b = sorted(map(tuple, em[["k", "v", "src"]]
                   .itertuples(index=False)))
    assert a == b

    # ALL path decodes every row including strings
    rows = encoded_scan_where(out_dir, ("range", "k", 0, 49),
                              ["src"]).to_pandas()
    assert len(rows) == n
    assert sorted(rows["src"].unique()) == sorted(df["src"].unique())

    # fully zone-pruned: dataset schema still names typed projections
    ds = encoded_scan_where(out_dir, ("eq", "k", 9999), ["src", "v"])
    assert ds.schema().names == ["src", "v"]
    assert ds.count() == 0


def test_in_str_leaf(ray_session, tmp_path):
    """in_str leaves (match_in_str: one text decode for the whole value
    set, per-length candidate classes): exact vs pandas isin, including
    the empty string in the set, a set with no candidate byte length
    (no text decode), the empty set, duplicates in the set, and
    composition under NOT."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(83)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": rng.choice(["src0", "src1", "src10", "src15",
                           "other", ""], n),
    })
    out_dir = str(tmp_path / "in_str")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)

    for vals in (["src1", "other"], ["src1", "src10", ""],
                 ["zz", "yy"], [], ["src1", "src1", "nope"]):
        got, _ = encoded_boolean_agg(out_dir, ("in_str", "src", vals),
                                     ["v"])
        sel = df[df["src"].isin(vals)]
        assert got.loc[0, "n_match"] == len(sel), vals
        assert got.loc[0, "sum_v"] == int(sel["v"].sum()), vals

    expr = ("and", ("range", "k", 5, 45),
            ("not", ("in_str", "src", ["src0", "other"])))
    m = df["k"].between(5, 45) & ~df["src"].isin(["src0", "other"])
    got, _ = encoded_boolean_agg(out_dir, expr, ["v"])
    assert got.loc[0, "n_match"] == int(m.sum())
    assert got.loc[0, "sum_v"] == int(df.loc[m, "v"].sum())


def test_sdict_string_dictionary_chunks(ray_session, tmp_path):
    """Low-cardinality string columns auto-select the sdict form
    (distinct set + integer code stream).  Every string operation must
    behave identically to the plain str form: roundtrip decode,
    eq/in/prefix predicates (which run on codes, no text decode),
    GROUP BY string, scan projection, value count, and nullable
    roundtrips ('' + validity bitmap)."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq2
    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns,
                                               encoded_boolean_agg,
                                               encoded_group_by_str,
                                               encoded_scan_where,
                                               encoded_string_value_count)

    rng = np.random.default_rng(89)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": rng.choice(["src0", "src1", "src10", "src15",
                           "other", ""], n),
    })
    out_dir = str(tmp_path / "sdict")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)

    specs = set()
    for f in glob.glob(out_dir + "/*.parquet"):
        specs.update(pq2.read_table(
            f, columns=["src__codec"]).column(0).to_pylist())
    assert specs and all(s.startswith("sdict:") for s in specs), specs

    back = decode_table_columns(
        ray.data.read_parquet(out_dir), ["k", "v", "src"]).to_pandas()
    assert sorted(back["src"]) == sorted(df["src"])

    got, _ = encoded_boolean_agg(out_dir, ("eq_str", "src", "src1"),
                                 ["v"])
    sel = df[df["src"] == "src1"]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())

    got, _ = encoded_boolean_agg(
        out_dir, ("in_str", "src", ["src1", "other", ""]), ["v"])
    assert got.loc[0, "n_match"] == int(
        df["src"].isin(["src1", "other", ""]).sum())

    got, _ = encoded_boolean_agg(
        out_dir, ("prefix_str", "src", "src1"), ["v"])
    sel = df[df["src"].str.startswith("src1")]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())

    gdf, _ = encoded_group_by_str(out_dir, "src", ["v"],
                                  expr=("range", "k", 10, 40))
    eg = (df[df["k"].between(10, 40)].groupby("src")
          .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index())
    assert list(gdf["src"]) == list(eg["src"])
    assert list(gdf["sum_v"]) == list(eg["sum_v"])

    rows = encoded_scan_where(
        out_dir, ("and", ("range", "k", 10, 40),
                  ("eq_str", "src", "other")), ["src", "v"]).to_pandas()
    em = df[df["k"].between(10, 40) & (df["src"] == "other")]
    assert len(rows) == len(em)
    assert int(rows["v"].sum()) == int(em["v"].sum())

    cdf, ctr = encoded_string_value_count(out_dir, "src", "src15")
    assert cdf["n_match"].iloc[0] == int((df["src"] == "src15").sum())
    assert ctr["all_hit_chunks"] + ctr["run_chunks"] > 0, ctr

    # nullable sdict: nulls encode as '' + validity; never match,
    # roundtrip restores them
    df2 = pd.DataFrame({
        "k": np.arange(1000, dtype=np.int64),
        "s": pd.array(["a", None, "bb", "a"] * 250, dtype="string")})
    enc2 = str(tmp_path / "sdict_null")
    encode_table_columns(ray.data.from_pandas(df2), ["k", "s"],
                         batch_size=256).write_parquet(enc2)
    b2 = decode_table_columns(
        ray.data.read_parquet(enc2), ["k", "s"]).to_pandas()
    assert int(b2["s"].isna().sum()) == 250
    assert int((b2["s"].dropna() == "a").sum()) == 500
    cdf, _ = encoded_string_value_count(enc2, "s", "")
    assert cdf["n_match"].iloc[0] == 0
    cdf, _ = encoded_string_value_count(enc2, "s", "a")
    assert cdf["n_match"].iloc[0] == 500


def test_sdict_high_cardinality_stays_plain(ray_session, tmp_path):
    """High-cardinality / long-value string columns must NOT take the
    dictionary form (the probe is skipped for long values and the
    cardinality gate rejects wide distinct sets)."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq2
    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns)

    df = pd.DataFrame({
        "t": [f"unique-value-{i}-" + "x" * 300 for i in range(2000)]})
    out_dir = str(tmp_path / "plainstr")
    encode_table_columns(ray.data.from_pandas(df), ["t"],
                         batch_size=512).write_parquet(out_dir)
    specs = set()
    for f in glob.glob(out_dir + "/*.parquet"):
        specs.update(pq2.read_table(
            f, columns=["t__codec"]).column(0).to_pylist())
    assert specs and all(s.startswith("str:") for s in specs), specs
    back = decode_table_columns(
        ray.data.read_parquet(out_dir), ["t"]).to_pandas()
    assert sorted(back["t"]) == sorted(df["t"])


def test_encoded_str_distinct(ray_session, tmp_path):
    """Exact COUNT(DISTINCT) over string columns: sdict chunks answer
    from the dictionary header alone (code/text streams untouched),
    plain chunks decode + dedup locally, NULL slots are excluded."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_str_distinct)

    rng = np.random.default_rng(97)
    n = 20000
    df = pd.DataFrame({
        "src": rng.choice(["src0", "src1", "src10", "src15",
                           "other", ""], n),
        "t": [f"u{i % 3000}" for i in range(n)],  # >256/chunk: plain
    })
    out_dir = str(tmp_path / "sdist")
    encode_table_columns(ray.data.from_pandas(df), ["src", "t"],
                         batch_size=1024).write_parquet(out_dir)

    d, ctr = encoded_str_distinct(out_dir, "src")
    assert d["n_distinct"].iloc[0] == df["src"].nunique()
    assert ctr["closed_form_chunks"] == ctr["chunks_total"]

    d, ctr = encoded_str_distinct(out_dir, "t")
    assert d["n_distinct"].iloc[0] == df["t"].nunique()
    assert ctr["closed_form_chunks"] == 0

    df2 = pd.DataFrame({
        "s": pd.array(["a", None, "bb", "a"] * 250, dtype="string")})
    enc2 = str(tmp_path / "sdist_null")
    encode_table_columns(ray.data.from_pandas(df2), ["s"],
                         batch_size=256).write_parquet(enc2)
    d, _ = encoded_str_distinct(enc2, "s")
    assert d["n_distinct"].iloc[0] == 2     # NULL excluded


def test_string_zone_maps_prune(ray_session, tmp_path):
    """String zone maps (__smin/__smax): a layout clustered by the
    string column skips non-overlapping chunks at the Parquet read for
    eq_str / prefix_str / in_str leaves, and pruning is conservative
    (exact answers on unsorted data too)."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(101)
    n = 40000
    df = pd.DataFrame({
        "k": rng.integers(0, 50, n).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": np.sort(rng.choice(
            ["alpha", "beta", "src0", "src1", "src10", "src15",
             "zeta"], n)),
    })
    out_dir = str(tmp_path / "szone")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)

    got, ctr = encoded_boolean_agg(out_dir, ("eq_str", "src", "beta"),
                                   ["v"])
    sel = df[df["src"] == "beta"]
    assert got.loc[0, "n_match"] == len(sel)
    assert got.loc[0, "sum_v"] == int(sel["v"].sum())
    assert ctr["chunks_skipped"] > 0, ctr

    got, ctr = encoded_boolean_agg(
        out_dir, ("prefix_str", "src", "src1"), ["v"])
    sel = df[df["src"].str.startswith("src1")]
    assert got.loc[0, "n_match"] == len(sel)
    assert ctr["chunks_skipped"] > 0, ctr

    # conservativeness fuzz on UNSORTED data: answers stay exact
    df2 = df.assign(src=rng.permutation(df["src"].values))
    enc2 = str(tmp_path / "szone_fuzz")
    encode_table_columns(ray.data.from_pandas(df2), ["k", "v", "src"],
                         batch_size=512).write_parquet(enc2)
    for expr, mk in (
            (("eq_str", "src", "src10"), df2["src"] == "src10"),
            (("prefix_str", "src", "src"),
             df2["src"].str.startswith("src")),
            (("in_str", "src", ["beta", "src15"]),
             df2["src"].isin(["beta", "src15"]))):
        got, _ = encoded_boolean_agg(enc2, expr, ["v"])
        assert got.loc[0, "n_match"] == int(mk.sum()), expr
        assert got.loc[0, "sum_v"] == int(df2.loc[mk, "v"].sum()), expr


def test_encoded_str_minmax(ray_session, tmp_path):
    """String MIN/MAX from zone maps alone (non-null chunks read two
    short metadata fields, payloads untouched); nullable chunks decode
    valid rows only so '' null-slots never corrupt the minimum."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_str_minmax)

    rng = np.random.default_rng(103)
    df = pd.DataFrame({"src": rng.choice(
        ["alpha", "beta", "src0", "src15", "zeta"], 20000)})
    out_dir = str(tmp_path / "sminmax")
    encode_table_columns(ray.data.from_pandas(df), ["src"],
                         batch_size=1024).write_parquet(out_dir)
    d, ctr = encoded_str_minmax(out_dir, "src")
    assert d["min_src"].iloc[0] == df["src"].min()
    assert d["max_src"].iloc[0] == df["src"].max()
    assert ctr["chunks_metadata_only"] == ctr["chunks_total"]
    assert ctr["chunks_decoded"] == 0

    df2 = pd.DataFrame({
        "s": pd.array(["m", None, "bb", "zz"] * 250, dtype="string")})
    enc2 = str(tmp_path / "sminmax_null")
    encode_table_columns(ray.data.from_pandas(df2), ["s"],
                         batch_size=256).write_parquet(enc2)
    d, ctr = encoded_str_minmax(enc2, "s")
    assert d["min_s"].iloc[0] == "bb"     # NULL ('' slot) skipped
    assert d["max_s"].iloc[0] == "zz"
    assert ctr["chunks_decoded"] > 0


def test_encoded_lookup_join_string_projection(ray_session, tmp_path):
    """Fact-side string projections in the broadcast lookup join:
    selected rows' strings late-materialize (gather_str_runs /
    dictionary takes) alongside the integer key and dim attributes,
    exact row multiset vs pandas under a string residual predicate."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_lookup_join)

    rng = np.random.default_rng(107)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "src": rng.choice(["src0", "src1", "other", ""], n),
    })
    out_dir = str(tmp_path / "join_str")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "src"],
                         batch_size=1024).write_parquet(out_dir)
    dim = pd.DataFrame({"dk": [5, 6, 7], "name": [50, 60, 70]})
    j = encoded_lookup_join(
        out_dir, "k", dim, "dk", ["name"], ["src", "v"],
        expr=("not", ("eq_str", "src", "other"))).to_pandas()
    ej = df[df["k"].isin([5, 6, 7]) & (df["src"] != "other")]
    a = sorted(map(tuple, j[["k", "v", "src"]]
                   .itertuples(index=False)))
    b = sorted(map(tuple, ej[["k", "v", "src"]]
                   .itertuples(index=False)))
    assert a == b
    assert (j["name"] == j["k"] * 10).all()


def test_encoded_group_by_str_composite(ray_session, tmp_path, any_batching):
    """Composite string grouping (GROUP BY two string columns) under a
    mixed predicate tree: exact group tuples/counts/sums vs pandas,
    alike per chunk and per batch."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_by_str)

    rng = np.random.default_rng(109)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "lang": rng.choice(["en", "de", "fr"], n),
        "src": rng.choice(["src0", "src1", "other"], n),
    })
    out_dir = str(tmp_path / "gmulti")
    encode_table_columns(ray.data.from_pandas(df),
                         ["k", "v", "lang", "src"],
                         batch_size=1024).write_parquet(out_dir)

    gdf, _ = any_batching(encoded_group_by_str, out_dir, ["lang", "src"],
                        ["v"])
    eg = (df.groupby(["lang", "src"])
          .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index()
          .sort_values(["lang", "src"]).reset_index(drop=True))
    assert list(map(tuple, gdf[["lang", "src"]]
                    .itertuples(index=False))) == \
        list(map(tuple, eg[["lang", "src"]].itertuples(index=False)))
    assert list(gdf["n"]) == list(eg["n"])
    assert list(gdf["sum_v"]) == list(eg["sum_v"])

    expr = ("and", ("range", "k", 10, 40), ("eq_str", "lang", "en"))
    m = df["k"].between(10, 40) & (df["lang"] == "en")
    gdf, _ = any_batching(encoded_group_by_str, out_dir, ["lang", "src"],
                        ["v"], expr=expr)
    eg = (df[m].groupby(["lang", "src"])
          .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index())
    assert list(gdf["n"]) == list(eg["n"])
    assert list(gdf["sum_v"]) == list(eg["sum_v"])


def test_encoded_group_by_str_mixed_keys(ray_session, tmp_path):
    """Composite grouping with MIXED string and integer key columns:
    exact tuples/counts/sums vs pandas, with and without a predicate."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_by_str)

    rng = np.random.default_rng(113)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 5, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "lang": rng.choice(["en", "de", "fr"], n),
    })
    out_dir = str(tmp_path / "gmix")
    encode_table_columns(ray.data.from_pandas(df), ["k", "v", "lang"],
                         batch_size=1024).write_parquet(out_dir)

    gdf, _ = encoded_group_by_str(out_dir, ["lang", "k"], ["v"])
    eg = (df.groupby(["lang", "k"])
          .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index()
          .sort_values(["lang", "k"]).reset_index(drop=True))
    assert list(gdf["lang"]) == list(eg["lang"])
    assert list(gdf["k"]) == list(eg["k"])
    assert list(gdf["n"]) == list(eg["n"])
    assert list(gdf["sum_v"]) == list(eg["sum_v"])

    expr = ("and", ("range", "k", 1, 3),
            ("not", ("eq_str", "lang", "fr")))
    m = df["k"].between(1, 3) & (df["lang"] != "fr")
    gdf, _ = encoded_group_by_str(out_dir, ["lang", "k"], ["v"],
                                  expr=expr)
    eg = (df[m].groupby(["lang", "k"])
          .agg(n=("v", "size"), sum_v=("v", "sum")).reset_index())
    assert list(gdf["n"]) == list(eg["n"])
    assert list(gdf["sum_v"]) == list(eg["sum_v"])


def test_encoded_str_distinct_filtered(ray_session, tmp_path):
    """COUNT(DISTINCT string) under a predicate tree: selected sdict
    chunks gather only codes and dedup those; header-only answers
    remain for ALL-match chunks; fully-pruned predicates return 0."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_str_distinct)

    rng = np.random.default_rng(127)
    n = 20000
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "lang": rng.choice(["en", "de", "fr", "es", "zh"], n),
        "src": rng.choice(["src0", "src1", "other"], n),
    })
    out_dir = str(tmp_path / "sdist_expr")
    encode_table_columns(ray.data.from_pandas(df),
                         ["k", "lang", "src"],
                         batch_size=1024).write_parquet(out_dir)

    expr = ("and", ("range", "k", 10, 12),
            ("not", ("eq_str", "src", "other")))
    m = df["k"].between(10, 12) & (df["src"] != "other")
    d, _ = encoded_str_distinct(out_dir, "lang", expr=expr)
    assert d["n_distinct"].iloc[0] == df.loc[m, "lang"].nunique()

    # range covering everything: every chunk is ALL -> header-only
    d, ctr = encoded_str_distinct(out_dir, "lang",
                                  expr=("range", "k", 0, 49))
    assert d["n_distinct"].iloc[0] == df["lang"].nunique()
    assert ctr["closed_form_chunks"] == ctr["chunks_total"]

    d, _ = encoded_str_distinct(out_dir, "lang", expr=("eq", "k", 999))
    assert d["n_distinct"].iloc[0] == 0


def test_encoded_boolean_agg_minmax_empty_chunk(ray_session, tmp_path,
                                                any_batching):
    """Regression: an n_rows==0 chunk encodes with placeholder zone
    extrema (0, 0); MIN/MAX must skip it rather than absorb the bogus
    0 (values here are all >= 105 / all <= -7), per chunk and per
    batch."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                       "v": np.arange(105, 205, dtype=np.int64)})
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "v": pd.Series([], dtype="int64")})
    ds = ray.data.from_pandas(df).union(ray.data.from_pandas(empty))
    out_dir = str(tmp_path / "mm_empty")
    encode_table_columns(ds, ["k", "v"],
                         batch_size=64).write_parquet(out_dir)
    got, _ = any_batching(encoded_boolean_agg, out_dir,
                        ("range", "k", 0, 100), ["v"], with_minmax=True)
    assert got.loc[0, "n_match"] == 100
    assert got.loc[0, "min_v"] == 105, got
    assert got.loc[0, "max_v"] == 204

    df2 = df.assign(v=-df["v"])     # all negative: max side
    ds2 = ray.data.from_pandas(df2).union(ray.data.from_pandas(empty))
    out2 = str(tmp_path / "mm_empty_neg")
    encode_table_columns(ds2, ["k", "v"],
                         batch_size=64).write_parquet(out2)
    got, _ = any_batching(encoded_boolean_agg, out2,
                        ("range", "k", 0, 100), ["v"], with_minmax=True)
    assert got.loc[0, "max_v"] == -105, got
    assert got.loc[0, "min_v"] == -204


def test_encoded_group_by_str_no_aggs(ray_session, tmp_path):
    """Agg-less string grouping = exact string histogram."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_by_str)

    df = pd.DataFrame({"lang": ["en", "de", "en", "fr"] * 500})
    out_dir = str(tmp_path / "ghist")
    encode_table_columns(ray.data.from_pandas(df), ["lang"],
                         batch_size=256).write_parquet(out_dir)
    g, _ = encoded_group_by_str(out_dir, "lang", [])
    eg = df.groupby("lang").size()
    assert list(g["lang"]) == list(eg.index)
    assert list(g["n"]) == list(eg)


def test_group_by_str_pure_string_chunks(ray_session, tmp_path,
                                         any_batching):
    """On a table sorted by a string key, chunks that hold one key
    value take it from the string zone map (``smin == smax``) without
    decoding the key: ``pure_group_chunks`` counts them, and the
    answers match DuckDB with and without a predicate, for the string
    key alone and with an integer key next to it, per chunk and per
    batch."""
    import duckdb
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_group_by_str)

    rng = np.random.default_rng(131)
    n = 6000
    tbl = pa.table({
        "lang": np.sort(rng.choice(["de", "en", "fr", "zh"], n,
                                   p=[0.2, 0.5, 0.2, 0.1])),
        "k": np.repeat(np.arange(6), n // 6),
        "v": rng.integers(-50, 50, n)})
    out_dir = str(tmp_path / "gpure_str")
    encode_table_columns(ray.data.from_arrow(tbl), ["lang", "k", "v"],
                         batch_size=256).write_parquet(out_dir)
    con = duckdb.connect()
    con.register("t", tbl)
    for keys, expr, where in (
            (["lang"], None, "true"),
            (["lang", "k"], None, "true"),
            (["lang"], ("range", "v", -10, 30), "v BETWEEN -10 AND 30"),
            (["lang", "k"], ("not", ("eq_str", "lang", "fr")),
             "NOT (lang = 'fr')")):
        got, counters = any_batching(encoded_group_by_str, out_dir, keys,
                                     ["v"], expr=expr)
        cols = ", ".join(keys)
        want = con.execute(
            f"SELECT {cols}, count(*), sum(v) FROM t WHERE {where} "
            f"GROUP BY {cols} ORDER BY {cols}").fetchall()
        assert [tuple(r) for r in got.itertuples(index=False)] == want, keys
        assert counters["pure_group_chunks"] > 0, (keys, counters)


def test_suffix_and_contains_leaves(ray_session, tmp_path):
    """suffix_str (LIKE '%s') and contains_str (LIKE '%s%') leaves on
    BOTH chunk forms, exact vs pandas, including a needle that only
    occurs straddling a row boundary (must not match) and composition
    under NOT."""
    import pandas as pd
    import ray.data

    from tokrle.pipelines.table_encode import (encode_table_columns,
                                               encoded_boolean_agg)

    rng = np.random.default_rng(131)
    n = 20000
    vals = ["alpha", "beta", "src0", "src1", "src10", "xsrcx",
            "ends_src", "", "mid_src_tail"]
    base = pd.DataFrame({
        "k": np.sort(rng.integers(0, 50, n)).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "s": rng.choice(vals, n),
    })
    for form in ("sdict", "plain"):
        df = base if form == "sdict" else base.assign(
            s=base["s"] + "_" + (np.arange(n) % 3000).astype(str))
        out_dir = str(tmp_path / f"sufcon_{form}")
        encode_table_columns(ray.data.from_pandas(df), ["k", "v", "s"],
                             batch_size=1024).write_parquet(out_dir)
        suf = "src" if form == "sdict" else "_5"
        got, _ = encoded_boolean_agg(out_dir, ("suffix_str", "s", suf),
                                     ["v"])
        m = df["s"].str.endswith(suf)
        assert got.loc[0, "n_match"] == int(m.sum()), form
        assert got.loc[0, "sum_v"] == int(df.loc[m, "v"].sum())

        got, _ = encoded_boolean_agg(
            out_dir, ("contains_str", "s", "src"), ["v"])
        m = df["s"].str.contains("src", regex=False)
        assert got.loc[0, "n_match"] == int(m.sum()), form

        expr = ("and", ("range", "k", 10, 40),
                ("not", ("contains_str", "s", "src")))
        m = df["k"].between(10, 40) & \
            ~df["s"].str.contains("src", regex=False)
        got, _ = encoded_boolean_agg(out_dir, expr, ["v"])
        assert got.loc[0, "n_match"] == int(m.sum()), form

    # needle occurring only ACROSS row boundaries must not match
    df3 = pd.DataFrame({
        "k": np.zeros(2000, np.int64),
        "v": np.ones(2000, np.int64),
        "s": (pd.Series(["ab", "cd"] * 1000)
              + (np.arange(2000) % 1500).astype(str))})
    enc3 = str(tmp_path / "straddle")
    encode_table_columns(ray.data.from_pandas(df3), ["k", "v", "s"],
                         batch_size=512).write_parquet(enc3)
    got, _ = encoded_boolean_agg(enc3, ("contains_str", "s", "0cd"),
                                 ["v"])
    assert got.loc[0, "n_match"] == int(
        df3["s"].str.contains("0cd", regex=False).sum())
