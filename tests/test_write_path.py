"""The write path's two executors and its crash points.

``_run_file_tasks`` runs the per-file tasks of encode_corpus, recompress,
upsert_corpus and compact_corpus in the caller when their input decodes
to at most ``_LOCAL_DECODE_BYTES`` and as one Ray Data job above it, and
upsert_corpus encodes a delta of at most that size in the caller.  These
tests monkeypatch the ceiling to 0 and to infinity and compare the
corpora, and raise at each publish step of upsert and compact to check
what a reader sees and that a rerun converges."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from test_pipeline import SF

BATCH = 64


@pytest.fixture(scope="module")
def token_df(ray_session):
    from tokrle.sources.tokens import documents_to_tokens

    df = documents_to_tokens(SF).to_pandas()
    df["doc_id"] = df["doc_id"].astype(str)
    return df


def _write_inputs(df, in_dir: str, n_files: int) -> None:
    os.makedirs(in_dir)
    step = -(-len(df) // n_files)
    for i in range(n_files):
        pq.write_table(pa.Table.from_pandas(df.iloc[i * step:(i + 1) * step],
                                            preserve_index=False),
                       f"{in_dir}/f{i}.parquet")


def _delta(df, hit: bool):
    """A three-block delta (40 + 40 + 70 rows, so Ray Data bundles the
    first two blocks into one map_batches task and cuts each bundle into
    64-row slices plus a tail): with ``hit`` it replaces the first doc of
    every 100 and appends new docs, without it every doc is new."""
    import ray.data

    rows = []
    for i in range(150):
        old = hit and i % 30 == 0
        doc = df["doc_id"].iloc[(i // 30) * 100] if old else f"new{i}"
        rows.append((doc, [i % 7 + 1] * (i % 11 + 1), f"s{i % 3}"))
    blocks = [rows[:40], rows[40:80], rows[80:]]
    return ray.data.from_arrow([pa.table({
        "doc_id": pa.array([r[0] for r in b], pa.string()),
        "tokens": pa.array([r[1] for r in b], pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in b], pa.int32()),
        "source": pa.array([r[2] for r in b], pa.string()),
    }) for b in blocks])


def _docs(enc_dir: str) -> dict:
    from tokrle.pipelines.corpus import read_corpus
    from tokrle.pipelines.encode import decode_tokens

    df = decode_tokens(read_corpus(enc_dir)).to_pandas()
    assert df["doc_id"].is_unique, "a doc is visible twice"
    return {d: np.asarray(t).tolist()
            for d, t in zip(df["doc_id"], df["tokens"])}


def _groups(enc_dir: str) -> dict:
    """Live group name -> its chunk rows, every column but the enc_us
    wall time, sorted by chunk_id."""
    from tokrle.pipelines.corpus import live_groups

    out = {}
    for g in live_groups(enc_dir):
        files = sorted(glob.glob(os.path.join(g, "*.parquet")))
        t = pa.concat_tables([pq.read_table(f) for f in files]) \
            if files else None
        rows = [] if t is None else t.drop(["enc_us"]).to_pylist()
        out[os.path.basename(g)] = sorted(rows, key=lambda r: r["chunk_id"])
    return out


def _manifest(enc_dir: str) -> dict:
    """Manifest rows by unit, without the ``seconds`` timing field."""
    d = os.path.join(enc_dir, "_manifest")
    out = {}
    for f in os.listdir(d):
        if f.endswith(".parquet"):
            row = pq.read_table(os.path.join(d, f)).to_pylist()[0]
            row.pop("seconds", None)
            out[row.pop("unit")] = row
    return out


def _no_ray_jobs(monkeypatch) -> None:
    """Make any Ray Data job of the write path raise."""
    import ray.data

    def boom(*a, **kw):
        raise AssertionError("the write path started a Ray Data job")

    for name in ("from_items", "read_parquet"):
        monkeypatch.setattr(ray.data, name, boom)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", boom)


def _op(case: str, token_df, base: str):
    """(set-up, operation) of one write entry point.  The set-up builds
    the corpus the operation starts from under ``base``; both take the
    corpus directory."""
    from tokrle.pipelines.corpus import (compact_corpus, encode_corpus,
                                         recompress, upsert_corpus)

    in_dir = os.path.join(base, "in")
    if not os.path.isdir(in_dir):
        _write_inputs(token_df, in_dir, 5)

    def encoded(enc):
        encode_corpus(in_dir, enc, batch_size=BATCH, group_files=1)

    if case == "encode_corpus":
        return (lambda enc: None,
                lambda enc: encode_corpus(in_dir, enc, batch_size=BATCH,
                                          group_files=1))
    if case == "recompress":
        src = os.path.join(base, "enc_src")
        if not os.path.isdir(src):
            encoded(src)
        return (lambda enc: None,
                lambda enc: recompress(src, enc, batch_size=2 * BATCH,
                                       by_source=True))
    if case.startswith("upsert"):
        delta = _delta(token_df, hit=case == "upsert_hit")
        return encoded, lambda enc: upsert_corpus(enc, delta,
                                                  batch_size=BATCH)
    assert case == "compact_corpus"

    def upserted(enc):
        encoded(enc)
        upsert_corpus(enc, _delta(token_df, hit=True), batch_size=BATCH)

    return upserted, lambda enc: compact_corpus(enc, target_bytes=1 << 30,
                                                batch_size=BATCH)


@pytest.mark.parametrize("case", ["encode_corpus", "recompress",
                                  "upsert_hit", "upsert_nohit",
                                  "compact_corpus"])
def test_write_path_same_corpus_both_sides_of_ceiling(
        ray_session, token_df, tmp_path, monkeypatch, case):
    """Every write entry point builds the same corpus whether its file
    tasks (and upsert's delta encode) run in the caller (ceiling
    infinite; no Ray Data job may start) or as Ray Data jobs (ceiling
    0): the same live groups with the same chunk rows apart from the
    enc_us wall time, the same manifest rows apart from their timing,
    and the same decoded docs."""
    from tokrle.pipelines import encode as E

    setup, op = _op(case, token_df, str(tmp_path))
    sides = {}
    for ceiling in (0, float("inf")):
        enc = str(tmp_path / f"enc_{ceiling}")
        monkeypatch.setattr(E, "_LOCAL_DECODE_BYTES", ceiling)
        setup(enc)
        with monkeypatch.context() as m:
            if ceiling:
                _no_ray_jobs(m)
            run = op(enc)
        run.pop("seconds", None)
        # on-disk bytes of the compacted groups: Ray's write_parquet
        # writes the delta group as one file per task, the caller as one
        run.pop("bytes_compacted", None)
        sides[ceiling] = (run, _groups(enc), _manifest(enc), _docs(enc))
    (run0, groups0, man0, docs0), (run1, groups1, man1, docs1) = \
        sides[0], sides[float("inf")]
    assert run0 == run1
    assert groups0.keys() == groups1.keys()
    for g in groups0:
        assert groups0[g] == groups1[g], g
    assert man0 == man1
    assert docs0 == docs1
    if case.startswith("upsert"):
        assert run0["docs_added"] == 150
        assert run0["docs_replaced"] == (5 if case == "upsert_hit" else 0)
        # the delta group holds the slices map_batches cuts: 64 + 16
        # from the first bundle (40 + 40 rows), 64 + 6 from the last
        delta = [g for g in groups0 if g.startswith("group=upsert-")]
        assert sorted(r["n_docs"] for r in groups0[delta[0]]) == \
            [6, 16, 64, 64]


class Crash(Exception):
    pass


def _crash_at(monkeypatch, obj, name: str, k: int) -> list:
    """Replace ``obj.name`` so that its k-th call raises Crash instead of
    running; returns the list its calls are counted in."""
    orig = getattr(obj, name)
    calls = []

    def wrapped(*a, **kw):
        calls.append(a)
        if len(calls) == k:
            raise Crash(f"{name} call {k}")
        return orig(*a, **kw)

    monkeypatch.setattr(obj, name, wrapped)
    return calls


@pytest.mark.parametrize("case", ["upsert", "upsert_pointer", "compact"])
def test_publish_step_crash_leaves_old_or_new_corpus(
        ray_session, token_df, tmp_path, monkeypatch, case):
    """Crash injection on the caller path: raise at the k-th call of each
    publish step of upsert_corpus / compact_corpus (Manifest.mark_done,
    _publish_groups, os.rename), for every k.  A reader of the crashed
    corpus never sees a doc twice, and rerunning the operation converges
    to the docs of an uninterrupted run.  A crashed compaction reads as
    the old docs, which are also the new ones.  A crashed upsert reads
    as the old docs or the new ones, except in one window: after its
    first affected group is swapped and before its delta group joins the
    view, the replaced docs already swapped out are missing (every other
    doc reads as before).  Closing that window needs one commit point for
    the whole upsert.  ``upsert_pointer`` upserts a corpus whose view is
    pinned by the live-group pointer, so the delta joins it through
    _publish_groups."""
    from tokrle.pipelines import corpus as C
    from tokrle.pipelines.corpus import (compact_corpus, encode_corpus,
                                         upsert_corpus)
    from tokrle.state.manifest import Manifest

    in_dir = str(tmp_path / "in")
    _write_inputs(token_df, in_dir, 4)
    base = str(tmp_path / "base")
    encode_corpus(in_dir, base, batch_size=BATCH, group_files=1)
    if case == "upsert_pointer":     # pins the view, merges nothing
        compact_corpus(base, target_bytes=1, batch_size=BATCH)
        assert os.path.exists(C._groups_pointer(base))
    if case == "compact":
        # 4 equal groups, bins of two: two publishes after the pin
        size = max(sum(os.path.getsize(f) for f in
                       glob.glob(os.path.join(g, "*.parquet")))
                   for g in C.live_groups(base))

        def op(enc):
            return compact_corpus(enc, target_bytes=2 * size + 2,
                                  batch_size=BATCH)
    else:
        delta = _delta(token_df, hit=True)

        def op(enc):
            return upsert_corpus(enc, delta, batch_size=BATCH)

    old = _docs(base)
    ref = str(tmp_path / "ref")
    shutil.copytree(base, ref)
    ref_run = op(ref)
    new = _docs(ref)
    if case == "compact":
        assert ref_run["bins"] == 2 and new == old
    else:
        assert ref_run["groups_rewritten"] == 4 and new != old

    replaced = {d for d in old if d in new and new[d] != old[d]}
    crashes = {}
    for obj, name in ((Manifest, "mark_done"), (C, "_publish_groups"),
                      (os, "rename")):
        k = 0
        while True:
            k += 1
            enc = str(tmp_path / f"{name}{k}")
            shutil.copytree(base, enc)
            with monkeypatch.context() as m:
                calls = _crash_at(m, obj, name, k)
                try:
                    op(enc)
                    crashed = False
                except Crash:
                    crashed = True
            if not crashed:
                assert len(calls) == k - 1
                assert _docs(enc) == new
                break
            crashes[name] = k
            seen = _docs(enc)
            if seen not in (old, new):       # the upsert window
                assert case != "compact", (name, k)
                missing = set(old) - set(seen)
                assert missing and missing <= replaced, (name, k)
                assert seen.items() <= old.items(), (name, k)
            op(enc)
            assert _docs(enc) == new, (name, k)
            shutil.rmtree(enc)
    # compact: 2 bins; upsert: 4 rewritten groups and the delta group
    assert crashes == (
        {"mark_done": 2, "_publish_groups": 3, "rename": 2}
        if case == "compact" else
        {"mark_done": 5, "rename": 9,
         **({"_publish_groups": 1} if case == "upsert_pointer" else {})})
