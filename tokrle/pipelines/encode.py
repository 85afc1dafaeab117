"""The flagship pipeline: token table -> encoded chunk table (+ reverse).

Idiomatic Ray Data throughout: ``read_parquet`` -> ``map_batches`` encode
(one fused task stage, optionally grouping each batch by source) ->
``write_parquet`` with per-partition lineage; decode is the stateless
inverse.  Checkpoint/resume operates at input-file-group granularity via
the manifest in tokrle.state.

Replaces the reference's driver-held dict-of-Rles + manual ray.remote
fan-out (ref pyrle/rledict.py:21-34,155-176; pyrle/methods.py:80-120) with
streaming Dataset execution: no driver-side materialization, backpressure
and spilling for free.  The bounded exceptions run in the caller: a small
``read_corpus`` decode (:func:`decode_tokens`), point lookups
(:func:`fetch_docs`, :func:`fetch_docs_indexed`) and the small jobs of
the corpus write path (:mod:`tokrle.pipelines.corpus`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tokrle.stages.encoder import TOKEN_SCHEMA, TokenEncoder, decode_chunks

# ~1M tokens per encoded chunk: big enough to amortize codec headers and
# profiling, small enough that the transient bit matrix (n*4B) plus batch
# stays well inside a worker heap even at concurrency 32.
DEFAULT_BATCH_SIZE = 2048  # docs per chunk (~1M tokens at mean 512)


def normalize_by_source(by_source) -> bool:
    """The one reading of the ``by_source`` skew setting every encode entry
    point shares: a plain bool, ``True`` = per-batch source grouping inside
    the encoder.  Anything else raises before anything runs or is
    written, instead of silently picking a mode."""
    if not isinstance(by_source, bool):
        raise ValueError(f"by_source must be True or False; "
                         f"got {by_source!r}")
    return by_source


_TASK_ENCODERS: dict[bool, TokenEncoder] = {}


def _encode_batch(batch, local_group: bool = False):
    """Stateless-task wrapper: the encoder instance is cached in the worker
    process's module state, so setup still happens once per worker while the
    stage stays a TASK stage — which lets Ray Data fuse read->encode->write
    into single tasks (an actor stage cannot fuse with the read, forcing
    every input byte through the object store)."""
    enc = _TASK_ENCODERS.get(local_group)
    if enc is None:
        enc = _TASK_ENCODERS[local_group] = TokenEncoder(
            local_group=local_group)
    return enc(batch)


def encode_tokens(ds, *, batch_size: int = DEFAULT_BATCH_SIZE,
                  by_source: bool = False):
    """Token-table Dataset -> encoded-chunk Dataset (lazy), as one fused
    task stage (see _encode_batch).

    ``by_source=True`` groups each batch's rows by source inside the
    encoder — no shuffle, every chunk holds one source, so codec choice
    fits per-source value distributions (see BASELINE.md).
    """
    import functools

    fn = (functools.partial(_encode_batch, local_group=True)
          if normalize_by_source(by_source) else _encode_batch)
    return ds.map_batches(fn, batch_size=batch_size, batch_format="pyarrow")


# Decoded int32 token bytes up to which decode_tokens(read_corpus(d))
# decodes in the calling process, and the write path's file tasks and
# upsert's delta encode run there (tokrle.pipelines.corpus).  A memory
# ceiling, not a CPU crossover: on one core the caller used less CPU than
# a Ray job at every measured size; the Ray job stays for corpora the
# caller cannot hold.  The value and the peak RSS of one decode at it are
# in BENCH/decode_executor_ab.json.
_LOCAL_DECODE_BYTES = 64 << 20


def decode_tokens(encoded_ds):
    """Encoded-chunk Dataset -> token-table Dataset (stateless inverse).

    An untransformed :func:`tokrle.pipelines.corpus.read_corpus` whose
    decoded tokens take at most ``_LOCAL_DECODE_BYTES`` (4 bytes per
    token, summed from the ``n_tokens`` column) decodes in the calling
    process with no Ray job: its files are read with ``pyarrow.dataset``
    and decoded by :func:`_decode_block`, and the answer is ONE table
    made a Dataset by :func:`_answer_dataset`, with no Ray task (a
    per-block fixed cost is most of a small epoch).  An empty live view
    gives an empty token table.

    Every other input maps whole blocks (no ``batch_size``), so Ray fuses
    a Parquet read with the decode into ONE task per read block and no
    encoded block crosses the object store (unless Ray splits the read's
    blocks, as it does for few files on many CPUs); :func:`_decode_block`
    still hands ``decode_chunks`` at most 4 chunks per call."""
    from tokrle.pipelines.corpus import _CORPUS_READS

    read = _CORPUS_READS.get(encoded_ds)
    if read is not None:
        local = _decode_in_caller(*read)
        if local is not None:
            return local
    return encoded_ds.map_batches(_decode_block, batch_size=None,
                                  batch_format="pyarrow")


def _decode_in_caller(files, columns):
    """The caller side of :func:`decode_tokens`, or None when the
    corpus decodes to more than ``_LOCAL_DECODE_BYTES``."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    dset = pds.dataset(files, format="parquet")
    if not dset.files:
        return _answer_dataset([TOKEN_SCHEMA.empty_table()])
    n_tokens = pc.sum(dset.to_table(columns=["n_tokens"])
                      .column("n_tokens")).as_py() or 0
    if 4 * n_tokens > _LOCAL_DECODE_BYTES:
        return None
    return _answer_dataset([pa.concat_tables(
        _decode_block(dset.to_table(columns=columns)))])


def _answer_dataset(tables: list):
    """The one way a caller-built answer becomes a ``ray.data.Dataset``:
    exactly these blocks, put and described in the caller with no Ray
    task (``ray.data.from_arrow`` starts one metadata task per table)."""
    import ray.data

    return ray.data.from_blocks(tables)


def _decode_block(block: pa.Table):
    # an empty block still yields one typed empty table
    for s in range(0, max(block.num_rows, 1), 4):
        yield decode_chunks(block.slice(s, 4))


def roundtrip_check(src_ds, decoded_ds) -> dict:
    """Streaming row-level equality evidence without materializing either
    side: per-doc token checksums aggregated globally.

    checksum(doc) = sum(tokens * (1 + position)) — order-sensitive, so any
    per-row reorder or corruption changes the global sum.  Returns both
    sides' (n_docs, n_tokens, checksum) for comparison.
    """

    def doc_checksums(batch: pa.Table) -> pa.Table:
        from tokrle.kernels.segments import segment_sums
        from tokrle.stages.encoder import _flat_tokens

        values, offsets = _flat_tokens(batch)
        if len(values):
            pos = np.arange(len(values), dtype=np.uint64)
            starts = offsets[:-1]
            # position within the doc: global pos minus doc start, +1
            within = pos - np.repeat(starts.astype(np.uint64),
                                     np.diff(offsets).astype(np.int64))
            weighted = values.astype(np.uint64) * (within + 1)
            sums = segment_sums(weighted, offsets)
            # fold per DOC (batching-invariant), sum raw per batch; the
            # global int64 sum may wrap at extreme scale but wraps
            # identically on both sides, so equality evidence holds
            total = int((sums & 0xFFFFFFFF).sum(dtype=np.uint64))
        else:
            total = 0
        return pa.table({
            "n_docs": pa.array([len(batch)], type=pa.int64()),
            "n_tokens": pa.array([int(len(values))], type=pa.int64()),
            "checksum": pa.array([total], type=pa.int64()),
        })

    def agg(ds):
        t = ds.map_batches(doc_checksums, batch_format="pyarrow")
        row = t.sum(["n_docs", "n_tokens", "checksum"])
        return {
            "n_docs": row["sum(n_docs)"],
            "n_tokens": row["sum(n_tokens)"],
            "checksum": row["sum(checksum)"],
        }

    return {"source": agg(src_ds), "decoded": agg(decoded_ds)}


def fetch_docs(enc_dir: str, doc_ids):
    """Point lookups on the encoded corpus WITHOUT full decode, with no
    Ray job.

    Pass 1 (:func:`_doc_id_hits`) streams only the (chunk_id, doc_id)
    metadata columns of the live view in the calling process — column
    pruning keeps every payload byte in storage — and finds the chunks
    holding requested docs with one vectorized is_in per batch.  Pass 2
    (:func:`_fetch_chunks`) reads just those chunks and decodes ONLY each
    requested doc's row range via codec random access
    (:func:`tokrle.codecs.core.decode_range` — O(doc tokens) for the
    bit-addressable codecs, full-chunk fallback for the sequential ones).
    Returns a token-table Dataset of the requested docs.
    """
    from tokrle.pipelines.corpus import corpus_files

    wanted_arr = pa.array(sorted({str(d) for d in doc_ids}),
                          type=pa.string())
    hits = _doc_id_hits(corpus_files(enc_dir), wanted_arr)
    return _fetch_chunks(enc_dir, hits.column("chunk_id").to_pylist(),
                         wanted_arr)


def _doc_id_hits(files, wanted: pa.Array) -> pa.Table:
    """The one doc-id scan of the encoded corpus (``fetch_docs`` pass 1
    and ``upsert_corpus``'s search for replaced docs): stream the
    ``chunk_id`` and ``doc_id``-list columns of ``files`` (Parquet paths,
    or a directory) with ``pyarrow.dataset`` in the calling process, one
    file at a time, and return ``path``, ``chunk_id`` and ``n_hit`` (how
    many of the chunk's docs are in ``wanted``) for every chunk row with
    at least one hit."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    out: dict[str, list] = {"path": [], "chunk_id": [], "n_hit": []}
    dset = pds.dataset(files, format="parquet")
    for frag in dset.get_fragments():
        for batch in frag.to_batches(schema=dset.schema,
                                     columns=["chunk_id", "doc_id"]):
            ids = batch.column("doc_id")
            hit = pc.is_in(ids.flatten(), value_set=wanted)
            n_hit = np.bincount(pc.list_parent_indices(ids).filter(hit)
                                .to_numpy(), minlength=batch.num_rows)
            rows = np.flatnonzero(n_hit)
            out["path"] += [frag.path] * len(rows)
            out["chunk_id"] += batch.column("chunk_id").take(rows) \
                .to_pylist()
            out["n_hit"] += n_hit[rows].tolist()
    return pa.table({"path": pa.array(out["path"], pa.string()),
                     "chunk_id": pa.array(out["chunk_id"], pa.string()),
                     "n_hit": pa.array(out["n_hit"], pa.int64())})


def _fetch_chunks(enc_dir: str, chunk_ids: list, wanted_arr: pa.Array):
    """Pass 2 of a point lookup, in the calling process: read ONLY the
    named chunks of the live view (``chunk_id isin`` skips row groups by
    their chunk_id statistics), range-decode just the requested docs and
    hand them back as a token-table Dataset.  A named chunk that is not in
    the live view means the doc index predates an upsert or compaction:
    that raises rather than silently dropping the docs it held."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    from tokrle.codecs.core import decode_range
    from tokrle.pipelines.corpus import corpus_files

    if not chunk_ids:       # empty isin set is a null-typed Arrow error
        return _answer_dataset([TOKEN_SCHEMA.empty_table()])
    t = pds.dataset(corpus_files(enc_dir), format="parquet").to_table(
        columns=["chunk_id", "codec", "payload", "n_tokens", "row_offsets",
                 "doc_id", "doc_source"],
        filter=pc.field("chunk_id").isin(chunk_ids))
    missing = set(chunk_ids) - set(t.column("chunk_id").to_pylist())
    if missing:
        raise ValueError(
            f"{len(missing)} chunk(s) named by the doc index are not in the "
            f"live view of {enc_dir}: the corpus changed after the index "
            "was built; rerun build_doc_index")
    ids = t.column("doc_id").combine_chunks()
    flat = ids.flatten()
    hits = np.flatnonzero(pc.is_in(flat, value_set=wanted_arr)
                          .to_numpy(zero_copy_only=False))
    parent = pc.list_parent_indices(ids).to_numpy()
    rows = parent[hits]      # chunk row of each hit; j = its doc in there
    toks = []
    for r, j in zip(rows.tolist(),
                    (hits - np.searchsorted(parent, rows)).tolist()):
        offs = t.column("row_offsets")[r].values
        toks.append(decode_range(
            t.column("codec")[r].as_py(),
            memoryview(t.column("payload")[r].as_buffer()),
            t.column("n_tokens")[r].as_py(), np.int32,
            offs[j].as_py(), offs[j + 1].as_py()))
    lens = np.array([len(x) for x in toks], dtype=np.int32)
    sel = pa.array(hits, type=pa.int64())
    return _answer_dataset([pa.table({
        "doc_id": flat.take(sel).cast(pa.string()),
        "tokens": pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lens))), pa.int32()),
            pa.array(np.concatenate(toks) if toks else [], pa.int32())),
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": t.column("doc_source").combine_chunks().flatten()
        .take(sel).cast(pa.string()),
    })])


def build_doc_index(enc_dir: str, index_dir: str | None = None, *,
                    n_buckets: int = 64) -> str:
    """Persistent doc_id -> chunk_id index for the encoded corpus,
    hive-partitioned by id-hash bucket (the LSH/IVF-index layout applied
    to point lookups).

    One metadata-only scan of (chunk_id, doc_id list) columns flattens to
    (doc_id, chunk_id, bucket) rows and writes them partitioned by
    ``bucket``, so a lookup reads ~1/``n_buckets`` of the index instead
    of scanning every chunk's doc list (:func:`fetch_docs` pass 1).  The
    index is a SNAPSHOT of the corpus: rebuild it after
    ``upsert_corpus`` / ``compact_corpus`` (the builder overwrites in
    place; ``meta.json`` records n_buckets and the build time).  A lookup
    through a stale index that names a rewritten chunk raises
    ``ValueError``; ids added after the build are simply not found.
    """
    import json
    import os
    import shutil
    import time as _time

    import pandas as pd
    import pyarrow.compute as pc
    import ray.data

    index_dir = index_dir or os.path.join(enc_dir, "_docindex")
    shutil.rmtree(index_dir, ignore_errors=True)

    def flatten(batch: pa.Table) -> pa.Table:
        col = batch.column("doc_id").combine_chunks()
        lens = pc.list_value_length(col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = col.flatten()
        ids = flat.to_pandas().to_numpy(dtype=object)
        chunk = batch.column("chunk_id").to_pandas().to_numpy(dtype=object)
        bucket = (pd.util.hash_array(ids, categorize=False)
                  % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "chunk_id": pa.array(np.repeat(chunk, lens), type=pa.string()),
            "bucket": pa.array(bucket, type=pa.int64()),
        })

    from tokrle.pipelines.corpus import corpus_files

    ray.data.read_parquet(corpus_files(enc_dir),
                          columns=["chunk_id", "doc_id"]) \
        .map_batches(flatten, batch_format="pyarrow") \
        .write_parquet(index_dir, partition_cols=["bucket"])
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"n_buckets": n_buckets, "built_at": _time.time()}, f)
    return index_dir


def fetch_docs_indexed(enc_dir: str, doc_ids,
                       index_dir: str | None = None):
    """Point lookups through the persistent doc index, with no Ray job:
    hash the requested ids to their buckets, read ONLY those index
    partitions in the calling process (pruned at the path level, like the
    LSH/IVF query paths; ~|ids|/n_buckets of the index), then
    range-decode the located chunks (:func:`_fetch_chunks`).  Raises
    ``ValueError`` when the index is older than the corpus's live view
    (rerun :func:`build_doc_index`)."""
    import json
    import os

    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tokrle.functions.ann import _partition_paths

    index_dir = index_dir or os.path.join(enc_dir, "_docindex")
    with open(os.path.join(index_dir, "meta.json")) as f:
        n_buckets = json.load(f)["n_buckets"]
    wanted = sorted({str(d) for d in doc_ids})
    wanted_arr = pa.array(wanted, type=pa.string())
    buckets = np.unique(pd.util.hash_array(np.asarray(wanted, dtype=object),
                                           categorize=False)
                        % np.uint64(n_buckets)).astype(np.int64)
    paths = _partition_paths(index_dir, "bucket", buckets.tolist())
    if not paths:       # no ids, or none in a bucket the index holds
        return _fetch_chunks(enc_dir, [], wanted_arr)
    idx = pq.read_table(paths, columns=["doc_id", "chunk_id"])
    hits = idx.filter(pc.is_in(idx.column("doc_id"), value_set=wanted_arr))
    return _fetch_chunks(enc_dir, sorted(set(hits.column("chunk_id")
                                             .to_pylist())), wanted_arr)
