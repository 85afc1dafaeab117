"""Encoder / decoder map_batches stages.

``TokenEncoder`` is the per-batch encoder: a callable class whose instance
``tokrle.pipelines.encode._encode_batch`` caches once per worker process,
so setup is paid once per worker while the encode stays a task stage that
Ray Data fuses with the read and the write.  That serves ref north_star's
"map_batches encoder actors that profile value distributions ... and
auto-select codecs per chunk" without an actor pool.

One input batch -> one encoded chunk row:

    chunk_id     string       deterministic content hash (resume-stable)
    source       string       dominant source in the chunk
    doc_id       list<string> row ids, chunk order
    row_offsets  list<int64>  len n_docs+1; token boundaries inside the chunk
    codec        string       chosen codec
    payload      binary       codec payload for the flat token buffer
    n_docs/n_tokens/raw_bytes/encoded_bytes/enc_us   lineage metrics
    cardinality/n_runs/vmin/vmax                     chunk profile

The flat int32 token buffer of the whole batch is encoded as ONE chunk —
per-row boundaries live in ``row_offsets`` (zero extra cost, exact
row-granular decode).  Generalizes pyrle's per-key (runs, values) pair
(ref pyrle/rle.py:146-147) to per-chunk (codec, payload) with lineage.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pyarrow as pa

from tokrle.codecs.core import decode as codec_decode
from tokrle.select import auto_encode


# the token-table schema every decode path returns
TOKEN_SCHEMA = pa.schema([("doc_id", pa.string()),
                          ("tokens", pa.list_(pa.int32())),
                          ("n_tok", pa.int32()), ("source", pa.string())])


def _flat_tokens(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(flat int32 values, int64 row offsets) from the tokens list column,
    zero-copy where Arrow allows."""
    col = batch.column("tokens")
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    import pyarrow.compute as pc

    per_row = pc.list_value_length(la).to_numpy(zero_copy_only=False)
    offsets = np.concatenate(([0], np.cumsum(per_row, dtype=np.int64)))
    flat = la.flatten()
    flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
    values = flat.to_numpy(zero_copy_only=True)
    return np.ascontiguousarray(values), offsets


class TokenEncoder:
    """Worker-cached encoder for the encode task stage: profile -> select
    -> encode (one instance per worker process, see
    ``tokrle.pipelines.encode._encode_batch``).

    ``local_group=True`` sorts each batch by source and emits one chunk per
    (batch, source) — chunk purity for codec fit without any shuffle
    (``by_source=True`` on every encode entry point).  Chunks get smaller (batch_tokens / sources in
    the batch), so use a larger batch_size with it.
    """

    def __init__(self, local_group: bool = False) -> None:
        self.local_group = local_group
        # once-per-worker setup: one small dummy encode primes numpy ufunc
        # dispatch and the malloc arena's small size-classes; the first real
        # batch still pays first-touch faults on its large buffers, but that
        # is a one-time per-worker cost that amortizes over the worker's life
        self._hasher = hashlib.blake2b
        dummy = (np.arange(1 << 14, dtype=np.int32) * 2654435761) % 50021
        auto_encode(dummy)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.local_group and len(batch):
            src = batch.column("source").combine_chunks().to_numpy(
                zero_copy_only=False)
            if len(np.unique(src)) > 1:
                order = np.argsort(src, kind="stable")
                batch = batch.take(order)
                src = src[order]
                bounds = np.concatenate(
                    ([0], np.flatnonzero(src[1:] != src[:-1]) + 1,
                     [len(src)]))
                parts = [self._encode_one(batch.slice(s, e - s))
                         for s, e in zip(bounds[:-1], bounds[1:])]
                return pa.concat_tables(parts)
        return self._encode_one(batch)

    def _encode_one(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        values, offsets = _flat_tokens(batch)
        codec, payload, prof = auto_encode(values)
        doc_ids = batch.column("doc_id")
        ids = doc_ids.combine_chunks() if isinstance(
            doc_ids, pa.ChunkedArray) else doc_ids
        # content hash: flat token bytes + boundary doc ids + count
        # (buffer-independent, so identical content -> identical chunk_id
        # regardless of block slicing — the resume key)
        h = self._hasher(digest_size=12)
        h.update(memoryview(values))
        if len(doc_ids):
            h.update(str(doc_ids[0].as_py()).encode())
            h.update(str(doc_ids[len(doc_ids) - 1].as_py()).encode())
        h.update(str(len(batch)).encode())
        chunk_id = h.hexdigest()
        sources = batch.column("source")
        source = sources[0].as_py() if len(sources) else ""
        src_arr = sources.combine_chunks() if isinstance(
            sources, pa.ChunkedArray) else sources
        enc_us = int((time.perf_counter() - t0) * 1e6)
        one = pa.array([0, len(batch)], type=pa.int32())
        off1 = pa.array([0, len(offsets)], type=pa.int32())
        return pa.table({
            "chunk_id": pa.array([chunk_id], type=pa.string()),
            "source": pa.array([source], type=pa.string()),
            # single-row list columns wrapping the existing arrays zero-copy
            "doc_id": pa.ListArray.from_arrays(one, ids.cast(pa.string())),
            "doc_source": pa.ListArray.from_arrays(
                one, src_arr.cast(pa.string())),
            "row_offsets": pa.ListArray.from_arrays(
                off1, pa.array(offsets, type=pa.int64())),
            "codec": pa.array([codec], type=pa.string()),
            "payload": pa.array([payload], type=pa.binary()),
            "n_docs": pa.array([len(batch)], type=pa.int64()),
            "n_tokens": pa.array([int(prof.n)], type=pa.int64()),
            "raw_bytes": pa.array([int(prof.raw_bytes)], type=pa.int64()),
            "encoded_bytes": pa.array([len(payload)], type=pa.int64()),
            "enc_us": pa.array([enc_us], type=pa.int64()),
            "cardinality": pa.array([int(prof.cardinality)], type=pa.int64()),
            "n_runs": pa.array([int(prof.n_runs)], type=pa.int64()),
            "vmin": pa.array([int(prof.vmin)], type=pa.int64()),
            "vmax": pa.array([int(prof.vmax)], type=pa.int64()),
        })


def _merge_row_offsets(offset_arrays: list[np.ndarray]) -> np.ndarray:
    """Rebase per-chunk row-offset arrays (each len n_docs+1, starting at 0)
    into one int64 offset array over the concatenated flat buffer.

    Handles zero-doc chunks anywhere in the batch (their offset array is
    just ``[0]``) and keeps a running int64 base so batches whose flat
    token total exceeds 2^31 do not overflow.
    """
    merged = [np.zeros(1, dtype=np.int64)]
    base = np.int64(0)
    for off in offset_arrays:
        off = np.asarray(off, dtype=np.int64)
        if len(off) > 1:
            merged.append(off[1:] + base)
        if len(off):
            base = base + off[-1]
    return np.concatenate(merged)


def decode_chunks(batch: pa.Table) -> pa.Table:
    """Encoded chunk rows -> token-table rows (stateless inverse stage)."""
    out_doc_ids: list[pa.Array] = []
    out_offsets: list[np.ndarray] = []
    out_values: list[np.ndarray] = []
    out_sources: list[pa.Array] = []
    for i in range(len(batch)):
        codec = batch.column("codec")[i].as_py()
        # zero-copy view of the payload bytes (as_py() would copy each
        # multi-MB payload); every codec decode reads via the buffer
        # protocol (np.frombuffer / struct.unpack_from / slicing)
        payload = memoryview(batch.column("payload")[i].as_buffer())
        n_tokens = batch.column("n_tokens")[i].as_py()
        values = codec_decode(codec, payload, n_tokens, np.int32)
        offsets = np.asarray(batch.column("row_offsets")[i].as_py(),
                             dtype=np.int64)
        out_values.append(values)
        out_offsets.append(offsets)
        out_doc_ids.append(batch.column("doc_id")[i].values)
        out_sources.append(batch.column("doc_source")[i].values)
    if not out_values:
        return TOKEN_SCHEMA.empty_table()
    flat = np.concatenate(out_values)
    offsets_all = _merge_row_offsets(out_offsets)
    if offsets_all[-1] <= np.iinfo(np.int32).max:
        # normal path: schema-stable list<int32> (matches the input table)
        tok_list = pa.ListArray.from_arrays(
            pa.array(offsets_all, type=pa.int32()),
            pa.array(flat, type=pa.int32()))
    else:
        # >2^31 flat tokens in one decode batch: large_list keeps the
        # offsets 64-bit instead of silently wrapping
        tok_list = pa.LargeListArray.from_arrays(
            pa.array(offsets_all, type=pa.int64()),
            pa.array(flat, type=pa.int32()))
    doc_id = pa.concat_arrays([a.cast(pa.string()) for a in out_doc_ids])
    n_tok = np.diff(offsets_all).astype(np.int32)
    source = pa.concat_arrays([a.cast(pa.string()) for a in out_sources])
    return pa.table({
        "doc_id": doc_id,
        "tokens": tok_list,
        "n_tok": pa.array(n_tok, type=pa.int32()),
        "source": source,
    })
