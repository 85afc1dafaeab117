"""Ray-free consumer API for encoded outputs.

A downstream consumer (data-loader, inspection tool) can read an encoded
directory with pure pyarrow — no Ray session — and stream decoded docs:

    from tokrle.sources.encoded import iter_decoded, read_chunk_table
    for doc_id, tokens in iter_decoded("/data/encoded"):
        ...

The same chunk layout is what `tokrle.pipelines.encode.decode_tokens`
consumes distributed; this is the single-process edge of that contract.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tokrle.stages.encoder import decode_chunks


def chunk_files(enc_dir: str) -> list[str]:
    """The Parquet files of the corpus's LIVE view
    (:func:`tokrle.pipelines.corpus.corpus_files`): a crashed upsert's
    ``group=<gid>.tmp``, a swapped-out ``.old`` group and the members of
    a published compaction are never read.  A plain ``write_parquet``
    directory lists as ``read_parquet`` lists it."""
    from tokrle.pipelines.corpus import _dir_parquet_files, corpus_files

    files = corpus_files(enc_dir)
    return _dir_parquet_files(files) if isinstance(files, str) else files


def read_chunk_table(enc_dir: str, columns=None):
    """All chunk rows (lineage + payloads) as one pyarrow Table."""
    tables = [pq.read_table(f, columns=columns) for f in chunk_files(enc_dir)]
    return pa.concat_tables(tables) if tables else None


def iter_decoded(enc_dir: str) -> Iterator[tuple[str, np.ndarray]]:
    """Stream (doc_id, tokens int32) pairs, one chunk in memory at a time,
    decoded by the same stage as :func:`tokrle.pipelines.encode.decode_tokens`
    (:func:`tokrle.stages.encoder.decode_chunks`)."""
    for f in chunk_files(enc_dir):
        for b in pq.ParquetFile(f).iter_batches(batch_size=1, columns=[
                "codec", "payload", "n_tokens", "row_offsets", "doc_id",
                "doc_source"]):
            t = decode_chunks(pa.Table.from_batches([b]))
            tokens = t.column("tokens").combine_chunks()
            values = tokens.values.to_numpy()
            offsets = tokens.offsets.to_numpy()
            for d, doc_id in enumerate(t.column("doc_id").to_pylist()):
                yield doc_id, values[offsets[d]:offsets[d + 1]]


def lineage_summary(enc_dir: str) -> dict:
    """Codec mix + sizes from lineage columns only (payloads untouched)."""
    t = read_chunk_table(enc_dir, columns=["codec", "n_tokens", "raw_bytes",
                                           "encoded_bytes"])
    if t is None or t.num_rows == 0:
        return {"chunks": 0}
    df = t.to_pandas()
    mix = df.groupby("codec").agg(
        chunks=("codec", "size"), n_tokens=("n_tokens", "sum"),
        encoded_bytes=("encoded_bytes", "sum")).to_dict("index")
    return {
        "chunks": len(df),
        "n_tokens": int(df["n_tokens"].sum()),
        "raw_bytes": int(df["raw_bytes"].sum()),
        "encoded_bytes": int(df["encoded_bytes"].sum()),
        "codec_mix": {k: {kk: int(vv) for kk, vv in v.items()}
                      for k, v in mix.items()},
    }
