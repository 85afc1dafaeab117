"""Compression report over an encoded output dir: our auto-selected codec
bytes vs raw int32 vs the reference encoder's representation.

"Reference encoder" = pyrle's in-memory layout: one (runs: int64,
values: float64) pair per run = 16 bytes/run (ref pyrle/rle.py:146-147),
applied to the same chunks via their lineage n_runs.  Also reports codec
mix and per-codec ratios from the lineage columns alone (no payload read).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb

from tokrle.sources.encoded import chunk_files


def report(out_dir: str) -> dict:
    # the live view only: a crashed upsert's group=<gid>.tmp or the
    # members of a published compaction would count their chunks twice
    files = [chunk_files(out_dir)]
    con = duckdb.connect()
    base = con.execute("""
        SELECT sum(n_tokens) AS n_tokens,
               sum(raw_bytes) AS raw_bytes,
               sum(encoded_bytes) AS encoded_bytes,
               sum(n_runs) * 16 AS pyrle_repr_bytes
        FROM read_parquet(?)
    """, files).fetchone()
    by_codec = con.execute("""
        SELECT codec, count(*) AS chunks, sum(n_tokens) AS n_tokens,
               round(sum(raw_bytes) * 1.0 / sum(encoded_bytes), 2) AS ratio
        FROM read_parquet(?) GROUP BY codec ORDER BY n_tokens DESC
    """, files).fetchall()
    n_tokens, raw, enc, pyrle_bytes = (int(v) for v in base)
    return {
        "n_tokens": n_tokens,
        "raw_bytes": raw,
        "encoded_bytes": enc,
        "compression_ratio_vs_raw": round(raw / enc, 3),
        "pyrle_repr_bytes": pyrle_bytes,
        "ratio_vs_pyrle_repr": round(pyrle_bytes / enc, 3),
        "beats_reference_encoder": enc <= pyrle_bytes,
        "codec_mix": [
            {"codec": c, "chunks": int(k), "n_tokens": int(t),
             "ratio": float(r)} for c, k, t, r in by_codec
        ],
    }


if __name__ == "__main__":
    print(json.dumps(report(sys.argv[1]), indent=2))
