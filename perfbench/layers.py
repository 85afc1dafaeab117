"""Per-layer metrics for the traced run.

Every layer is measured from outside: the probe calls the layer's public
function in this process, on the workload's own batches and chunks, and
times the call.  Every workload reports every metric; a layer the
workload never calls reports 0 and is listed under ``not_exercised``.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from common import median, parquet_files, timed
from workloads import FETCH_K

CODEC_SET = ("plain", "bitpack", "for", "dict", "rle", "delta", "pfor",
             "dpfor", "fsst")
PROBE_BYTES = 16 << 20      # raw bytes of chunks the codec probe replays
RANGE_GROUP = FETCH_K       # decode_range calls per group (= docs per fetch)

UNITS = {
    "codecs.encode_gbps": "GB/s",
    "codecs.decode_gbps": "GB/s",
    **{f"codecs.{c}.{d}_gbps": "GB/s" for c in CODEC_SET
       for d in ("encode", "decode")},
    "codecs.decode_range_s": "s",
    "codecs.scan_kernel_s": "s",
    **{f"codecs.mix.{c}": "count" for c in CODEC_SET + ("other",)},
    "codecs.memcpy_gbps": "GB/s",
    "select.profile_s": "s",
    "select.chunks": "count",
    "select.regret": "x",
    "stages.encoder.encode_self_s": "s",
    "stages.encoder.decode_self_s": "s",
    "pipelines.corpus.encode_overhead_s": "s",
    "pipelines.corpus.upsert_write_amp": "x",
    "pipelines.corpus.compact_bytes_rewritten": "bytes",
    "pipelines.encode.decode_overhead_s": "s",
    "pipelines.encode.fetch_overhead_s": "s",
    "pipelines.encode.fetch_chunks_read": "count",
    "pipelines.table_encode.chunks_scanned_frac": "frac",
    "pipelines.table_encode.query_overhead_s": "s",
    "pipelines.table_encode.encode_s": "s",
    "trace.overhead_frac": "frac",
}


class Chunk:
    __slots__ = ("col", "codec", "payload", "n", "dtype", "vmin", "vmax",
                 "doc_ids", "offsets")

    def __init__(self, col, codec, payload, n, dtype, vmin=None, vmax=None,
                 doc_ids=None, offsets=None):
        self.col, self.codec, self.payload, self.n = col, codec, payload, n
        self.dtype, self.vmin, self.vmax = np.dtype(dtype), vmin, vmax
        self.doc_ids, self.offsets = doc_ids, offsets


def token_chunks(enc_dir: str) -> list[Chunk]:
    from workloads import corpus_files_of

    out = []
    for f in corpus_files_of(enc_dir):
        t = pq.read_table(f)
        for i in range(t.num_rows):
            out.append(Chunk(
                "tokens", t.column("codec")[i].as_py(),
                t.column("payload")[i].as_py(),
                t.column("n_tokens")[i].as_py(), np.int32,
                t.column("vmin")[i].as_py(), t.column("vmax")[i].as_py(),
                t.column("doc_id")[i].as_py(),
                np.asarray(t.column("row_offsets")[i].as_py(), np.int64)))
    return out


def table_chunks(enc_dir: str, cols: list[str]) -> list[Chunk]:
    t = pq.read_table(parquet_files(enc_dir))
    out = []
    for c in cols:
        for i in range(t.num_rows):
            dt = t.column(f"{c}__dtype")[i].as_py()
            if dt == "str":
                continue
            out.append(Chunk(c, t.column(f"{c}__codec")[i].as_py(),
                             t.column(f"{c}__payload")[i].as_py(),
                             t.column("n_rows")[i].as_py(), dt,
                             t.column(f"{c}__vmin")[i].as_py(),
                             t.column(f"{c}__vmax")[i].as_py()))
    return out


def codec_mix(names) -> dict:
    """Chunk counts per codec; string and list column specs count as
    ``other``."""
    mix = {f"codecs.mix.{c}": 0 for c in CODEC_SET + ("other",)}
    for n in names:
        key = f"codecs.mix.{n}"
        mix[key if key in mix else "codecs.mix.other"] += 1
    return mix


def _sample(chunks: list[Chunk]) -> list[Chunk]:
    raw = sum(c.n * c.dtype.itemsize for c in chunks)
    stride = max(1, -(-raw // PROBE_BYTES))
    return chunks[::stride]


def probe_codecs(chunks: list[Chunk]) -> tuple[dict, dict]:
    """Chosen-codec encode/decode GB/s, every codec of CODEC_SET forced
    onto the same chunks, profile time and selection regret."""
    from tokrle.codecs.core import decode, encode
    from tokrle.select import estimate_sizes, profile_chunk

    m: dict = {}
    t_dec = t_enc = t_prof = 0.0
    raw = 0
    per = {c: [0.0, 0.0, 0] for c in CODEC_SET}    # enc s, dec s, bytes
    chosen_bytes = best_bytes = 0
    errors: dict[str, int] = {}
    for ch in chunks:
        dt, x = timed(decode, ch.codec, ch.payload, ch.n, ch.dtype)
        t_dec += dt
        raw += x.nbytes
        dt, p = timed(profile_chunk, x)
        t_prof += dt
        est = estimate_sizes(p)
        dt, mine = timed(encode, ch.codec, x, p.vmin, p.vmax)
        t_enc += dt
        sizes = {ch.codec: len(mine)}
        for c in CODEC_SET:
            try:
                te, pay = timed(encode, c, x, p.vmin, p.vmax)
                td, y = timed(decode, c, pay, ch.n, ch.dtype)
            except Exception:  # noqa: BLE001 - a codec may refuse a chunk
                errors[c] = errors.get(c, 0) + 1
                continue
            if not np.array_equal(x, y):
                errors[c] = errors.get(c, 0) + 1
                continue
            per[c][0] += te
            per[c][1] += td
            per[c][2] += x.nbytes
            sizes[c] = len(pay)
        cand = [sizes[c] for c in est if c in sizes] + [sizes[ch.codec]]
        chosen_bytes += len(ch.payload)
        best_bytes += min(cand)
    m["codecs.encode_gbps"] = raw / t_enc / 1e9 if t_enc else 0.0
    m["codecs.decode_gbps"] = raw / t_dec / 1e9 if t_dec else 0.0
    for c, (te, td, b) in per.items():
        m[f"codecs.{c}.encode_gbps"] = b / te / 1e9 if te else 0.0
        m[f"codecs.{c}.decode_gbps"] = b / td / 1e9 if td else 0.0
    m["select.profile_s"] = t_prof
    m["select.chunks"] = len(chunks)
    m["select.regret"] = chosen_bytes / best_bytes if best_bytes else 1.0
    return m, {"probe_raw_bytes": raw, "probe_chunks": len(chunks),
               "codec_errors": errors}


def memcpy_gbps(nbytes: int = 16 << 20) -> float:
    src = np.ones(nbytes // 8, np.int64)
    dst = np.empty_like(src)
    best = min(timed(np.copyto, dst, src)[0] for _ in range(7))
    return nbytes / best / 1e9


def probe_decode_range(ranges: list[tuple[Chunk, int, int]]) -> float:
    """Median seconds of decode_range per group of RANGE_GROUP ranges."""
    from tokrle.codecs.core import decode_range

    groups = []
    for g in range(0, len(ranges) - RANGE_GROUP + 1, RANGE_GROUP):
        t = 0.0
        for ch, a, b in ranges[g:g + RANGE_GROUP]:
            t += timed(decode_range, ch.codec, ch.payload, ch.n, ch.dtype,
                       a, b)[0]
        groups.append(t)
    return median(groups)


def _kernels(ch: Chunk, leaves, aggs_by_col, count_only=False) -> None:
    from tokrle.codecs.core import (agg_sum, count_eq, match_eq,
                                    match_range, value_counts)

    for leaf in leaves:
        if leaf[1] != ch.col:
            continue
        if leaf[0] == "eq":
            (count_eq if count_only else match_eq)(
                ch.codec, ch.payload, ch.n, ch.dtype, leaf[2])
        else:
            match_range(ch.codec, ch.payload, ch.n, ch.dtype, leaf[2],
                        leaf[3])
    for kind in aggs_by_col.get(ch.col, ()):
        if kind == "sum":
            agg_sum(ch.codec, ch.payload, ch.n, ch.dtype)
        else:
            value_counts(ch.codec, ch.payload, ch.n, ch.dtype)


def _overlaps(leaf, zmin, zmax) -> bool:
    lo, hi = (leaf[2], leaf[2]) if leaf[0] == "eq" else (leaf[2], leaf[3])
    return zmax >= lo and zmin <= hi


# ------------------------------------------------------------ workloads


def _token_layers(workload, ctx, res, m, detail) -> None:
    st = res["state"]
    enc_dir, in_dir = st["enc_dir"], st["in_dir"]
    if workload == "ingest":
        # the loop leaves a compacted corpus; probe what encode_corpus
        # writes, the chunks the ingest path produces
        from tokrle.pipelines.corpus import encode_corpus

        enc_dir = ctx.path("layer_enc")
        with ctx.tr.span("corpus.encode_corpus"):
            encode_corpus(in_dir, enc_dir)
    chunks = token_chunks(enc_dir)
    by_doc = {}
    for ch in chunks:
        for j, d in enumerate(ch.doc_ids):
            by_doc[d] = (ch, int(ch.offsets[j]), int(ch.offsets[j + 1]))

    # decode_range over the fetched docs (train_read) or seeded docs
    if st.get("fetch_ids"):
        docs = [d for ids in st["fetch_ids"] for d in ids]
    else:
        rng = np.random.default_rng([ctx.seed, 21])
        docs = list(rng.choice(sorted(by_doc), 8 * RANGE_GROUP))
    m["codecs.decode_range_s"] = probe_decode_range(
        [by_doc[d] for d in docs if d in by_doc])

    # scan kernels: count_eq, match_eq, match_range, agg_sum on every
    # chunk, for 8 seeded token values
    rng = np.random.default_rng([ctx.seed, 22])
    per_q = []
    for v in rng.integers(0, 32000, 8):
        leaves = [("eq", "tokens", int(v)),
                  ("range", "tokens", int(v), int(v) + 100)]
        t0 = time.perf_counter()
        for ch in chunks:
            _kernels(ch, leaves[:1], {"tokens": ["sum"]}, count_only=True)
            _kernels(ch, leaves, {})
        per_q.append(time.perf_counter() - t0)
    m["codecs.scan_kernel_s"] = median(per_q)

    # stage splits and pipeline overheads: best of 3 in-process passes
    replay_dir = ctx.path("layer_replay")
    os.makedirs(replay_dir, exist_ok=True)
    enc_split = _best_of(3, _encoder_pass, in_dir, replay_dir)
    dec_split = _best_of(3, _decoder_pass, enc_dir)
    m["stages.encoder.encode_self_s"] = enc_split["token_encoder"] - \
        enc_split["profile_select"] - enc_split["codec_encode"]
    m["stages.encoder.decode_self_s"] = dec_split["decode_chunks"] - \
        dec_split["codec_decode"]
    enc_walls = [s["encode_s"] for s in st["samples"]] \
        if "samples" in st else st["encode_s"]
    m["pipelines.corpus.encode_overhead_s"] = \
        median(enc_walls) - enc_split["replay"]
    detail["encoder_split_s"] = enc_split
    detail["decoder_split_s"] = dec_split
    if workload == "train_read":
        m["pipelines.encode.decode_overhead_s"] = \
            median(st["decode_s"]) - dec_split["replay"]
        fo, nchunks = _fetch_replay(enc_dir, st["fetch_ids"][:10])
        m["pipelines.encode.fetch_overhead_s"] = \
            median(st["op_series"][0]) - fo
        m["pipelines.encode.fetch_chunks_read"] = nchunks
    else:
        s = st["samples"]
        m["pipelines.corpus.upsert_write_amp"] = median(
            [x["upsert_written"] / x["delta_raw_bytes"] for x in s])
        m["pipelines.corpus.compact_bytes_rewritten"] = median(
            [x["compact_bytes"] for x in s])
    m.update(codec_mix(ch.codec for ch in chunks))
    cm, cd = probe_codecs(_sample(chunks))
    m.update(cm)
    detail.update(cd)


def _best_of(n: int, fn, *args) -> dict:
    runs = [fn(*args) for _ in range(n)]
    return {k: min(r[k] for r in runs) for k in runs[0]}


def _encoder_pass(in_dir: str, replay_dir: str) -> dict:
    """Replay encode_corpus's per-file task in this process (read, encode
    each DEFAULT_BATCH_SIZE slice with TokenEncoder, write), timing the
    encoder and, separately, its profile+select and codec encode."""
    from tokrle.codecs.core import encode
    from tokrle.pipelines.encode import DEFAULT_BATCH_SIZE
    from tokrle.select import estimate_sizes, profile_chunk
    from tokrle.stages.encoder import TokenEncoder

    enc = TokenEncoder()
    out = dict.fromkeys(("token_encoder", "profile_select", "codec_encode",
                         "replay"), 0.0)
    for k, f in enumerate(sorted(glob.glob(os.path.join(in_dir,
                                                        "*.parquet")))):
        t0 = time.perf_counter()
        table = pq.read_table(f, columns=["doc_id", "tokens", "n_tok",
                                          "source"])
        parts, split = [], 0.0
        for s in range(0, table.num_rows, DEFAULT_BATCH_SIZE):
            b = table.slice(s, DEFAULT_BATCH_SIZE)
            dt, part = timed(enc, b)
            parts.append(part)
            out["token_encoder"] += dt
            x = pc.list_flatten(b.column("tokens")).to_numpy(
                zero_copy_only=False)
            t1 = time.perf_counter()
            p = profile_chunk(x)
            est = estimate_sizes(p)
            codec = min(est, key=est.__getitem__)
            t2 = time.perf_counter()
            encode(codec, x, p.vmin, p.vmax)
            t3 = time.perf_counter()
            out["profile_select"] += t2 - t1
            out["codec_encode"] += t3 - t2
            split += t3 - t1
        pq.write_table(pa.concat_tables(parts),
                       os.path.join(replay_dir, f"part-{k}.parquet"))
        out["replay"] += time.perf_counter() - t0 - split
    return out


def _decoder_pass(enc_dir: str) -> dict:
    """Replay decode_tokens in this process (read, decode_chunks per
    4-chunk batch), timing decode_chunks and, separately, codec decode."""
    from tokrle.codecs.core import decode
    from tokrle.stages.encoder import decode_chunks
    from workloads import corpus_files_of

    out = dict.fromkeys(("decode_chunks", "codec_decode", "replay"), 0.0)
    for f in corpus_files_of(enc_dir):
        t0 = time.perf_counter()
        t = pq.read_table(f)
        for s in range(0, t.num_rows, 4):       # decode_tokens batch size
            out["decode_chunks"] += timed(decode_chunks, t.slice(s, 4))[0]
        out["replay"] += time.perf_counter() - t0
        t1 = time.perf_counter()
        for i in range(t.num_rows):
            decode(t.column("codec")[i].as_py(),
                   memoryview(t.column("payload")[i].as_buffer()),
                   t.column("n_tokens")[i].as_py(), np.int32)
        out["codec_decode"] += time.perf_counter() - t1
    return out


def _fetch_replay(enc_dir: str, fetches: list[list[str]]):
    """In-process replay of fetch_docs_indexed: index bucket read, chunk
    read with the chunk_id filter, decode_range per doc.  Returns the
    median replay seconds and the mean chunks read per fetch."""
    import pandas as pd

    from tokrle.codecs.core import decode_range
    from workloads import corpus_files_of

    index_dir = os.path.join(enc_dir, "_docindex")
    with open(os.path.join(index_dir, "meta.json")) as f:
        nb = json.load(f)["n_buckets"]
    files = corpus_files_of(enc_dir)
    times, nchunks = [], []
    for ids in fetches:
        t0 = time.perf_counter()
        arr = np.asarray(sorted(set(ids)), dtype=object)
        buckets = np.unique(pd.util.hash_array(arr, categorize=False)
                            % np.uint64(nb)).astype(np.int64)
        paths = [p for b in buckets for p in sorted(glob.glob(
            os.path.join(index_dir, f"bucket={b}", "*.parquet")))]
        idx = pq.read_table(paths, columns=["doc_id", "chunk_id"])
        want = pa.array(list(arr), type=pa.string())
        hits = idx.filter(pc.is_in(idx.column("doc_id"), value_set=want))
        cids = sorted(set(hits.column("chunk_id").to_pylist()))
        t = pq.read_table(files, filters=pc.field("chunk_id").isin(cids))
        for i in range(t.num_rows):
            dids = t.column("doc_id")[i].as_py()
            offs = t.column("row_offsets")[i].as_py()
            pay = memoryview(t.column("payload")[i].as_buffer())
            for j, d in enumerate(dids):
                if d in ids:
                    decode_range(t.column("codec")[i].as_py(), pay,
                                 t.column("n_tokens")[i].as_py(), np.int32,
                                 offs[j], offs[j + 1])
        times.append(time.perf_counter() - t0)
        nchunks.append(len(cids))
    return median(times), float(np.mean(nchunks)) if nchunks else 0.0


def _pushdown_layers(ctx, res, m, detail) -> None:
    from workloads import LINEITEM_COLS

    st = res["state"]
    enc_dir = st["enc_dir"]
    int_cols = LINEITEM_COLS[:-1]
    chunks = table_chunks(enc_dir, int_cols)
    by_col: dict[str, list[Chunk]] = {}
    for ch in chunks:
        by_col.setdefault(ch.col, []).append(ch)

    rng = np.random.default_rng([ctx.seed, 23])
    ranges = []
    for _ in range(8 * RANGE_GROUP):
        col = int_cols[int(rng.integers(len(int_cols)))]
        ch = by_col[col][int(rng.integers(len(by_col[col])))]
        a = int(rng.integers(0, max(1, ch.n - 256)))
        ranges.append((ch, a, a + 256))
    m["codecs.decode_range_s"] = probe_decode_range(ranges)

    # replay every timed query: read what its zone-map filter admits,
    # then run its scan kernels on those chunks
    files = parquet_files(enc_dir)
    kern_s, over_s = [], []
    queries = [q for rnd in st["rounds"] for q in rnd]
    for q, wall in zip(queries, st["op_series"][0]):
        leaves = q["leaves"]
        aggs: dict[str, list] = {}
        for c in q["aggs"]:
            aggs.setdefault(c, []).append("sum")
        for c in q.get("value_counts", []):
            aggs.setdefault(c, []).append("vc")
        cols = sorted({leaf[1] for leaf in leaves} | set(aggs))
        need = ["n_rows"] + [f"{c}__{p}" for c in cols
                             for p in ("codec", "payload", "dtype")] + \
            [f"{leaf[1]}__{p}" for leaf in leaves for p in ("vmin", "vmax")]
        flt = None
        for leaf in leaves:
            lo, hi = (leaf[2], leaf[2]) if leaf[0] == "eq" else leaf[2:4]
            e = (pc.field(f"{leaf[1]}__vmax") >= lo) & \
                (pc.field(f"{leaf[1]}__vmin") <= hi)
            flt = e if flt is None else flt & e
        t0 = time.perf_counter()
        pq.read_table(files, columns=sorted(set(need)), filters=flt)
        t_read = time.perf_counter() - t0
        n_chunks = len(by_col[int_cols[0]])
        admit = [all(_overlaps(leaf, by_col[leaf[1]][i].vmin,
                               by_col[leaf[1]][i].vmax) for leaf in leaves)
                 for i in range(n_chunks)]
        t0 = time.perf_counter()
        for c in cols:
            for i, ch in enumerate(by_col[c]):
                if admit[i]:
                    _kernels(ch, leaves, aggs,
                             count_only=q["name"] == "value_count")
        t_kern = time.perf_counter() - t0
        kern_s.append(t_kern)
        over_s.append(wall - t_read - t_kern)
    m["codecs.scan_kernel_s"] = median(kern_s)
    m["pipelines.table_encode.query_overhead_s"] = median(over_s)
    tot = scanned = 0
    for _, c in st["counters"]:
        if "chunks_total" in c and "chunks_scanned" in c:
            tot += c["chunks_total"]
            scanned += c["chunks_scanned"]
    m["pipelines.table_encode.chunks_scanned_frac"] = \
        scanned / tot if tot else 0.0
    m["pipelines.table_encode.encode_s"] = median(res["setup_reps_s"])
    codecs = pq.read_table(files, columns=[f"{c}__codec"
                                           for c in LINEITEM_COLS])
    m.update(codec_mix(v for c in codecs.columns for v in c.to_pylist()))
    cm, cd = probe_codecs(_sample(chunks))
    m.update(cm)
    detail.update(cd)


def probe(workload: str, ctx, res) -> dict:
    m = {k: 0.0 for k in UNITS}
    detail: dict = {}
    if workload == "pushdown":
        _pushdown_layers(ctx, res, m, detail)
    else:
        _token_layers(workload, ctx, res, m, detail)
    m["codecs.memcpy_gbps"] = memcpy_gbps()
    lat, traced = res["state"]["op_series"]
    on = [x for x, t in zip(lat, traced) if t]
    off = [x for x, t in zip(lat, traced) if not t]
    m["trace.overhead_frac"] = median(on) / median(off) - 1 \
        if on and off else 0.0
    detail["trace_overhead"] = {"traced_ops": len(on), "untraced_ops":
                                len(off), "traced_p50_s": median(on),
                                "untraced_p50_s": median(off)}
    detail["not_exercised"] = sorted(k for k, v in m.items() if v == 0.0
                                     and not k.startswith("codecs.mix."))
    return {"metrics": m, "detail": detail}
