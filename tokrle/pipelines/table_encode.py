"""Generic per-column encode for arbitrary integer tables.

The codec layer is column-agnostic; this pipeline applies it to ANY
Parquet table's integer columns — each batch becomes one encoded row
holding (codec, payload, dtype) per column plus lineage sizes, exactly
the per-chunk auto-selection shape the north star describes
(generalizing beyond the token table; ref pyrle stores one hard-coded
representation, runs+values, pyrle/rle.py:146-147 — here every column
gets the codec that fits its distribution).

Decode is the stateless inverse; round-trips are bit-identical per row.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa

from tokrle.codecs.core import _U64_BIAS, decode as codec_decode
from tokrle.select import auto_encode


def _string_buffers(col: pa.ChunkedArray | pa.Array):
    """(lengths:int64, flat_bytes:uint8) of an Arrow string or
    large_string column, zero-copy from its offsets/data buffers."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    o = arr.offset
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype,
                         count=len(arr) + 1 + o)[o:]
    data = (np.frombuffer(arr.buffers()[2], dtype=np.uint8)
            [offs[0]:offs[-1]] if arr.buffers()[2] is not None
            else np.zeros(0, dtype=np.uint8))
    return np.diff(offs).astype(np.int64), np.ascontiguousarray(data)


def _validity_bits(col: pa.ChunkedArray | pa.Array) -> bytes:
    """LSB-packed validity bitmap of a column, b'' when no nulls (the
    common case pays one null_count check and ships zero bytes)."""
    if col.null_count == 0:
        return b""
    import pyarrow.compute as pc

    valid = pc.is_valid(col)
    if isinstance(valid, pa.ChunkedArray):
        valid = valid.combine_chunks()
    return np.packbits(valid.to_numpy(zero_copy_only=False),
                       bitorder="little").tobytes()


def _apply_validity(arr: pa.Array, packed: bytes) -> pa.Array:
    """Re-attach a packed validity bitmap produced by _validity_bits."""
    if not packed:
        return arr
    valid = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                          count=len(arr), bitorder="little").astype(bool)
    null_count = int(len(arr) - valid.sum())
    return pa.Array.from_buffers(
        arr.type, len(arr),
        [pa.py_buffer(packed)] + arr.buffers()[1:],
        null_count=null_count)


def encode_table_columns(ds, columns: list[str], *,
                         batch_size: int = 65536, text_codec: str = "fsst"):
    """Dataset -> encoded Dataset with one row per input batch and, per
    column, ``{col}__codec/__payload/__dtype`` plus byte lineage.

    Integer/float/timestamp columns go through codec auto-selection.
    LIST<numeric> columns (embeddings, token sequences) split into
    per-row lengths and the flat child values, each auto-selected.
    STRING columns split into their Arrow buffers: per-row byte lengths
    (an int column — auto-selected, usually for/bitpack) and the flat
    UTF-8 bytes through
    ``text_codec`` ('fsst' aligned tables, 'fsstg' for the greedy
    arbitrary-offset parse: ~1.5x better ratio at ~5x the encode cost, or
    'auto' to pick per chunk from a 64 KiB sample encode of each)."""
    from tokrle.codecs.core import encode as codec_encode

    def pick_text_codec(data: np.ndarray) -> str:
        if text_codec != "auto":
            return text_codec
        sample = data[: 1 << 16].view(np.int8)
        if len(sample) < 256:          # too small for trained tables to
            return "fsst"              # differentiate; take the fast one
        sizes = {c: len(codec_encode(c, sample)) for c in ("fsst", "fsstg")}
        return min(sizes, key=sizes.__getitem__)

    def enc(batch: pa.Table) -> pa.Table:
        out: dict = {"n_rows": pa.array([len(batch)], type=pa.int64())}
        raw_bytes = 0
        enc_bytes = 0
        for c in columns:
            col = batch.column(c)
            # nulls: carry an LSB-packed validity bitmap (b'' when none)
            # so None round-trips exactly instead of flattening to ''/0
            vbits = _validity_bits(col)
            out[f"{c}__valid"] = pa.array([vbits], type=pa.binary())
            enc_bytes += len(vbits)
            if pa.types.is_list(col.type) or pa.types.is_large_list(
                    col.type):
                # list<numeric> (embeddings, token sequences): per-row
                # lengths and the flat child values each go through codec
                # auto-selection — same split as strings, typed child
                import pyarrow.compute as pc
                lens = pc.fill_null(pc.list_value_length(col), 0) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                flat = pc.list_flatten(col)   # skips null slots
                if isinstance(flat, pa.ChunkedArray):
                    flat = flat.combine_chunks()
                if flat.null_count:
                    raise NotImplementedError(
                        f"column {c!r}: null list ELEMENTS not supported")
                v = np.ascontiguousarray(
                    flat.to_numpy(zero_copy_only=False))
                if v.dtype == object:
                    raise NotImplementedError(
                        f"column {c!r}: nested list types not supported")
                lcodec, lpayload, _ = auto_encode(lens)
                vcodec, vpayload, _ = auto_encode(v)
                raw_bytes += v.nbytes + 4 * len(batch)
                enc_bytes += len(lpayload) + len(vpayload)
                out[f"{c}__codec"] = pa.array(
                    [f"list:{lcodec}:{vcodec}"], type=pa.string())
                out[f"{c}__dtype"] = pa.array([f"list:{v.dtype}"],
                                              type=pa.string())
                out[f"{c}__lens_payload"] = pa.array([lpayload],
                                                     type=pa.binary())
                out[f"{c}__payload"] = pa.array([vpayload],
                                                type=pa.binary())
                continue
            if pa.types.is_string(col.type) or pa.types.is_large_string(
                    col.type):
                if vbits:
                    # null slots' lengths/bytes are whatever the buffers
                    # hold; canonicalize to empty so encode is content-
                    # deterministic regardless of upstream buffer state
                    import pyarrow.compute as pc
                    col = pc.fill_null(col, "")
                lens, data = _string_buffers(col)
                lcodec, lpayload, lprof = auto_encode(lens)
                raw_bytes += lens.sum() + len(batch) * 4   # data + offsets
                # string zone map: chunk min/max values (UTF-8 byte
                # order == code-point order, so pyarrow footer-filter
                # comparisons agree with Python's).  eq/in/prefix
                # leaves push a conservative overlap test into the
                # Parquet read — clustered-by-string layouts skip
                # non-overlapping chunks without touching payloads.
                # Null slots were canonicalized to '' above, which only
                # widens the window (never unsound).
                if len(batch):
                    import pyarrow.compute as pc
                    mm = pc.min_max(col)
                    out[f"{c}__smin"] = pa.array(
                        [mm["min"].as_py()], type=pa.string())
                    out[f"{c}__smax"] = pa.array(
                        [mm["max"].as_py()], type=pa.string())
                else:
                    out[f"{c}__smin"] = pa.array([""], type=pa.string())
                    out[f"{c}__smax"] = pa.array([""], type=pa.string())
                # low-cardinality chunks take the STRING-DICTIONARY
                # form: distinct set + integer code stream.  Predicates
                # then evaluate on codes (match_eq/match_in — no text
                # decode at all) and gathers become dictionary takes.
                # The per-row lens stream is kept so lengths-based
                # prefilters work identically on both forms.
                de = None
                if len(batch) >= 8 and len(lens) and \
                        int(lens.max()) <= 256:
                    # short values only: long-text columns are never
                    # low-cardinality and the distinct probe would
                    # hash every byte for nothing.  A slice pre-probe
                    # gates the full pass: if the first rows already
                    # exceed the cardinality cap, the whole chunk will
                    # too (slice distinct <= full distinct)
                    import pyarrow.compute as pc
                    probe = col.slice(0, min(len(batch), 2048))
                    if pc.count_distinct(probe).as_py() <= 256:
                        de = col.dictionary_encode()
                        if isinstance(de, pa.ChunkedArray):
                            de = de.combine_chunks()
                n_u = len(de.dictionary) if de is not None else 0
                if 0 < n_u <= 256 and len(batch) >= 4 * n_u:
                    dlens, dbytes = _string_buffers(de.dictionary)
                    codes = de.indices.to_numpy(zero_copy_only=False)
                    ccodec, cpayload, _ = auto_encode(
                        codes.astype(np.int64))
                    dl_codec, dl_payload, _ = auto_encode(dlens)
                    dt_codec = pick_text_codec(dbytes)
                    db_payload = codec_encode(dt_codec,
                                              dbytes.view(np.int8))
                    from tokrle.codecs.core import sdict_pack
                    packed = sdict_pack(cpayload, dl_payload,
                                        db_payload, n_u)
                    enc_bytes += len(lpayload) + len(packed)
                    out[f"{c}__codec"] = pa.array(
                        [f"sdict:{ccodec}:{dl_codec}:{dt_codec}"],
                        type=pa.string())
                    out[f"{c}__dtype"] = pa.array(["str"],
                                                  type=pa.string())
                    out[f"{c}__lens_payload"] = pa.array(
                        [lpayload], type=pa.binary())
                    out[f"{c}__payload"] = pa.array([packed],
                                                    type=pa.binary())
                    continue
                tcodec = pick_text_codec(data)
                bpayload = codec_encode(tcodec, data.view(np.int8))
                enc_bytes += len(lpayload) + len(bpayload)
                out[f"{c}__codec"] = pa.array(
                    [f"str:{lcodec}:{tcodec}"], type=pa.string())
                out[f"{c}__dtype"] = pa.array(["str"], type=pa.string())
                out[f"{c}__lens_payload"] = pa.array([lpayload],
                                                     type=pa.binary())
                out[f"{c}__payload"] = pa.array([bpayload], type=pa.binary())
                continue
            if vbits:
                import pyarrow.compute as pc
                col = pc.fill_null(col, pa.scalar(0, type=col.type))
            x = np.ascontiguousarray(col.to_numpy(zero_copy_only=False))
            codec, payload, prof = auto_encode(x)
            raw_bytes += prof.raw_bytes
            enc_bytes += len(payload)
            out[f"{c}__codec"] = pa.array([codec], type=pa.string())
            out[f"{c}__dtype"] = pa.array([str(x.dtype)], type=pa.string())
            out[f"{c}__payload"] = pa.array([payload], type=pa.binary())
            # zone map: the profile's chunk extrema, free at encode time.
            # A range scan pushes (vmax >= lo AND vmin <= hi) into the
            # Parquet read and never decodes non-overlapping chunks —
            # effective when the table is clustered (sorted) on the column.
            # Integer/timestamp columns only (timestamps profile as their
            # exact int64 counts): the profile truncates float extrema.
            # uint64 is excluded too: full-range values don't fit the
            # int64 zone-map columns (the codec layer stores them via an
            # xor-2^63 bias), so uint64 hash/signature columns are
            # storage+decode only — value-domain scans/aggregates on
            # them fail loudly on the missing __vmin/__vmax columns.
            if (np.issubdtype(x.dtype, np.integer)
                    and x.dtype != np.uint64) or x.dtype.kind == "M":
                out[f"{c}__vmin"] = pa.array([int(prof.vmin)],
                                             type=pa.int64())
                out[f"{c}__vmax"] = pa.array([int(prof.vmax)],
                                             type=pa.int64())
        out["raw_bytes"] = pa.array([raw_bytes], type=pa.int64())
        out["encoded_bytes"] = pa.array([enc_bytes], type=pa.int64())
        return pa.table(out)

    return ds.map_batches(enc, batch_size=batch_size,
                          batch_format="pyarrow")


def decode_table_columns(encoded_ds, columns: list[str]):
    """Inverse of :func:`encode_table_columns` (zero-copy payload reads)."""

    def dec(batch: pa.Table) -> pa.Table:
        parts = []
        for i in range(len(batch)):
            n = batch.column("n_rows")[i].as_py()
            cols = {}
            for c in columns:
                codec = batch.column(f"{c}__codec")[i].as_py()
                payload = memoryview(
                    batch.column(f"{c}__payload")[i].as_buffer())
                vbits = (batch.column(f"{c}__valid")[i].as_py()
                         if f"{c}__valid" in batch.column_names else b"")
                if codec.startswith("list:"):
                    _, lcodec, vcodec = codec.split(":")
                    child = np.dtype(batch.column(f"{c}__dtype")[i]
                                     .as_py().split(":", 1)[1])
                    lpayload = memoryview(
                        batch.column(f"{c}__lens_payload")[i].as_buffer())
                    lens = codec_decode(lcodec, lpayload, n, np.int64)
                    v = codec_decode(vcodec, payload, int(lens.sum()),
                                     child)
                    offs = np.zeros(n + 1, dtype=np.int64)
                    np.cumsum(lens, out=offs[1:])
                    mask = None
                    if vbits:
                        valid = np.unpackbits(
                            np.frombuffer(vbits, dtype=np.uint8),
                            count=n, bitorder="little").astype(bool)
                        mask = pa.array(~valid)
                    if offs[-1] < 2**31:
                        cols[c] = pa.ListArray.from_arrays(
                            pa.array(offs.astype(np.int32)), pa.array(v),
                            mask=mask)
                    else:
                        cols[c] = pa.LargeListArray.from_arrays(
                            pa.array(offs), pa.array(v), mask=mask)
                    continue
                if codec.startswith("sdict:"):
                    from tokrle.codecs.core import (_sdict_distinct_array,
                                                    sdict_unpack)
                    ccodec, codes_p, dlens, dbytes = sdict_unpack(
                        codec, payload)
                    codes_v = codec_decode(ccodec, codes_p, n, np.int64)
                    arr = _sdict_distinct_array(dlens, dbytes) \
                        .take(pa.array(codes_v))
                    if arr.nbytes < 2**31:
                        arr = arr.cast(pa.string())
                    cols[c] = _apply_validity(arr, vbits)
                    continue
                if codec.startswith("str:"):
                    _, lcodec, tcodec = codec.split(":")
                    lpayload = memoryview(
                        batch.column(f"{c}__lens_payload")[i].as_buffer())
                    lens = codec_decode(lcodec, lpayload, n, np.int64)
                    nbytes = int(lens.sum())
                    data = codec_decode(tcodec, payload, nbytes, np.int8)
                    offs = np.zeros(n + 1, dtype=np.int64)
                    np.cumsum(lens, out=offs[1:])
                    arr = pa.StringArray.from_buffers(
                        n, pa.py_buffer(offs.astype(np.int32).tobytes()),
                        pa.py_buffer(data.tobytes())) if offs[-1] < 2**31 \
                        else pa.LargeStringArray.from_buffers(
                            n, pa.py_buffer(offs.tobytes()),
                            pa.py_buffer(data.tobytes()))
                    cols[c] = _apply_validity(arr, vbits)
                    continue
                dtype = np.dtype(batch.column(f"{c}__dtype")[i].as_py())
                cols[c] = _apply_validity(
                    pa.array(codec_decode(codec, payload, n, dtype)), vbits)
            parts.append(pa.table(cols))
        if not parts:
            return pa.table({c: pa.array([]) for c in columns})
        return pa.concat_tables(parts)

    return encoded_ds.map_batches(dec, batch_size=4,
                                  batch_format="pyarrow")


def range_scan(enc_dir: str, columns: list[str],
               preds: list[tuple[str, int, int]]):
    """Zone-map pruned range scan over a table-encode directory.

    ``preds`` is a conjunction of inclusive ranges ``(col, lo, hi)`` on
    integer columns.  The chunk-level predicate ``vmax >= lo AND vmin <=
    hi`` (per range) is pushed into the Parquet scan, so non-overlapping
    chunks' payloads never leave storage; surviving chunks decode and
    row-filter.  Returns ``(Dataset, {"chunks_total", "chunks_scanned"})``
    — the counts come from the footers and the zone-map columns, read in
    the caller, and let callers assert the layout actually pruned.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    keep = None
    for c, lo, hi in preds:
        e = (pc.field(f"{c}__vmax") >= lo) & (pc.field(f"{c}__vmin") <= hi)
        keep = e if keep is None else keep & e
    files = _table_files(enc_dir)
    n_total = _n_chunks(enc_dir)
    n_kept = pds.dataset(files, format="parquet").count_rows(filter=keep) \
        if files else 0
    dec = decode_table_columns(
        ray.data.read_parquet(enc_dir, filter=keep), columns)

    def row_filter(batch: pa.Table) -> pa.Table:
        m = np.ones(len(batch), dtype=bool)
        for c, lo, hi in preds:
            x = batch.column(c).to_numpy(zero_copy_only=False)
            m &= (x >= lo) & (x <= hi)
        return batch.filter(pa.array(m))

    return dec.map_batches(row_filter, batch_format="pyarrow"), \
        {"chunks_total": n_total, "chunks_scanned": n_kept}


def encoded_column_agg(enc_dir: str, columns: list[str]):
    """COUNT/SUM/MIN/MAX over encoded integer columns WITHOUT decoding:
    the ``expr=None`` case of :func:`encoded_boolean_agg` with MIN/MAX.
    SUM comes per chunk from :func:`tokrle.codecs.core.agg_sum` (rle:
    runs x values; dict: code histogram x dictionary; for/pfor: ref*n +
    code sums) and MIN/MAX from the zone-map extrema recorded at encode
    time; only nullable chunks gather their valid values for MIN/MAX.

    NULLs follow SQL: ``n`` is COUNT(*), SUM/MIN/MAX skip NULLs, and
    MIN/MAX are None for a column without a non-NULL value.  uint64
    columns raise ``TypeError`` (their sums can exceed the int64
    answer column).  Returns one row per column:
    ``(col, n, sum_val, min_val, max_val)``."""
    import pandas as pd

    for c in columns:
        if _col_dtype_probe(enc_dir, c) == np.uint64:
            raise TypeError(
                f"column {c!r}: uint64 sums can exceed the int64 "
                "answer column; decode and reduce instead")
    df, _ = encoded_boolean_agg(enc_dir, None, columns, with_minmax=True)
    out = pd.DataFrame({
        "col": columns,
        "n": [int(df["n_match"].iloc[0])] * len(columns),
        "sum_val": [int(df[f"sum_{c}"].iloc[0]) for c in columns]})
    for nm in ("min", "max"):
        vals = [df[f"{nm}_{c}"].iloc[0] for c in columns]
        # object only when a None (SQL NULL) is present: a mixed list
        # would otherwise round through float64
        out[f"{nm}_val"] = pd.Series(
            vals, dtype=object if None in vals else "int64")
    return out


def encoded_distinct_count(enc_dir: str, col: str,
                           expr: tuple | None = None):
    """Exact COUNT(DISTINCT col) over a table-encode directory without
    decoding: each chunk's distinct set comes from the codec's own
    streams via :func:`tokrle.codecs.core.distinct_values` (dict chunks
    never read their code stream — the dictionary IS the distinct set;
    rle chunks read the O(#runs) value stream), per-batch sets union in
    the scan (:func:`_scan_partials`, in the caller), and the caller
    counts the distinct values of their union — the partials hold at
    most (#batches x chunk cardinality) values, never rows.

    ``expr`` (optional boolean predicate TREE, the integer sibling of
    :func:`encoded_str_distinct`'s filter): chunks the tree excludes
    via zone maps never leave storage, wholly-matching chunks keep the
    closed-form distinct, and run-list chunks late-materialize only
    the selected positions (:func:`gather_runs`) before the local
    unique.

    Intended for low/moderate-cardinality columns (keys, labels, enum
    codes); for high-cardinality columns the distinct set itself is the
    data — use the HLL sketch (`functions.sketch`) there.  Integer
    columns; only the ``expr`` columns need zone maps.  NULLs follow
    SQL ``COUNT(DISTINCT)``: predicate columns evaluate under
    three-valued logic, and NULL slots of ``col`` are skipped (a
    nullable chunk gathers only its valid selected positions, so the
    encoder's 0 filler never counts).  Returns
    ``(DataFrame(n_distinct), counters)`` where counters report how
    many chunks answered from a closed form (dict/rle, wholly selected
    and null-free) vs decode/gather."""
    import pandas as pd

    from tokrle.codecs.core import distinct_values, gather_runs

    def partial(batch: pa.Table):
        codecs = batch.column(f"{col}__codec").to_pylist()
        # an empty chunk is trivially answered; classify it so
        # closed+decoded keeps summing to chunks_total when unfiltered
        empty = np.flatnonzero(batch.column("n_rows").to_numpy(
            zero_copy_only=False) == 0)
        closed = sum(codecs[i] in ("dict", "rle") for i in empty)
        decoded, gathered = len(empty) - closed, 0
        parts = []
        for i, n, sel in _chunk_sels(batch, expr):
            sel = _valid_sel(sel, _chunk_valid(batch, col, i), n)
            if isinstance(sel, str):
                if codecs[i] in ("dict", "rle"):
                    closed += 1
                else:
                    decoded += 1
            elif len(sel[0]):
                gathered += 1
            else:
                continue
            codec, payload, dt = _chunk_col(batch, col, i)
            u = distinct_values(codec, payload, n, dt) \
                if isinstance(sel, str) else \
                np.unique(gather_runs(codec, payload, n, dt, *sel))
            # normalize every dtype into the int64 image before the
            # fold (uint64 via the order-preserving bias, datetime via
            # its epoch counts)
            if u.dtype == np.uint64:
                u = _hist_bias_u64(u)
            elif u.dtype.kind == "M":
                u = u.view(np.int64)
            parts.append(u)
        return np.unique(_cat(parts)), {"chunks_closed_form": closed,
                                        "chunks_decoded": decoded,
                                        "chunks_gathered": gathered}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [col]), _expr_zone_filter(expr),
        partial)
    return pd.DataFrame({"n_distinct": [len(np.unique(_cat(parts)))]}), \
        counters


def encoded_string_value_count(enc_dir: str, col: str, value: str):
    """COUNT of rows with string ``col == value``: the
    ``("eq_str", col, value)`` leaf of :func:`encoded_boolean_agg` with
    no aggregate column.  The leaf's kernel,
    :func:`tokrle.codecs.core.match_eq_str`, never decodes the text of a
    chunk without a row of ``value``'s byte length, and answers
    ``sdict:`` chunks on their code stream.  Null slots never match (SQL
    ``col = ''`` never matches NULL).  Returns ``(DataFrame(n_match),
    counters)``."""
    # validate the column kind up front from the footer schema: an
    # integer column has no __lens_payload, and the read below would
    # fail with an opaque missing-column error instead of naming the
    # contract
    fields, first_file = _footer_fields(enc_dir)
    if first_file is not None and f"{col}__lens_payload" not in fields:
        raise TypeError(f"column {col!r}: not a string column")
    return encoded_boolean_agg(enc_dir, ("eq_str", col, value), [])


def encoded_histogram(enc_dir: str, col: str):
    """Exact GROUP BY ``col`` COUNT(*) over a table-encode directory: the
    ``expr=None`` case of :func:`_boolean_value_hist`, so each chunk's
    (value, count) histogram comes from the codec streams via
    :func:`tokrle.codecs.core.value_counts` (dict: dictionary + one
    bincount over the narrow code stream; rle: run-length fold per
    unique run value) and the caller sums the cardinality-bounded pairs.

    NULLs are skipped (the histogram of the non-NULL values — what
    ``quantile_disc`` and ``COUNT(DISTINCT)`` see), and ``value`` keeps
    the column's stored dtype (uint64 unbiased, datetime columns as
    datetime64).  Same cardinality guidance as
    :func:`encoded_distinct_count`.  Returns ``(DataFrame(value, n)
    sorted by value, counters)``."""
    import pandas as pd

    values, counts, counters, dt = _boolean_value_hist(enc_dir, None, col)
    if dt == np.uint64:
        values = values.view(np.uint64) ^ _U64_BIAS
    elif dt is not None:
        values = values.astype(dt)
    return pd.DataFrame({"value": values, "n": counts}), counters


def _hist_rank_idx(cum: np.ndarray, n: int, q_num: int,
                   q_den: int) -> int:
    """Histogram index of the SQL ``quantile_disc`` element: the 0-based
    rank is ``ceil(q*n) - 1`` of the sorted multiset (exact integer
    ceil-division), and the lookup is the first histogram row whose
    cumulative count covers it.  Shared by the integer, grouped,
    filtered and string quantile paths so the rank rule exists once."""
    k = max((q_num * n + q_den - 1) // q_den - 1, 0)
    return int(np.searchsorted(cum, k + 1))


def _hist_rank(values: np.ndarray, cum: np.ndarray, n: int,
               q_num: int, q_den: int) -> int:
    """Integer-valued :func:`_hist_rank_idx` lookup."""
    return int(values[_hist_rank_idx(cum, n, q_num, q_den)])


def _hist_bias_u64(v: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 -> int64 bijection (xor 2^63), so uint64
    histograms fold and rank in int64 exchanges without wrapping."""
    return (v.astype(np.uint64) ^ _U64_BIAS).view(np.int64)


def _hist_unbias_u64(x: int) -> int:
    """Inverse of :func:`_hist_bias_u64` for a single driver-side
    value."""
    return int(np.int64(x).view(np.uint64) ^ _U64_BIAS)


def _agg_fold_u64(v: np.ndarray) -> np.ndarray:
    """uint64 agg values fold in the order-preserving xor-2^63 image
    (the driver unbiases); anything else is plain int64."""
    return _hist_bias_u64(v) if v.dtype == np.uint64 \
        else v.astype(np.int64)


def _group_value_run_fold(g: np.ndarray, v: np.ndarray):
    """One lexsort run-length fold of parallel (group, value) arrays to
    per-(group, value) triples ``(groups, values, counts)``."""
    order = np.lexsort((v, g))
    g, v = g[order], v[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (g[1:] != g[:-1]) | (v[1:] != v[:-1]))))
    return g[starts], v[starts], np.diff(np.concatenate((starts,
                                                         [len(g)])))


def _group_quantile_frame(hist, qs: tuple, group_col: str,
                          is_u64: bool):
    """Driver fold shared by the grouped quantile paths: per-group rank
    selection over the folded (grp, v, c) histogram + dtype-safe
    assembly (explicit quantile dtype — pandas inference would round
    >2^63 values through float64)."""
    import pandas as pd

    rows, quants = [], []
    for grp, sub in hist.groupby("grp", sort=True):
        values = sub["v"].to_numpy()
        cum = np.cumsum(sub["c"].to_numpy())
        n = int(cum[-1])
        for q_num, q_den in qs:
            # a group whose values are all NULL has no quantile (NULL)
            q = None if n == 0 else _hist_rank(values, cum, n, q_num,
                                               q_den)
            quants.append(_hist_unbias_u64(q) if is_u64 and n else q)
            rows.append({group_col: int(grp), "q_num": q_num,
                         "q_den": q_den, "n_rows": n})
    out = pd.DataFrame(rows, columns=[group_col, "q_num", "q_den",
                                      "n_rows"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    out.insert(3, "quantile", pd.Series(quants, dtype=object)
               if None in quants else
               np.array(quants, dtype=np.uint64 if is_u64 else np.int64))
    return out.sort_values([group_col, "q_num", "q_den"]) \
        .reset_index(drop=True)


def _col_dtype_probe(enc_dir: str, col: str) -> "np.dtype | None":
    """The stored numpy dtype of ``col`` from one footer row — a
    single-row column-pruned read of the first file's ``{col}__dtype``
    (the layout is dtype-uniform per column by construction)."""
    import pyarrow.parquet as _pq

    for path in _table_files(enc_dir):
        t = _pq.read_table(path, columns=[f"{col}__dtype"])
        if t.num_rows:
            return np.dtype(t.column(0)[0].as_py())
    return None


def encoded_quantiles(enc_dir: str, col: str,
                      qs: tuple = ((1, 4), (1, 2), (3, 4)),
                      with_moments: bool = True):
    """Exact discrete quantiles AND exact power sums (Σv, Σv²) of ``col``
    from a table-encode directory WITHOUT decoding: the per-chunk
    (value, count) histograms of :func:`encoded_histogram` are a
    sufficient statistic for any order statistic and any moment, so the
    scan's partials hold only cardinality-bounded pairs and the caller
    folds the global histogram — values themselves never move.

    Quantile semantics match SQL ``quantile_disc(col, q)``: the element
    at 0-based rank ``ceil(q*n) - 1`` of the sorted multiset.  Each
    ``q`` is an exact integer fraction ``(num, den)`` so the rank is
    computed in integer arithmetic (no float rounding at rank
    boundaries).  Power sums fold in Python integers (arbitrary
    precision) and are range-checked into int64 — Σv² of a large-value
    column that would overflow raises rather than wrapping.

    ``with_moments=False`` skips the power sums (and their int64 range
    check) — the right mode for timestamp-typed columns, whose
    microsecond epoch sums overflow int64 by construction while their
    order statistics stay perfectly well-defined.

    Same cardinality guidance and null contract as
    :func:`encoded_histogram`.  Returns ``(DataFrame(q_num, q_den,
    quantile, sum_v, sum_v2, n_rows), counters)`` with one row per
    requested quantile (no ``sum_v``/``sum_v2`` columns without
    moments)."""
    import pandas as pd

    hist, counters = encoded_histogram(enc_dir, col)
    values = hist["value"].to_numpy()
    if values.dtype.kind == "M":
        # datetime histograms rank identically in their int64 epoch
        # image; present quantiles as exact epoch MICROSECONDS
        # (DuckDB's internal timestamp unit, = epoch_us(...))
        unit = np.datetime_data(values.dtype)[0]
        factor = {"s": 1_000_000, "ms": 1_000, "us": 1}.get(unit)
        values = values.view(np.int64) // 1_000 if factor is None \
            else values.view(np.int64) * factor
    counts = hist["n"].to_numpy()
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    # exact integer moments over the histogram (Python ints: no 2^53
    # float ceiling, no silent int64 wrap mid-fold)
    sum_v = sum_v2 = 0
    if with_moments:
        sum_v = sum(int(v) * int(c) for v, c in zip(values, counts))
        sum_v2 = sum(int(v) * int(v) * int(c)
                     for v, c in zip(values, counts))
        for name, s in (("sum_v", sum_v), ("sum_v2", sum_v2)):
            if not (-(1 << 63) <= s < (1 << 63)):
                raise OverflowError(
                    f"column {col!r}: {name}={s} exceeds int64; "
                    "aggregate in a wider representation before "
                    "presenting")
    rows = []
    quants = []
    for q_num, q_den in qs:
        quants.append(None if n == 0 else _hist_rank(values, cum, n,
                                                     q_num, q_den))
        rows.append({"q_num": q_num, "q_den": q_den,
                     **({"sum_v": sum_v, "sum_v2": sum_v2}
                        if with_moments else {}),
                     "n_rows": n})
    counters["n_rows"] = n
    df = pd.DataFrame(rows)
    # explicit dtype: pandas would otherwise round >2^63 uint64 values
    # through float64 during inference, corrupting the low bits
    if n == 0:
        df.insert(2, "quantile", pd.Series(quants, dtype="object"))
    else:
        df.insert(2, "quantile", np.array(
            quants, dtype=np.uint64 if values.dtype == np.uint64
            else np.int64))
    return df, counters


def encoded_group_agg(enc_dir: str, group_col: str, agg_cols: list[str],
                      *, with_minmax: bool = False):
    """GROUP BY ``group_col`` with COUNT/SUM (and, with ``with_minmax``,
    MIN/MAX) of ``agg_cols``: the ``expr=None`` case of
    :func:`encoded_filtered_group_agg`.  Group-pure chunks (group zone
    map ``vmin == vmax``, the common case on a table clustered by the
    key) take the group id from the zone map, SUM from
    :func:`tokrle.codecs.core.agg_sum` and MIN/MAX from the aggregate
    column's zone map — nothing decodes; mixed chunks decode and fold
    with one argsort + ``reduceat``.  A nullable group key raises; NULL
    aggregate values are skipped.  Returns ``(DataFrame(group_col, n,
    sum_<c>..., [min_<c>..., max_<c>...]) sorted by group,
    counters)``."""
    return encoded_filtered_group_agg(enc_dir, group_col, None, agg_cols,
                                      with_minmax=with_minmax)


def encoded_group_quantiles(enc_dir: str, group_col: str, agg_col: str,
                            qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact per-group discrete quantiles (SQL ``quantile_disc``) of
    ``agg_col`` GROUP BY ``group_col``: the ``expr=None`` case of
    :func:`encoded_group_where_quantiles`.  Group-pure chunks take the
    group id from the zone map and the agg histogram from the codec
    streams (``closed_form_chunks``); mixed chunks fold one lexsort
    run-length count.  A nullable group key raises; NULL aggregate
    values are skipped (``n_rows`` counts the non-NULL values).
    Returns ``(DataFrame(group_col, q_num, q_den, quantile, n_rows),
    counters)`` with one row per (group, q)."""
    return encoded_group_where_quantiles(enc_dir, None, group_col,
                                         agg_col, qs)


def _boolean_value_hist(enc_dir: str, expr: tuple | None, agg_col: str):
    """Shared core of the histogram family: evaluate the predicate TREE
    per chunk (zone-map leaf short-circuits, 3VL on nullable predicate
    columns, conservative scan filter — exactly as in
    :func:`encoded_boolean_agg`; ``expr=None`` selects every row) and
    fold the (value, count) histogram of ``agg_col`` over ONLY the
    selected rows whose ``agg_col`` is not NULL:

    - ALL-match null-free chunks take their histogram from
      :func:`tokrle.codecs.core.value_counts` (dict/rle closed forms —
      zero decode);
    - every other chunk late-materializes ONLY the selected valid
      positions (:func:`gather_runs`) and folds their counts.

    The scan (:func:`_scan_partials`, in the caller) returns (value,
    partial_count) pairs bounded by chunk cardinality — never rows —
    and the caller sums the counts per value.  uint64 agg columns fold
    in the order-preserving xor-2^63 image.  Returns ``(values, counts,
    counters, dtype)``: the folded int64 values (biased for uint64) in
    ascending order, their exact int64 counts, and ``agg_col``'s stored
    dtype (None for a directory without rows)."""
    from tokrle.codecs.core import gather_runs, value_counts

    def partial(batch: pa.Table):
        vs, cs = [], []
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            sel = _valid_sel(sel, _chunk_valid(batch, agg_col, i), n)
            if _rp_empty(sel):
                continue
            codec, payload, dt = _chunk_col(batch, agg_col, i)
            if isinstance(sel, str):
                v, c = value_counts(codec, payload, n, dt)
            else:
                v, c = np.unique(gather_runs(codec, payload, n, dt, *sel),
                                 return_counts=True)
            vs.append(_agg_fold_u64(v))
            cs.append(c)
        return (_cat(vs), _cat(cs)), _hit_counts(chunks)

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [agg_col]), _expr_zone_filter(expr),
        partial)
    values, counts = _sum_by(_cat(v for v, _ in parts),
                             _cat(c for _, c in parts))
    counters["hist_rows"] = len(values)
    return values, counts, counters, _col_dtype_probe(enc_dir, agg_col)


def encoded_boolean_quantiles(enc_dir: str, expr: tuple, agg_col: str,
                              qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact discrete quantiles of ``agg_col`` over the rows WHERE a
    boolean predicate TREE holds — order statistics joining the
    predicate algebra over the :func:`_boolean_value_hist` sufficient
    statistic; the driver folds ranks with the shared exact integer
    ceil-division.  Integer agg columns; NULLs on either side follow
    SQL (3VL predicates, NULL agg values skipped, ``n_rows`` counts the
    non-NULL selected values).  Returns
    ``(DataFrame(q_num, q_den, quantile, n_rows), counters)``;
    ``quantile`` is None when nothing matches (SQL NULL)."""
    import pandas as pd

    values, counts, counters, dt = _boolean_value_hist(enc_dir, expr,
                                                       agg_col)
    is_u64 = dt == np.uint64
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0

    def _pick(q_num, q_den):
        q = _hist_rank(values, cum, n, q_num, q_den)
        return _hist_unbias_u64(q) if is_u64 else q

    rows = [{"q_num": q_num, "q_den": q_den, "n_rows": n}
            for q_num, q_den in qs]
    quants = [None if n == 0 else _pick(q_num, q_den)
              for q_num, q_den in qs]
    df = pd.DataFrame(rows)
    # explicit dtype: pandas would otherwise round >2^63 values through
    # float64 during inference, corrupting the low bits; empty
    # selections keep None (SQL NULL) in an object column
    if n == 0:
        df.insert(2, "quantile", pd.Series(quants, dtype="object"))
    else:
        df.insert(2, "quantile", np.array(
            quants, dtype=np.uint64 if is_u64 else np.int64))
    return df, counters


def encoded_boolean_histogram(enc_dir: str, expr: tuple, agg_col: str):
    """Exact GROUP BY value COUNT(*) over only the rows WHERE a boolean
    predicate TREE holds — :func:`encoded_histogram` joined with the
    predicate algebra via :func:`_boolean_value_hist` (ALL-match chunks
    histogram from the codec streams with zero decode, run chunks
    late-materialize selected positions only).  Same cardinality
    guidance as the unfiltered histogram.  Returns
    ``(DataFrame(value, n) sorted by value, counters)``."""
    import pandas as pd

    values, counts, counters, dt = _boolean_value_hist(enc_dir, expr,
                                                       agg_col)
    if dt == np.uint64:
        values = (values.view(np.uint64) ^ _U64_BIAS)
    out = pd.DataFrame({"value": values, "n": counts})
    # the biased int64 sort order IS the uint64 order, so re-sorting
    # after the unbias is unnecessary — values are already ascending
    return out.reset_index(drop=True), counters


def encoded_boolean_topk(enc_dir: str, expr: tuple, col: str, k: int):
    """``ORDER BY col DESC LIMIT k`` over only the rows WHERE a boolean
    predicate TREE holds, as a (value, count) multiset with exact tie
    trimming — the filtered sibling of :func:`encoded_topk_rows`.

    Unlike the unfiltered top-k, the metadata-only exclusion threshold
    is unsound here (a chunk's zone map cannot bound how many of its
    rows SURVIVE the predicate), so this derives from the full filtered
    histogram — the partials stay bounded by chunk value cardinality
    and the predicate's zone pruning still skips non-overlapping
    chunks.  Returns ``(DataFrame(value, n) sorted desc with
    sum(n) == min(k, selected rows), counters)``."""
    values, counts, counters, dt = _boolean_value_hist(enc_dir, expr, col)
    values, counts = values[::-1], counts[::-1]   # descending
    cum = np.cumsum(counts)
    cut = int(np.searchsorted(cum, k))            # first idx covering k
    values, counts, cum = (values[:cut + 1], counts[:cut + 1],
                           cum[:cut + 1])
    if len(counts) and cum[-1] > k:               # exact tie trim
        counts[-1] -= int(cum[-1] - k)
    import pandas as pd

    if dt == np.uint64:
        values = values.view(np.uint64) ^ _U64_BIAS
    out = pd.DataFrame({"value": values, "n": counts})
    out = out[out["n"] > 0]
    return out.reset_index(drop=True), counters


def encoded_group_where_quantiles(enc_dir: str, expr: tuple | None,
                                  group_col: str, agg_col: str,
                                  qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Per-group exact quantiles of ``agg_col`` over only the rows WHERE
    a boolean predicate TREE holds — the full composition: predicate
    algebra x GROUP BY x order statistics.  Per chunk:

    - the tree evaluates to ``_ALL`` / a selection run-list / empty
      exactly as in :func:`encoded_boolean_agg` (zone-map leaf
      short-circuits, 3VL nullable predicates, conservative scan
      filter; ``expr=None`` selects every row), and the selection
      drops the rows whose ``agg_col`` is NULL;
    - ALL-selected null-free chunks that are also GROUP-PURE (group
      zone map ``vmin == vmax``) take the agg histogram from the codec
      streams (:func:`value_counts` closed forms) with the group id
      from the zone map — neither column decodes;
    - every other surviving chunk late-materializes ONLY the selected
      positions of both columns (:func:`gather_runs`) and folds one
      lexsort run-length count.

    The scan (:func:`_scan_partials`, in the caller) returns (group,
    value, count) triples per batch; the caller sums them per
    (group, value) and folds the per-group ranks with the shared
    integer ceil-division.
    Integer group column (zone maps required; a nullable group chunk
    with a non-empty selection raises); integer or uint64 agg column
    (uint64 folds in the xor-2^63 image), NULL values skipped so
    ``n_rows`` counts the non-NULL selected values (a group with none
    reports ``n_rows`` 0 and ``quantile`` None, as SQL).  Returns
    ``(DataFrame(group_col, q_num, q_den, quantile, n_rows),
    counters)``."""
    import pandas as pd

    from tokrle.codecs.core import decode as codec_decode
    from tokrle.codecs.core import gather_runs, value_counts

    def partial(batch: pa.Table):
        gzmin, gzmax = _zone_maps(batch, [group_col])
        gs, vs, cs = [], [], []
        closed = gathered = 0
        for i, n, sel in _chunk_sels(batch, expr):
            _check_group_key(batch, group_col, i)
            is_all = isinstance(sel, str)
            vb = _chunk_valid(batch, agg_col, i)
            ac, ap, adt = _chunk_col(batch, agg_col, i)
            gmin = int(gzmin[group_col][i])
            if gmin == gzmax[group_col][i]:
                # the zone map names the single group — the group
                # column NEVER decodes on pure chunks, whatever the
                # selection shape
                if vb:
                    # a zero-count marker: the group reports (n_rows
                    # 0, quantile NULL) even if all its values are NULL
                    gs.append([gmin])
                    vs.append([0])
                    cs.append([0])
                sv = _valid_sel(sel, vb, n)
                if isinstance(sv, str):
                    closed += 1
                    v, c = value_counts(ac, ap, n, adt)
                    v = _agg_fold_u64(v)
                else:
                    gathered += 1
                    v, c = np.unique(
                        _agg_fold_u64(gather_runs(ac, ap, n, adt, *sv)),
                        return_counts=True)
                gs.append(np.full(len(v), gmin, np.int64))
                vs.append(v)
                cs.append(c)
                continue
            gathered += 1
            gc, gp, gdt = _chunk_col(batch, group_col, i)
            if is_all:
                # wholly selected, group-mixed: straight decode beats a
                # synthetic full-range gather
                g = codec_decode(gc, gp, n, gdt).astype(np.int64)
                v = _agg_fold_u64(codec_decode(ac, ap, n, adt))
            else:
                g = gather_runs(gc, gp, n, gdt, *sel).astype(np.int64)
                v = _agg_fold_u64(gather_runs(ac, ap, n, adt, *sel))
            if vb:
                # zero-count markers for every selected group, then
                # drop the NULL values
                gs.append(np.unique(g))
                vs.append(np.zeros(len(gs[-1]), np.int64))
                cs.append(vs[-1])
                ok = _sel_valid_mask(vb, n, sel)
                g, v = g[ok], v[ok]
            if len(g):
                g, v, c = _group_value_run_fold(g, v)
                gs.append(g)
                vs.append(v)
                cs.append(c)
        return (_cat(gs), _cat(vs), _cat(cs)), \
            {"closed_form_chunks": closed, "gathered_chunks": gathered}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [group_col, agg_col],
                               zone_cols=[group_col]),
        _expr_zone_filter(expr), partial)
    hist = pd.DataFrame({nm: _cat(p[j] for p in parts)
                         for j, nm in enumerate(("grp", "v", "c"))}) \
        .groupby(["grp", "v"], sort=True)["c"].sum().reset_index()
    counters["groups"] = int(hist["grp"].nunique())
    counters["hist_rows"] = int(len(hist))
    is_u64 = _col_dtype_probe(enc_dir, agg_col) == np.dtype(np.uint64)
    return _group_quantile_frame(hist, qs, group_col, is_u64), counters


def _table_files(enc_dir: str) -> list[str]:
    """The Parquet files that make up a table-encode directory, sorted —
    the one file list every reader of the table uses, so no two
    readers can disagree about which files make up the table."""
    import glob

    return sorted(glob.glob(os.path.join(enc_dir, "**", "*.parquet"),
                            recursive=True))


def _n_chunks(enc_dir: str) -> int:
    """Number of chunk rows in a table-encode directory, from the
    Parquet footers alone — no Ray job, no column read."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in _table_files(enc_dir))


# Chunk rows per call of a scan core's per-batch function.  A batch
# holds at most this many chunks decoded at once, however well their
# columns compress; 64 chunks of the default 65536 rows are 32 MB per
# int64 column.
_SCAN_BATCH_CHUNKS = 64


def _scan_partials(enc_dir: str, columns: list, flt, fn):
    """The one table read of the pushdown scan cores: ``fn`` maps a
    ``pyarrow.Table`` of at most :data:`_SCAN_BATCH_CHUNKS` chunk rows
    (``columns``, rows admitted by the zone filter ``flt``) to ``(value,
    meters)``: a plain Python value that the core folds, and a dict of
    the core's chunk counts.  A scan that admits no chunk row calls
    ``fn`` once on an empty batch, so the core's empty value and zero
    meters come from the same code.  Returns ``(values, counters)``: the
    values in scan order, and ``chunks_total`` (every chunk row),
    ``chunks_scanned`` (the rows the filter admitted),
    ``chunks_skipped`` and the summed meters.  The scan streams the
    table with ``pyarrow.dataset`` in the calling process — no Ray job,
    Ray need not be initialized."""
    import pyarrow.dataset as pds

    files = _table_files(enc_dir)
    dataset = pds.dataset(files, format="parquet")

    def batches():
        buf, n = [], 0
        for b in dataset.to_batches(columns=columns, filter=flt,
                                    batch_size=_SCAN_BATCH_CHUNKS):
            if n + b.num_rows > _SCAN_BATCH_CHUNKS:
                yield pa.Table.from_batches(buf)
                buf, n = [], 0
            if b.num_rows:
                buf.append(b)
                n += b.num_rows
        if buf:
            yield pa.Table.from_batches(buf)

    values, meters, scanned = [], {}, 0
    for batch in batches() if files else ():
        value, counts = fn(batch)
        values.append(value)
        meters = {k: meters.get(k, 0) + int(c) for k, c in counts.items()}
        scanned += batch.num_rows
    if not values:
        value, meters = fn(pa.schema(
            [dataset.schema.field(c) if files else pa.field(c, pa.null())
             for c in columns]).empty_table())
        values.append(value)
    total = dataset.count_rows()
    return values, {"chunks_total": total, "chunks_scanned": scanned,
                    "chunks_skipped": total - scanned, **meters}


# Sentinel: every position of the chunk matches.  A selection is this
# string or a run-list tuple, so callers tell them apart by type
# (isinstance(sel, str)).
_ALL = "__ALL__"


def _expr_leaves(e):
    if e is None:           # no predicate: every row, no leaves
        return
    if e[0] in ("and", "or"):
        yield from _expr_leaves(e[1])
        yield from _expr_leaves(e[2])
    elif e[0] == "not":
        yield from _expr_leaves(e[1])
    else:
        yield e


def _expr_leaf_bounds(e):
    """(col, lo, hi) value bounds of a leaf — used for zone-map tests.
    For ``in`` leaves the bounds are the set's min/max (conservative:
    bound coverage does NOT imply membership, see _expr_eval3)."""
    if e[0] == "eq":
        return e[1], int(e[2]), int(e[2])
    if e[0] == "range":
        return e[1], int(e[2]), int(e[3])
    if e[0] == "in":
        vals = [int(v) for v in e[2]]
        if not vals:
            return e[1], 1, 0          # empty set: an always-false leaf
        return e[1], min(vals), max(vals)
    raise ValueError(f"unknown predicate kind {e[0]!r}")


#: leaf kinds that test a STRING column (lengths-stream prefilter
#: instead of zone maps; see match_eq_str / match_prefix_str)
_STR_LEAVES = ("eq_str", "prefix_str", "in_str", "suffix_str", "contains_str")

#: leaf kinds that test the VALIDITY BITMAP alone (payload-free; any
#: column type).  ``("is_null", col)`` / ``("not_null", col)``.
_NULL_LEAVES = ("is_null", "not_null")


def _expr_pred_cols(expr) -> list[str]:
    """Distinct INTEGER predicate columns of a tree (zone-mapped)."""
    return list(dict.fromkeys(
        c for c, _, _ in (_expr_leaf_bounds(lf) for lf in
                          _expr_leaves(expr)
                          if lf[0] not in _STR_LEAVES
                          and lf[0] not in _NULL_LEAVES)))


def _expr_null_cols(expr) -> list[str]:
    """Distinct columns of ``is_null`` / ``not_null`` leaves — these
    need only ``{col}__valid`` (the codec payload is never read)."""
    return list(dict.fromkeys(lf[1] for lf in _expr_leaves(expr)
                              if lf[0] in _NULL_LEAVES))


def _expr_str_cols(expr) -> list[str]:
    """Distinct STRING predicate columns of a tree (``eq_str`` /
    ``prefix_str`` leaves: lengths-stream prefilter instead of zone
    maps)."""
    return list(dict.fromkeys(lf[1] for lf in _expr_leaves(expr)
                              if lf[0] in _STR_LEAVES))


def _chunk_col(batch: pa.Table, c: str, i: int):
    """(codec, payload, dtype) of integer chunk ``i`` — the inputs of
    the :mod:`tokrle.codecs.core` match / aggregate kernels.  Null slots
    read as the encoder's 0 filler; null-aware callers pair it with
    :func:`_chunk_valid`."""
    return (batch.column(f"{c}__codec")[i].as_py(),
            memoryview(batch.column(f"{c}__payload")[i].as_buffer()),
            np.dtype(batch.column(f"{c}__dtype")[i].as_py()))


def _chunk_valid(batch: pa.Table, c: str, i: int) -> bytes:
    """Packed ``{c}__valid`` bitmap of chunk ``i``; b'' when null-free."""
    return batch.column(f"{c}__valid")[i].as_py() or b""


def _chunk_str_col(batch: pa.Table, c: str, i: int):
    """(spec, lens_payload, text_payload) of string chunk ``i`` — the
    inputs of the :mod:`tokrle.codecs.core` ``match_*_str`` kernels and
    :func:`tokrle.codecs.core.gather_str_runs`.  Null slots read as the
    encoder's ``''`` filler; null-aware callers pair it with
    :func:`_chunk_valid` (the predicate evaluator intersects a leaf's
    matches with the validity runs)."""
    return (batch.column(f"{c}__codec")[i].as_py(),
            memoryview(batch.column(f"{c}__lens_payload")[i].as_buffer()),
            memoryview(batch.column(f"{c}__payload")[i].as_buffer()))


def _zone_maps(batch: pa.Table, cols) -> tuple[dict, dict]:
    """``({col: vmin array}, {col: vmax array})`` of a scanned batch."""
    return tuple({c: batch.column(f"{c}__{p}").to_numpy(
        zero_copy_only=False) for c in cols} for p in ("vmin", "vmax"))


def _chunk_sel(expr, batch: pa.Table, i: int, n: int, zmin: dict,
               zmax: dict):
    """Selection of chunk ``i`` of a scanned batch under ``expr``: the
    ``_ALL`` sentinel or a canonical run-list of the rows where the tree
    is SQL-TRUE (``_ALL`` when ``expr`` is None, no predicate).  Leaves
    short-circuit on zone maps; ``and`` skips its right branch on an
    empty left, ``or`` on an ALL left; string leaves prune via the
    lengths-stream prefilter inside the ``match_*_str`` kernels instead
    of zone maps.

    The tree evaluates under SQL THREE-VALUED LOGIC
    (:func:`_expr_eval3`, which reads each column's validity bitmap),
    and a WHERE clause keeps the root's TRUE set: NULL comparisons never
    match and ``not`` never resurrects null rows — exactly ANSI/DuckDB
    semantics."""
    if expr is None:
        return _ALL
    t, _ = _expr_eval3(expr, i, n, zmin, zmax,
                       lambda c, j: _chunk_col(batch, c, j),
                       lambda c, j: _chunk_str_col(batch, c, j),
                       lambda c, j: _chunk_valid(batch, c, j))
    return t


def _chunk_sels(batch: pa.Table, expr) -> list:
    """``[(i, n, sel)]`` for the chunks of a scanned batch where
    ``expr`` selects a row: reads ``n_rows`` and the tree's zone maps
    once, skips empty chunks (their zone map is a (0, 0) placeholder)
    and chunks whose :func:`_chunk_sel` is empty.  ``expr=None``
    selects every row of every non-empty chunk."""
    nrows = batch.column("n_rows").to_numpy(zero_copy_only=False)
    zmin, zmax = _zone_maps(batch, _expr_pred_cols(expr))
    out = []
    for i, n in enumerate(nrows.tolist()):
        if n:
            sel = _chunk_sel(expr, batch, i, n, zmin, zmax)
            if not _rp_empty(sel):
                out.append((i, n, sel))
    return out


def _hit_counts(chunks: list) -> dict:
    """Meters of a :func:`_chunk_sels` list: how many chunks were
    selected whole (``all_hit_chunks``) and how many through a run-list
    (``run_chunks``)."""
    n_all = sum(isinstance(sel, str) for _, _, sel in chunks)
    return {"all_hit_chunks": n_all, "run_chunks": len(chunks) - n_all}


def _cat(arrays) -> np.ndarray:
    """Concatenation of int64 arrays; an empty int64 array for none."""
    arrays = list(arrays)
    return np.concatenate(arrays).astype(np.int64, copy=False) if arrays \
        else np.empty(0, np.int64)


def _sum_by(keys: np.ndarray, counts: np.ndarray):
    """``(sorted distinct keys, int64 sum of counts per key)`` of two
    parallel arrays — how the histogram cores fold their batches."""
    u, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(u), np.int64)
    np.add.at(sums, inv, counts)
    return u, sums


def _sel_runs(sel, n: int):
    """Selection ``sel`` as a run-list (``_ALL`` -> the one run
    ``[0, n)``), the input shape of the gather kernels."""
    from tokrle.codecs.core import _full_run

    return _full_run(n) if isinstance(sel, str) else sel


def _valid_sel(sel, vb: bytes, n: int):
    """Selection ``sel`` restricted to the valid slots of a column chunk
    whose validity bitmap is ``vb`` — how aggregate columns skip NULLs
    (the encoder's 0 filler never counts).  ``sel`` itself when the
    chunk is null-free."""
    from tokrle.codecs.core import valid_to_runs

    return sel if not vb else _rp_and(sel, valid_to_runs(vb, n))


def _sel_valid_mask(vb: bytes, n: int, sel) -> np.ndarray:
    """Validity of a nullable column chunk (bitmap ``vb``) at the
    positions of selection ``sel``, aligned with a gather of ``sel``."""
    from tokrle.codecs.core import _runs_to_indices

    ok = np.unpackbits(np.frombuffer(vb, np.uint8), count=n,
                       bitorder="little").astype(bool)
    return ok if isinstance(sel, str) else ok[_runs_to_indices(*sel)]


def _check_group_key(batch: pa.Table, group_col: str, i: int) -> None:
    """The GROUP BY key contract shared by the grouped cores: a nullable
    key chunk raises.  The encoder fills NULL keys with 0, so they would
    otherwise join group 0 — an all-NULL chunk even looks group-pure on
    its zone map, so this runs before the pure-chunk shortcut."""
    if _chunk_valid(batch, group_col, i):
        raise ValueError(
            f"column {group_col!r}: nullable chunks not supported as a "
            "GROUP BY key (encode fills nulls with 0)")


def _scan_columns(expr, value_cols, zone_cols=(), str_cols=()) -> list:
    """Parquet columns a predicate-tree scan reads: ``n_rows``; zone maps
    of the tree's integer columns and of ``zone_cols``; codec, payload,
    dtype and validity of those tree columns and of the integer
    ``value_cols``; codec, payload, lengths and validity of the tree's
    string columns and of the string ``str_cols``; validity of the
    ``is_null``/``not_null`` columns.  ``expr`` may be None."""
    pred_cols = _expr_pred_cols(expr)
    need = ["n_rows"]
    need += [f"{c}__{p}" for c in dict.fromkeys(pred_cols + list(zone_cols))
             for p in ("vmin", "vmax")]
    need += [f"{c}__{p}" for c in pred_cols + list(value_cols)
             for p in ("codec", "payload", "dtype", "valid")]
    need += [f"{c}__{p}" for c in _expr_str_cols(expr) + list(str_cols)
             for p in ("codec", "payload", "lens_payload", "valid")]
    need += [f"{c}__valid" for c in _expr_null_cols(expr)]
    return list(dict.fromkeys(need))


def _expr_zone_filter(e):
    """Conservative zone-map pushdown for a predicate tree: the and/or
    tree maps to the and/or of the leaves' overlap tests; any ``not``
    branch is unprunable (the complement of a zone test is not sound)
    and returns None == read everything, as does ``e is None`` (no
    predicate)."""
    import pyarrow.compute as pc

    if e is None:
        return None
    if e[0] == "and":
        a, b = _expr_zone_filter(e[1]), _expr_zone_filter(e[2])
        return a & b if a is not None and b is not None else \
            (a if b is None else b)
    if e[0] == "or":
        a, b = _expr_zone_filter(e[1]), _expr_zone_filter(e[2])
        return a | b if a is not None and b is not None else None
    if e[0] == "not":
        return None
    if e[0] in _NULL_LEAVES:
        if e[0] == "is_null":
            # only chunks that SHIP a validity bitmap can hold nulls
            return pc.binary_length(pc.field(f"{e[1]}__valid")) > 0
        return None     # not_null matches rows of nearly every chunk
    if e[0] in _STR_LEAVES:
        # string zone maps (__smin/__smax, chunk min/max values):
        # conservative overlap tests per leaf kind.  UTF-8 byte order
        # equals code-point order, so the pyarrow comparisons agree
        # with the evaluator's byte-compare semantics.
        col = e[1]
        smin = pc.field(f"{col}__smin")
        smax = pc.field(f"{col}__smax")
        if e[0] == "eq_str":
            return (smin <= e[2]) & (smax >= e[2])
        if e[0] == "in_str":
            vals = sorted(dict.fromkeys(e[2]))
            if not vals:
                return pc.field("n_rows") < 0   # empty set: always false
            # conservative [min, max] window of the set
            return (smin <= vals[-1]) & (smax >= vals[0])
        if e[0] in ("suffix_str", "contains_str"):
            return None     # no suffix/substring metadata to test
        p = e[2]                                # prefix_str
        if not p:
            return None                         # '' prefixes everything
        # a chunk may contain a p-prefixed value iff smax >= p and
        # smin < successor(p); smin < successor(p) <=> smin <= p OR
        # smin itself starts with p
        return (smax >= p) & ((smin <= p)
                              | pc.starts_with(smin, pattern=p))
    col, lo, hi = _expr_leaf_bounds(e)
    return (pc.field(f"{col}__vmin") <= hi) & \
        (pc.field(f"{col}__vmax") >= lo)


def _rp_and(a, b):
    """AND of two ``_ALL``-or-run-list selections (``_ALL`` is the
    identity)."""
    from tokrle.codecs.core import runs_intersect
    if isinstance(a, str):
        return b
    if isinstance(b, str):
        return a
    return runs_intersect(*a, *b)


def _rp_or(a, b):
    """OR of two ``_ALL``-or-run-list selections (``_ALL`` absorbs)."""
    from tokrle.codecs.core import runs_union
    if isinstance(a, str) or isinstance(b, str):
        return _ALL
    return runs_union(*a, *b)


def _rp_not(a, n: int):
    """NOT of an ``_ALL``-or-run-list selection within ``[0, n)``."""
    from tokrle.codecs.core import runs_complement
    if isinstance(a, str):
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    return runs_complement(*a, n)


def _rp_empty(a) -> bool:
    return not isinstance(a, str) and not len(a[0])


def _expr_eval3(e, i: int, n: int, zmin: dict, zmax: dict, chunk_col,
                str_chunk, valid_fn):
    """Kleene (three-valued) predicate evaluation on the run
    representation: returns ``(TRUE, POSSIBLE)`` where TRUE is the
    run-list (or ``_ALL``) of rows where the tree is definitely true
    and POSSIBLE adds the rows where it is UNKNOWN (a NULL operand).
    ``POSSIBLE is None`` means POSSIBLE == TRUE — no nullable input
    reached this node, and the algebra degenerates to the two-valued
    single-run-list evaluation with zero extra work (the overwhelmingly
    common case).

    The connectives are pure run algebra (the reference's run-merge
    inner loop, ref pyrle/src/rle.pyx, as Kleene logic):
    ``and -> (T1 ∩ T2, P1 ∩ P2)``,
    ``or -> (T1 ∪ T2, P1 ∪ P2)``, ``not -> (¬P, ¬T)``.
    Value/string leaves on a nullable chunk match the null-filled
    payload, then ``T = match ∩ valid`` and ``P = T ∪ nulls``
    (a comparison against NULL is unknown).  ``is_null`` / ``not_null``
    leaves read the validity bitmap alone — payload-free, and
    two-valued: a null TEST is never unknown."""
    from tokrle.codecs.core import (match_contains_str, match_eq,
                                    match_eq_str, match_in,
                                    match_in_str, match_prefix_str,
                                    match_range, match_suffix_str,
                                    runs_complement, valid_to_runs)

    kind = e[0]
    if kind == "and":
        ta, pa_ = _expr_eval3(e[1], i, n, zmin, zmax, chunk_col,
                              str_chunk, valid_fn)
        if _rp_empty(ta) and (pa_ is None or _rp_empty(pa_)):
            return ta, None     # definitely-false left: skip the right
        tb, pb = _expr_eval3(e[2], i, n, zmin, zmax, chunk_col,
                             str_chunk, valid_fn)
        t = _rp_and(ta, tb)
        if pa_ is None and pb is None:
            return t, None
        return t, _rp_and(pa_ if pa_ is not None else ta,
                          pb if pb is not None else tb)
    if kind == "or":
        ta, pa_ = _expr_eval3(e[1], i, n, zmin, zmax, chunk_col,
                              str_chunk, valid_fn)
        if isinstance(ta, str):
            return _ALL, None   # definitely-true left: skip the right
        tb, pb = _expr_eval3(e[2], i, n, zmin, zmax, chunk_col,
                             str_chunk, valid_fn)
        t = _rp_or(ta, tb)
        if pa_ is None and pb is None:
            return t, None
        return t, _rp_or(pa_ if pa_ is not None else ta,
                         pb if pb is not None else tb)
    if kind == "not":
        ta, pa_ = _expr_eval3(e[1], i, n, zmin, zmax, chunk_col,
                              str_chunk, valid_fn)
        if pa_ is None:
            return _rp_not(ta, n), None
        return _rp_not(pa_, n), _rp_not(ta, n)
    col = e[1]
    if kind in _NULL_LEAVES:
        vb = valid_fn(col, i)
        if kind == "not_null":
            return (_ALL if not vb else valid_to_runs(vb, n)), None
        if not vb:
            return (np.empty(0, np.int64), np.empty(0, np.int64)), None
        return runs_complement(*valid_to_runs(vb, n), n), None
    # value / string leaf: match the (null-filled) payload streams,
    # then wrap with the chunk's validity if it carries nulls
    if kind in _STR_LEAVES:
        spec, lp, tp = str_chunk(col, i)
        if kind == "eq_str":
            m = match_eq_str(spec, lp, tp, n, e[2])
        elif kind == "in_str":
            m = match_in_str(spec, lp, tp, n, e[2])
        elif kind == "suffix_str":
            m = match_suffix_str(spec, lp, tp, n, e[2])
        elif kind == "contains_str":
            m = match_contains_str(spec, lp, tp, n, e[2])
        else:
            m = match_prefix_str(spec, lp, tp, n, e[2])
    else:
        _, lo, hi = _expr_leaf_bounds(e)
        cmin, cmax = int(zmin[col][i]), int(zmax[col][i])
        # the zone map covers the null-FILLED values — a superset of
        # the real ones, so both shortcuts below stay sound on nullable
        # chunks (the validity wrap still intersects away null slots)
        if hi < cmin or lo > cmax:
            m = (np.empty(0, np.int64), np.empty(0, np.int64))
        elif kind == "in":
            # bound coverage does NOT imply set membership: the ALL
            # shortcut needs the set to contain EVERY value the chunk
            # can hold — only worth checking on narrow zone windows
            tgt = sorted({int(v) for v in e[2]})
            m = None
            if cmax - cmin < 1024 and len(tgt) > cmax - cmin:
                t = np.array(tgt, dtype=np.int64)
                window = t[(t >= cmin) & (t <= cmax)]
                if len(window) == cmax - cmin + 1:
                    m = _ALL   # the set covers the whole zone window
            if m is None:
                codec, payload, dt = chunk_col(col, i)
                m = match_in(codec, payload, n, dt, tgt)
        elif lo <= cmin and cmax <= hi:
            m = _ALL            # zone map proves the chunk matches
        else:
            codec, payload, dt = chunk_col(col, i)
            if kind == "eq":
                m = match_eq(codec, payload, n, dt, lo)
            else:
                m = match_range(codec, payload, n, dt, lo, hi)
    vb = valid_fn(col, i)
    if not vb:
        return m, None
    vr = valid_to_runs(vb, n)
    t = _rp_and(m, vr)          # null slots (filler-valued) never match
    return t, _rp_or(t, runs_complement(*vr, n))


def encoded_boolean_agg(enc_dir: str, expr: tuple | None,
                        agg_cols: list[str], with_minmax: bool = False):
    """COUNT/SUM under an arbitrary boolean predicate TREE, evaluated
    entirely on the run representation: leaves are ``("eq", col, v)`` /
    ``("range", col, lo, hi)`` selection run-lists from the codec
    streams, and the connectives ``("and", a, b)`` / ``("or", a, b)`` /
    ``("not", a)`` are :func:`runs_intersect` / :func:`runs_union` /
    :func:`runs_complement` — the reference's run-merge inner loop
    (ref pyrle/src/rle.pyx) as a complete boolean algebra; nothing ever
    expands to n elements.

    Per chunk, leaves short-circuit on zone maps (whole-chunk ALL-match
    or MISS answered metadata-only), ``and`` skips its right branch on
    an empty left, ``or`` on an ALL left.  A conservative zone-map scan
    filter is pushed into the Parquet read: the and/or tree maps to the
    and/or of the leaves' overlap tests, while any ``not`` branch is
    unprunable (the complement of a zone test is not sound) and reads
    everything.  ``expr=None`` selects every row (the engine of
    :func:`encoded_column_agg`).  The scan (:func:`_scan_partials`, in
    the caller) yields one partial per batch — the match count and, per
    aggregate column, SUM, valid-value count, MIN and MAX — which the
    caller folds; integer aggregate columns only.

    ``with_minmax=True`` adds exact per-column MIN/MAX of the selected
    rows: ALL-match chunks answer from the aggregate column's own zone
    map (zero decode), run-list chunks late-materialize only the
    selected positions (:func:`gather_runs`).  ``min_<c>``/``max_<c>``
    are ``None`` when nothing matches (SQL ``min()`` over an empty set
    is NULL).

    NULLABLE columns are fully supported on both sides of the
    aggregate.  Predicate columns evaluate under SQL three-valued
    logic (:func:`_expr_eval3` — NULL comparisons never match, ``not``
    never resurrects them, and ``is_null``/``not_null`` leaves answer
    payload-free from the validity bitmap).  Aggregate columns skip
    null slots exactly like SQL: SUM stays exact because the encoder's
    null filler is 0, MIN/MAX gather only valid selected positions,
    and both return NULL when NO selected row holds a valid value
    (``n_valid_<c>`` carries that count; SUM over an all-null
    selection is emitted as 0 — pair it with ``coalesce`` in an
    oracle)."""
    import pandas as pd

    from tokrle.codecs.core import agg_sum, agg_sum_runs, gather_runs

    need = _scan_columns(expr, agg_cols,
                         zone_cols=agg_cols if with_minmax else ())
    imax = np.iinfo(np.int64).max

    def partial(batch: pa.Table):
        n_match = 0
        # per aggregate column [SUM, valid count, MIN, MAX]; the sentinel
        # extrema of a batch without a valid value fold away
        acc = {c: [0, 0, imax, -imax - 1] for c in agg_cols}
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            is_all = isinstance(sel, str)
            n_match += n if is_all else int(sel[1].sum())
            for c in agg_cols:
                codec, payload, dt = _chunk_col(batch, c, i)
                vb = _chunk_valid(batch, c, i)
                a = acc[c]
                if is_all and not vb:
                    # whole null-free chunk selected: the closed-form
                    # sum, and its zone map IS the exact extrema
                    a[0] += agg_sum(codec, payload, n, dt)
                    a[1] += n
                    if with_minmax:
                        a[2] = min(a[2], int(
                            batch.column(f"{c}__vmin")[i].as_py()))
                        a[3] = max(a[3], int(
                            batch.column(f"{c}__vmax")[i].as_py()))
                    continue
                # restrict to VALID selected positions on nullable
                # chunks — null slots neither count nor aggregate
                sv = _valid_sel(sel, vb, n)
                nv = int(sv[1].sum())
                a[1] += nv
                if not nv:
                    continue
                if with_minmax:
                    # min/max need the gathered values anyway — reuse
                    # them for the sum instead of a second decode
                    v = gather_runs(codec, payload, n, dt, *sv)
                    a[0] += int(v.sum(dtype=np.int64))
                    a[2] = min(a[2], int(v.min()))
                    a[3] = max(a[3], int(v.max()))
                elif is_all:
                    # the encoder fills null slots with 0, so the
                    # whole-payload sum equals SQL's null-skipping SUM
                    a[0] += agg_sum(codec, payload, n, dt)
                else:
                    a[0] += agg_sum_runs(codec, payload, n, dt, *sv)
        return (n_match, acc), _hit_counts(chunks)

    parts, counters = _scan_partials(enc_dir, need, _expr_zone_filter(expr),
                                     partial)
    data = {"n_match": [sum(m for m, _ in parts)]}
    for c in agg_cols:
        accs = [acc[c] for _, acc in parts]
        nv = sum(a[1] for a in accs)
        data[f"sum_{c}"] = [sum(a[0] for a in accs)]
        # valid-value count per aggregate column (== SQL COUNT(col));
        # rides in counters so the DataFrame schema stays stable for
        # null-free callers
        counters[f"nvalid_{c}"] = nv
        if with_minmax:
            # SQL MIN/MAX over zero VALID values is NULL, even when
            # null-valued rows were selected
            data[f"min_{c}"] = [min(a[2] for a in accs) if nv else None]
            data[f"max_{c}"] = [max(a[3] for a in accs) if nv else None]
    return pd.DataFrame(data), counters


# Single-predicate and conjunctive entry points: each is one predicate
# tree handed to encoded_boolean_agg, so they share its zone-map
# pruning, its run-list evaluation, its SQL null semantics and its
# counters (chunks_total / chunks_scanned / chunks_skipped /
# all_hit_chunks / run_chunks / nvalid_<c>).

def encoded_range_agg(enc_dir: str, key_col: str, lo: int, hi: int,
                      agg_cols: list[str]):
    """COUNT/SUM of ``agg_cols`` over rows with ``key_col`` in
    ``[lo, hi]``: the ``("range", key_col, lo, hi)`` leaf of
    :func:`encoded_boolean_agg`.  Chunks inside the range are
    ``all_hit_chunks`` (summed by ``agg_sum``, nothing decoded); on a
    table clustered on ``key_col`` only the cluster-boundary chunks
    build a selection.  Returns ``(DataFrame(n_rows, sum_<c>...),
    counters)``."""
    df, counters = encoded_boolean_agg(
        enc_dir, ("range", key_col, lo, hi), agg_cols)
    return df.rename(columns={"n_match": "n_rows"}), counters


def encoded_value_count(enc_dir: str, col: str, value: int):
    """COUNT of rows with ``col == value``: the ``("eq", col, value)``
    leaf of :func:`encoded_boolean_agg` with no aggregate column.
    Returns ``(DataFrame(n_match), counters)``."""
    return encoded_boolean_agg(enc_dir, ("eq", col, value), [])


def encoded_range_count(enc_dir: str, col: str, lo: int, hi: int):
    """COUNT of rows with ``col`` in ``[lo, hi]``: the
    ``("range", col, lo, hi)`` leaf of :func:`encoded_boolean_agg` with
    no aggregate column.  Returns ``(DataFrame(n_match), counters)``."""
    return encoded_boolean_agg(enc_dir, ("range", col, lo, hi), [])


def encoded_filtered_agg(enc_dir: str, key_col: str, value: int,
                         agg_cols: list[str]):
    """``SELECT count(*), sum(agg_cols...) WHERE key_col == value``: the
    ``("eq", key_col, value)`` leaf of :func:`encoded_boolean_agg`.
    Returns ``(DataFrame(n_match, sum_<c>...), counters)``."""
    return encoded_boolean_agg(enc_dir, ("eq", key_col, value), agg_cols)


def encoded_conjunction_agg(enc_dir: str, predicates: list[tuple],
                            agg_cols: list[str]):
    """``SELECT count(*), sum(agg_cols...) WHERE p1 AND p2 AND ...``:
    the non-empty leaf list ``predicates`` (``("eq", col, value)`` /
    ``("range", col, lo, hi)``) folded into nested ``("and", a, b)``
    nodes for :func:`encoded_boolean_agg`.  Returns
    ``(DataFrame(n_match, sum_<c>...), counters)``."""
    expr = functools.reduce(lambda a, b: ("and", a, b), predicates)
    return encoded_boolean_agg(enc_dir, expr, agg_cols)


def encoded_filtered_group_agg(enc_dir: str, group_col: str,
                               expr: tuple | None, agg_cols: list[str],
                               with_minmax: bool = False):
    """``SELECT group_col, count(*), sum(agg_cols...) [WHERE <predicate
    tree>] GROUP BY group_col`` over a table-encode directory — the
    grouped sibling of :func:`encoded_boolean_agg`, and with
    ``expr=None`` (every row) the engine of :func:`encoded_group_agg`.
    The predicate evaluates per chunk to the ``_ALL`` sentinel or a
    selection run-list (zone-map short-circuits included, conservative
    zone scan filter pushed into the Parquet read), then the grouping
    splits on the GROUP column's zone map:

    - GROUP-PURE chunks (``vmin == vmax`` — the common case when the
      table is clustered on the group key): the group id comes from the
      zone map, the count from the selection alone, and each SUM from
      :func:`agg_sum` (ALL) / :func:`agg_sum_runs` (run-list) — the
      group column never decodes and the agg columns never expand;
    - MIXED chunks materialize the group/agg columns ONLY at the
      selected positions (:func:`gather_runs` late materialization)
      and fold with one argsort + ``add.reduceat`` over the selected
      subset, never the full chunk.

    ``with_minmax=True`` adds per-group ``min_<c>``/``max_<c>``:
    group-pure ALL-selected null-free chunks answer from the aggregate
    column's own zone map (zero decode), every other chunk from the
    gathered values (``minimum/maximum.reduceat`` on mixed chunks).

    NULLs follow :func:`encoded_boolean_agg`: predicate columns under
    three-valued logic, aggregate NULLs skipped (SUM over no valid
    value is emitted as 0 and MIN/MAX as None); a nullable GROUP
    column chunk with a non-empty selection raises.  The batches'
    (group, count, partial) arrays, from :func:`_scan_partials`, are
    folded by one pandas groupby in the calling process — never table
    rows.  Returns
    ``(DataFrame, counters)`` with int64 ``group_col``/``n``/``sum_<c>``
    (then ``min_<c>``, ``max_<c>``) columns sorted by group; integer
    columns only."""
    import pandas as pd

    from tokrle.codecs.core import (agg_sum, agg_sum_runs,
                                    decode as codec_decode, gather_runs)

    imax, imin = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    # partial column -> its fold across chunks (nv_: valid-value count)
    stats = [("sum", "sum")] + ([("min", "min"), ("max", "max"),
                                 ("nv", "sum")] if with_minmax else [])
    fold = {"n": "sum", **{f"{s}_{c}": how for s, how in stats
                           for c in agg_cols}}
    cols = ["grp"] + list(fold)

    def partial(batch: pa.Table):
        gzmin, gzmax = _zone_maps(batch, [group_col])
        parts = {nm: [] for nm in cols}
        n_pure = 0
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            _check_group_key(batch, group_col, i)
            is_all = isinstance(sel, str)
            gmin = int(gzmin[group_col][i])
            if gmin == gzmax[group_col][i]:
                # group-pure: zone map names the group; nothing decodes
                n_pure += 1
                parts["grp"].append([gmin])
                parts["n"].append([n if is_all else int(sel[1].sum())])
                for c in agg_cols:
                    codec, payload, dt = _chunk_col(batch, c, i)
                    vb = _chunk_valid(batch, c, i)
                    # the encoder fills NULL slots with 0, so the sum
                    # over the selection is SQL's NULL-skipping SUM
                    parts[f"sum_{c}"].append(
                        [agg_sum(codec, payload, n, dt) if is_all else
                         agg_sum_runs(codec, payload, n, dt, *sel)])
                    if not with_minmax:
                        continue
                    if is_all and not vb:
                        # whole chunk selected: its zone map IS exact
                        nv = n
                        mn = int(batch.column(f"{c}__vmin")[i].as_py())
                        mx = int(batch.column(f"{c}__vmax")[i].as_py())
                    else:
                        v = gather_runs(codec, payload, n, dt,
                                        *_valid_sel(sel, vb, n))
                        nv = len(v)
                        mn, mx = (int(v.min()), int(v.max())) if nv \
                            else (imax, imin)
                    parts[f"min_{c}"].append([mn])
                    parts[f"max_{c}"].append([mx])
                    parts[f"nv_{c}"].append([nv])
                continue
            # mixed chunk: late-materialize group + agg values at the
            # selected positions only, then one sorted fold
            gc, gp, gdt = _chunk_col(batch, group_col, i)
            g = (codec_decode(gc, gp, n, gdt) if is_all else
                 gather_runs(gc, gp, n, gdt, *sel)).astype(np.int64)
            order = np.argsort(g, kind="mergesort")
            gs = g[order]
            starts = np.flatnonzero(
                np.concatenate(([True], gs[1:] != gs[:-1])))
            parts["grp"].append(gs[starts])
            parts["n"].append(np.diff(np.concatenate((starts, [len(gs)]))))
            for c in agg_cols:
                codec, payload, dt = _chunk_col(batch, c, i)
                v = (codec_decode(codec, payload, n, dt) if is_all else
                     gather_runs(codec, payload, n, dt, *sel)) \
                    .astype(np.int64)[order]
                parts[f"sum_{c}"].append(np.add.reduceat(v, starts))
                if not with_minmax:
                    continue
                vb = _chunk_valid(batch, c, i)
                ok = _sel_valid_mask(vb, n, sel)[order] if vb else \
                    np.ones(len(v), bool)
                parts[f"min_{c}"].append(
                    np.minimum.reduceat(np.where(ok, v, imax), starts))
                parts[f"max_{c}"].append(
                    np.maximum.reduceat(np.where(ok, v, imin), starts))
                parts[f"nv_{c}"].append(
                    np.add.reduceat(ok.astype(np.int64), starts))
        return {nm: _cat(p) for nm, p in parts.items()}, \
            {**_hit_counts(chunks), "pure_group_chunks": n_pure}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(
            expr, [group_col] + list(agg_cols),
            zone_cols=[group_col] + (list(agg_cols) if with_minmax
                                     else [])),
        _expr_zone_filter(expr), partial)
    df = pd.DataFrame({nm: _cat(p[nm] for p in parts) for nm in cols}) \
        .groupby("grp", sort=True).agg(fold)
    for c in agg_cols if with_minmax else ():
        nv = df.pop(f"nv_{c}")
        if (nv == 0).any():
            # SQL MIN/MAX over a group with no valid value is NULL
            for nm in (f"min_{c}", f"max_{c}"):
                df[nm] = df[nm].astype(object).where(nv > 0, None)
    return df.rename_axis(group_col).reset_index(), counters


def _footer_fields(enc_dir: str) -> tuple[set, str | None]:
    """``(field names, first file path)`` of a table-encode directory's
    footer schema (first file only — the layout is uniform by
    construction).  Used to classify columns (a ``__lens_payload``
    field marks a string/list column) without reading any data; the
    path supports follow-up single-row probes (dtypes)."""
    import pyarrow.parquet as _pq

    files = _table_files(enc_dir)
    if not files:
        return set(), None
    return set(_pq.ParquetFile(files[0]).schema_arrow.names), files[0]


def encoded_str_distinct(enc_dir: str, col: str,
                         expr: tuple | None = None):
    """Exact DISTINCT over a STRING column of a table-encode directory
    — the string sibling of :func:`encoded_distinct_count`.  ``sdict``
    chunks the predicate matches WHOLLY (or with no predicate) answer
    from the dictionary HEADER alone (the distinct set rides ahead of
    the code stream and contains exactly the present values — the code
    stream never decodes); predicate-selected sdict chunks gather only
    the selected CODES and dedup those (codes -> values via one
    dictionary take); plain ``str`` chunks decode and dedup locally.
    The partials of :func:`_scan_partials` hold per-batch distinct
    value sets (cardinality-bounded), never rows.  Null slots are
    excluded (SQL ``COUNT(DISTINCT col)`` ignores NULLs), with or
    without a predicate, and predicate columns evaluate under SQL
    three-valued logic.  Returns ``(DataFrame(n_distinct), counters)``."""
    import pandas as pd
    import pyarrow.compute as pc

    from tokrle.codecs.core import (_sdict_distinct_array, gather_str_runs,
                                    sdict_unpack)

    def partial(batch: pa.Table):
        vals, header_only = [], 0
        for i, n, sel in _chunk_sels(batch, expr):
            spec, lp, tp = _chunk_str_col(batch, col, i)
            if not spec.startswith(("str:", "sdict:")):
                raise TypeError(
                    f"column {col!r}: not a string column ({spec})")
            sel = _valid_sel(sel, _chunk_valid(batch, col, i), n)
            if _rp_empty(sel):
                continue
            if spec.startswith("sdict:") and isinstance(sel, str):
                # header-only: the dictionary IS the present-value set
                # (dictionary_encode emits exactly the values that
                # occur) — the code stream never decodes
                _, _, dlens, dbytes = sdict_unpack(spec, tp)
                vals.append(_sdict_distinct_array(dlens, dbytes))
                header_only += 1
                continue
            vals.append(pc.unique(gather_str_runs(spec, lp, tp, n,
                                                  *_sel_runs(sel, n))))
        u = pc.unique(pa.chunked_array(vals, type=pa.large_utf8()))
        return u, {"chunks_header_only": header_only,
                   "chunks_decoded": len(vals) - header_only}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [], str_cols=[col]),
        _expr_zone_filter(expr), partial)
    u = pc.unique(pa.chunked_array(parts, type=pa.large_utf8()))
    return pd.DataFrame({"n_distinct": [len(u)]}), counters


def encoded_str_quantiles(enc_dir: str, col: str,
                          qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact discrete quantiles of a STRING column (binary-collation
    order, SQL ``quantile_disc`` semantics) from the encoded layout:
    ``sdict`` chunks histogram their integer CODE stream
    (:func:`tokrle.codecs.core.value_counts` closed forms — the text
    never decodes beyond the dictionary header) and map codes to the
    distinct set; plain ``str`` chunks decode once and fold with Arrow
    ``value_counts``.  The partials of :func:`_scan_partials` hold
    (string value, count) pairs bounded by chunk cardinality, never
    rows; the caller sorts the folded histogram in UTF-8 byte order
    (== code-point order, so Python/pandas sorting matches DuckDB's
    binary collation) and picks ranks with the shared integer
    ceil-division.  Null slots are
    skipped like SQL; the returned ``n_rows`` counts non-null values.
    Returns ``(DataFrame(q_num, q_den, quantile, n_rows), counters)``
    with ``quantile`` None when every value is NULL."""
    import pandas as pd
    import pyarrow.compute as pc

    from tokrle.codecs.core import (_sdict_distinct_array, gather_str_runs,
                                    sdict_unpack, value_counts)

    def partial(batch: pa.Table):
        vs, cs = [], []
        code_only = 0
        for i, n, _ in _chunk_sels(batch, None):
            spec, lp, tp = _chunk_str_col(batch, col, i)
            if not spec.startswith(("str:", "sdict:")):
                raise TypeError(
                    f"column {col!r}: not a string column ({spec})")
            vb = _chunk_valid(batch, col, i)
            if spec.startswith("sdict:") and not vb:
                # closed form: histogram the integer code stream, then
                # one dictionary take — zero text gather
                ccodec, codes_p, dlens, dbytes = sdict_unpack(spec, tp)
                u, c = value_counts(ccodec, codes_p, n, np.int64)
                dist = _sdict_distinct_array(dlens, dbytes)
                vs.append(dist.take(pa.array(u)))
                cs.append(c)
                code_only += 1
                continue
            sel = _valid_sel(_ALL, vb, n)   # SQL quantiles skip NULLs
            if _rp_empty(sel):
                continue
            vc = pc.value_counts(gather_str_runs(spec, lp, tp, n,
                                                 *_sel_runs(sel, n)))
            vs.append(vc.field("values"))
            cs.append(vc.field("counts").to_numpy(zero_copy_only=False))
        return (vs, cs), {"chunks_code_only": code_only,
                          "chunks_decoded": len(vs) - code_only}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(None, [], str_cols=[col]), None, partial)
    # np.unique sorts str by code point == UTF-8 byte order (binary
    # collation), so the rank lookup below matches DuckDB
    values, counts = _sum_by(
        pa.chunked_array([v for vs, _ in parts for v in vs],
                         type=pa.large_utf8()).to_numpy(
                             zero_copy_only=False),
        _cat(c for _, cs in parts for c in cs))
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    rows = [{"q_num": q_num, "q_den": q_den,
             "quantile": None if n == 0 else str(
                 values[_hist_rank_idx(cum, n, q_num, q_den)]),
             "n_rows": n}
            for q_num, q_den in qs]
    counters["hist_rows"] = len(values)
    return pd.DataFrame(rows), counters


def encoded_str_minmax(enc_dir: str, col: str):
    """``SELECT min(col), max(col)`` over a STRING column — answered
    from the string ZONE MAPS alone (``__smin``/``__smax``, recorded at
    encode time): the scan reads two short string fields per chunk and
    folds; payloads never leave storage.  NOTE: chunks whose validity
    bitmap is non-empty fall back to a decode of that chunk (null
    slots canonicalize to ``''`` at encode, which would corrupt the
    metadata min — SQL min/max skip NULLs).  The two kinds of chunk
    are two :func:`_scan_partials` reads, split by a filter on the
    validity field.  Returns ``(DataFrame(min_<col>, max_<col>),
    counters)``."""
    import pandas as pd
    import pyarrow.compute as pc

    from tokrle.codecs.core import gather_str_runs

    nullable = pc.binary_length(pc.field(f"{col}__valid")) > 0

    def meta_fold(batch: pa.Table):
        keep = pa.array(batch.column("n_rows").to_numpy(
            zero_copy_only=False) > 0)
        smin = batch.column(f"{col}__smin").filter(keep)
        smax = batch.column(f"{col}__smax").filter(keep)
        found = (pc.min(smin).as_py(), pc.max(smax).as_py()) \
            if len(smin) else None
        return found, {"chunks_metadata_only": len(smin)}

    def decode_fold(batch: pa.Table):
        lo, hi = [], []
        for i, n, _ in _chunk_sels(batch, None):
            sel = _valid_sel(_ALL, _chunk_valid(batch, col, i), n)
            if _rp_empty(sel):   # all-NULL chunk contributes nothing
                continue
            spec, lp, tp = _chunk_str_col(batch, col, i)
            mm = pc.min_max(gather_str_runs(spec, lp, tp, n,
                                            *_sel_runs(sel, n)))
            lo.append(mm["min"].as_py())
            hi.append(mm["max"].as_py())
        return ((min(lo), max(hi)) if lo else None), \
            {"chunks_decoded": len(lo)}

    # metadata pass: two short string fields per NON-NULL chunk —
    # payloads never leave storage
    meta, counters = _scan_partials(
        enc_dir, ["n_rows", f"{col}__smin", f"{col}__smax"], ~nullable,
        meta_fold)
    # nullable chunks (rare) decode their valid rows only
    dec, dec_ctr = _scan_partials(
        enc_dir, _scan_columns(None, [], str_cols=[col]), nullable,
        decode_fold)
    # the two reads split one table: their scanned chunks add up
    counters["chunks_scanned"] += dec_ctr["chunks_scanned"]
    counters["chunks_skipped"] -= dec_ctr["chunks_scanned"]
    counters["chunks_decoded"] = dec_ctr["chunks_decoded"]
    found = [p for p in meta + dec if p is not None]
    return (pd.DataFrame({
        f"min_{col}": [min(mn for mn, _ in found) if found else None],
        f"max_{col}": [max(mx for _, mx in found) if found else None]}),
        counters)


def encoded_group_by_str(enc_dir: str, group_col,
                         agg_cols: list[str], expr: tuple | None = None):
    """``SELECT group_col(s), count(*), sum(agg_cols...) [WHERE
    <predicate tree>] GROUP BY group_col(s)`` where the GROUP
    column(s) are STRINGS — the string sibling of
    :func:`encoded_filtered_group_agg`.  ``group_col`` may be one
    column name or a LIST (composite grouping, e.g. (lang, source)),
    and list entries may MIX string and integer columns (a footer
    schema probe classifies them; integer keys gather through
    gather_runs and fold as int64).
    The predicate (integer and/or string leaves) evaluates to a
    selection run-list per chunk; each group column late-materializes
    ONLY the selected rows (:func:`tokrle.codecs.core.gather_str_runs`
    — one lengths decode + one vectorized byte gather, or a dictionary
    take on sdict chunks), integer agg columns gather the same
    positions, and each batch folds to (group tuple, count, partial
    sums) rows — the partials of :func:`_scan_partials` hold per-batch
    distinct group tuples, never table rows, and the caller sums them
    per group.  Predicate columns evaluate under SQL three-valued
    logic and aggregate SUMs skip NULLs; a nullable GROUP BY key chunk
    raises.  Returns ``(DataFrame, counters)`` sorted by the group
    columns."""
    import pandas as pd

    from tokrle.codecs.core import (decode as codec_decode,
                                    gather_runs, gather_str_runs)

    gcols = [group_col] if isinstance(group_col, str) else list(group_col)
    gnames = [f"g{j}" for j in range(len(gcols))]
    # footer-schema probe: group columns may mix strings and integers
    fields, _ = _footer_fields(enc_dir)
    g_str = {g for g in gcols if f"{g}__lens_payload" in fields}
    g_int = [g for g in gcols if g not in g_str]
    sum_names = [f"sum_{c}" for c in agg_cols]

    def partial(batch: pa.Table):
        grp_parts: dict = {g: [] for g in gcols}
        val_parts = {c: [] for c in agg_cols}
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            is_all = isinstance(sel, str)
            runs = _sel_runs(sel, n)
            for g in gcols:
                _check_group_key(batch, g, i)
                if g in g_str:
                    spec, lp, tp = _chunk_str_col(batch, g, i)
                    grp_parts[g].append(
                        gather_str_runs(spec, lp, tp, n, *runs))
                else:
                    codec, payload, dt = _chunk_col(batch, g, i)
                    grp_parts[g].append(
                        (codec_decode(codec, payload, n, dt) if is_all
                         else gather_runs(codec, payload, n, dt,
                                          *runs)).astype(np.int64))
            for c in agg_cols:
                # the encoder fills NULL slots with 0, so the group sums
                # are SQL's NULL-skipping SUM
                codec, payload, dt = _chunk_col(batch, c, i)
                v = (codec_decode(codec, payload, n, dt) if is_all
                     else gather_runs(codec, payload, n, dt, *runs))
                val_parts[c].append(v.astype(np.int64))
        fold = pd.DataFrame(
            {nm: (pa.chunked_array(grp_parts[g], type=pa.large_utf8())
                  .to_pandas() if g in g_str else _cat(grp_parts[g]))
             for nm, g in zip(gnames, gcols)})
        for c in agg_cols:
            fold[c] = _cat(val_parts[c])
        return fold.groupby(gnames, sort=False).agg(
            n=(gnames[0], "size"),
            **{f"sum_{c}": (c, "sum") for c in agg_cols}).reset_index(), \
            _hit_counts(chunks)

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, list(agg_cols) + g_int,
                               str_cols=sorted(g_str)),
        _expr_zone_filter(expr), partial)
    df = pd.concat(parts).groupby(gnames, sort=True)[["n"] + sum_names].sum() \
        .reset_index().rename(columns=dict(zip(gnames, gcols)))
    for g in gcols:
        df[g] = df[g].astype(str) if g in g_str \
            else df[g].astype("int64")
    for c in ["n"] + sum_names:
        df[c] = df[c].astype("int64")
    return df, counters


def _scan_rows(enc_dir: str, expr, cols: list[str]):
    """Late materialization shared by :func:`encoded_scan_where` and
    :func:`encoded_lookup_join`: ``expr`` (SQL three-valued logic,
    zone-map short-circuits and scan filter included) evaluates to a
    selection per chunk, and only then are ``cols`` decoded, and only
    at the selected positions (:func:`tokrle.codecs.core.gather_runs`
    for integer columns, :func:`tokrle.codecs.core.gather_str_runs` for
    string ones).  NULL slots of a nullable column come back as NULL.
    Returns ``(tables, counters)``: one table per scan batch that
    selected a row, or one empty table typed from the footer when none
    did."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tokrle.codecs.core import decode as codec_decode
    from tokrle.codecs.core import gather_runs, gather_str_runs

    # footer-schema probe (no data read): a column with a __lens_payload
    # field is a string/list column; the first row group's dtypes type
    # an empty answer and reject list columns before any chunk is read
    fields, first_file = _footer_fields(enc_dir)
    str_cols = [c for c in cols if f"{c}__lens_payload" in fields]
    dtypes = {c: "int64" for c in cols}     # empty directory
    if first_file is not None:
        first = pq.ParquetFile(first_file).read_row_group(
            0, columns=[f"{c}__dtype" for c in cols])
        dtypes = {c: first.column(f"{c}__dtype")[0].as_py() for c in cols}
    for c in str_cols:
        if dtypes[c] != "str":
            raise TypeError(f"column {c!r}: only string and integer "
                            f"projections supported (dtype {dtypes[c]})")
    empty = pa.table({c: pa.array([], pa.large_utf8()) if c in str_cols
                      else pa.array(np.empty(0, np.dtype(dtypes[c])))
                      for c in cols})
    def gather(batch: pa.Table):
        vals: dict = {c: [] for c in cols}
        oks: dict = {c: [] for c in cols}
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            runs = _sel_runs(sel, n)
            for c in cols:
                if c in str_cols:
                    spec, lp, tp = _chunk_str_col(batch, c, i)
                    v = gather_str_runs(spec, lp, tp, n, *runs)
                else:
                    codec, payload, dt = _chunk_col(batch, c, i)
                    v = codec_decode(codec, payload, n, dt) \
                        if isinstance(sel, str) \
                        else gather_runs(codec, payload, n, dt, *runs)
                vals[c].append(v)
                vb = _chunk_valid(batch, c, i)
                oks[c].append(_sel_valid_mask(vb, n, sel) if vb
                              else np.ones(len(v), bool))
        if not chunks:
            return None, _hit_counts(chunks)
        out = {}
        for c in cols:
            arr = pa.concat_arrays(vals[c]) if c in str_cols \
                else pa.array(np.concatenate(vals[c]))
            ok = np.concatenate(oks[c])
            out[c] = arr if ok.all() else \
                pc.if_else(ok, arr, pa.scalar(None, arr.type))
        return pa.table(out), _hit_counts(chunks)

    tables, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [c for c in cols if c not in str_cols],
                               str_cols=str_cols),
        _expr_zone_filter(expr), gather)
    return [t for t in tables if t is not None] or [empty], counters


def encoded_scan_where(enc_dir: str, expr: tuple, out_cols: list[str]):
    """``SELECT out_cols WHERE <predicate tree>`` over a table-encode
    directory — the row-RETRIEVAL sibling of
    :func:`encoded_boolean_agg`, with LATE MATERIALIZATION
    (:func:`_scan_rows`): the predicate evaluates to a selection
    run-list per chunk (zone-map short-circuits included), and only
    then are the projected columns decoded, and only at the selected
    positions (:func:`tokrle.codecs.core.gather_runs` — bit-addressable
    codecs fetch each run via decode_range, touching O(selected)
    payload bytes; sequential codecs decode once and gather).  Chunks
    the scan filter or the evaluator rules out never decode anything.

    Projection columns may be integer OR string (string projections
    late-materialize via :func:`tokrle.codecs.core.gather_str_runs` —
    one lengths decode + one vectorized byte gather of only the
    selected rows).  Predicate columns evaluate under SQL three-valued
    logic, and NULL slots of projected columns come back as NULL.  The
    scan runs in the caller, and the matching rows are collected there:
    returns a ``ray.data.Dataset`` built with ``ray.data.from_arrow``,
    one block per scan batch of at most :data:`_SCAN_BATCH_CHUNKS`
    chunks."""
    import ray.data

    tables, _ = _scan_rows(enc_dir, expr, out_cols)
    return ray.data.from_arrow(tables)


def encoded_lookup_join(enc_dir: str, key_col: str, dim, dim_key: str,
                        dim_cols: list[str], out_cols: list[str],
                        expr: tuple | None = None):
    """INNER JOIN of the encoded FACT table against a SMALL dimension
    frame (``dim``, pandas) on ``key_col == dim_key`` — broadcast hash
    join re-expressed in the compressed domain.  The dimension's sorted
    key array becomes an ``in`` leaf of the predicate tree (optionally
    ANDed with ``expr``), so membership evaluates on the codec streams
    (rle: O(#runs); dict: sorted-set intersection + boolean-table code
    lookup) with zone-map chunk pruning; only then are ``key_col`` and
    ``out_cols`` late-materialized at the matching positions
    (:func:`_scan_rows`), and the dimension attributes ``dim_cols``
    attach via one ``searchsorted`` against the sorted keys.  The fact
    table never shuffles and never decodes non-matching rows; the scan
    and the attach run in the caller, so the dimension is never
    shipped anywhere.

    Returns a ``ray.data.Dataset`` of joined rows (``key_col`` +
    ``out_cols`` from the fact side, ``dim_cols`` from the dimension),
    built with ``ray.data.from_arrow``, one block per scan batch of at
    most :data:`_SCAN_BATCH_CHUNKS` chunks.  Dimension keys must be
    unique; fact out columns may be integer OR string (string
    projections late-materialize via
    :func:`tokrle.codecs.core.gather_str_runs`).  A NULL fact key never
    matches, ``expr`` follows SQL three-valued logic, and NULL slots of
    ``out_cols`` come back as NULL."""
    import ray.data

    keys = np.asarray(dim[dim_key], dtype=np.int64)
    if len(np.unique(keys)) != len(keys):
        raise ValueError(f"dim[{dim_key!r}] must be unique for a lookup "
                         "join (got duplicate keys)")
    order = np.argsort(keys, kind="mergesort")
    skeys = keys[order]
    dvals = {c: np.asarray(dim[c])[order] for c in dim_cols}
    overlap = set(dim_cols) & set([key_col] + list(out_cols))
    if overlap:
        raise ValueError(f"dim_cols collide with fact columns: "
                         f"{sorted(overlap)}")
    fields, _ = _footer_fields(enc_dir)
    if f"{key_col}__lens_payload" in fields:
        raise TypeError(f"join key {key_col!r} must be an integer "
                        "column")

    join_expr = ("in", key_col, [int(k) for k in skeys])
    if expr is not None:
        join_expr = ("and", join_expr, expr)
    tables, _ = _scan_rows(enc_dir, join_expr,
                           list(dict.fromkeys([key_col] + list(out_cols))))

    def attach(t: pa.Table) -> pa.Table:
        # the `in` leaf guarantees membership (an ALL shortcut requires
        # the set to cover the chunk's whole zone window), so the
        # searchsorted positions are exact hits by construction
        idx = np.searchsorted(skeys, t.column(key_col).to_numpy()
                              .astype(np.int64))
        for c in dim_cols:
            t = t.append_column(c, pa.array(dvals[c][idx]))
        return t

    return ray.data.from_arrow([attach(t) for t in tables])


def encoded_topk_rows(enc_dir: str, col: str, k: int):
    """The k largest values of ``col`` (row multiset, ties by count)
    over a table-encode directory — ``ORDER BY col DESC LIMIT k``
    answered with METADATA-ONLY pruning first, codec streams second:

    - pass 0 reads just ``(n_rows, vmin)`` and derives the exclusion
      threshold T: sort chunks by vmin descending and cumsum their row
      counts — once >= k rows provably have values >= T (every row of a
      chunk is >= its vmin), any chunk with ``vmax < T`` cannot
      contribute and never leaves storage;
    - surviving chunks answer from their codec streams via
      :func:`tokrle.codecs.core.value_counts` (dict: dictionary + code
      bincount; rle: run fold — no decode), keep only values >= T, and
      TRIM to their own top-k row budget (sorted desc, cumulative count
      cut at k), so the partials hold at most #chunks x k pairs;
    - the caller sums the pairs per value and cuts the global multiset
      at exactly k rows.

    Both passes read the table's files in the caller, with no Ray job.
    Returns ``(DataFrame(value, n) sorted desc with sum(n) == min(k,
    total rows), counters)``; ``counters["threshold"]`` is T (None when
    every chunk is scanned).
    Integer zone-mapped columns only; nullable chunks raise."""
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    from tokrle.codecs.core import value_counts

    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    # pass 0 reads two tiny int columns (at 1e8 chunks still two int64
    # vectors); fewer than k rows (or none) exist: scan all
    files = _table_files(enc_dir)
    t_bound = None
    if files:
        m = pds.dataset(files, format="parquet") \
            .to_table(columns=["n_rows", f"{col}__vmin"]).to_pandas() \
            .sort_values(f"{col}__vmin", ascending=False)
        covered = m["n_rows"].cumsum().searchsorted(k)  # first cumsum >= k
        if covered < len(m):
            t_bound = int(m[f"{col}__vmin"].iloc[covered])

    need = ["n_rows"] + [f"{col}__{p}"
                         for p in ("codec", "payload", "dtype", "valid")]
    flt = None if t_bound is None else \
        (pc.field(f"{col}__vmax") >= t_bound)

    def partial(batch: pa.Table):
        vs, cs = [], []
        for i, n, _ in _chunk_sels(batch, None):
            if _chunk_valid(batch, col, i):
                raise ValueError(
                    f"column {col!r}: nullable chunks not supported by "
                    "the compressed-domain top-k")
            codec, payload, dt = _chunk_col(batch, col, i)
            vals, counts = value_counts(codec, payload, n, dt)
            if t_bound is not None:
                keep = vals >= vals.dtype.type(t_bound)
                vals, counts = vals[keep], counts[keep]
            if len(vals) == 0:
                continue
            # per-chunk row budget: largest values until k rows covered
            vals, counts = vals[::-1], counts[::-1]     # descending
            cut = int(np.searchsorted(np.cumsum(counts), k)) + 1
            vs.append(vals[:cut])
            cs.append(counts[:cut])
        return (_cat(vs), _cat(cs)), {}

    parts, counters = _scan_partials(enc_dir, need, flt, partial)
    values, counts = _sum_by(_cat(v for v, _ in parts),
                             _cat(c for _, c in parts))
    values, counts = values[::-1], counts[::-1]         # descending
    cum = np.cumsum(counts)
    # k past the table size keeps every row (cut clamps to the
    # histogram length; nothing to trim since cumsum never reaches k)
    cut = min(int(np.searchsorted(cum, k)) + 1, len(values))
    top = pd.DataFrame({"value": values[:cut], "n": counts[:cut]})
    if cut and int(cum[cut - 1]) > k:
        top.loc[cut - 1, "n"] -= int(cum[cut - 1]) - k
    counters["threshold"] = t_bound
    return top, counters


def _column_checksums(ds, columns: list[str]) -> dict:
    """Order-independent per-column checksums, computed distributed: row
    count plus a sum of vectorized 64-bit content hashes per column (so
    two datasets with equal multisets of values — regardless of row or
    block order — produce equal checksums)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    P = (1 << 31) - 1   # sums stay far inside int64 up to ~2^32 partials;
                        # elementwise-mod -> partial-mod -> final-mod is
                        # additive, so the checksum is BATCHING-INDEPENDENT

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = {"n": [len(df)]}
        for c in columns:
            h = pd.util.hash_array(df[c].to_numpy(dtype=object),
                                   categorize=False)
            out[f"h_{c}"] = [int((h % np.uint64(P)).sum() % P)]
        return pd.DataFrame(out)

    aggs = [Sum("n", alias_name="n")] + [
        Sum(f"h_{c}", alias_name=f"h_{c}") for c in columns]
    row = ds.map_batches(partial, batch_format="pandas").aggregate(*aggs)
    return {k: int(v) % P if k.startswith("h_") else int(v)
            for k, v in row.items()}
