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


def _hist_bias_u64(v: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 -> int64 bijection (xor 2^63), so uint64
    histograms fold and rank in int64 exchanges without wrapping."""
    return (v.astype(np.uint64) ^ _U64_BIAS).view(np.int64)


def _agg_fold_u64(v: np.ndarray) -> np.ndarray:
    """uint64 agg values fold in the order-preserving xor-2^63 image
    (the driver unbiases); anything else is plain int64."""
    return _hist_bias_u64(v) if v.dtype == np.uint64 \
        else v.astype(np.int64)


def _quantile_frame(values: np.ndarray, counts: np.ndarray, qs: tuple,
                    is_u64: bool):
    """``DataFrame(q_num, q_den, quantile, n_rows)`` of one folded
    (value, count) histogram: the SQL ``quantile_disc`` of each
    ``(num, den)`` of ``qs`` (``values`` ascending, uint64 in the
    xor-2^63 image when ``is_u64``) and the histogram's row count.  The
    ``quantile`` dtype is explicit, since pandas inference would round
    values past 2^63 through float64: object holding None (SQL NULL)
    when the histogram is empty, else uint64 or int64.  Every integer
    quantile path builds its frame here."""
    import pandas as pd

    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    if is_u64:
        values = values.view(np.uint64) ^ _U64_BIAS
    quants = [None if n == 0 else
              int(values[_hist_rank_idx(cum, n, q_num, q_den)])
              for q_num, q_den in qs]
    return pd.DataFrame({
        "q_num": np.array([q for q, _ in qs], np.int64),
        "q_den": np.array([d for _, d in qs], np.int64),
        "quantile": pd.Series(quants, dtype=object) if None in quants
        else np.array(quants, np.uint64 if is_u64 else np.int64),
        "n_rows": np.full(len(qs), n, np.int64)})


def _group_quantile_frame(hist: pa.Table, qs: tuple, group_col: str,
                          is_u64: bool):
    """Caller-side fold of the grouped quantile paths: one
    :func:`_quantile_frame` per group of the folded (grp, v, c)
    histogram (sorted by grp then v, the NULL group last), with the
    group key in front, sorted by group and q.  Returns ``(frame,
    number of groups)``."""
    import pandas as pd

    grp = hist.column("grp")
    v, c = (hist.column(nm).to_numpy() for nm in ("v", "c"))
    n_key = len(grp) - grp.null_count
    k = grp.slice(0, n_key).to_numpy()
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]).tolist() \
        if n_key else []
    starts += [n_key] if grp.null_count else []
    frames = [_quantile_frame(v[s:e], c[s:e], sorted(qs), is_u64)
              .assign(**{group_col: k[s] if s < n_key else None})
              for s, e in zip(starts, starts[1:] + [len(grp)])] or \
        [_quantile_frame(np.empty(0, np.int64), np.empty(0, np.int64), (),
                         is_u64).assign(**{group_col: 0})]
    out = pd.concat(frames, ignore_index=True)
    return out[[group_col, "q_num", "q_den", "quantile", "n_rows"]], \
        len(starts)


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
    values, counts, counters, dt = _boolean_value_hist(enc_dir, None, col)
    is_u64 = dt == np.uint64
    if dt is not None and dt.kind == "M":
        # datetime histograms rank identically in their int64 epoch
        # image; present quantiles as exact epoch MICROSECONDS
        # (DuckDB's internal timestamp unit, = epoch_us(...)); numpy
        # floors a finer unit and scales a coarser one, days included
        values = values.view(dt).astype("datetime64[us]").view(np.int64)
    df = _quantile_frame(values, counts, qs, is_u64)
    counters["n_rows"] = int(counts.sum())
    if with_moments:
        # exact integer moments over the histogram (Python ints: no
        # 2^53 float ceiling, no silent int64 wrap mid-fold)
        plain = values.view(np.uint64) ^ _U64_BIAS if is_u64 else values
        sums = {"sum_v": sum(int(v) * int(c) for v, c in zip(plain, counts)),
                "sum_v2": sum(int(v) * int(v) * int(c)
                              for v, c in zip(plain, counts))}
        for j, (name, s) in enumerate(sums.items()):
            if not (-(1 << 63) <= s < (1 << 63)):
                raise OverflowError(
                    f"column {col!r}: {name}={s} exceeds int64; "
                    "aggregate in a wider representation before "
                    "presenting")
            df.insert(3 + j, name, s)
    return df, counters


def encoded_group_agg(enc_dir: str, group_col: str, agg_cols: list[str],
                      *, with_minmax: bool = False):
    """GROUP BY ``group_col`` with COUNT/SUM (and, with ``with_minmax``,
    MIN/MAX) of ``agg_cols``: the ``expr=None`` case of
    :func:`encoded_filtered_group_agg`.  Group-pure chunks (null-free
    key with zone map ``vmin == vmax``, the common case on a table
    clustered by the key) take the group from the zone map, SUM from
    :func:`tokrle.codecs.core.agg_sum` and MIN/MAX from the aggregate
    column's zone map — nothing decodes; mixed chunks decode and fold
    by hash.  A NULL key is its own group, sorted last; NULL aggregate
    values are skipped.  Returns ``(DataFrame(group_col, n,
    sum_<c>..., [min_<c>..., max_<c>...]) sorted by group,
    counters)``."""
    return encoded_filtered_group_agg(enc_dir, group_col, None, agg_cols,
                                      with_minmax=with_minmax)


def encoded_group_quantiles(enc_dir: str, group_col: str, agg_col: str,
                            qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact per-group discrete quantiles (SQL ``quantile_disc``) of
    ``agg_col`` GROUP BY ``group_col``: the ``expr=None`` case of
    :func:`encoded_group_where_quantiles`.  Group-pure chunks take the
    group from the zone map and the agg histogram from the codec
    streams (``closed_form_chunks``); mixed chunks fold by hash.  A
    NULL key is its own group, sorted last; NULL aggregate values are
    skipped (``n_rows`` counts the non-NULL values).
    Returns ``(DataFrame(group_col, q_num, q_den, quantile, n_rows),
    counters)`` with one row per (group, q)."""
    return encoded_group_where_quantiles(enc_dir, None, group_col,
                                         agg_col, qs)


def _boolean_value_hist(enc_dir: str, expr: tuple | None, agg_col: str,
                        k: int | None = None, floor: int | None = None):
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
    in the order-preserving xor-2^63 image.

    The top-k core (:func:`encoded_boolean_topk`) passes ``k``: each
    chunk keeps only its own k largest rows, since the table's k
    largest are among them; and ``floor``: values below it are dropped
    and chunks with ``vmax < floor`` are not read.  Returns ``(values,
    counts, counters, dtype)``: the folded int64 values (biased for
    uint64) in ascending order, their exact int64 counts, and
    ``agg_col``'s stored dtype (None for a directory without rows)."""
    import pyarrow.compute as pc

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
            v = _agg_fold_u64(v)
            if floor is not None:
                keep = v >= floor
                v, c = v[keep], c[keep]
            if k is not None:
                # the largest values until k rows are covered
                cut = int(np.searchsorted(np.cumsum(c[::-1]), k)) + 1
                v, c = v[-cut:], c[-cut:]
            vs.append(v)
            cs.append(c)
        return (_cat(vs), _cat(cs)), _hit_counts(chunks)

    flt = _expr_zone_filter(expr)
    if floor is not None:
        above = pc.field(f"{agg_col}__vmax") >= floor
        flt = above if flt is None else flt & above
    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [agg_col]), flt, partial)
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
    values, counts, counters, dt = _boolean_value_hist(enc_dir, expr,
                                                       agg_col)
    return _quantile_frame(values, counts, qs, dt == np.uint64), counters


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


def encoded_boolean_topk(enc_dir: str, expr: tuple | None, col: str,
                         k: int):
    """``ORDER BY col DESC LIMIT k`` over the rows WHERE a boolean
    predicate TREE holds (``expr=None``: every row), as a (value, count)
    multiset with exact tie trimming; NULL values never rank.  The one
    top-k: :func:`_boolean_value_hist` with each chunk trimmed to its
    own k largest rows, so the partials hold at most #chunks x k pairs.

    Without a predicate, a metadata pass first derives the exclusion
    threshold T from ``(n_rows, vmin, valid)`` of a zone-mapped column:
    sort chunks by vmin descending and cumsum the rows of null-free
    chunks (a NULL slot never ranks) — once >= k rows provably hold
    values >= T, no value below T ranks and no chunk with ``vmax < T``
    is read.  Under a predicate the threshold is unsound (a chunk's
    zone map cannot bound how many of its rows SURVIVE the predicate),
    so the predicate's own zone pruning is all that skips chunks.

    ``k <= 0`` raises ``ValueError``.  Returns ``(DataFrame(value, n)
    sorted desc with sum(n) == min(k, selected non-NULL rows),
    counters)``; ``counters["threshold"]`` is T (None when it was not
    derived)."""
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    floor = None
    if expr is None and f"{col}__vmin" in _footer_fields(enc_dir)[0]:
        m = pds.dataset(_table_files(enc_dir), format="parquet").to_table(
            columns=["n_rows", f"{col}__vmin", f"{col}__valid"])
        vmin = m.column(1).to_numpy()
        order = np.argsort(vmin)[::-1]
        null_free = pc.binary_length(m.column(2)).to_numpy() == 0
        rows = np.where(null_free, m.column(0).to_numpy(), 0)
        covered = int(np.searchsorted(np.cumsum(rows[order]), k))
        if covered < len(order):        # first cumsum >= k
            floor = int(vmin[order[covered]])
    values, counts, counters, dt = _boolean_value_hist(enc_dir, expr, col,
                                                       k, floor)
    values, counts = values[::-1], counts[::-1]   # descending
    cut = int(np.searchsorted(np.cumsum(counts), k)) + 1
    values, counts = values[:cut], counts[:cut]
    excess = int(counts.sum()) - k
    if excess > 0:                                # exact tie trim
        counts[-1] -= excess
    if dt == np.uint64:
        values = values.view(np.uint64) ^ _U64_BIAS
    counters["threshold"] = floor
    return pd.DataFrame({"value": values, "n": counts}), counters


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
    - the GROUP BY key step (:func:`_key_step`) names the group of a
      PURE chunk from its zone map; if the selection is also ALL-valid
      the agg histogram comes from the codec streams
      (:func:`value_counts` closed forms) and neither column decodes;
    - every other chunk late-materializes ONLY the selected positions
      of both columns and counts (group, value) pairs.

    The scan (:func:`_scan_partials`, in the caller) returns one folded
    (group, value, count) table per batch; the caller sums them and
    folds the per-group ranks with the shared integer ceil-division.
    Integer group column; a NULL key is its own group, sorted last.
    Integer or uint64 agg column (uint64 folds in the xor-2^63 image),
    NULL values skipped so ``n_rows`` counts the non-NULL selected
    values (a group with none reports ``n_rows`` 0 and ``quantile``
    None, as SQL).  Returns ``(DataFrame(group_col, q_num, q_den,
    quantile, n_rows), counters)``."""
    from tokrle.codecs.core import gather_runs, value_counts

    keys = _group_keys(enc_dir, group_col)
    schema = pa.schema([("grp", keys[0][1]), ("v", pa.int64()),
                        ("c", pa.int64())])

    def partial(batch: pa.Table):
        rows = [schema.empty_table()]
        closed = gathered = 0
        key_of = _key_step(batch, keys)
        for i, n, sel in _chunk_sels(batch, expr):
            vb = _chunk_valid(batch, agg_col, i)
            key = key_of(i, n, sel)
            if isinstance(key, tuple):
                ac, ap, adt = _chunk_col(batch, agg_col, i)
                sv = _valid_sel(sel, vb, n)
                if isinstance(sv, str):
                    closed += 1
                    v, c = value_counts(ac, ap, n, adt)
                else:
                    gathered += 1
                    v, c = np.unique(gather_runs(ac, ap, n, adt, *sv),
                                     return_counts=True)
                v = _agg_fold_u64(v)
                if vb:
                    # a zero-count marker: the group reports (n_rows
                    # 0, quantile NULL) even if all its values are NULL
                    v, c = np.append(v, 0), np.append(c, 0)
                rows.append(pa.table([pa.repeat(pa.scalar(
                    key[0], keys[0][1]), len(v)), v, c], schema=schema))
                continue
            gathered += 1
            g, v = key[0], _agg_fold_u64(_col_at(batch, agg_col, i, n, sel))
            if vb:
                # zero-count markers for every selected group, then
                # drop the NULL values
                rows.append(pa.table([g, np.zeros(len(v), np.int64),
                                      np.zeros(len(v), np.int64)],
                                     schema=schema))
                ok = _sel_valid_mask(vb, n, sel)
                g, v = g.filter(pa.array(ok)), v[ok]
            rows.append(pa.table([g, v, np.ones(len(v), np.int64)],
                                 schema=schema))
        return _group_fold(rows, ["grp", "v"], {"c": "sum"}), \
            {"closed_form_chunks": closed, "gathered_chunks": gathered}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [agg_col], keys=keys),
        _expr_zone_filter(expr), partial)
    hist = _group_fold(parts, ["grp", "v"], {"c": "sum"}).sort_by(
        [("grp", "ascending"), ("v", "ascending")])
    is_u64 = _col_dtype_probe(enc_dir, agg_col) == np.dtype(np.uint64)
    out, counters["groups"] = _group_quantile_frame(hist, qs, group_col,
                                                    is_u64)
    counters["hist_rows"] = hist.num_rows
    return out, counters


def _table_files(enc_dir: str) -> list[str]:
    """The Parquet files that make up a table-encode directory, sorted —
    the one file list every reader of the table uses, so no two
    readers can disagree about which files make up the table."""
    import glob

    return sorted(glob.glob(os.path.join(enc_dir, "**", "*.parquet"),
                            recursive=True))


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


def _col_at(batch: pa.Table, c: str, i: int, n: int, sel,
            is_str: bool = False):
    """Values of column ``c`` of chunk ``i`` at selection ``sel``, NULL
    slots holding the encoder's filler: a straight decode when ``sel``
    is ``_ALL`` (cheaper than a full-range gather), else a late
    materialization of the selected positions only (numpy from
    :func:`gather_runs`; a string column is an Arrow ``large_string``
    array from :func:`gather_str_runs`)."""
    from tokrle.codecs.core import gather_runs, gather_str_runs

    if is_str:
        spec, lp, tp = _chunk_str_col(batch, c, i)
        return gather_str_runs(spec, lp, tp, n, *_sel_runs(sel, n))
    codec, payload, dt = _chunk_col(batch, c, i)
    return codec_decode(codec, payload, n, dt) if isinstance(sel, str) \
        else gather_runs(codec, payload, n, dt, *sel)


def _null_at(v, vb: bytes, n: int, sel) -> pa.Array:
    """Values ``v`` that :func:`_col_at` gathered at ``sel`` from a
    column chunk with validity bitmap ``vb``, as an Arrow array whose
    NULL slots are null."""
    import pyarrow.compute as pc

    if not isinstance(v, pa.Array):
        return pa.array(v, mask=~_sel_valid_mask(vb, n, sel) if vb else None)
    return pc.if_else(pa.array(_sel_valid_mask(vb, n, sel)), v,
                      pa.scalar(None, v.type)) if vb else v


def _group_keys(enc_dir: str, group_col) -> list:
    """``[(col, type, zone map fields or None)]`` of the GROUP BY key
    column(s) ``group_col`` (a name or a list), from a footer probe: a
    string key (it has ``__lens_payload``) folds as ``large_string``
    with the zone map ``__smin``/``__smax``; any other key folds as
    int64 with ``__vmin``/``__vmax``, which uint64 and float columns do
    not have."""
    fields, _ = _footer_fields(enc_dir)
    keys = []
    for g in [group_col] if isinstance(group_col, str) else group_col:
        is_str = f"{g}__lens_payload" in fields
        zone = tuple(f"{g}__{p}" for p in (("smin", "smax") if is_str
                                           else ("vmin", "vmax")))
        keys.append((g, pa.large_utf8() if is_str else pa.int64(),
                     zone if zone[0] in fields else None))
    return keys


def _key_step(batch: pa.Table, keys: list):
    """The GROUP BY key step of the grouped cores over one scanned
    batch: ``key(i, n, sel)`` of chunk ``i`` under selection ``sel`` is
    the key TUPLE when the chunk is PURE — every key column chunk
    null-free with a one-value zone map — and no key column decodes;
    otherwise a list holding each key column at ``sel`` as an Arrow
    array of its key type, NULL slots null.  Purity is decided on
    null-free chunks only: the encoder fills NULL slots with 0 (or
    ``''``), so an all-NULL chunk has a one-value zone map too."""
    zones = {g: [batch.column(f).to_pylist() for f in z]
             for g, _, z in keys if z}

    def key(i: int, n: int, sel):
        pure = []
        for g, _, z in keys:
            if z is None or _chunk_valid(batch, g, i) or \
                    zones[g][0][i] != zones[g][1][i]:
                break
            pure.append(zones[g][0][i])
        else:
            return tuple(pure)
        out = []
        for g, t, _ in keys:
            v = _col_at(batch, g, i, n, sel, t == pa.large_utf8())
            out.append(_null_at(v if t == pa.large_utf8() else
                                v.astype(np.int64),
                                _chunk_valid(batch, g, i), n, sel))
        return out

    return key


def _group_fold(parts: list, keys: list[str], how: dict) -> pa.Table:
    """One hash GROUP BY ``keys`` of tables that share a schema: ``how``
    maps each value column to its fold (``sum``, ``min`` or ``max``;
    NULLs are skipped, and a group without a value folds to NULL), and
    a NULL key is a group of its own.  The result keeps the column
    names, so folds compose: each batch folds its rows, then the caller
    folds the batches."""
    out = pa.concat_tables(parts).group_by(keys, use_threads=False) \
        .aggregate(list(how.items()))
    return out.select(keys + [f"{c}_{h}" for c, h in how.items()]) \
        .rename_columns(keys + list(how))


def _frame_col(col: pa.ChunkedArray):
    """An answer column in pandas: int64 (or str) when no slot is NULL,
    else object holding None."""
    import pandas as pd

    return col.to_pandas() if not col.null_count else \
        pd.Series(col.to_pylist(), dtype=object)


def _scan_columns(expr, value_cols, zone_cols=(), str_cols=(),
                  keys=()) -> list:
    """Parquet columns a predicate-tree scan reads: ``n_rows``; zone maps
    of the tree's integer columns and of ``zone_cols``; codec, payload,
    dtype and validity of those tree columns and of the integer
    ``value_cols``; codec, payload, lengths and validity of the tree's
    string columns and of the string ``str_cols``; validity of the
    ``is_null``/``not_null`` columns; the GROUP BY ``keys``
    (:func:`_group_keys`) as value or string columns, with their zone
    maps.  ``expr`` may be None."""
    str_keys = [g for g, t, _ in keys if t == pa.large_utf8()]
    value_cols = list(value_cols) + [g for g, _, _ in keys
                                     if g not in str_keys]
    str_cols = list(str_cols) + str_keys
    pred_cols = _expr_pred_cols(expr)
    need = ["n_rows"]
    need += [f"{c}__{p}" for c in dict.fromkeys(pred_cols + list(zone_cols))
             for p in ("vmin", "vmax")]
    need += [f"{c}__{p}" for c in pred_cols + list(value_cols)
             for p in ("codec", "payload", "dtype", "valid")]
    need += [f"{c}__{p}" for c in _expr_str_cols(expr) + list(str_cols)
             for p in ("codec", "payload", "lens_payload", "valid")]
    need += [f"{c}__valid" for c in _expr_null_cols(expr)]
    need += [f for _, _, z in keys if z for f in z]
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


def encoded_filtered_group_agg(enc_dir: str, group_col: str | list[str],
                               expr: tuple | None, agg_cols: list[str],
                               with_minmax: bool = False):
    """``SELECT group_col(s), count(*), sum(agg_cols...) [WHERE
    <predicate tree>] GROUP BY group_col(s)`` over a table-encode
    directory: the one GROUP BY COUNT/SUM/MIN/MAX core, behind
    :func:`encoded_group_agg` (``expr=None``) and
    :func:`encoded_group_by_str`.  ``group_col`` is one column or a list
    (composite keys), each an integer or a string column.  The predicate
    evaluates per chunk as in :func:`encoded_boolean_agg`, then the
    GROUP BY key step (:func:`_key_step`) splits the chunks:

    - PURE chunks (every key null-free with zone map ``vmin == vmax``,
      or ``smin == smax`` for a string — the common case when the table
      is clustered on the key): the group comes from the zone maps, the
      count from the selection alone, and each SUM from :func:`agg_sum`
      (ALL) / :func:`agg_sum_runs` (run-list) — the key columns never
      decode and the agg columns never expand;
    - MIXED chunks materialize the key and agg columns ONLY at the
      selected positions (late materialization), and each batch folds
      its rows with one hash GROUP BY.

    ``with_minmax=True`` adds per-group ``min_<c>``/``max_<c>``: pure
    ALL-selected null-free chunks answer from the aggregate column's
    own zone map (zero decode), every other chunk from the gathered
    values.

    NULLs follow SQL: predicate columns under three-valued logic,
    aggregate NULLs skipped (SUM over no valid value is emitted as 0
    and MIN/MAX as None), and a NULL key is its own group, sorted last.
    The caller folds the batches' groups from :func:`_scan_partials`,
    never table rows.  Returns ``(DataFrame, counters)`` sorted by the
    keys: the keys (int64 or str; object holding None when a key is
    NULL), int64 ``n``/``sum_<c>``, then ``min_<c>``/``max_<c>`` (int64,
    or object holding None when a group has no valid value); integer
    aggregate columns only."""
    import pandas as pd

    from tokrle.codecs.core import agg_sum, agg_sum_runs, gather_runs

    keys = _group_keys(enc_dir, group_col)
    gnames = [f"g{j}" for j in range(len(keys))]
    how = {"n": "sum", **{f"sum_{c}": "sum" for c in agg_cols}}
    if with_minmax:
        how.update({f"{s}_{c}": s for s in ("min", "max") for c in agg_cols})
    schema = pa.schema([(nm, t) for nm, (_, t, _) in zip(gnames, keys)] +
                       [(nm, pa.int64()) for nm in how])

    def partial(batch: pa.Table):
        pure = {nm: [] for nm in schema.names}    # one row per pure chunk
        mixed = []              # one table of selected rows per chunk
        key_of = _key_step(batch, keys)
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            is_all = isinstance(sel, str)
            key = key_of(i, n, sel)
            if isinstance(key, tuple):
                for nm, k in zip(gnames, key):
                    pure[nm].append(k)
                pure["n"].append(n if is_all else int(sel[1].sum()))
                for c in agg_cols:
                    codec, payload, dt = _chunk_col(batch, c, i)
                    # the encoder fills NULL slots with 0, so the sum
                    # over the selection is SQL's NULL-skipping SUM
                    pure[f"sum_{c}"].append(
                        agg_sum(codec, payload, n, dt) if is_all else
                        agg_sum_runs(codec, payload, n, dt, *sel))
                    if not with_minmax:
                        continue
                    vb = _chunk_valid(batch, c, i)
                    if is_all and not vb:
                        # whole chunk selected: its zone map IS exact
                        mn = batch.column(f"{c}__vmin")[i].as_py()
                        mx = batch.column(f"{c}__vmax")[i].as_py()
                    else:
                        v = gather_runs(codec, payload, n, dt,
                                        *_valid_sel(sel, vb, n))
                        mn, mx = (int(v.min()), int(v.max())) if len(v) \
                            else (None, None)
                    pure[f"min_{c}"].append(mn)
                    pure[f"max_{c}"].append(mx)
                continue
            rows = dict(zip(gnames, key))
            rows["n"] = np.ones(len(key[0]), np.int64)
            for c in agg_cols:
                v = _col_at(batch, c, i, n, sel).astype(np.int64)
                rows[f"sum_{c}"] = v    # NULL slots hold the filler 0
                if with_minmax:
                    rows[f"min_{c}"] = rows[f"max_{c}"] = _null_at(
                        v, _chunk_valid(batch, c, i), n, sel)
            mixed.append(pa.table(rows, schema=schema))
        return _group_fold([pa.table(pure, schema=schema)] + mixed, gnames,
                           how), \
            {**_hit_counts(chunks), "pure_group_chunks": len(pure["n"])}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, agg_cols, keys=keys,
                               zone_cols=agg_cols if with_minmax else ()),
        _expr_zone_filter(expr), partial)
    t = _group_fold(parts, gnames, how).sort_by(
        [(nm, "ascending") for nm in gnames])
    names = [g for g, _, _ in keys] + list(how)
    return pd.DataFrame(dict(zip(names, map(_frame_col, t.columns)))), \
        counters


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
    """GROUP BY STRING key columns, one or a list (e.g. (lang, source),
    integer keys mixed in): :func:`encoded_filtered_group_agg` without
    MIN/MAX.  A pure chunk takes its key from the string zone map
    (``smin == smax``); any other chunk gathers it at the selection
    (:func:`tokrle.codecs.core.gather_str_runs`).  A NULL key is its
    own group, sorted last.  Returns ``(DataFrame(keys..., n,
    sum_<c>...), counters)`` sorted by the keys."""
    return encoded_filtered_group_agg(enc_dir, group_col, expr, agg_cols)


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
    import pyarrow.parquet as pq

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
        chunks = _chunk_sels(batch, expr)
        if not chunks:
            return None, _hit_counts(chunks)
        return pa.table({c: pa.concat_arrays([
            _null_at(_col_at(batch, c, i, n, sel, c in str_cols),
                     _chunk_valid(batch, c, i), n, sel)
            for i, n, sel in chunks]) for c in cols}), _hit_counts(chunks)

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
    returns a ``ray.data.Dataset`` of one block per scan batch of at most
    :data:`_SCAN_BATCH_CHUNKS` chunks, built in the caller with no Ray
    task (:func:`tokrle.pipelines.encode._answer_dataset`)."""
    from tokrle.pipelines.encode import _answer_dataset

    tables, _ = _scan_rows(enc_dir, expr, out_cols)
    return _answer_dataset(tables)


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
    one block per scan batch of at most :data:`_SCAN_BATCH_CHUNKS`
    chunks, built in the caller with no Ray task
    (:func:`tokrle.pipelines.encode._answer_dataset`).  Dimension keys
    must be unique; fact out columns may be integer OR string (string
    projections late-materialize via
    :func:`tokrle.codecs.core.gather_str_runs`).  A NULL fact key never
    matches, ``expr`` follows SQL three-valued logic, and NULL slots of
    ``out_cols`` come back as NULL."""
    from tokrle.pipelines.encode import _answer_dataset

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

    return _answer_dataset([attach(t) for t in tables])


def encoded_topk_rows(enc_dir: str, col: str, k: int):
    """The k largest values of ``col`` (row multiset, ties by count),
    ``ORDER BY col DESC LIMIT k``: the ``expr=None`` case of
    :func:`encoded_boolean_topk`, whose vmin threshold keeps chunks
    that cannot rank from leaving storage.  Returns ``(DataFrame(value,
    n) sorted desc with sum(n) == min(k, non-NULL rows), counters)``."""
    return encoded_boolean_topk(enc_dir, None, col, k)


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
