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
                if codec.startswith(("str:", "sdict:")):
                    arr = _col_at(batch, c, i, n, _ALL, is_str=True)
                    if arr.nbytes < 2**31:
                        arr = arr.cast(pa.string())
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
    decoding: the one distinct core, for integer and string columns
    (:func:`encoded_str_distinct` is its string-only name).  Per chunk
    the value step (:func:`_value_step`) answers a null-free chunk the
    predicate selects whole from the codec's closed form —
    :func:`tokrle.codecs.core.distinct_values` (dict: the dictionary IS
    the distinct set, the code stream is never read; rle: the O(#runs)
    value stream; other codecs decode) or an ``sdict`` string chunk's
    dictionary header — and late-materializes only the selected
    positions of any other chunk.
    Per-batch sets union in the scan (:func:`_scan_partials`, in the
    caller), and the caller counts the distinct values of their union —
    the partials hold at most (#batches x chunk cardinality) values,
    never rows.

    ``expr`` (optional boolean predicate TREE): chunks the tree excludes
    via zone maps never leave storage.  Intended for low/moderate-
    cardinality columns (keys, labels, enum codes); for high-cardinality
    columns the distinct set itself is the data — use the HLL sketch
    (`functions.sketch`) there.  NULLs follow SQL ``COUNT(DISTINCT)``:
    predicate columns evaluate under three-valued logic, and NULL slots
    of ``col`` are skipped.  Returns ``(DataFrame(n_distinct),
    counters)``: ``closed_form_chunks`` counts the chunks answered from
    a closed form (an empty chunk among them: its set is known without
    a read), ``gathered_chunks`` the selected chunks that gathered."""
    import pandas as pd
    import pyarrow.compute as pc

    _, types = _footer(enc_dir, [col])
    is_str = types[col] == "str"
    vtype = pa.large_utf8() if is_str else pa.int64()

    def partial(batch: pa.Table):
        empty = int((batch.column("n_rows").to_numpy(
            zero_copy_only=False) == 0).sum())
        parts, closed = [], 0
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            v, c, is_closed = _value_step(batch, col, i, n, sel, is_str,
                                          hist=False)
            closed += is_closed
            parts.append(v if is_closed else pc.filter(v, c > 0))
        return pc.unique(pa.chunked_array(parts, vtype)), \
            {"closed_form_chunks": empty + closed,
             "gathered_chunks": len(chunks) - closed}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [] if is_str else [col],
                               str_cols=[col] if is_str else []),
        _expr_zone_filter(expr), partial)
    n = len(pc.unique(pa.chunked_array(parts, vtype)))
    return pd.DataFrame({"n_distinct": [n]}), counters


def _require_str(enc_dir: str, col: str) -> None:
    """Raise ``TypeError`` unless ``col`` is a string column (footer
    probe; a directory without rows passes)."""
    _, types = _footer(enc_dir, [col])
    if types[col] not in ("str", None):
        raise TypeError(f"column {col!r}: not a string column "
                        f"({types[col]})")


def encoded_string_value_count(enc_dir: str, col: str, value: str):
    """COUNT of rows with string ``col == value``: the
    ``("eq_str", col, value)`` leaf of :func:`encoded_boolean_agg` with
    no aggregate column.  The leaf's kernel,
    :func:`tokrle.codecs.core.match_eq_str`, never decodes the text of a
    chunk without a row of ``value``'s byte length, and answers
    ``sdict:`` chunks on their code stream.  Null slots never match (SQL
    ``col = ''`` never matches NULL).  A non-string column raises
    ``TypeError`` before any chunk is read.  Returns
    ``(DataFrame(n_match), counters)``."""
    _require_str(enc_dir, col)
    return encoded_boolean_agg(enc_dir, ("eq_str", col, value), [])


def encoded_histogram(enc_dir: str, col: str):
    """Exact GROUP BY ``col`` COUNT(*) over a table-encode directory: the
    ``expr=None`` case of :func:`encoded_boolean_histogram`.  Returns
    ``(DataFrame(value, n) sorted by value, counters)``."""
    return encoded_boolean_histogram(enc_dir, None, col)


def _hist_rank_idx(cum: np.ndarray, n: int, q_num: int,
                   q_den: int) -> int:
    """Histogram index of the SQL ``quantile_disc`` element: the 0-based
    rank is ``ceil(q*n) - 1`` of the sorted multiset (exact integer
    ceil-division), and the lookup is the first histogram row whose
    cumulative count covers it (a zero-count row never is)."""
    k = max((q_num * n + q_den - 1) // q_den - 1, 0)
    return int(np.searchsorted(cum, k + 1))


def _flip_u64(v: np.ndarray) -> np.ndarray:
    """xor 2^63 on the uint64 bit pattern of ``v``: the order-preserving
    bijection between uint64 values and their int64 fold image, both
    ways (it is its own inverse)."""
    return v.view(np.uint64) ^ _U64_BIAS


def _image(v):
    """Values of a column chunk in the one image the pushdown cores
    fold, sort and rank in: int64, uint64 through :func:`_flip_u64` and
    datetime as its int64 counts; a string chunk's values stay an Arrow
    ``large_string`` array."""
    if isinstance(v, pa.Array):
        return v
    return _flip_u64(v).view(np.int64) if v.dtype == np.uint64 \
        else v.astype(np.int64, copy=False)


def _present(v, dt):
    """The inverse of :func:`_image` for an answer: fold-image values in
    the column's stored dtype ``dt`` (uint64 unbiased, datetime64 from
    its counts, narrow integers narrowed).  Strings, and a directory
    without rows (``dt`` None), pass through."""
    if not isinstance(dt, np.dtype):
        return v
    return _flip_u64(v) if dt == np.uint64 else v.astype(dt)


def _quantile_values(v, dt):
    """Fold-image values as a quantile answer presents them: the stored
    value (:func:`_present`) as int64, a datetime as exact epoch
    MICROSECONDS (DuckDB's internal timestamp unit, = ``epoch_us(...)``;
    numpy floors a finer unit and scales a coarser one, days included);
    uint64 stays uint64 and strings stay str."""
    v = _present(v, dt)
    if v.dtype.kind == "M":
        v = v.astype("datetime64[us]")
    return v if v.dtype in (np.uint64, object) else v.astype(np.int64)


def _quantile_frame(hist: pa.Table, qs: tuple, dt,
                    group_col: str | None = None):
    """``DataFrame([group_col,] q_num, q_den, quantile, n_rows)`` of a
    folded histogram of :func:`_hist_core` (``g0`` the key when
    ``group_col`` is given, sorted by it, NULL last, then by ``v``): per
    group the SQL ``quantile_disc`` of each ``(num, den)`` of ``qs`` and
    the group's count of values.  Without a key the whole histogram is
    one group, answered even when it is empty.  ``quantile`` holds
    :func:`_quantile_values`: int64, uint64 or str, or object holding
    None (SQL NULL) when the group has no value — pandas inference
    would round values past 2^63 through float64.  Every quantile entry
    point builds its frame here.  Returns ``(frame, number of
    groups)``."""
    import pandas as pd

    v = _quantile_values(hist.column("v").to_numpy(), dt)
    c = hist.column("c").to_numpy()
    starts, labels = [0], [None]
    if group_col is not None:
        grp = hist.column("g0")
        n_key = len(grp) - grp.null_count
        k = grp.slice(0, n_key).to_numpy()
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]).tolist() \
            if n_key else []
        labels = k[starts].tolist() + [None] * (grp.null_count > 0)
        starts += [n_key] * (grp.null_count > 0)
    quants, keys, ns = [], [], []
    for s, e, label in zip(starts, starts[1:] + [len(c)], labels):
        cum = np.cumsum(c[s:e])
        n = int(cum[-1]) if e > s else 0
        quants += [v[s + _hist_rank_idx(cum, n, a, b)] if n else None
                   for a, b in qs]
        keys += [label] * len(qs)
        ns += [n] * len(qs)
    out = pd.DataFrame({
        "q_num": np.array([a for a, _ in qs] * len(starts), np.int64),
        "q_den": np.array([b for _, b in qs] * len(starts), np.int64),
        "quantile": _frame_col(pa.array(
            quants, pa.large_utf8() if v.dtype == object
            else pa.from_numpy_dtype(v.dtype))),
        "n_rows": np.array(ns, np.int64)})
    if group_col is not None:
        out.insert(0, group_col, _frame_col(pa.array(keys, grp.type)))
    return out, len(starts)


def encoded_quantiles(enc_dir: str, col: str,
                      qs: tuple = ((1, 4), (1, 2), (3, 4)),
                      with_moments: bool = True):
    """Exact discrete quantiles AND exact power sums (Σv, Σv²) of ``col``
    from a table-encode directory WITHOUT decoding: the ``expr=None``
    histogram of :func:`_hist_core` (per-chunk (value, count) pairs from
    the codec streams) is a sufficient statistic for any order
    statistic and any moment, so the scan's partials hold only
    cardinality-bounded pairs and the caller folds the global
    histogram — values themselves never move.

    Quantile semantics match SQL ``quantile_disc(col, q)``: the element
    at 0-based rank ``ceil(q*n) - 1`` of the sorted multiset.  Each
    ``q`` is an exact integer fraction ``(num, den)`` so the rank is
    computed in integer arithmetic (no float rounding at rank
    boundaries).  Power sums fold in Python integers (arbitrary
    precision) and are range-checked into int64 — Σv² of a large-value
    column that would overflow raises rather than wrapping.  Datetime
    quantiles (and power sums) are in epoch microseconds.

    ``with_moments=False`` skips the power sums (and their int64 range
    check) — the right mode for timestamp-typed columns, whose
    microsecond epoch sums overflow int64 by construction while their
    order statistics stay perfectly well-defined.

    NULLs are skipped (``n_rows`` counts the non-NULL values).  Returns
    ``(DataFrame(q_num, q_den, quantile, sum_v, sum_v2, n_rows),
    counters)`` with one row per requested quantile (no
    ``sum_v``/``sum_v2`` columns without moments)."""
    hist, counters, dt = _hist_core(enc_dir, None, col)
    df, _ = _quantile_frame(hist, qs, dt)
    counts = hist.column("c").to_numpy()
    counters["n_rows"] = int(counts.sum())
    if with_moments:
        # exact integer moments over the histogram (Python ints: no
        # 2^53 float ceiling, no silent int64 wrap mid-fold)
        plain = _quantile_values(hist.column("v").to_numpy(), dt)
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


def _hist_core(enc_dir: str, expr: tuple | None, col: str,
               group_col: str | None = None, k: int | None = None,
               floor: int | None = None):
    """The one histogram core: the (value, count) histogram of ``col``
    over the rows WHERE a boolean predicate TREE holds (``expr=None``:
    every row), per group of ``group_col`` when one is given — the
    sufficient statistic of every histogram, quantile and top-k entry
    point, for integer and string columns.  Per chunk, after the
    predicate (:func:`_chunk_sels`: zone-map leaf short-circuits, SQL
    3VL, conservative scan filter):

    - the GROUP BY key step (:func:`_key_step`) names the group of a
      PURE chunk from its zone maps (with no key, every chunk is pure);
    - the value step (:func:`_value_step`) answers a pure null-free
      chunk selected whole from the codec's closed form
      (``closed_form_chunks``: integer :func:`value_counts`, or an
      ``sdict`` chunk's code histogram) and gathers every other chunk
      at its selection (``gathered_chunks``), a mixed chunk's values
      aligned with its gathered keys.

    A NULL value counts 0: its zero-count row keeps an all-NULL group
    visible (SQL reports it with ``n_rows`` 0), and is dropped from an
    ungrouped histogram; ``hist_rows`` counts the rows with a count.
    Each batch folds its ``(key, v, c)`` rows with one hash GROUP BY
    and the caller folds the batches (:func:`_group_fold`): pairs
    bounded by chunk cardinality, never rows, with values in the one
    image of :func:`_image`.

    The top-k entry point passes ``k``: each chunk keeps only its own k
    largest rows, since the table's k largest are among them; and
    ``floor``: values below it are dropped and chunks with ``vmax <
    floor`` are not read (integer columns only).  Returns ``(hist,
    counters, dtype)``: the folded table ``([g0,] v, c)`` sorted by key
    (NULL last) then ``v``, and ``col``'s stored type
    (:func:`_footer`)."""
    import pyarrow.compute as pc

    keys, types = _group_keys(enc_dir, group_col, [col])
    is_str = types[col] == "str"
    if is_str and k is not None:
        raise TypeError(f"column {col!r}: top-k needs an integer column")
    gnames = [f"g{j}" for j in range(len(keys))]
    schema = pa.schema([(nm, t) for nm, (_, t, _) in zip(gnames, keys)] +
                       [("v", pa.large_utf8() if is_str else pa.int64()),
                        ("c", pa.int64())])

    def partial(batch: pa.Table):
        rows = {nm: [] for nm in schema.names}
        closed = 0
        key_of = _key_step(batch, keys)
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            key = key_of(i, n, sel)
            pure = isinstance(key, tuple)
            # a mixed chunk's values align with its gathered keys: the
            # full run-list gathers even where sel is _ALL
            v, c, is_closed = _value_step(
                batch, col, i, n, sel if pure else _sel_runs(sel, n), is_str)
            closed += is_closed
            if floor is not None:
                keep = v >= floor
                v, c = v[keep], c[keep]
            if k is not None:
                if not is_closed:       # gathered values are in row order
                    o = np.argsort(v, kind="stable")
                    v, c = v[o], c[o]
                # the largest values until k rows are covered
                cut = int(np.searchsorted(np.cumsum(c[::-1]), k)) + 1
                v, c = v[-cut:], c[-cut:]
            for nm, g, (_, t, _) in zip(gnames, key, keys):
                rows[nm].append(pa.repeat(pa.scalar(g, t), len(v))
                                if pure else g)
            rows["v"].append(v)
            rows["c"].append(c)
        t = pa.table([_concat(rows[f.name], f.type) for f in schema],
                     schema=schema)
        return _group_fold([t], gnames + ["v"], {"c": "sum"}), \
            {**_hit_counts(chunks), "closed_form_chunks": closed,
             "gathered_chunks": len(chunks) - closed}

    flt = _expr_zone_filter(expr)
    if floor is not None:
        above = pc.field(f"{col}__vmax") >= floor
        flt = above if flt is None else flt & above
    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, [] if is_str else [col],
                               str_cols=[col] if is_str else [], keys=keys),
        flt, partial)
    hist = _group_fold(parts, gnames + ["v"], {"c": "sum"}).sort_by(
        [(nm, "ascending") for nm in gnames + ["v"]])
    hist = _present_keys(hist, keys, types)
    counted = pc.greater(hist.column("c"), 0)
    counters["hist_rows"] = int(pc.sum(counted).as_py() or 0)
    return (hist if keys else hist.filter(counted)), counters, types[col]


def encoded_boolean_quantiles(enc_dir: str, expr: tuple | None,
                              agg_col: str,
                              qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact discrete quantiles of ``agg_col`` over the rows WHERE a
    boolean predicate TREE holds — order statistics joining the
    predicate algebra over the :func:`_hist_core` sufficient statistic;
    the caller folds ranks with the shared exact integer ceil-division.
    Integer or string agg columns (:func:`_quantile_values`: datetime
    in epoch microseconds); NULLs on either side follow SQL (3VL
    predicates, NULL agg values skipped, ``n_rows`` counts the non-NULL
    selected values).  Returns ``(DataFrame(q_num, q_den, quantile,
    n_rows), counters)``; ``quantile`` is None when nothing matches
    (SQL NULL)."""
    hist, counters, dt = _hist_core(enc_dir, expr, agg_col)
    return _quantile_frame(hist, qs, dt)[0], counters


def encoded_boolean_histogram(enc_dir: str, expr: tuple | None,
                              agg_col: str):
    """Exact GROUP BY value COUNT(*) over only the rows WHERE a boolean
    predicate TREE holds (``expr=None``: every row) — the ungrouped
    :func:`_hist_core`: ALL-match null-free chunks histogram from the
    codec streams with zero decode, run chunks late-materialize
    selected positions only.  NULLs are skipped (the histogram of the
    non-NULL values — what ``quantile_disc`` and ``COUNT(DISTINCT)``
    see), and ``value`` keeps the column's stored dtype (uint64
    unbiased, datetime columns as datetime64, strings as str).  Same
    cardinality guidance as :func:`encoded_distinct_count`.  Returns
    ``(DataFrame(value, n) sorted by value, counters)``."""
    import pandas as pd

    hist, counters, dt = _hist_core(enc_dir, expr, agg_col)
    return pd.DataFrame({"value": _present(hist.column("v").to_numpy(), dt),
                         "n": hist.column("c").to_numpy()}), counters


def encoded_boolean_topk(enc_dir: str, expr: tuple | None, col: str,
                         k: int):
    """``ORDER BY col DESC LIMIT k`` over the rows WHERE a boolean
    predicate TREE holds (``expr=None``: every row), as a (value, count)
    multiset with exact tie trimming; NULL values never rank.  The one
    top-k: :func:`_hist_core` with each chunk trimmed to its own k
    largest rows, so the partials hold at most #chunks x k pairs.

    Without a predicate, a metadata pass first derives the exclusion
    threshold T from ``(n_rows, vmin, valid)`` of a zone-mapped column:
    sort chunks by vmin descending and cumsum the rows of null-free
    chunks (a NULL slot never ranks) — once >= k rows provably hold
    values >= T, no value below T ranks and no chunk with ``vmax < T``
    is read.  Under a predicate the threshold is unsound (a chunk's
    zone map cannot bound how many of its rows SURVIVE the predicate),
    so the predicate's own zone pruning is all that skips chunks.

    Integer columns; ``k <= 0`` raises ``ValueError``.  Returns
    ``(DataFrame(value, n) sorted desc with sum(n) == min(k, selected
    non-NULL rows), value in the stored dtype, counters)``;
    ``counters["threshold"]`` is T (None when it was not derived)."""
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    floor = None
    if expr is None and f"{col}__vmin" in _footer(enc_dir)[0]:
        m = pds.dataset(_table_files(enc_dir), format="parquet").to_table(
            columns=["n_rows", f"{col}__vmin", f"{col}__valid"])
        vmin = m.column(1).to_numpy()
        order = np.argsort(vmin)[::-1]
        null_free = pc.binary_length(m.column(2)).to_numpy() == 0
        rows = np.where(null_free, m.column(0).to_numpy(), 0)
        covered = int(np.searchsorted(np.cumsum(rows[order]), k))
        if covered < len(order):        # first cumsum >= k
            floor = int(vmin[order[covered]])
    hist, counters, dt = _hist_core(enc_dir, expr, col, k=k, floor=floor)
    values = hist.column("v").to_numpy()[::-1]      # descending
    counts = hist.column("c").to_numpy()[::-1]
    cut = int(np.searchsorted(np.cumsum(counts), k)) + 1
    values, counts = values[:cut], counts[:cut].copy()
    excess = int(counts.sum()) - k
    if excess > 0:                                # exact tie trim
        counts[-1] -= excess
    counters["threshold"] = floor
    return pd.DataFrame({"value": _present(values, dt), "n": counts}), \
        counters


def encoded_group_where_quantiles(enc_dir: str, expr: tuple | None,
                                  group_col: str, agg_col: str,
                                  qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Per-group exact quantiles of ``agg_col`` over only the rows WHERE
    a boolean predicate TREE holds — the full composition: predicate
    algebra x GROUP BY x order statistics, the grouped case of
    :func:`_hist_core`.  Per chunk the tree evaluates to ``_ALL`` / a
    selection run-list / empty (zone-map leaf short-circuits, 3VL
    nullable predicates, conservative scan filter; ``expr=None``
    selects every row); a PURE chunk (:func:`_key_step`) wholly
    selected and null-free takes its agg histogram from the codec
    streams and neither column decodes (``closed_form_chunks``); every
    other chunk late-materializes ONLY the selected positions of both
    columns (``gathered_chunks``).  The caller folds the per-group
    ranks with the shared integer ceil-division.

    One integer or string group column; a NULL key is its own group,
    sorted last.  NULL agg values are skipped, so ``n_rows`` counts the
    non-NULL selected values (a group with none reports ``n_rows`` 0 and
    ``quantile`` None, as SQL).  Returns ``(DataFrame(group_col, q_num,
    q_den, quantile, n_rows) sorted by group and q, counters)``;
    ``counters["groups"]`` is the number of groups."""
    hist, counters, dt = _hist_core(enc_dir, expr, agg_col, group_col)
    out, counters["groups"] = _quantile_frame(hist, tuple(sorted(qs)), dt,
                                              group_col)
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


#: leaf kinds that test a STRING column -> their
#: :func:`tokrle.codecs.core.match_str` kind (an ``eq_str`` value is a
#: one-value ``in`` list); they prune on string zone maps and the
#: lengths-stream prefilter instead of integer zone maps
_STR_LEAVES = {"eq_str": "in", "in_str": "in", "prefix_str": "prefix",
               "suffix_str": "suffix", "contains_str": "contains"}

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


def _expr_leaf_cols(expr, kinds) -> list[str]:
    """Distinct columns of a tree's leaves of ``kinds``: the STRING
    leaves (lengths-stream prefilter instead of zone maps) or the
    ``is_null`` / ``not_null`` ones (only ``{col}__valid`` is read, the
    codec payload never)."""
    return list(dict.fromkeys(lf[1] for lf in _expr_leaves(expr)
                              if lf[0] in kinds))


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
    inputs of :func:`tokrle.codecs.core.match_str` and
    :func:`tokrle.codecs.core.gather_str_runs`.  Null slots read as the
    encoder's ``''`` filler; null-aware callers pair it with
    :func:`_chunk_valid` (the predicate evaluator intersects a leaf's
    matches with the validity runs)."""
    return (batch.column(f"{c}__codec")[i].as_py(),
            memoryview(batch.column(f"{c}__lens_payload")[i].as_buffer()),
            memoryview(batch.column(f"{c}__payload")[i].as_buffer()))


def _chunk_sel(expr, batch: pa.Table, i: int, n: int, zmin: dict,
               zmax: dict):
    """Selection of chunk ``i`` of a scanned batch under ``expr``: the
    ``_ALL`` sentinel or a canonical run-list of the rows where the tree
    is SQL-TRUE (``_ALL`` when ``expr`` is None, no predicate).  Leaves
    short-circuit on zone maps; ``and`` skips its right branch on an
    empty left, ``or`` on an ALL left; string leaves prune via the
    lengths-stream prefilter inside :func:`tokrle.codecs.core.match_str`
    instead of zone maps.

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
    zmin, zmax = ({c: batch.column(f"{c}__{p}").to_numpy(
        zero_copy_only=False) for c in _expr_pred_cols(expr)}
        for p in ("vmin", "vmax"))
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


def _value_step(batch: pa.Table, c: str, i: int, n: int, sel,
                is_str: bool, hist: bool = True):
    """The value step of the histogram and distinct cores: column ``c``
    of chunk ``i`` under selection ``sel`` as ``(values, counts,
    closed)``, values in the fold image (:func:`_image`).  A null-free
    chunk selected whole (``sel`` is ``_ALL``) answers from the codec's
    closed form and ``closed`` is True: an integer chunk's
    :func:`value_counts` (``hist``) or :func:`distinct_values` (counts
    None), an ``sdict`` string chunk's code histogram plus one
    dictionary take, or its dictionary header — no code stream read.
    Any other chunk gathers ``c`` at ``sel`` (:func:`_col_at`), and
    ``counts`` is 1 at a valid slot and 0 at a NULL one."""
    from tokrle.codecs.core import distinct_values, sdict_unpack, value_counts

    vb = _chunk_valid(batch, c, i)
    if isinstance(sel, str) and not vb and not is_str:
        codec, payload, dt = _chunk_col(batch, c, i)
        if not hist:
            return _image(distinct_values(codec, payload, n, dt)), None, True
        v, counts = value_counts(codec, payload, n, dt)
        return _image(v), counts, True
    if isinstance(sel, str) and not vb:
        spec, _, tp = _chunk_str_col(batch, c, i)
        if spec.startswith("sdict:"):
            ccodec, codes, dist = sdict_unpack(spec, tp)
            if not hist:
                return dist, None, True
            u, counts = value_counts(ccodec, codes, n, np.int64)
            return dist.take(pa.array(u)), counts, True
    v = _image(_col_at(batch, c, i, n, sel, is_str))
    return v, (_sel_valid_mask(vb, n, sel).astype(np.int64) if vb
               else np.ones(len(v), np.int64)), False


def _group_keys(enc_dir: str, group_col, cols=()) -> tuple[list, dict]:
    """The footer probe of the grouped cores (:func:`_footer` of
    ``cols`` and the GROUP BY key column(s) ``group_col``: None, a name
    or a list): ``(keys, types)``, ``keys`` holding ``(col, type, zone
    map fields or None)`` per key.  A string key (it has
    ``__lens_payload``) folds as ``large_string`` with the zone map
    ``__smin``/``__smax``; any other key folds as int64 in the image of
    :func:`_image` with ``__vmin``/``__vmax``, which uint64 and float
    columns do not have, and :func:`_present_keys` turns a uint64 key
    back."""
    names = [] if group_col is None else \
        [group_col] if isinstance(group_col, str) else list(group_col)
    fields, types = _footer(enc_dir, list(dict.fromkeys([*cols, *names])))
    keys = []
    for g in names:
        is_str = f"{g}__lens_payload" in fields
        zone = tuple(f"{g}__{p}" for p in (("smin", "smax") if is_str
                                           else ("vmin", "vmax")))
        keys.append((g, pa.large_utf8() if is_str else pa.int64(),
                     zone if zone[0] in fields else None))
    return keys, types


def _present_keys(t: pa.Table, keys: list, types: dict) -> pa.Table:
    """A folded table whose first columns are ``keys`` in the fold
    image, with each uint64 key presented in uint64 (xor 2^63 undone,
    NULLs kept); the other integer keys stay int64."""
    import pyarrow.compute as pc

    for j, (g, _, _) in enumerate(keys):
        if types[g] == np.uint64:
            t = t.set_column(j, t.field(j).name, pc.bit_wise_xor(
                t.column(j).cast(pa.uint64(), safe=False),
                pa.scalar(1 << 63, pa.uint64())))
    return t


def _key_step(batch: pa.Table, keys: list):
    """The GROUP BY key step of the grouped cores over one scanned
    batch: ``key(i, n, sel)`` of chunk ``i`` under selection ``sel`` is
    the key TUPLE when the chunk is PURE — every key column chunk
    null-free with a one-value zone map — and no key column decodes;
    otherwise a list holding each key column at ``sel`` as an Arrow
    array of its key type (an integer key in the image of
    :func:`_image`), NULL slots null.  Purity is decided on
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
            out.append(_null_at(
                _image(_col_at(batch, g, i, n, sel, t == pa.large_utf8())),
                _chunk_valid(batch, g, i), n, sel))
        return out

    return key


def _concat(parts: list, typ) -> pa.Array:
    """The per-chunk pieces of one column of a scan batch, numpy arrays
    or Arrow arrays of type ``typ``, as one Arrow array."""
    if parts and isinstance(parts[0], np.ndarray):
        return pa.array(np.concatenate(parts), typ)
    return pa.concat_arrays(parts) if parts else pa.array([], typ)


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


def _frame(t: pa.Table):
    """An answer table as a pandas frame of :func:`_frame_col` columns."""
    import pandas as pd

    return pd.DataFrame(dict(zip(t.column_names, map(_frame_col, t.columns))))


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
    str_cols = _expr_leaf_cols(expr, _STR_LEAVES) + list(str_cols) + str_keys
    pred_cols = _expr_pred_cols(expr)
    need = ["n_rows"]
    need += [f"{c}__{p}" for c in dict.fromkeys(pred_cols + list(zone_cols))
             for p in ("vmin", "vmax")]
    need += [f"{c}__{p}" for c in pred_cols + list(value_cols)
             for p in ("codec", "payload", "dtype", "valid")]
    need += [f"{c}__{p}" for c in str_cols
             for p in ("codec", "payload", "lens_payload", "valid")]
    need += [f"{c}__valid" for c in _expr_leaf_cols(expr, _NULL_LEAVES)]
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
    from tokrle.codecs.core import (match_eq, match_in, match_range,
                                    match_str, runs_complement,
                                    valid_to_runs)

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
        m = match_str(_STR_LEAVES[kind], *str_chunk(col, i), n,
                      [e[2]] if kind == "eq_str" else e[2])
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
    :func:`encoded_column_agg`).  An ungrouped aggregate is a GROUP BY
    with no key: this is :func:`encoded_filtered_group_agg` with
    ``group_col=[]``, where every chunk is pure and answers in closed
    form (:func:`agg_sum` / :func:`agg_sum_runs`); integer aggregate
    columns only, and a uint64 one raises ``TypeError``.

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
    (``nvalid_<c>`` carries that count; SUM over an all-null
    selection is emitted as 0 — pair it with ``coalesce`` in an
    oracle).  Returns ``(DataFrame(n_match, sum_<c>, [min_<c>,
    max_<c>]...), counters)``."""
    t, counters = _agg_core(enc_dir, [], expr, agg_cols, with_minmax)
    parts = ("sum", "min", "max") if with_minmax else ("sum",)
    cols = [f"{p}_{c}" for c in agg_cols for p in parts]
    return _frame(t.select(["n"] + cols).rename_columns(["n_match"] + cols)), \
        counters


# Single-predicate and conjunctive entry points: each is one predicate
# tree handed to encoded_boolean_agg, so they share its zone-map
# pruning, its run-list evaluation, its SQL null semantics and its
# counters (chunks_total / chunks_scanned / chunks_skipped /
# all_hit_chunks / run_chunks / pure_group_chunks / nvalid_<c>).

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
    directory: the one COUNT/SUM/MIN/MAX core, behind
    :func:`encoded_group_agg` (``expr=None``),
    :func:`encoded_group_by_str` and, with no key (``group_col=[]``),
    :func:`encoded_boolean_agg`.  ``group_col`` is one column or a list
    (composite keys), each an integer or a string column.  The predicate
    evaluates per chunk as in :func:`encoded_boolean_agg`, then the
    GROUP BY key step (:func:`_key_step`) splits the chunks:

    - PURE chunks (every key null-free with zone map ``vmin == vmax``,
      or ``smin == smax`` for a string — the common case when the table
      is clustered on the key; with no key, every chunk): the group
      comes from the zone maps, the count from the selection alone, and
      each SUM from :func:`agg_sum` (ALL) / :func:`agg_sum_runs`
      (run-list) — the key columns never decode and the agg columns
      never expand;
    - MIXED chunks materialize the key and agg columns ONLY at the
      selected positions (late materialization).

    Each batch folds its rows with one hash GROUP BY, and the caller
    folds the batches' groups from :func:`_scan_partials`, never table
    rows.  ``with_minmax=True`` adds per-group ``min_<c>``/``max_<c>``:
    pure ALL-selected null-free chunks answer from the aggregate
    column's own zone map (zero decode), every other chunk from the
    gathered values, which then give its SUM too.

    NULLs follow SQL: predicate columns under three-valued logic,
    aggregate NULLs skipped (SUM over no valid value is emitted as 0
    and MIN/MAX as None; ``nvalid_<c>`` counts the valid values), and a
    NULL key is its own group, sorted last.  Integer aggregate columns
    only: a uint64 one raises ``TypeError`` before any chunk is read
    (its sums can exceed the int64 answer column).  Sums fold exactly,
    and a SUM outside int64 raises ``OverflowError``.  Returns
    ``(DataFrame, counters)`` sorted by the keys: the keys (int64,
    uint64 for a uint64 key, or str; object holding None when a key is
    NULL), int64
    ``n``/``sum_<c>``, then ``min_<c>``/``max_<c>`` (int64, or object
    holding None when a group has no valid value) — with no key, one
    row."""
    t, counters = _agg_core(enc_dir, group_col, expr, agg_cols, with_minmax)
    return _frame(t), counters


def _agg_core(enc_dir: str, group_col, expr: tuple | None,
              agg_cols: list[str], with_minmax: bool):
    """:func:`encoded_filtered_group_agg` as ``(Arrow table, counters)``,
    the table's columns named like the frame's."""
    import pyarrow.compute as pc

    from tokrle.codecs.core import (agg_sum, agg_sum_runs, exact_sum_int,
                                    gather_runs)

    # an ungrouped count (no key, no aggregate column) needs no probe
    keys, types = _group_keys(enc_dir, group_col, agg_cols) \
        if group_col or agg_cols else ([], {})
    for c in agg_cols:
        if types[c] == np.uint64:
            raise TypeError(
                f"column {c!r}: uint64 sums can exceed the int64 "
                "answer column; decode and reduce instead")
    gnames = [f"g{j}" for j in range(len(keys))]
    how = {"n": "sum", **{f"sum_{c}": "sum" for c in agg_cols}}
    if with_minmax:
        how.update({f"{s}_{c}": s for s in ("min", "max") for c in agg_cols})
    # sums fold as decimal128(38, 0), exact for any int64 column of
    # fewer than 10^19 rows, and are range-checked into int64 at the end
    dec = pa.decimal128(38, 0)
    schema = pa.schema([(nm, t) for nm, (_, t, _) in zip(gnames, keys)] + [
        (nm, dec if nm.startswith("sum_") else pa.int64()) for nm in how])

    def partial(batch: pa.Table):
        pure = {nm: [] for nm in schema.names}    # one row per pure chunk
        mixed = {nm: [] for nm in schema.names}   # selected rows, arrays
        nvalid = dict.fromkeys(agg_cols, 0)
        key_of = _key_step(batch, keys)
        chunks = _chunk_sels(batch, expr)
        for i, n, sel in chunks:
            is_all = isinstance(sel, str)
            key = key_of(i, n, sel)
            if not isinstance(key, tuple):
                for nm, g in zip(gnames, key):
                    mixed[nm].append(g)
                mixed["n"].append(pa.array(np.ones(len(key[0]), np.int64)))
                for c in agg_cols:
                    # NULL slots null: SUM, MIN and MAX skip them
                    v = _null_at(_col_at(batch, c, i, n, sel).astype(np.int64),
                                 _chunk_valid(batch, c, i), n, sel)
                    nvalid[c] += len(v) - v.null_count
                    mixed[f"sum_{c}"].append(v.cast(dec))
                    if with_minmax:
                        mixed[f"min_{c}"].append(v)
                        mixed[f"max_{c}"].append(v)
                continue
            for nm, g in zip(gnames, key):
                pure[nm].append(g)
            pure["n"].append(n if is_all else int(sel[1].sum()))
            for c in agg_cols:
                codec, payload, dt = _chunk_col(batch, c, i)
                sv = _valid_sel(sel, _chunk_valid(batch, c, i), n)
                nvalid[c] += n if isinstance(sv, str) else int(sv[1].sum())
                if with_minmax and not isinstance(sv, str):
                    # MIN/MAX gather the valid selected values anyway:
                    # the SUM comes from them, not from a second pass
                    v = gather_runs(codec, payload, n, dt, *sv)
                    pure[f"sum_{c}"].append(exact_sum_int(v))
                    pure[f"min_{c}"].append(int(v.min()) if len(v) else None)
                    pure[f"max_{c}"].append(int(v.max()) if len(v) else None)
                    continue
                # the encoder fills NULL slots with 0, so the sum over
                # the selection is SQL's NULL-skipping SUM
                pure[f"sum_{c}"].append(
                    agg_sum(codec, payload, n, dt) if is_all else
                    agg_sum_runs(codec, payload, n, dt, *sel))
                if with_minmax:
                    # whole null-free chunk selected: its zone map IS exact
                    pure[f"min_{c}"].append(
                        batch.column(f"{c}__vmin")[i].as_py())
                    pure[f"max_{c}"].append(
                        batch.column(f"{c}__vmax")[i].as_py())
        t = pa.table([_concat([pa.array(pure[f.name], f.type)] +
                              mixed[f.name], f.type) for f in schema],
                     schema=schema)
        return _group_fold([t], gnames, how), \
            {**_hit_counts(chunks), "pure_group_chunks": len(pure["n"]),
             **{f"nvalid_{c}": nv for c, nv in nvalid.items()}}

    parts, counters = _scan_partials(
        enc_dir, _scan_columns(expr, agg_cols, keys=keys,
                               zone_cols=agg_cols if with_minmax else ()),
        _expr_zone_filter(expr), partial)
    t = _group_fold(parts, gnames, how)
    if gnames:
        t = _present_keys(t.sort_by([(nm, "ascending") for nm in gnames]),
                          keys, types)
    # with no key an empty input folds to one row of NULLs, and a group
    # whose values are all NULL sums to NULL: SQL's count and our sum
    # are 0 there; a decimal sum outside int64 fails its cast
    for j, nm in enumerate(["n"] + [f"sum_{c}" for c in agg_cols],
                           len(gnames)):
        try:
            t = t.set_column(j, nm, pc.fill_null(t.column(j), 0).cast(
                pa.int64()))
        except pa.ArrowInvalid:
            raise OverflowError(f"column {nm[4:]!r}: a SUM exceeds "
                                "int64") from None
    return t.rename_columns([g for g, _, _ in keys] + list(how)), counters


def _footer(enc_dir: str, cols=()) -> tuple[set, dict]:
    """The one footer probe of a table-encode directory: ``(field names,
    {col: stored type})``.  The field names are the first file's footer
    schema (the layout is uniform by construction; a ``__lens_payload``
    field marks a string or list column, ``__vmin`` a zone-mapped one).
    The stored type of each of ``cols`` is its ``__dtype`` in the first
    chunk: a numpy dtype, ``"str"`` for a string column and
    ``"list:<dtype>"`` for a list one; None in a directory without a
    chunk.  No chunk payload is read."""
    import pyarrow.parquet as pq

    fields, types = set(), dict.fromkeys(cols)
    for path in _table_files(enc_dir):
        f = pq.ParquetFile(path)
        fields = fields or set(f.schema_arrow.names)
        if not cols or f.metadata.num_rows:
            break
    else:
        return fields, types
    if cols:
        row = f.read_row_group(0, columns=[f"{c}__dtype" for c in cols])
        for c in cols:
            s = row.column(f"{c}__dtype")[0].as_py()
            types[c] = s if s == "str" or s.startswith("list:") \
                else np.dtype(s)
    return fields, types


def encoded_str_distinct(enc_dir: str, col: str,
                         expr: tuple | None = None):
    """Exact COUNT(DISTINCT) of a STRING column:
    :func:`encoded_distinct_count` on a column that must be a string
    one (else ``TypeError``).  Wholly selected ``sdict`` chunks answer
    from the dictionary HEADER alone (the code stream never decodes),
    other sdict chunks gather only the selected CODES, plain ``str``
    chunks decode.  Returns ``(DataFrame(n_distinct), counters)``."""
    _require_str(enc_dir, col)
    return encoded_distinct_count(enc_dir, col, expr)


def encoded_str_quantiles(enc_dir: str, col: str,
                          qs: tuple = ((1, 4), (1, 2), (3, 4))):
    """Exact discrete quantiles (SQL ``quantile_disc``) of a STRING
    column: the ``expr=None`` case of :func:`encoded_boolean_quantiles`
    on a column that must be a string one (else ``TypeError``).
    Null-free ``sdict`` chunks histogram their CODE stream, other
    chunks decode; the histogram sorts in UTF-8 byte order (==
    code-point order == DuckDB's binary collation).  Returns
    ``(DataFrame(q_num, q_den, quantile, n_rows), counters)``."""
    _require_str(enc_dir, col)
    return encoded_boolean_quantiles(enc_dir, None, col, qs)


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
            mm = pc.min_max(_col_at(batch, col, i, n, sel, is_str=True))
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
    selection per chunk, and only then are ``cols`` read, each with one
    decode and one take at the selected positions
    (:func:`tokrle.codecs.core.gather_runs` for integer columns,
    :func:`tokrle.codecs.core.gather_str_runs` for string ones).  NULL
    slots of a nullable column come back as NULL.
    Returns ``(tables, counters)``: one table per scan batch that
    selected a row, or one empty table typed from the footer when none
    did."""
    # footer probe (no payload read): a column with a __lens_payload
    # field is a string/list column; the stored dtypes type an empty
    # answer and reject list columns before any chunk is read
    fields, types = _footer(enc_dir, cols)
    str_cols = [c for c in cols if f"{c}__lens_payload" in fields]
    for c in str_cols:
        if types[c] not in ("str", None):
            raise TypeError(f"column {c!r}: only string and integer "
                            f"projections supported (dtype {types[c]})")
    empty = pa.table({c: pa.array([], pa.large_utf8()) if c in str_cols
                      else pa.array(np.empty(0, np.int64 if types[c] is None
                                             else types[c]))
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
    the chunks that select a row decode the projected columns, each
    with one decode and one take at the selected positions
    (:func:`tokrle.codecs.core.gather_runs`).  Chunks the scan filter
    or the evaluator rules out never decode anything.

    Projection columns may be integer OR string (a string projection
    is :func:`tokrle.codecs.core.gather_str_runs`: an ``sdict`` chunk
    gathers its codes and takes them from its distinct set, a plain
    chunk takes the selected rows of its one decoded Arrow array).
    Predicate columns evaluate under SQL three-valued
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
    ``out_cols`` read at the matching positions, one decode and one
    take per chunk with a match (:func:`_scan_rows`), and the dimension
    attributes ``dim_cols`` attach via one ``searchsorted`` against the
    sorted keys.  The fact table never shuffles and never decodes a
    chunk without a matching row; the scan and the attach run in the
    caller, so the dimension is never shipped anywhere.

    Returns a ``ray.data.Dataset`` of joined rows (``key_col`` +
    ``out_cols`` from the fact side, ``dim_cols`` from the dimension),
    one block per scan batch of at most :data:`_SCAN_BATCH_CHUNKS`
    chunks, built in the caller with no Ray task
    (:func:`tokrle.pipelines.encode._answer_dataset`).  Dimension keys
    must be unique; fact out columns may be integer OR string
    (:func:`tokrle.codecs.core.gather_str_runs`).  A NULL fact key never
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
    if f"{key_col}__lens_payload" in _footer(enc_dir)[0]:
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
