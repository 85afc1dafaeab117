"""Lightweight per-chunk compression codecs: dict, RLE, FSST (hierarchical
trained symbols), bit-pack, frame-of-reference, plain.

Each codec maps a 1-D integer NumPy array to an opaque ``bytes`` payload and
back, bit-identical (the round-trip gate generalizes the reference's
Rle-construction round-trips, ref pyrle/rle.py:34-64 + tests/test_hypothesis.py).
Chunk metadata (codec name, element count, dtype) travels in Arrow columns
next to the payload, not inside it — see tokrle.stages.encoder.

All codecs are fully vectorized (NumPy kernels only; no per-element Python
loops).  Integer dtypes int8..int64 / uint8..uint64 are supported; float64
round-trips via the 'plain' codec (bit-pattern copy).

Payload layouts are little-endian struct headers + np.packbits streams; see
each codec's docstring.
"""

from __future__ import annotations

import struct

import numpy as np

from tokrle.codecs._bits import (bit_width, bit_widths, pack_uints,
                                 unpack_uints, unpack_uints_range)

__all__ = ["CODECS", "encode", "decode", "Codec"]


def _span_to_unsigned(x: np.ndarray, ref: int) -> np.ndarray:
    """(x - ref) as uint64 without overflow for any int64 input."""
    return (x.astype(np.int64) - np.int64(ref)).astype(np.uint64)


def _exact_sum_u64(u: np.ndarray) -> int:
    """Exact sum of a uint64 array as a Python int.

    Splits each value into 32-bit halves and sums the halves in uint64:
    each partial is < n * 2^32, so nothing wraps for n < 2^32 (far above
    any chunk size)."""
    if len(u) == 0:
        return 0
    lo = int((u & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
    hi = int((u >> np.uint64(32)).sum(dtype=np.uint64))
    return lo + (hi << 32)


def exact_sum_int(x: np.ndarray) -> int:
    """Exact sum of any integer array as a Python int (no int64 overflow):
    unsigned 32/32-split sum of the two's-complement bits, then each
    negative element's +2^64 bias is subtracted back out."""
    if len(x) == 0:
        return 0
    if x.dtype == np.uint64:
        return _exact_sum_u64(x)
    x64 = x.astype(np.int64, copy=False)
    total = _exact_sum_u64(x64.view(np.uint64))
    neg = int(np.count_nonzero(x64 < 0))
    return total - (neg << 64)


def _dot_fits_i64(span: int, n: int) -> bool:
    """True when sum_i(delta_i * weight_i) with delta <= span and
    sum(weights) == n is provably < 2^62, so an int64 dot is exact."""
    return span >= 0 and n >= 0 and \
        span.bit_length() + n.bit_length() <= 62


class Codec:
    name: str

    def encode(self, x: np.ndarray, vmin: int | None = None,
               vmax: int | None = None) -> bytes:
        """``vmin``/``vmax`` let the selector's profile pass its already
        computed bounds so codecs skip redundant reduction passes — at
        tens of M tokens/s per core the extra full-array scans are real
        memory traffic."""
        raise NotImplementedError

    def decode(self, payload: bytes, n: int, dtype: np.dtype) -> np.ndarray:
        raise NotImplementedError

    def agg_sum(self, payload: bytes, n: int, dtype: np.dtype) -> int:
        """Exact integer SUM of the encoded chunk as a Python int.

        Codecs override this with closed forms over their own streams
        (runs x values for RLE, code histogram x dictionary for dict,
        ref*n + code sum for FOR/PFOR) so an aggregate over an encoded
        table touches orders of magnitude fewer values than a decode.
        This default is the always-correct fallback: full decode + exact
        split-sum."""
        return exact_sum_int(self.decode(payload, n, dtype))

    def distinct(self, payload: bytes, n: int,
                 dtype: np.dtype) -> np.ndarray:
        """Sorted unique values of the encoded chunk.  Dict chunks
        answer from the dictionary stream alone (it IS the chunk's
        distinct set by construction — zero code-stream work); rle
        chunks from the O(#runs) value stream.  This default decodes +
        np.unique.  Integer streams only (module dispatch contract)."""
        if n == 0:
            return np.empty(0, dtype=dtype)
        return np.unique(self.decode(payload, n, dtype))

    def value_counts(self, payload: bytes, n: int,
                     dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """(sorted unique values, their counts) of the encoded chunk —
        the exact per-chunk histogram.  Dict chunks bincount the narrow
        code stream against the dictionary (no value gather); rle
        chunks fold run lengths per unique run value in
        O(#runs log #runs).  This default decodes +
        np.unique(return_counts).  Counts are int64; same integer-only
        contract as the other compressed-domain primitives."""
        if n == 0:
            return (np.empty(0, dtype=dtype),
                    np.empty(0, dtype=np.int64))
        vals, counts = np.unique(self.decode(payload, n, dtype),
                                 return_counts=True)
        return vals, counts.astype(np.int64)

    def match_range(self, payload: bytes, n: int, dtype: np.dtype,
                    lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Canonical run-list ``(starts, lengths)`` (int64, sorted,
        gap-separated, lengths > 0) of the positions whose value lies in
        ``[lo, hi]`` (inclusive) — the ONE positional integer predicate
        of a codec: equality is ``lo == hi`` and a COUNT is the sum of
        the returned lengths (the module's ``match_eq`` / ``count_eq`` /
        ``count_range``).  Overrides answer from the codec's own
        streams: rle selects matching value runs in O(#runs) and
        coalesces the ADJACENT ones (a range, unlike an equality, can
        match neighbouring runs); dict bounds a code window with two
        searchsorted calls; for/bitpack answer empty or the full chunk
        payload-free when the window misses or covers the whole frame.
        This default decodes + masks.  The module-level dispatch
        guarantees ``lo <= hi`` and both bounds within ``dtype``'s
        domain."""
        if n == 0:
            return _EMPTY_RUNS
        x = self.decode(payload, n, dtype)
        return _mask_to_runs(_window_mask(x, dtype.type(lo), dtype.type(hi)))

    def match_in(self, payload: bytes, n: int, dtype: np.dtype,
                 targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Canonical run-list of the positions whose value is in the
        SORTED ``targets`` array — the IN-list / semi-join predicate.
        Overrides: rle tests its O(#runs) value stream against the
        targets and coalesces adjacent matches; dict intersects the two
        sorted sets and tests the narrow code stream.  This default
        decodes + isin."""
        if n == 0 or len(targets) == 0:
            return _EMPTY_RUNS
        return _mask_to_runs(np.isin(self.decode(payload, n, dtype),
                                     targets.astype(dtype)))

    def agg_sum_runs(self, payload: bytes, n: int, dtype: np.dtype,
                     starts: np.ndarray,
                     lengths: np.ndarray) -> int:
        """Exact integer SUM of the chunk's values inside the selection
        run-list — ``SUM(col) WHERE <predicate on another column>``
        evaluated against the encoded chunk.  The rle override zips the
        selection runs against the codec's own value runs with a
        prefix-weighted closed form (the reference's run-merge inner
        loop, ref pyrle/src/rle.pyx, repurposed as a filtered aggregate:
        nothing ever expands to n elements).  This default decodes +
        gathers + exact-sums."""
        if n == 0 or len(starts) == 0:
            return 0
        x = self.decode(payload, n, dtype)
        return exact_sum_int(x[_runs_to_indices(starts, lengths)])


_EMPTY_RUNS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _window_mask(x: np.ndarray, lo, hi) -> np.ndarray:
    """``lo <= x <= hi`` as a boolean mask; one compare pass when the
    window is a single value, so an equality costs what it always did."""
    if lo == hi:
        return x == lo
    return (x >= lo) & (x <= hi)


def _mask_to_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean mask -> canonical (starts, lengths) run-list, int64."""
    if not mask.any():
        return _EMPTY_RUNS
    edges = np.flatnonzero(np.diff(
        np.concatenate(([0], mask.view(np.int8), [0])))).astype(np.int64)
    starts, ends = edges[0::2], edges[1::2]
    return starts, ends - starts


def _full_run(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The run-list selecting every position of an n-element chunk."""
    return (np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64))


def runs_intersect(starts_a: np.ndarray, lengths_a: np.ndarray,
                   starts_b: np.ndarray, lengths_b: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Intersection of two canonical selection run-lists — predicate AND
    evaluated directly on the run representation (the reference's
    run-merge inner loop, ref pyrle/src/rle.pyx, as set algebra), fully
    vectorized.  Because both inputs are sorted and gap-separated, each
    overlapping (a, b) pair needs one of the two starts inside the other
    interval, so the pair count — and the output — is bounded by
    ``len(a) + len(b)``: no quadratic blow-up.  The result is canonical
    by construction."""
    if len(starts_a) == 0 or len(starts_b) == 0:
        return _EMPTY_RUNS
    ends_a = starts_a + lengths_a
    ends_b = starts_b + lengths_b
    # a-interval i overlaps exactly the b-intervals in [lo_i, hi_i)
    lo = np.searchsorted(ends_b, starts_a, side="right")
    hi = np.searchsorted(starts_b, ends_a, side="left")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_RUNS
    pa_idx = np.repeat(np.arange(len(starts_a), dtype=np.int64), counts)
    seg_off = np.cumsum(counts) - counts     # output offset per a-interval
    pb_idx = np.repeat(lo, counts) + \
        (np.arange(total, dtype=np.int64) - np.repeat(seg_off, counts))
    s = np.maximum(starts_a[pa_idx], starts_b[pb_idx])
    e = np.minimum(ends_a[pa_idx], ends_b[pb_idx])
    keep = e > s
    return s[keep], (e - s)[keep]


def runs_union(starts_a: np.ndarray, lengths_a: np.ndarray,
               starts_b: np.ndarray, lengths_b: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Union of two canonical selection run-lists — predicate OR on the
    run representation.  Merge the interval lists by start, then one
    running-max coalesce pass: an interval opens a new output run only
    when it starts past everything accumulated so far (touching
    intervals merge, keeping the result canonical: gap-separated)."""
    if len(starts_a) == 0:
        return starts_b.astype(np.int64), lengths_b.astype(np.int64)
    if len(starts_b) == 0:
        return starts_a.astype(np.int64), lengths_a.astype(np.int64)
    s = np.concatenate((starts_a, starts_b)).astype(np.int64)
    e = s + np.concatenate((lengths_a, lengths_b)).astype(np.int64)
    order = np.argsort(s, kind="mergesort")
    s, e = s[order], e[order]
    cummax = np.maximum.accumulate(e)
    new = np.concatenate(([True], s[1:] > cummax[:-1]))
    group_end = np.concatenate((np.flatnonzero(new)[1:] - 1,
                                [len(s) - 1]))
    return s[new], cummax[group_end] - s[new]


def runs_complement(starts: np.ndarray, lengths: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Complement of a canonical selection run-list within ``[0, n)`` —
    predicate NOT on the run representation: the gaps between runs
    (plus the head before the first and the tail after the last)."""
    if len(starts) == 0:
        return (_EMPTY_RUNS if n == 0 else _full_run(n))
    ends = starts + lengths
    gap_s = np.concatenate(([0], ends)).astype(np.int64)
    gap_e = np.concatenate((starts, [n])).astype(np.int64)
    keep = gap_e > gap_s
    return gap_s[keep], (gap_e - gap_s)[keep]


def valid_to_runs(vbits: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """LSB-packed validity bitmap (the table-encode ``{col}__valid``
    field, b'' when the chunk has no nulls) -> canonical run-list of
    the VALID positions.  Payload-free: ``is_null`` / ``not_null``
    predicate leaves and the three-valued-logic wraps around value
    leaves are answered from this bitmap alone, never the codec
    stream."""
    if not vbits:
        return _full_run(n) if n else _EMPTY_RUNS
    mask = np.unpackbits(np.frombuffer(vbits, dtype=np.uint8),
                         count=n, bitorder="little").astype(bool)
    return _mask_to_runs(mask)


def _runs_to_indices(starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """Canonical (starts, lengths) run-list -> flat position vector,
    fully vectorized (step vector + one cumsum, no per-run loop)."""
    lengths = lengths.astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    step = np.ones(total, dtype=np.int64)
    step[0] = int(starts[0])
    ends = np.cumsum(lengths)
    step[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(step)


def _bounds(x: np.ndarray, vmin, vmax) -> tuple[int, int]:
    if vmin is None:
        vmin = int(x.min())
    if vmax is None:
        vmax = int(x.max())
    return int(vmin), int(vmax)


def _deltas_narrow(x: np.ndarray, ref: int, span: int) -> np.ndarray:
    """(x - ref) with the NARROWEST safe temp: int32 inputs with an int32
    span subtract in-place width (4 B/elem temps) instead of the generic
    int64->uint64 path (16 B/elem)."""
    if x.dtype == np.int32 and 0 <= span < (1 << 31):
        return (x - np.int32(ref)).view(np.uint32)
    return _span_to_unsigned(x, ref)


class Plain(Codec):
    """Raw native bytes — the fallback that can never lose by more than 0%."""

    name = "plain"

    def encode(self, x, vmin=None, vmax=None):
        return x.tobytes()

    def decode(self, payload, n, dtype):
        return np.frombuffer(payload, dtype=dtype, count=n).copy()

    def decode_range(self, payload, n, dtype, start, stop):
        it = np.dtype(dtype).itemsize
        return np.frombuffer(payload, dtype=dtype, count=stop - start,
                             offset=start * it).copy()

    def agg_sum(self, payload, n, dtype):
        x = np.frombuffer(payload, dtype=dtype, count=n)
        if not np.issubdtype(x.dtype, np.integer):
            raise TypeError(f"agg_sum is integer-only, got {x.dtype}")
        return exact_sum_int(x)


class BitPack(Codec):
    """Zero-referenced bit packing: ``<B width>`` + width-bit codes.

    Valid for non-negative inputs only (the selector guards this); width is
    chosen from the chunk max.
    """

    name = "bitpack"

    def encode(self, x, vmin=None, vmax=None):
        vmin, vmax = _bounds(x, vmin, vmax) if len(x) else (0, 0)
        if len(x) and vmin < 0:
            raise ValueError("bitpack requires non-negative values")
        w = bit_width(vmax) if len(x) else 0
        return struct.pack("<B", w) + pack_uints(x, w)

    def decode(self, payload, n, dtype):
        (w,) = struct.unpack_from("<B", payload, 0)
        return unpack_uints(payload[1:], n, w).astype(dtype)

    def decode_range(self, payload, n, dtype, start, stop):
        (w,) = struct.unpack_from("<B", payload, 0)
        return unpack_uints_range(payload[1:], n, w, start,
                                  stop).astype(dtype)

    def agg_sum(self, payload, n, dtype):
        (w,) = struct.unpack_from("<B", payload, 0)
        return _exact_sum_u64(unpack_uints(payload[1:], n, w))

    def match_range(self, payload, n, dtype, lo, hi):
        if n == 0:
            return _EMPTY_RUNS
        (w,) = struct.unpack_from("<B", payload, 0)
        tlo, thi = max(lo, 0), min(hi, (1 << w) - 1)
        if tlo > thi:
            return _EMPTY_RUNS               # window misses every code
        if tlo == 0 and thi == (1 << w) - 1:
            return _full_run(n)              # window covers every code
        return _mask_to_runs(_window_mask(unpack_uints(payload[1:], n, w),
                                          np.uint64(tlo), np.uint64(thi)))


class FrameOfReference(Codec):
    """Frame-of-reference: ``<q ref><B width>`` + width-bit (x - ref) codes."""

    name = "for"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<qB", 0, 0)
        ref, vmax = _bounds(x, vmin, vmax)
        span = vmax - ref
        deltas = _deltas_narrow(x, ref, span)
        w = bit_width(span)
        return struct.pack("<qB", ref, w) + pack_uints(deltas, w)

    def decode(self, payload, n, dtype):
        ref, w = struct.unpack_from("<qB", payload, 0)
        out = unpack_uints(payload[9:], n, w).astype(np.int64) + ref
        return out.astype(dtype)

    def decode_range(self, payload, n, dtype, start, stop):
        ref, w = struct.unpack_from("<qB", payload, 0)
        out = unpack_uints_range(payload[9:], n, w, start,
                                 stop).astype(np.int64) + ref
        return out.astype(dtype)

    def agg_sum(self, payload, n, dtype):
        ref, w = struct.unpack_from("<qB", payload, 0)
        return ref * n + _exact_sum_u64(unpack_uints(payload[9:], n, w))

    def match_range(self, payload, n, dtype, lo, hi):
        if n == 0:
            return _EMPTY_RUNS
        ref, w = struct.unpack_from("<qB", payload, 0)
        tlo, thi = max(lo - ref, 0), min(hi - ref, (1 << w) - 1)
        if tlo > thi:
            return _EMPTY_RUNS
        if tlo == 0 and thi == (1 << w) - 1:
            return _full_run(n)
        return _mask_to_runs(_window_mask(unpack_uints(payload[9:], n, w),
                                          np.uint64(tlo), np.uint64(thi)))


class Dictionary(Codec):
    """Dictionary: sorted-unique values (themselves FOR-bitpacked) + per
    element codes at ceil(log2(cardinality)) bits.

    Layout: ``<I k><B code_w><q ref><B dict_w>`` + dict codes + element codes.
    """

    name = "dict"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<IBqB", 0, 0, 0, 0) + struct.pack("<I", 0)
        vmin, vmax = _bounds(x, vmin, vmax)
        span = vmax - vmin
        if 0 <= span < (1 << 20) and span < 8 * len(x):
            # O(n + span) unique+codes via a presence table instead of the
            # O(n log n) sort inside np.unique; int32-width temps when the
            # input allows (half the transient traffic of the int64 path)
            shifted = _deltas_narrow(x, vmin, span)
            present = np.zeros(span + 1, dtype=bool)
            present[shifted] = True
            uniq_idx = np.flatnonzero(present)
            code_of = np.zeros(span + 1, dtype=np.uint32)
            code_of[uniq_idx] = np.arange(len(uniq_idx), dtype=np.uint32)
            uniq = (uniq_idx + vmin).astype(x.dtype)
            inv = code_of[shifted]
        else:
            uniq, inv = np.unique(x, return_inverse=True)
        k = len(uniq)
        ref = int(uniq[0])
        dict_deltas = _span_to_unsigned(uniq, ref)
        dict_w = bit_width(int(dict_deltas.max())) if k else 0
        code_w = bit_width(k - 1)
        dict_bytes = pack_uints(dict_deltas, dict_w)
        header = struct.pack("<IBqB", k, code_w, ref, dict_w)
        return header + struct.pack("<I", len(dict_bytes)) + dict_bytes + \
            pack_uints(inv, code_w)

    def decode(self, payload, n, dtype):
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        uniq = unpack_uints(payload[off:off + dict_len], k, dict_w).astype(np.int64) + ref
        codes = unpack_uints(payload[off + dict_len:], n, code_w)
        return uniq[codes].astype(dtype)

    def decode_range(self, payload, n, dtype, start, stop):
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        uniq = unpack_uints(payload[off:off + dict_len], k,
                            dict_w).astype(np.int64) + ref
        codes = unpack_uints_range(payload[off + dict_len:], n, code_w,
                                   start, stop)
        return uniq[codes].astype(dtype)

    def agg_sum(self, payload, n, dtype):
        # sum = ref*n + sum_k(dict_delta_k * count_k): one bincount over
        # the unpacked codes + a k-element dot, k = dictionary cardinality
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0:
            return 0
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        deltas = unpack_uints(payload[off:off + dict_len], k, dict_w)
        codes = unpack_uints(payload[off + dict_len:], n, code_w)
        counts = np.bincount(codes.astype(np.int64), minlength=k)
        max_delta = int(deltas[-1]) if k else 0      # dict is sorted
        if _dot_fits_i64(max_delta, n):
            part = int(np.dot(deltas.astype(np.int64), counts))
        else:   # exact object-dtype dot; k is small relative to n
            part = int(np.dot(deltas.astype(object), counts.astype(object)))
        return ref * n + part

    def distinct(self, payload, n, dtype):
        # the dictionary stream IS the chunk's sorted distinct set by
        # construction (encode builds it from the chunk's uniques and
        # every entry is referenced) — the code stream is never read
        if n == 0:
            return np.empty(0, dtype=dtype)
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        uniq = unpack_uints(payload[off:off + dict_len], k,
                            dict_w).astype(np.int64) + ref
        return uniq.astype(dtype)

    def value_counts(self, payload, n, dtype):
        # dictionary (sorted uniques) + one bincount over the narrow
        # code stream — the n-element value gather never happens
        if n == 0:
            return (np.empty(0, dtype=dtype),
                    np.empty(0, dtype=np.int64))
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        uniq = unpack_uints(payload[off:off + dict_len], k,
                            dict_w).astype(np.int64) + ref
        codes = unpack_uints(payload[off + dict_len:], n, code_w)
        counts = np.bincount(codes.astype(np.int64), minlength=k)
        return uniq.astype(dtype), counts.astype(np.int64)

    def match_in(self, payload, n, dtype, targets):
        # intersect the sorted dictionary with the sorted targets (two
        # small arrays), then one boolean-table lookup over the narrow
        # code stream — absent sets answer from the dict alone
        if n == 0 or len(targets) == 0:
            return _EMPTY_RUNS
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        if k == 0:
            return _EMPTY_RUNS
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        uniq = unpack_uints(payload[off:off + dict_len], k,
                            dict_w).astype(np.int64) + ref
        code_hit = np.isin(uniq, targets.astype(np.int64))
        if not code_hit.any():
            return _EMPTY_RUNS
        if code_hit.all():
            return _full_run(n)    # every dictionary entry is a target
        codes = unpack_uints(payload[off + dict_len:], n, code_w)
        return _mask_to_runs(code_hit[codes])

    def match_range(self, payload, n, dtype, lo, hi):
        # two searchsorted calls bound the code window [c_lo, c_hi);
        # all-in / all-out windows answer from the k-element dict alone
        if n == 0:
            return _EMPTY_RUNS
        k, code_w, ref, dict_w = struct.unpack_from("<IBqB", payload, 0)
        if k == 0:
            return _EMPTY_RUNS
        tlo = max(lo - ref, 0)
        thi = min(hi - ref, (1 << dict_w) - 1 if dict_w else 0)
        if tlo > thi:
            return _EMPTY_RUNS
        (dict_len,) = struct.unpack_from("<I", payload, 14)
        off = 18
        deltas = unpack_uints(payload[off:off + dict_len], k, dict_w)
        c_lo = int(np.searchsorted(deltas, np.uint64(tlo), side="left"))
        c_hi = int(np.searchsorted(deltas, np.uint64(thi), side="right"))
        if c_lo >= c_hi:
            return _EMPTY_RUNS
        if c_lo == 0 and c_hi == k:
            return _full_run(n)
        codes = unpack_uints(payload[off + dict_len:], n, code_w)
        return _mask_to_runs(_window_mask(codes, np.uint64(c_lo),
                                          np.uint64(c_hi - 1)))


class RunLength(Codec):
    """RLE: exact-equality run detection (integer-native find_runs idiom,
    ref pyrle/rle.py:34-64), runs and values each bit-packed.

    Layout: ``<I nruns><B run_w><q vref><B val_w>`` + (runs-1) codes +
    (values - vref) codes.
    """

    name = "rle"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<IBqB", 0, 0, 0, 0)
        boundary = np.empty(len(x), dtype=bool)
        boundary[0] = True
        np.not_equal(x[:-1], x[1:], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        runs = np.diff(starts, append=len(x)).astype(np.uint64) - np.uint64(1)
        values = x[starts]
        run_w = bit_width(int(runs.max()))
        vref = int(values.min())
        vdeltas = _span_to_unsigned(values, vref)
        val_w = bit_width(int(vdeltas.max()))
        header = struct.pack("<IBqB", len(starts), run_w, vref, val_w)
        return header + pack_uints(runs, run_w) + pack_uints(vdeltas, val_w)

    def decode(self, payload, n, dtype):
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        runs = unpack_uints(payload[off:off + runs_nbytes], nruns, run_w) + np.uint64(1)
        values = unpack_uints(payload[off + runs_nbytes:], nruns, val_w).astype(np.int64) + vref
        return np.repeat(values.astype(dtype), runs.astype(np.int64))

    def agg_sum(self, payload, n, dtype):
        # sum = vref*n + sum_i(vdelta_i * run_i) over nruns elements —
        # the decoded array is never materialized
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0 or nruns == 0:
            return 0
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        runs = unpack_uints(payload[off:off + runs_nbytes], nruns,
                            run_w).astype(np.int64) + 1
        vdeltas = unpack_uints(payload[off + runs_nbytes:], nruns, val_w)
        max_delta = int(vdeltas.max())
        if _dot_fits_i64(max_delta, n):
            part = int(np.dot(vdeltas.astype(np.int64), runs))
        else:
            part = int(np.dot(vdeltas.astype(object), runs.astype(object)))
        return vref * n + part

    def distinct(self, payload, n, dtype):
        # unique of the O(#runs) value stream — adjacent runs always
        # differ but a value can recur in non-adjacent runs, so a
        # unique pass is still required
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0 or nruns == 0:
            return np.empty(0, dtype=dtype)
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        values = unpack_uints(payload[off + runs_nbytes:], nruns,
                              val_w).astype(np.int64) + vref
        return np.unique(values).astype(dtype)

    def value_counts(self, payload, n, dtype):
        # fold run lengths per unique run value: O(#runs log #runs),
        # the n-element expansion never happens
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0 or nruns == 0:
            return (np.empty(0, dtype=dtype),
                    np.empty(0, dtype=np.int64))
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        runs = unpack_uints(payload[off:off + runs_nbytes], nruns,
                            run_w).astype(np.int64) + 1
        values = unpack_uints(payload[off + runs_nbytes:], nruns,
                              val_w).astype(np.int64) + vref
        uniq, inv = np.unique(values, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, runs)
        return uniq.astype(dtype), sums

    def match_range(self, payload, n, dtype, lo, hi):
        # select matching value runs in O(#runs), then coalesce the
        # ADJACENT matches (a range, unlike an equality, can match
        # neighbouring runs) — still canonical, still no expansion
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0 or nruns == 0:
            return _EMPTY_RUNS
        tlo = max(lo - vref, 0)
        thi = min(hi - vref, (1 << val_w) - 1 if val_w else 0)
        if tlo > thi:
            return _EMPTY_RUNS
        if tlo == 0 and thi == ((1 << val_w) - 1 if val_w else 0):
            return _full_run(n)   # window covers the whole value domain
        vdeltas = unpack_uints(payload[14 + (nruns * run_w + 7) // 8:],
                               nruns, val_w)
        return self._hit_runs(payload, nruns, run_w, _window_mask(
            vdeltas, np.uint64(tlo), np.uint64(thi)))

    @staticmethod
    def _hit_runs(payload, nruns, run_w, hit):
        # consecutive hit indices are positionally adjacent runs: group
        # them and emit one coalesced selection run per group
        idx = np.flatnonzero(hit)
        if len(idx) == 0:
            return _EMPTY_RUNS
        runs = unpack_uints(payload[14:14 + (nruns * run_w + 7) // 8],
                            nruns, run_w).astype(np.int64) + 1
        run_starts = np.concatenate(
            ([0], np.cumsum(runs)[:-1])).astype(np.int64)
        brk = np.flatnonzero(np.diff(idx) > 1)
        first = idx[np.concatenate(([0], brk + 1))]
        last = idx[np.concatenate((brk, [len(idx) - 1]))]
        starts = run_starts[first]
        return starts, run_starts[last] + runs[last] - starts

    def match_in(self, payload, n, dtype, targets):
        # test the O(#runs) value stream against the sorted targets,
        # then coalesce adjacent matches (neighbouring runs with
        # DIFFERENT values can both be in the set) — same grouping as
        # match_range, never an n-element expansion
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        if n == 0 or nruns == 0 or len(targets) == 0:
            return _EMPTY_RUNS
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        values = unpack_uints(payload[off + runs_nbytes:], nruns,
                              val_w).astype(np.int64) + vref
        return self._hit_runs(payload, nruns, run_w,
                              np.isin(values, targets.astype(np.int64)))

    def agg_sum_runs(self, payload, n, dtype, starts, lengths):
        # selection runs zip against the codec's own value runs via a
        # prefix-weighted closed form (the reference's run-merge inner
        # loop, ref pyrle/src/rle.pyx, as a filtered aggregate):
        # prefix(p) = sum of the first p values = W[j] + vd[j]*(p - rs[j])
        # where j is the value run containing position p, W the weighted
        # cumsum of full runs — the n-element expansion never happens
        nruns, run_w, vref, val_w = struct.unpack_from("<IBqB", payload, 0)
        total_sel = int(lengths.sum()) if len(lengths) else 0
        if n == 0 or nruns == 0 or total_sel == 0:
            return 0
        off = 14
        runs_nbytes = (nruns * run_w + 7) // 8
        runs = unpack_uints(payload[off:off + runs_nbytes], nruns,
                            run_w).astype(np.int64) + 1
        vdeltas = unpack_uints(payload[off + runs_nbytes:], nruns, val_w)
        run_starts = np.concatenate(
            ([0], np.cumsum(runs)[:-1])).astype(np.int64)
        ends = starts + lengths
        j_lo = np.searchsorted(run_starts, starts, side="right") - 1
        j_hi = np.searchsorted(run_starts, ends, side="right") - 1
        max_delta = int(vdeltas.max())
        if _dot_fits_i64(max_delta, n):
            vd = vdeltas.astype(np.int64)
            W = np.concatenate(([0], np.cumsum(vd * runs)))
            pre_lo = W[j_lo] + vd[j_lo] * (starts - run_starts[j_lo])
            pre_hi = W[j_hi] + vd[j_hi] * (ends - run_starts[j_hi])
            # every prefix < 2^62 by the guard and the selection runs are
            # disjoint, so the int64 difference-sum cannot wrap
            part = int((pre_hi - pre_lo).sum())
        else:
            vd = vdeltas.astype(object)
            W = np.concatenate(([0], np.cumsum(vd * runs.astype(object))))
            pre_lo = W[j_lo] + vd[j_lo] * (starts - run_starts[j_lo])
            pre_hi = W[j_hi] + vd[j_hi] * (ends - run_starts[j_hi])
            part = int((pre_hi - pre_lo).sum())
        return vref * total_sel + part


class Delta(Codec):
    """Delta: zigzag-encoded successive differences, bit-packed at the width
    of the largest delta — the standard lightweight encoding for sorted or
    smoothly-varying integer columns (doc ids, timestamps, offsets; cf.
    Parquet's DELTA_BINARY_PACKED).

    All arithmetic is modular uint64, so any int64 input round-trips even
    when differences overflow the signed range.

    Layout: ``<q first><B width>`` + (n-1) zigzag-delta codes.
    """

    name = "delta"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<qB", 0, 0)
        first = int(x[0])
        if len(x) == 1:
            return struct.pack("<qB", first, 0)
        u = x.astype(np.uint64)
        d = (u[1:] - u[:-1]).view(np.int64)       # wrapping differences
        z = ((d << np.int64(1)) ^ (d >> np.int64(63))).view(np.uint64)
        w = bit_width(int(z.max()))
        return struct.pack("<qB", first, w) + pack_uints(z, w)

    def decode(self, payload, n, dtype):
        first, w = struct.unpack_from("<qB", payload, 0)
        if n == 0:
            return np.empty(0, dtype=dtype)
        z = unpack_uints(payload[9:], n - 1, w)
        d = (z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))
        out = np.empty(n, dtype=np.uint64)
        out[0] = np.uint64(first)
        np.cumsum(d, out=out[1:])
        out[1:] += np.uint64(first)
        return out.astype(np.int64).astype(dtype)

    def agg_sum(self, payload, n, dtype):
        # sum_j(x_j) = n*first + sum_i((n-1-i) * d_i): one (n-1)-element
        # dot instead of cumsum + materialized decode.  Only valid when
        # no prefix can leave int64 (decode's modular arithmetic would
        # diverge from exact arithmetic otherwise) and the dot itself is
        # int64-provable — both guards fall back to decode.
        first, w = struct.unpack_from("<qB", payload, 0)
        if n == 0:
            return 0
        if n == 1:
            return first
        max_abs_d = 1 << max(w - 1, 0)           # zigzag: |d| <= 2^(w-1)
        prefix_bound = abs(first) + (n - 1) * max_abs_d
        dot_bound = (n - 1) * (n - 1) * max_abs_d
        if prefix_bound >= (1 << 62) or dot_bound >= (1 << 62):
            return super().agg_sum(payload, n, dtype)
        z = unpack_uints(payload[9:], n - 1, w)
        d = ((z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))) \
            .view(np.int64)
        weights = np.arange(n - 1, 0, -1, dtype=np.int64)
        return n * first + int(np.dot(weights, d))


# strided-sample size for the pfor/dpfor width choice inside encode —
# matches the selector's _SAMPLE so encode-time and estimate-time
# histograms see the same resolution
_W_SAMPLE = 1 << 16

# 2^0 .. 2^63 — searchsorted(_POW2, d, side="right") == bit_width(d) for
# uint64 d (0 -> 0, 1 -> 1, 2..3 -> 2, ...): one vectorized pass replaces
# a per-element bit_length loop.
_POW2 = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def best_pfor_width(width_hist: np.ndarray, n: int, span_w: int,
                    sample_n: int | None = None) -> tuple[int, float]:
    """Exact cost-minimizing main-stream width for PFOR given the histogram
    of per-delta bit widths (``width_hist[b]`` = #deltas needing b bits).

    Returns ``(w, payload_bytes)``.  When the histogram comes from a sample
    of ``sample_n`` deltas, exception counts are scaled to ``n`` (the cost
    is then an estimate; encode always recomputes on the full chunk).
    """
    scale = n / sample_n if sample_n else 1.0
    hist = np.zeros(span_w + 2, dtype=np.int64)
    h = np.asarray(width_hist, dtype=np.int64)[: span_w + 2]
    hist[: len(h)] = h
    # n_exc_at[w] = #deltas whose width > w = sum(hist[w+1:])
    n_exc_at = np.cumsum(hist[::-1])[::-1]
    pos_w = bit_width(max(n - 1, 0))
    ws = np.arange(span_w + 1)
    exc = np.append(n_exc_at[1:], 0)[: span_w + 1] * scale
    costs = 15 + n * ws / 8 + exc * (pos_w + (span_w - ws)) / 8
    i = int(np.argmin(costs))
    return int(ws[i]), float(costs[i])


class PatchedFor(Codec):
    """PFOR (patched frame-of-reference): width-``w`` ``(x - ref)`` codes
    for the common case plus an exception stream for outliers, after
    Zukowski et al., "Super-Scalar RAM-CPU Cache Compression" (ICDE 2006).
    Wins where a few large outliers blow up FOR's single span width but
    cardinality is too high for dict and entropy too high for rle — e.g.
    token streams that are mostly common ids plus rare specials.

    The main stream stores the low ``w`` bits of every delta; for the
    ``n_exc`` deltas needing more than ``w`` bits the exception stream
    stores (position, remaining high bits), so decode is one unpack plus
    one scatter-OR.  ``w`` is chosen exactly from the per-delta bit-width
    histogram (:func:`best_pfor_width`); ``w == span_w`` degenerates to
    FOR with a 6-byte-larger header, so PFOR never loses to FOR by more.

    Layout: ``<q ref><B w><I n_exc><B pos_w><B high_w>`` + n ``w``-bit main
    codes + n_exc ``pos_w``-bit positions + n_exc ``high_w``-bit high bits.
    """

    name = "pfor"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<qBIBB", 0, 0, 0, 0, 0)
        ref, vmax = _bounds(x, vmin, vmax)
        span = vmax - ref
        span_w = bit_width(span)
        deltas = _span_to_unsigned(x, ref)
        # w is CHOSEN from a strided sample's width histogram (scaled
        # exception counts) — any w is correct (exceptions are whatever
        # the exact compare below exceeds), the sample only risks a
        # slightly-off size optimum; the per-element width pass was the
        # encode hot spot
        ps = deltas[:: max(1, len(deltas) // _W_SAMPLE)]
        hist = np.bincount(bit_widths(ps), minlength=span_w + 1)
        w, _ = best_pfor_width(hist, len(x), span_w,
                               sample_n=len(ps) if len(ps) != len(x)
                               else None)
        if w == span_w:
            exc_pos = np.empty(0, dtype=np.uint64)
            main = deltas
        else:
            exc_pos = np.flatnonzero(
                deltas >= np.uint64(1 << w)).astype(np.uint64)
            main = deltas & np.uint64((1 << w) - 1)
        n_exc = len(exc_pos)
        high = deltas[exc_pos.astype(np.int64)] >> np.uint64(w)
        pos_w = bit_width(len(x) - 1) if n_exc else 0
        high_w = (span_w - w) if n_exc else 0
        header = struct.pack("<qBIBB", ref, w, n_exc, pos_w, high_w)
        return header + pack_uints(main, w) + pack_uints(exc_pos, pos_w) + \
            pack_uints(high, high_w)

    def decode(self, payload, n, dtype):
        ref, w, n_exc, pos_w, high_w = struct.unpack_from("<qBIBB", payload, 0)
        off = 15
        main_nbytes = (n * w + 7) // 8
        out = unpack_uints(payload[off:off + main_nbytes], n, w)
        off += main_nbytes
        if n_exc:
            pos_nbytes = (n_exc * pos_w + 7) // 8
            pos = unpack_uints(payload[off:off + pos_nbytes],
                               n_exc, pos_w).astype(np.int64)
            high = unpack_uints(payload[off + pos_nbytes:], n_exc, high_w)
            out[pos] |= high << np.uint64(w)
        return (out.astype(np.int64) + ref).astype(dtype)

    def decode_range(self, payload, n, dtype, start, stop):
        ref, w, n_exc, pos_w, high_w = struct.unpack_from("<qBIBB",
                                                          payload, 0)
        off = 15
        main_nbytes = (n * w + 7) // 8
        out = unpack_uints_range(payload[off:off + main_nbytes], n, w,
                                 start, stop)
        off += main_nbytes
        if n_exc:
            # the exception streams are small by construction (the width
            # chooser charged every exception pos_w+high_w bits); decode
            # them whole and patch only the in-range ones
            pos_nbytes = (n_exc * pos_w + 7) // 8
            pos = unpack_uints(payload[off:off + pos_nbytes],
                               n_exc, pos_w).astype(np.int64)
            high = unpack_uints(payload[off + pos_nbytes:], n_exc, high_w)
            sel = (pos >= start) & (pos < stop)
            out[pos[sel] - start] |= high[sel] << np.uint64(w)
        return (out.astype(np.int64) + ref).astype(dtype)

    def agg_sum(self, payload, n, dtype):
        # main codes already hold each exception's LOW w bits, so
        # sum = ref*n + sum(main) + (sum(high) << w) — no patch scatter
        ref, w, n_exc, pos_w, high_w = struct.unpack_from("<qBIBB",
                                                          payload, 0)
        off = 15
        main_nbytes = (n * w + 7) // 8
        total = ref * n + _exact_sum_u64(
            unpack_uints(payload[off:off + main_nbytes], n, w))
        if n_exc:
            off += main_nbytes + (n_exc * pos_w + 7) // 8
            high = unpack_uints(payload[off:], n_exc, high_w)
            total += _exact_sum_u64(high) << w
        return total


class DeltaPfor(Codec):
    """Delta->PFOR cascade: zigzag successive differences, then PFOR's
    patched low-bits + exception-stream scheme over the deltas — the
    classic postings-list / timestamp encoding (cf. Lemire & Boytsov,
    "Decoding billions of integers per second through vectorization",
    SPE 2015, whose FastPFOR operates on d-gaps exactly like this).

    Wins where plain Delta's single width is blown up by RARE large
    jumps in an otherwise smooth/sorted stream: sorted doc-id gap lists
    (many small gaps, a few cross-segment jumps), event timestamps with
    session gaps, auto-increment keys with deletion holes.  ``w`` is
    chosen exactly from the per-delta bit-width histogram
    (:func:`best_pfor_width`); with no exceptions it degenerates to
    Delta at a 6-byte-larger header, so it never loses to Delta by more.

    All delta arithmetic is modular uint64 (any int64 input round-trips
    even when differences overflow the signed range — same contract as
    :class:`Delta`).

    Layout: ``<q first><B w><I n_exc><B pos_w><B high_w>`` + (n-1)
    ``w``-bit main zigzag-delta codes + n_exc ``pos_w``-bit positions +
    n_exc ``high_w``-bit high bits.
    """

    name = "dpfor"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<qBIBB", 0, 0, 0, 0, 0)
        first = int(x[0])
        if len(x) == 1:
            return struct.pack("<qBIBB", first, 0, 0, 0, 0)
        u = x.astype(np.uint64)
        d = (u[1:] - u[:-1]).view(np.int64)       # wrapping differences
        z = ((d << np.int64(1)) ^ (d >> np.int64(63))).view(np.uint64)
        span_w = bit_width(int(z.max()))
        # sampled width-histogram w choice + exact compare for the
        # exception set — same trade as PatchedFor.encode above
        ps = z[:: max(1, len(z) // _W_SAMPLE)]
        hist = np.bincount(bit_widths(ps), minlength=span_w + 1)
        w, _ = best_pfor_width(hist, len(z), span_w,
                               sample_n=len(ps) if len(ps) != len(z)
                               else None)
        if w == span_w:
            exc_pos = np.empty(0, dtype=np.uint64)
            main = z
        else:
            exc_pos = np.flatnonzero(
                z >= np.uint64(1 << w)).astype(np.uint64)
            main = z & np.uint64((1 << w) - 1)
        n_exc = len(exc_pos)
        high = z[exc_pos.astype(np.int64)] >> np.uint64(w)
        pos_w = bit_width(len(z) - 1) if n_exc else 0
        high_w = (span_w - w) if n_exc else 0
        header = struct.pack("<qBIBB", first, w, n_exc, pos_w, high_w)
        return header + pack_uints(main, w) + pack_uints(exc_pos, pos_w) + \
            pack_uints(high, high_w)

    def decode(self, payload, n, dtype):
        first, w, n_exc, pos_w, high_w = struct.unpack_from("<qBIBB",
                                                            payload, 0)
        if n == 0:
            return np.empty(0, dtype=dtype)
        off = 15
        main_nbytes = ((n - 1) * w + 7) // 8
        z = unpack_uints(payload[off:off + main_nbytes], n - 1, w)
        off += main_nbytes
        if n_exc:
            pos_nbytes = (n_exc * pos_w + 7) // 8
            pos = unpack_uints(payload[off:off + pos_nbytes],
                               n_exc, pos_w).astype(np.int64)
            high = unpack_uints(payload[off + pos_nbytes:], n_exc, high_w)
            z[pos] |= high << np.uint64(w)
        d = (z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))
        out = np.empty(n, dtype=np.uint64)
        out[0] = np.uint64(first)
        np.cumsum(d, out=out[1:])
        out[1:] += np.uint64(first)
        return out.astype(np.int64).astype(dtype)

    def agg_sum(self, payload, n, dtype):
        # same weighted-dot identity as Delta.agg_sum; the exception
        # stream bounds |d| <= 2^(w + high_w - 1), and both guards fall
        # back to decode + exact split-sum
        first, w, n_exc, pos_w, high_w = struct.unpack_from("<qBIBB",
                                                            payload, 0)
        if n == 0:
            return 0
        if n == 1:
            return first
        zw = w + high_w if n_exc else w
        max_abs_d = 1 << max(zw - 1, 0)
        prefix_bound = abs(first) + (n - 1) * max_abs_d
        dot_bound = (n - 1) * (n - 1) * max_abs_d
        if prefix_bound >= (1 << 62) or dot_bound >= (1 << 62):
            return super().agg_sum(payload, n, dtype)
        off = 15
        main_nbytes = ((n - 1) * w + 7) // 8
        z = unpack_uints(payload[off:off + main_nbytes], n - 1, w)
        off += main_nbytes
        if n_exc:
            pos_nbytes = (n_exc * pos_w + 7) // 8
            pos = unpack_uints(payload[off:off + pos_nbytes],
                               n_exc, pos_w).astype(np.int64)
            high = unpack_uints(payload[off + pos_nbytes:], n_exc, high_w)
            z[pos] |= high << np.uint64(w)
        d = ((z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))) \
            .view(np.int64)
        weights = np.arange(n - 1, 0, -1, dtype=np.int64)
        return n * first + int(np.dot(weights, d))


class XorDelta(Codec):
    """XOR-of-previous with chunk-global bit trimming, after the float
    compression scheme in Pelkonen et al., "Gorilla: A Fast, Scalable,
    In-Memory Time Series Database" (VLDB 2015).

    Successive bit patterns of smoothly-varying float streams XOR to
    words with many leading zeros (sign/exponent/high mantissa agree)
    and, on truncated or low-precision data, trailing zeros.  Gorilla
    emits per-value leading/trailing-zero control bits in a bit-serial
    loop; here the trim is CHUNK-GLOBAL — one min-trailing-zeros + one
    max-width reduction — so encode/decode stay single-pass vectorized
    NumPy (the same vectorize-over-per-value-adaptivity trade the
    chunked ALP-RD variants make).  Within a chunk of one value regime
    the global trim loses little; across regimes the selector already
    splits chunks.

    Measured niche vs this module's integer family (which already sees
    float bit patterns): HIGH-cardinality streams whose low mantissa
    bits are ZERO — float32-upcast columns, quantized sensor data —
    where dict loses to cardinality and delta/FOR widths still span the
    dead low bits (2.4x smaller than the best non-xor codec on
    float32-upcast random walks).  On smooth full-precision streams
    delta stays ahead (IEEE bit patterns are order-preserving, so
    integer deltas are already narrow) and the selector keeps it.

    Works on the integer bit patterns the module boundary hands every
    codec (floats arrive as int64/int32 views), and is dtype-agnostic:
    XOR round-trips any integer stream.

    Layout: ``<q first><B T><B w>`` + (n-1) ``w``-bit codes, where code
    = (x[i] ^ x[i-1]) >> T and ``T`` is the chunk-min trailing-zero
    count over the nonzero XOR deltas.
    """

    name = "xor"

    def encode(self, x, vmin=None, vmax=None):
        if len(x) == 0:
            return struct.pack("<qBB", 0, 0, 0)
        u = x.astype(np.uint64)
        first = int(u[:1].view(np.int64)[0])    # two's-complement reinterp
        if len(x) == 1:
            return struct.pack("<qBB", first, 0, 0)
        d = u[1:] ^ u[:-1]
        nz = d[d != 0]
        if len(nz) == 0:
            return struct.pack("<qBB", first, 0, 0)
        # trailing zeros: isolate lowest set bit, min of its position
        lsb = nz & (np.uint64(0) - nz)
        t = int(np.searchsorted(_POW2, int(lsb.min()), side="right")) - 1
        shifted = d >> np.uint64(t)
        w = bit_width(int(shifted.max()))
        return struct.pack("<qBB", first, t, w) + pack_uints(shifted, w)

    def decode(self, payload, n, dtype):
        first, t, w = struct.unpack_from("<qBB", payload, 0)
        if n == 0:
            return np.empty(0, dtype=dtype)
        out = np.empty(n, dtype=np.uint64)
        out[:1] = np.array([first], dtype=np.int64).view(np.uint64)
        out[1:] = unpack_uints(payload[10:], n - 1, w) << np.uint64(t)
        np.bitwise_xor.accumulate(out, out=out)
        return out.view(np.int64).astype(dtype)


def xor_estimate(x_bits: np.ndarray, sample: int = 1024) -> float:
    """Estimated XOR payload bytes from a sampled prefix of the chunk's
    bit patterns (contiguous prefix: XOR deltas need neighbors)."""
    n = len(x_bits)
    if n <= 1:
        return 10.0
    s = x_bits[:sample].astype(np.uint64)
    d = s[1:] ^ s[:-1]
    nz = d[d != 0]
    if len(nz) == 0:
        return 10.0
    lsb = nz & (np.uint64(0) - nz)
    t = int(np.searchsorted(_POW2, int(lsb.min()), side="right")) - 1
    w = bit_width(int((d >> np.uint64(t)).max()))
    return 10 + (n - 1) * w / 8


# powers of ten 10^0..10^18 are exactly representable in float64 (every
# integer < 2^53 is, and 10^18 < 2^60 has <= 53 significant bits).  The
# decode expression divides by 10^e rather than multiplying by the
# inexact reciprocal (the classic ALP implementations multiply for
# speed): IEEE division by the exact power of ten is correctly rounded,
# so digits/100 reproduces string-parsed / round()-produced decimals
# bit-exactly — measured 0% exceptions on 2-decimal data vs ~14% for the
# reciprocal multiply, at the cost of one vectorized divide per chunk.
# Encode's bit-equality check runs against this same expression, so any
# value it can't reproduce becomes a raw-bits exception regardless.
_ALP_F10 = 10.0 ** np.arange(19)
_ALP_IF10 = 1.0 / _ALP_F10
_ALP_MAX_E = {8: 18, 4: 10}          # float32 has < 11 significant digits
_ALP_FLOAT = {8: np.float64, 4: np.float32}
_ALP_SAFE = float(1 << 51)           # |digits| bound: int64-safe w/ margin
_ALP_SAMPLE = 1024


def _alp_sample_idx(n: int) -> np.ndarray:
    """Deterministic sorted sample positions via Fibonacci hashing — a
    fixed stride (n // 1024) aliases with periodic data (e.g. a NaN
    every k rows lands on every sampled slot); the multiplicative
    scatter is stride-free and still reproducible."""
    if n <= _ALP_SAMPLE:
        return np.arange(n, dtype=np.int64)
    idx = (np.arange(_ALP_SAMPLE, dtype=np.uint64)
           * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(n)
    return np.unique(idx.astype(np.int64))


def _alp_reconstruct(digits: np.ndarray, e: int, f: int,
                     itemsize: int) -> np.ndarray:
    """The ONE decode expression (int view of digits * 10^f / 10^e); encode
    tests exactness against exactly this, so encode/decode can never
    disagree."""
    v = digits.astype(np.float64) * _ALP_F10[f] / _ALP_F10[e]
    if itemsize == 4:
        return v.astype(np.float32).view(np.int32)
    return v.view(np.int64)


def _alp_digits(v: np.ndarray, bits: np.ndarray, e: int, f: int,
                itemsize: int) -> tuple[np.ndarray, np.ndarray]:
    """(int64 digits, bool exact-mask) for candidate exponents (e, f)."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.round(v * _ALP_F10[e] * _ALP_IF10[f])
    ok = np.isfinite(d) & (np.abs(d) < _ALP_SAFE)
    di = np.where(ok, d, 0.0).astype(np.int64)
    exact = ok & (_alp_reconstruct(di, e, f, itemsize) == bits)
    return di, exact


def _alp_search(v: np.ndarray, bits: np.ndarray, n_total: int,
                itemsize: int) -> tuple[int, int, float]:
    """Best (e, f) over a sample + estimated full-chunk payload bytes.

    In ALP's decode expression (digits * 10^f / 10^e) only the net decimal
    exponent e - f decides which values reproduce exactly — (e, f) pairs
    with equal difference differ only in rounding edge cases — so the
    search walks e with f = 0 (the payload format still carries both
    fields).  Once some e yields ZERO sample exceptions, every larger e
    multiplies the digit span by 10 (+3.3 bits/value) with exceptions
    already at the floor, so the walk stops — integer-valued floats cost
    one probe, d-decimal values d+1 probes.  After Afroozeh & Boncz,
    "ALP: Adaptive Lossless floating-Point compression" (SIGMOD 2024);
    the exactness check is per-value, so a mis-sampled e still yields a
    correct (merely larger) payload."""
    m = len(v)
    scale = n_total / max(m, 1)
    best = (0, 0, float("inf"))
    for e in range(_ALP_MAX_E[itemsize] + 1):
        di, exact = _alp_digits(v, bits, e, 0, itemsize)
        n_ok = int(np.count_nonzero(exact))
        n_exc = m - n_ok
        if n_ok:
            dv = di[exact]
            w = bit_width(int(dv.max()) - int(dv.min()))
        else:
            w = 0
        cost = (24 + n_total * w / 8
                + n_exc * scale * (4 + itemsize))
        if cost < best[2]:
            best = (e, 0, cost)
        if n_exc == 0:
            break
    return best


class Alp(Codec):
    """ALP-style adaptive lossless floating-point codec (after Afroozeh &
    Boncz, SIGMOD 2024): values that are really scaled decimals — prices,
    rates, measurements — are stored as the integers ``round(x * 10^e) /
    10^f``, sub-encoded with this module's integer codecs (FOR/PFOR/RLE/
    dict via the auto-selector), plus a raw-bit-pattern exception stream
    for values the (e, f) transform can't reproduce BIT-exactly (NaN
    payloads, -0.0, true binary fractions).  Decode is one integer decode,
    one fused multiply, one exception scatter.

    Like every codec here it receives the column as its integer BIT
    PATTERN (see module ``encode``) and views back to float internally;
    non-float-origin input still round-trips (everything lands in the
    exception stream) but never wins selection.

    Layout: ``<B e><B f><B clen><I n_exc><Q inner_len>`` + inner-codec
    name + inner digit payload + n_exc uint32 positions + n_exc raw
    bit-pattern values.
    """

    name = "alp"

    _HDR = struct.Struct("<BBBIQ")

    def encode(self, x, vmin=None, vmax=None):
        it = x.dtype.itemsize
        if it not in _ALP_FLOAT:
            raise ValueError("alp supports 4/8-byte (float-view) input")
        n = len(x)
        if n == 0:
            return self._HDR.pack(0, 0, 5, 0, 0) + b"plain"
        bits = x.astype(np.int64) if it == 8 else x.astype(np.int32)
        v = bits.view(_ALP_FLOAT[it]).astype(np.float64)
        sidx = _alp_sample_idx(n)
        e, f, _ = _alp_search(v[sidx], bits[sidx], n, it)
        digits, exact = _alp_digits(v, bits, e, f, it)
        exc_pos = np.flatnonzero(~exact).astype(np.uint32)
        if len(exc_pos):
            # park exceptions on a valid digit so they don't widen the
            # inner codec's span
            fill = digits[np.argmax(exact)] if exact.any() else np.int64(0)
            exc_raw = np.ascontiguousarray(bits[exc_pos.astype(np.int64)])
            digits[exc_pos.astype(np.int64)] = fill
        else:
            exc_raw = bits[:0]
        from tokrle.select import auto_encode  # runtime import: no cycle

        inner_codec, inner, _prof = auto_encode(digits)
        head = self._HDR.pack(e, f, len(inner_codec), len(exc_pos),
                              len(inner))
        return (head + inner_codec.encode("ascii") + inner
                + exc_pos.tobytes() + exc_raw.tobytes())

    def _parse(self, payload):
        e, f, clen, n_exc, inner_len = self._HDR.unpack_from(payload, 0)
        off = self._HDR.size
        codec = bytes(payload[off:off + clen]).decode("ascii")
        off += clen
        inner = payload[off:off + inner_len]
        off += inner_len
        pos = np.frombuffer(payload, dtype=np.uint32, count=n_exc,
                            offset=off).astype(np.int64)
        off += 4 * n_exc
        return e, f, codec, inner, pos, off

    def decode(self, payload, n, dtype):
        dtype = np.dtype(dtype)
        if n == 0:
            return np.empty(0, dtype=dtype)
        e, f, codec, inner, pos, off = self._parse(payload)
        digits = decode(codec, inner, n, np.int64)
        out = _alp_reconstruct(digits, e, f, dtype.itemsize)
        if len(pos):
            raw = np.frombuffer(payload, dtype=out.dtype, count=len(pos),
                                offset=off)
            out[pos] = raw
        return out.astype(dtype)

    def decode_range(self, payload, n, dtype, start, stop):
        dtype = np.dtype(dtype)
        e, f, codec, inner, pos, off = self._parse(payload)
        digits = decode_range(codec, inner, n, np.int64, start, stop)
        out = _alp_reconstruct(digits, e, f, dtype.itemsize)
        if len(pos):
            lo, hi = np.searchsorted(pos, [start, stop])
            raw = np.frombuffer(payload, dtype=out.dtype, count=len(pos),
                                offset=off)
            out[pos[lo:hi] - start] = raw[lo:hi]
        return out.astype(dtype)


def alp_estimate(x_bits: np.ndarray) -> float:
    """Sample-estimated ALP payload bytes for a float column given as its
    integer bit-pattern view; used by the auto-selector's float branch."""
    it = x_bits.dtype.itemsize
    n = len(x_bits)
    if it not in _ALP_FLOAT or n == 0:
        return float("inf")
    bits = x_bits.astype(np.int64) if it == 8 else x_bits.astype(np.int32)
    v = bits.view(_ALP_FLOAT[it]).astype(np.float64)
    sidx = _alp_sample_idx(n)
    return _alp_search(v[sidx], bits[sidx], n, it)[2]


class Fsst(Codec):
    """FSST-style trained multi-byte symbol codec (Boncz/Neumann/Leis,
    "FSST: Fast Random Access String Compression", VLDB 2020) with
    HIERARCHICAL ALIGNED windows so both directions stay fully vectorized
    in NumPy.

    The chunk's raw bytes are zero-padded to a multiple of 8 and scanned at
    three aligned granularities: the ≤254 most frequent 8-byte words become
    1-byte codes; blocks that miss split into two 4-byte words matched
    against a trained 4-byte table; remaining 4-byte misses split into two
    2-byte words against a 2-byte table; final misses are stored as 2-byte
    literals.  Per level an explicit hit bitmap replaces FSST's in-band
    escape byte, so decode is three vectorized scatters.

    Divergence from FSST-proper (documented, deliberate): symbols are
    trained per level from aligned-window frequencies and matched at
    aligned offsets, instead of FSST's greedy longest-match parse at
    arbitrary offsets (inherently sequential, not expressible as NumPy
    kernels).  Effective symbol lengths still span 2-8 bytes and the table
    is trained from the data, closing the fixed-2-byte gap of the earlier
    fsst-lite.

    Layout: ``<Q nbytes><H k8><H k4><H k2>`` + k8*8B + k4*4B + k2*2B tables
    + bm8 + codes8 + bm4 + codes4 + bm2 + codes2 + 2-byte literals.
    """

    name = "fsst"
    MAX_SYMBOLS = 254
    _DTYPES = {8: np.uint64, 4: np.uint32, 2: np.uint16}
    # symbol tables are trained on a strided sample past this many words —
    # like FSST-proper's sampled training, it caps the O(n log n) unique()
    # cost on huge chunks while matching still covers every word
    TRAIN_SAMPLE = 1 << 16

    @classmethod
    def _train(cls, words: np.ndarray, width: int):
        """Top symbols by aligned-window frequency; a symbol must save more
        than its table cost: count*(width-1) > width  =>  count >= 2."""
        if len(words) == 0:
            return np.empty(0, dtype=cls._DTYPES[width])
        if len(words) > 4 * cls.TRAIN_SAMPLE:
            words = words[:: len(words) // cls.TRAIN_SAMPLE]
        uniq, counts = np.unique(words, return_counts=True)
        # deterministic tie-break: (-count, value)
        order = np.lexsort((uniq, -counts))[: cls.MAX_SYMBOLS]
        keep = counts[order] * (width - 1) > width
        return np.sort(uniq[order[keep]])

    @staticmethod
    def _match(words: np.ndarray, table: np.ndarray):
        if len(table) == 0 or len(words) == 0:
            return (np.zeros(len(words), dtype=bool),
                    np.empty(0, dtype=np.uint8))
        idx = np.searchsorted(table, words)
        idx_c = np.clip(idx, 0, len(table) - 1)
        hit = table[idx_c] == words
        return hit, idx_c[hit].astype(np.uint8)

    def encode(self, x, vmin=None, vmax=None):
        raw = np.frombuffer(x.tobytes(), dtype=np.uint8)
        nbytes = len(raw)
        if nbytes % 8:
            raw = np.concatenate(
                [raw, np.zeros(8 - nbytes % 8, dtype=np.uint8)])
        if len(raw) == 0:
            return struct.pack("<QHHH", 0, 0, 0, 0)
        w8 = raw.view(np.uint64)
        t8 = self._train(w8, 8)
        hit8, codes8 = self._match(w8, t8)
        w4 = w8[~hit8].view(np.uint32)      # misses split into 2x4B
        t4 = self._train(w4, 4)
        hit4, codes4 = self._match(w4, t4)
        w2 = w4[~hit4].view(np.uint16)      # misses split into 2x2B
        t2 = self._train(w2, 2)
        hit2, codes2 = self._match(w2, t2)
        literals = w2[~hit2]
        parts = [struct.pack("<QHHH", nbytes, len(t8), len(t4), len(t2)),
                 t8.tobytes(), t4.tobytes(), t2.tobytes()]
        for hit, codes in ((hit8, codes8), (hit4, codes4), (hit2, codes2)):
            parts.append(np.packbits(hit, bitorder="little").tobytes())
            parts.append(codes.tobytes())
        parts.append(literals.tobytes())
        return b"".join(parts)

    def decode(self, payload, n, dtype):
        nbytes, k8, k4, k2 = struct.unpack_from("<QHHH", payload, 0)
        if nbytes == 0:
            return np.empty(0, dtype=dtype)
        off = 14
        t8 = np.frombuffer(payload, dtype=np.uint64, count=k8, offset=off)
        off += 8 * k8
        t4 = np.frombuffer(payload, dtype=np.uint32, count=k4, offset=off)
        off += 4 * k4
        t2 = np.frombuffer(payload, dtype=np.uint16, count=k2, offset=off)
        off += 2 * k2
        n8 = (nbytes + 7) // 8

        def level(count):
            nonlocal off
            bm_len = (count + 7) // 8
            hit = np.unpackbits(
                np.frombuffer(payload, dtype=np.uint8, count=bm_len,
                              offset=off),
                count=count, bitorder="little").astype(bool)
            off += bm_len
            nhits = int(hit.sum())
            codes = np.frombuffer(payload, dtype=np.uint8, count=nhits,
                                  offset=off)
            off += nhits
            return hit, codes

        hit8, codes8 = level(n8)
        n4 = 2 * (n8 - int(hit8.sum()))
        hit4, codes4 = level(n4)
        n2 = 2 * (n4 - int(hit4.sum()))
        hit2, codes2 = level(n2)
        literals = np.frombuffer(payload, dtype=np.uint16,
                                 count=n2 - int(hit2.sum()), offset=off)
        w2 = np.empty(n2, dtype=np.uint16)
        w2[hit2] = t2[codes2]
        w2[~hit2] = literals
        w4 = np.empty(n4, dtype=np.uint32)
        w4[hit4] = t4[codes4]
        w4[~hit4] = w2.view(np.uint32)
        w8 = np.empty(n8, dtype=np.uint64)
        w8[hit8] = t8[codes8]
        w8[~hit8] = w4.view(np.uint64)
        raw = w8.view(np.uint8)[:nbytes]
        return np.frombuffer(raw.tobytes(), dtype=dtype,
                             count=n if n else len(raw) // np.dtype(
                                 dtype).itemsize).copy()


class FsstGreedy(Codec):
    """FSST-proper semantics: trained 2-8-byte symbols matched GREEDILY at
    ARBITRARY byte offsets (Boncz/Neumann/Leis, VLDB 2020), fully
    vectorized in NumPy.

    The sequential bottleneck of FSST's parse — each token's start depends
    on the previous token's length — is removed by resolving the greedy
    chain ``next[p] = p + longest_match_len[p]`` with POINTER DOUBLING:
    within fixed ``BLOCK``-byte sub-blocks, ``D = D[D]`` applied
    ``ceil(log2(BLOCK))`` times marks exactly the positions the greedy
    left-to-right parse visits, so the whole parse is ~13 vectorized
    gather passes instead of a per-byte Python/C loop.  Symbols never span
    a sub-block boundary (costs <=7 potential match bytes per 4 KiB).

    Training follows the paper's shape: sampled substring candidates per
    length, then iterative refinement — parse the sample with the
    candidate table, count REAL symbol usage, keep symbols whose usage
    gain beats their table cost, repeat.  Misses are emitted as 1-byte
    literals flagged by an explicit token bitmap (replacing FSST's in-band
    escape byte, which would force sequential decode).

    Layout: ``<Q nbytes><B nsym>`` + nsym len bytes + packed symbol bytes
    + ``<Q ntokens>`` + token-hit bitmap + 1-byte codes (hits) + literal
    bytes (misses).
    """

    name = "fsstg"
    MAX_SYMBOLS = 255
    BLOCK = 4096
    TRAIN_SAMPLE = 1 << 16     # max sampled positions for candidate counts
    CAND_PER_LEN = 512
    REFINE_ROUNDS = 2

    @staticmethod
    def _w8(raw: np.ndarray) -> np.ndarray:
        """Little-endian uint64 view of the 8 bytes starting at every
        position (zero-padded past the end): ONE (n,8) sliding-window copy
        (~9n bytes of traffic) instead of eight shift-or accumulation
        passes (~190n)."""
        n = len(raw)
        p = np.concatenate([raw, np.zeros(8, dtype=np.uint8)])
        win = np.lib.stride_tricks.sliding_window_view(p, 8)[:n]
        return np.ascontiguousarray(win).view(np.uint64).ravel()

    @staticmethod
    def _mask(L: int) -> np.uint64:
        return np.uint64((1 << (8 * L)) - 1) if L < 8 else np.uint64(2**64 - 1)

    @classmethod
    def _match_longest(cls, w8: np.ndarray, n: int, tables: dict):
        """Per-position longest symbol match: len_at (1 = literal) and
        code_at.  Matches may not cross a BLOCK boundary or the end.

        A 64Ki-entry LUT over each position's first TWO bytes (every
        symbol is >=2 bytes, so its 2-byte prefix is a necessary
        condition) prunes the per-length searchsorted passes to the
        positions whose prefix actually starts a symbol of that length —
        on diverse data the per-L candidate sets are a small fraction
        of n."""
        len_at = np.ones(n, dtype=np.uint8)
        code_at = np.zeros(n, dtype=np.uint8)
        if not tables:
            return len_at, code_at
        lenbits = np.zeros(1 << 16, dtype=np.uint8)
        for L, (tbl, _) in tables.items():
            pref = (tbl & np.uint64(0xFFFF)).astype(np.int64)
            lenbits[pref] |= np.uint8(1 << (L - 2))
        # 2-byte prefix straight from the word array, uint16 temps only
        # (uint16 fancy-indexes the LUT directly — no int64 blow-up)
        pbits = lenbits[w8.astype(np.uint16)]
        cand = np.flatnonzero(pbits)          # positions with any prefix hit
        if len(cand) == 0:
            return len_at, code_at
        cbits = pbits[cand]
        cw8 = w8[cand]
        crel = (cand % cls.BLOCK).astype(np.int32)
        unset = np.ones(len(cand), dtype=bool)
        for L in range(8, 1, -1):
            entry = tables.get(L)
            if not entry:
                continue
            tbl, gcodes = entry
            sub = np.flatnonzero(unset & (cbits & np.uint8(1 << (L - 2))
                                          ).astype(bool))
            if len(sub) == 0:
                continue
            m = cw8[sub] & cls._mask(L)
            idx = np.minimum(np.searchsorted(tbl, m), len(tbl) - 1)
            ok = tbl[idx] == m
            ok &= crel[sub] <= cls.BLOCK - L
            ok &= cand[sub] <= n - L
            hitpos = sub[ok]
            len_at[cand[hitpos]] = L
            code_at[cand[hitpos]] = gcodes[idx[ok]]
            unset[hitpos] = False
        return len_at, code_at

    @classmethod
    def _parse(cls, len_at: np.ndarray, n: int) -> np.ndarray:
        """Greedy-parse start positions via pointer doubling per sub-block.

        S_{k+1} = S_k ∪ D_k[S_k] with D_0[p] = p + len_at[p] marks every
        position reached in < 2^k steps; after ceil(log2(BLOCK+1)) rounds
        S covers the full chain."""
        B = cls.BLOCK
        Bp = B + 1
        nb = -(-n // B)
        total = nb * B
        la = np.ones(total, dtype=np.int16)
        la[:n] = len_at
        D = np.empty((nb, Bp), dtype=np.int16)      # int16: halve the
        D[:, :B] = (la.reshape(nb, B)               # doubling traffic
                    + np.arange(B, dtype=np.int16)[None, :])
        D[:, B] = B                                 # absorbing terminal
        s = np.zeros(nb * Bp, dtype=bool)
        idx = np.arange(nb, dtype=np.int64) * Bp    # col 0 of every block
        s[idx] = True
        for _ in range(Bp.bit_length()):
            col = D.reshape(-1)[idx].astype(np.int64)
            keep = col < B                          # drop absorbed chains
            tgt = idx[keep] - idx[keep] % Bp + col[keep]
            fresh = tgt[~s[tgt]]
            if len(fresh) == 0:                     # D[S] ⊆ S: fixpoint
                break
            s[fresh] = True
            idx = np.concatenate([idx, fresh])
            D = np.take_along_axis(D, D, axis=1)
        return s.reshape(nb, Bp)[:, :B].reshape(-1)[:n]

    @classmethod
    def _tables_from(cls, vals: np.ndarray, lens: np.ndarray) -> dict:
        tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for L in range(2, 9):
            sel = np.flatnonzero(lens == L)
            if len(sel):
                order = np.argsort(vals[sel])
                tables[L] = (vals[sel][order],
                             sel[order].astype(np.uint8))
        return tables

    @classmethod
    def _train(cls, raw: np.ndarray, w8: np.ndarray):
        """Sampled candidates -> iterative refinement against the real
        greedy parse of a contiguous-window sample (paper section 3.2's
        recounting loop, vectorized)."""
        n = len(raw)
        stride = max(1, n // cls.TRAIN_SAMPLE)
        sw = w8[::stride]
        cand_vals, cand_lens, cand_gain = [], [], []
        for L in range(2, 9):
            m = sw & cls._mask(L)
            uniq, cnt = np.unique(m, return_counts=True)
            order = np.lexsort((uniq, -cnt))[: cls.CAND_PER_LEN]
            gain = cnt[order].astype(np.int64) * (L - 1) * stride - (1 + L)
            keep = gain > 0
            cand_vals.append(uniq[order[keep]])
            cand_lens.append(np.full(int(keep.sum()), L, dtype=np.uint8))
            cand_gain.append(gain[keep])
        vals = np.concatenate(cand_vals) if cand_vals else \
            np.empty(0, dtype=np.uint64)
        lens = np.concatenate(cand_lens) if cand_lens else \
            np.empty(0, dtype=np.uint8)
        gains = np.concatenate(cand_gain) if cand_gain else \
            np.empty(0, dtype=np.int64)
        if len(vals) == 0:
            return {}, vals, lens
        top = np.lexsort((vals, lens.astype(np.int64), -gains))
        vals, lens = vals[top[: cls.MAX_SYMBOLS]], lens[top[: cls.MAX_SYMBOLS]]
        # contiguous sample blocks for refinement (adjacency preserved so
        # the real parse runs on them)
        B = cls.BLOCK
        nb = max(1, min(16, n // B)) if n >= B else 1
        starts = (np.linspace(0, max(n - B, 0), nb).astype(np.int64)
                  // B * B)
        starts = np.unique(starts)
        seg = np.concatenate([raw[s:s + B] for s in starts])
        sw8 = cls._w8(seg)
        scale = max(1.0, n / max(len(seg), 1))
        for _ in range(cls.REFINE_ROUNDS):
            tables = cls._tables_from(vals, lens)
            len_at, code_at = cls._match_longest(sw8, len(seg), tables)
            pmask = cls._parse(len_at, len(seg))
            tok = np.flatnonzero(pmask)
            hits = tok[len_at[tok] > 1]
            usage = np.bincount(code_at[hits], minlength=len(vals))
            gain = (usage * (lens.astype(np.int64) - 1) * scale
                    - (1 + lens.astype(np.int64)))
            keep = gain > 0
            if keep.all() or not keep.any():
                vals, lens, gains = vals[keep], lens[keep], gain[keep]
                break
            order = np.lexsort((vals[keep], lens[keep].astype(np.int64),
                                -gain[keep]))
            vals = vals[keep][order][: cls.MAX_SYMBOLS]
            lens = lens[keep][order][: cls.MAX_SYMBOLS]
        # canonical final order: (len, value) so codes are deterministic
        order = np.lexsort((vals, lens))
        vals, lens = vals[order], lens[order]
        return cls._tables_from(vals, lens), vals, lens

    @staticmethod
    def _sym_matrix(vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """(nsym, 8) little-endian byte matrix of the symbol values."""
        return vals.astype("<u8").view(np.uint8).reshape(len(vals), 8)

    def encode(self, x, vmin=None, vmax=None):
        raw = np.frombuffer(x.tobytes(), dtype=np.uint8)
        n = len(raw)
        if n == 0:
            return struct.pack("<QB", 0, 0) + struct.pack("<Q", 0)
        w8 = self._w8(raw)
        tables, vals, lens = self._train(raw, w8)
        len_at, code_at = self._match_longest(w8, n, tables)
        pmask = self._parse(len_at, n)
        tok = np.flatnonzero(pmask)
        tlens = len_at[tok]
        hit = tlens > 1
        codes = code_at[tok[hit]]
        lits = raw[tok[~hit]]
        mat = self._sym_matrix(vals, lens)
        col = np.arange(8, dtype=np.uint8)
        packed_syms = mat[col[None, :] < lens[:, None]]  # row-major ragged
        parts = [struct.pack("<QB", n, len(vals)), lens.tobytes(),
                 packed_syms.tobytes(), struct.pack("<Q", len(tok)),
                 np.packbits(hit, bitorder="little").tobytes(),
                 codes.tobytes(), lits.tobytes()]
        return b"".join(parts)

    def decode(self, payload, n, dtype):
        nbytes, nsym = struct.unpack_from("<QB", payload, 0)
        off = 9
        lens = np.frombuffer(payload, dtype=np.uint8, count=nsym, offset=off)
        off += nsym
        symlen_total = int(lens.sum())
        symflat = np.frombuffer(payload, dtype=np.uint8, count=symlen_total,
                                offset=off)
        off += symlen_total
        mat = np.zeros((nsym, 8), dtype=np.uint8)
        col = np.arange(8, dtype=np.uint8)
        mat[col[None, :] < lens[:, None]] = symflat
        (ntok,) = struct.unpack_from("<Q", payload, off)
        off += 8
        if nbytes == 0:
            return np.empty(0, dtype=dtype)
        bm_len = (ntok + 7) // 8
        hit = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=bm_len, offset=off),
            count=ntok, bitorder="little").astype(bool)
        off += bm_len
        nhit = int(hit.sum())
        codes = np.frombuffer(payload, dtype=np.uint8, count=nhit, offset=off)
        off += nhit
        lits = np.frombuffer(payload, dtype=np.uint8, count=ntok - nhit,
                             offset=off)
        codes_full = np.zeros(ntok, dtype=np.uint8)
        codes_full[hit] = codes
        tlens = (np.where(hit, lens[codes_full], 1).astype(np.int64)
                 if nsym else np.ones(ntok, dtype=np.int64))
        offs = np.empty(ntok + 1, dtype=np.int64)
        offs[0] = 0
        np.cumsum(tlens, out=offs[1:])
        out = np.empty(nbytes, dtype=np.uint8)
        out[offs[:-1][~hit]] = lits
        ho = offs[:-1][hit]
        hc = codes_full[hit]
        hl = tlens[hit]
        for j in range(8):
            sel = hl > j
            out[ho[sel] + j] = mat[hc[sel], j]
        return np.frombuffer(out.tobytes(), dtype=dtype,
                             count=n if n else nbytes // np.dtype(
                                 dtype).itemsize).copy()


CODECS: dict[str, Codec] = {
    c.name: c
    for c in [Plain(), BitPack(), FrameOfReference(), Dictionary(),
              RunLength(), Delta(), PatchedFor(), DeltaPfor(), XorDelta(),
              Alp(), Fsst(), FsstGreedy()]
}


# float inputs are encoded as their integer BIT PATTERNS (same width), so
# every codec round-trips them exactly (NaN payloads, -0.0, infinities)
# and repeated-value float columns still get rle/dict compression.  The
# numeric codecs' arithmetic (deltas, refs) is meaningless on float bits
# EXCEPT as a reversible transform — which is all a round-trip needs.
_FLOAT_VIEW = {2: np.int16, 4: np.int32, 8: np.int64}


_U64_BIAS = np.uint64(1 << 63)


def u64_to_i64(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """uint64 -> the int64 domain the codecs encode, plus the bias flag.

    Values all < 2^63 view as int64 unchanged (non-negative, so bitpack
    and friends keep working); otherwise xor-ing the top bit is the
    order-preserving bijection onto int64, so every signed codec path
    (refs, deltas, zigzag) applies and full-range hash/signature columns
    no longer overflow the stream headers.  The flag rides as ONE framing
    byte ahead of the codec payload (see :func:`encode`)."""
    biased = bool(len(x)) and int(x.max()) >= (1 << 63)
    y = (x ^ _U64_BIAS).view(np.int64) if biased else x.view(np.int64)
    return y, biased


def _stream_dtype(dtype, fn: str | None = None,
                  kinds: str = "iumM") -> np.dtype:
    """The dtype of the codec stream behind a ``dtype`` column: a float
    is its same-width integer BIT PATTERN, datetime64/timedelta64 their
    exact int64 counts, uint64 the int64 image of :func:`u64_to_i64`.
    With ``fn`` given, a dtype whose kind is not in ``kinds`` raises
    ``TypeError`` naming ``fn``: the compressed-domain entry points are
    integer-only (float equality and float sums are not stable across
    engines, so they stay out of the exact contract)."""
    dtype = np.dtype(dtype)
    if fn is not None and dtype.kind not in kinds:
        raise TypeError(f"{fn} is integer-only, got {dtype}")
    if dtype.kind == "f":
        return np.dtype(_FLOAT_VIEW[dtype.itemsize])
    if dtype.kind in "mM" or dtype == np.uint64:
        return np.dtype(np.int64)
    return dtype


def _stream(payload, dtype, fn: str | None = None, kinds: str = "iumM"):
    """The one dtype step of the entry points that read a payload:
    ``(codec payload, stream dtype, bias)``, where a stream value plus
    ``bias`` is the column value.  A uint64 payload loses the framing
    byte :func:`encode` put ahead of it, and ``bias`` is 2^63 when that
    byte says the stream is xor-2^63-biased, else 0.  The bias is an
    order-preserving shift: sums, bounds and targets move by the same
    constant, POSITIONS and sort order don't."""
    sdt = _stream_dtype(dtype, fn, kinds)
    if np.dtype(dtype) != np.uint64:
        return payload, sdt, 0
    return memoryview(payload)[1:], sdt, (1 << 63) if payload[0] else 0


def _from_stream(x: np.ndarray, dtype, bias: int) -> np.ndarray:
    """Decoded stream values -> column values (inverse of :func:`_stream`)."""
    if bias:
        x = x.view(np.uint64) ^ _U64_BIAS
    return x.view(dtype)


def encode(codec: str, x: np.ndarray, vmin: int | None = None,
           vmax: int | None = None) -> bytes:
    x = np.ascontiguousarray(x)
    if x.dtype.kind == "f":
        vmin = vmax = None      # caller bounds were numeric, not bit-view
    if x.dtype != np.uint64:
        return CODECS[codec].encode(x.view(_stream_dtype(x.dtype)),
                                    vmin, vmax)
    x, biased = u64_to_i64(x)
    if biased:
        vmin = None if vmin is None else int(vmin) - (1 << 63)
        vmax = None if vmax is None else int(vmax) - (1 << 63)
    return bytes([int(biased)]) + CODECS[codec].encode(x, vmin, vmax)


def decode(codec: str, payload: bytes, n: int, dtype) -> np.ndarray:
    payload, sdt, bias = _stream(payload, dtype)
    return _from_stream(CODECS[codec].decode(payload, n, sdt), dtype, bias)


def decode_range(codec: str, payload: bytes, n: int, dtype,
                 start: int, stop: int) -> np.ndarray:
    """Decode only flat positions ``[start, stop)`` of a chunk — random
    access into the compressed payload.  O(stop - start) bytes touched
    for the bit-addressable codecs (plain/bitpack/for/dict/pfor: every
    8-value group starts on a byte boundary); the sequential codecs
    (rle/delta/fsst*) fall back to full decode + slice."""
    stop = min(n, stop)
    start = min(max(0, start), stop)
    if stop <= start:
        return np.empty(0, dtype=dtype)
    payload, sdt, bias = _stream(payload, dtype)
    c = CODECS[codec]
    fn = getattr(c, "decode_range", None)
    out = (fn(payload, n, sdt, start, stop) if fn is not None
           else c.decode(payload, n, sdt)[start:stop].copy())
    return _from_stream(out, dtype, bias)


def gather_runs(codec: str, payload: bytes, n: int, dtype,
                starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Decode ONLY the positions inside a canonical selection run-list
    (as produced by :func:`match_eq` / :func:`match_range`) — late
    materialization for predicate scans.  Bit-addressable codecs
    (plain/bitpack/for/dict/pfor) fetch each run via
    :func:`decode_range`, touching O(selected) payload bytes; the
    sequential codecs (rle/delta/fsst*) decode once and gather, never
    once per run.  Concatenated in position order."""
    dtype = np.dtype(dtype)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if n == 0 or len(starts) == 0:
        return np.empty(0, dtype=dtype)
    has_ra = getattr(
        CODECS[codec], "decode_range", None) is not None
    total = int(lengths.sum())
    # per-run random access only pays when the codec supports it AND
    # the selection is sparse; otherwise one decode + vectorized gather
    if has_ra and total * 4 < n:
        parts = [decode_range(codec, payload, n, dtype, int(s),
                              int(s + ln))
                 for s, ln in zip(starts, lengths)]
        return np.concatenate(parts)
    return decode(codec, payload, n, dtype)[
        _runs_to_indices(starts, lengths)]


def agg_sum(codec: str, payload: bytes, n: int, dtype) -> int:
    """Exact integer SUM of an encoded chunk, computed in the compressed
    domain where the codec's streams allow it (rle: runs x values over
    nruns elements; dict: code histogram x dictionary; for/pfor: ref*n +
    code sums; delta: a weighted dot over the deltas) and by decode +
    exact split-sum otherwise.  Integer dtypes only — float sums are not
    associativity-stable across engines, so they stay out of the exact
    aggregate contract (use decode + your own float reduction)."""
    payload, sdt, bias = _stream(payload, dtype, "agg_sum", "iu")
    if n == 0:
        return 0
    return CODECS[codec].agg_sum(payload, n, sdt) + n * bias


def _match_range(fn: str, codec: str, payload: bytes, n: int, dtype,
                 lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`match_range` with ``fn`` named in its ``TypeError``.  The
    bounds shift into stream terms and clamp to the stream dtype's
    domain; a window no stream value can lie in never touches the
    payload."""
    payload, sdt, bias = _stream(payload, dtype, fn)
    info = np.iinfo(sdt)
    lo = max(int(lo) - bias, int(info.min))
    hi = min(int(hi) - bias, int(info.max))
    if n == 0 or lo > hi:
        return _EMPTY_RUNS
    return CODECS[codec].match_range(payload, n, sdt, lo, hi)


def count_eq(codec: str, payload: bytes, n: int, dtype,
             value: int) -> int:
    """Exact COUNT of elements equal to ``value`` in an encoded chunk:
    the summed lengths of :func:`match_eq`'s runs, so it takes the same
    compressed-domain paths and the same integer/datetime contract.  A
    ``value`` outside the dtype's domain answers 0 without touching the
    payload."""
    return int(_match_range("count_eq", codec, payload, n, dtype,
                            value, value)[1].sum())


def count_range(codec: str, payload: bytes, n: int, dtype,
                lo: int, hi: int) -> int:
    """Exact COUNT of elements in ``[lo, hi]`` (inclusive) in an encoded
    chunk: the summed lengths of :func:`match_range`'s runs, same
    contract and bound clamping."""
    return int(_match_range("count_range", codec, payload, n, dtype,
                            lo, hi)[1].sum())


def distinct_values(codec: str, payload: bytes, n: int,
                    dtype) -> np.ndarray:
    """Sorted unique values of an encoded chunk, answered from the
    codec's own streams where possible (dict: the dictionary stream IS
    the distinct set, zero code-stream work; rle: unique of the
    O(#runs) value stream) and by decode + np.unique otherwise.
    Integer and datetime dtypes only, same contract as
    :func:`match_range`."""
    payload, sdt, bias = _stream(payload, dtype, "distinct_values")
    if n == 0:
        return np.empty(0, dtype=dtype)
    return _from_stream(CODECS[codec].distinct(payload, n, sdt), dtype,
                        bias)


def value_counts(codec: str, payload: bytes, n: int,
                 dtype) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-chunk histogram (sorted unique values, int64 counts)
    of an encoded chunk, from the codec's own streams where possible
    (dict: dictionary + one bincount over the narrow code stream; rle:
    run-length fold per unique run value in O(#runs log #runs)) and by
    decode + np.unique(return_counts) otherwise.  Same integer/datetime
    contract and uint64 bias framing as :func:`distinct_values`."""
    payload, sdt, bias = _stream(payload, dtype, "value_counts")
    if n == 0:
        return (np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))
    vals, counts = CODECS[codec].value_counts(payload, n, sdt)
    return _from_stream(vals, dtype, bias), counts


def match_eq(codec: str, payload: bytes, n: int, dtype,
             value: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list (starts, lengths; int64, sorted,
    gap-separated) of the positions equal to ``value`` in an encoded
    chunk: :func:`match_range` over ``[value, value]``, so rle's
    matching runs ARE the selection runs in O(#runs), dict compares the
    narrow code stream after its dictionary searchsorted, and
    for/bitpack answer empty payload-free outside the frame window.
    Out-of-domain values answer empty without touching the payload."""
    return _match_range("match_eq", codec, payload, n, dtype, value, value)


def match_range(codec: str, payload: bytes, n: int, dtype,
                lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions whose value lies in
    ``[lo, hi]`` (inclusive) — the one positional integer predicate
    (:meth:`Codec.match_range`: rle O(#runs) with adjacent-match
    coalescing; dict a searchsorted code window; for/bitpack empty or
    the full chunk payload-free).  Integer and datetime dtypes (a
    datetime bound is its int64 count); bounds are clamped to the
    dtype's domain and a uint64 window shifts with the stream's bias,
    so an empty window answers without touching the payload."""
    return _match_range("match_range", codec, payload, n, dtype, lo, hi)


def match_in(codec: str, payload: bytes, n: int, dtype,
             targets) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions whose value is in
    ``targets`` (any iterable of ints) — the IN-list / semi-join
    predicate, answered in the compressed domain where the codec's
    streams allow it (rle: O(#runs) value test + adjacent-match
    coalescing; dict: sorted-set intersection + one boolean-table
    lookup over the narrow code stream).  Same integer/datetime
    contract and uint64 bias framing as :func:`match_range`;
    out-of-domain targets are dropped, an empty surviving set answers
    empty without touching the payload."""
    payload, sdt, bias = _stream(payload, dtype, "match_in")
    info = np.iinfo(sdt)
    tgt = [t for t in sorted({int(t) - bias for t in targets})
           if info.min <= t <= info.max]
    if n == 0 or not tgt:
        return _EMPTY_RUNS
    return CODECS[codec].match_in(payload, n, sdt,
                                  np.array(tgt, dtype=np.int64))


def match_eq_str(spec: str, lens_payload: bytes, text_payload: bytes,
                 n: int, value: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions where a STRING chunk equals
    ``value`` — the string-equality predicate leaf, the one-value case
    of :func:`match_in_str`.  ``spec`` is the table-encode string codec
    spec (``"str:<lens_codec>:<text_codec>"``, see
    tokrle/pipelines/table_encode.py).  The integer LENGTHS stream is
    the compressed-domain prefilter: a chunk with no row of the right
    byte length (:func:`count_eq`, the summed runs of one
    :func:`match_range` over the narrow lengths payload, is 0) answers
    empty without ever decoding its text bytes.
    Surviving chunks decode lengths + flat bytes and byte-compare only
    the length-matching candidate rows, vectorized.  On a nullable
    chunk the null slots hold the encoder's ``''`` filler and match
    like any ``''`` row: the caller intersects the matches with the
    validity runs (three-valued logic, which also keeps ``NOT`` over
    this leaf sound — SQL's ``<>`` excludes NULLs).  ``sdict:`` chunks
    answer on the CODE stream: the value maps to its dictionary code
    (or misses entirely) and :func:`match_in` runs on the integer
    codes — the text bytes are never touched."""
    return match_in_str(spec, lens_payload, text_payload, n, [value])


def sdict_pack(codes_payload: bytes, dlens_payload: bytes,
               dbytes_payload: bytes, n_distinct: int) -> bytes:
    """Frame a STRING-DICTIONARY chunk payload: the distinct set's
    lengths + flat bytes ride ahead of the code stream so every reader
    can unpack the (small) dictionary without a second field.  Layout:
    ``u32 n_distinct | u32 len(dlens) | dlens | u32 len(dbytes) |
    dbytes | codes``.  The codec spec carrying it is
    ``"sdict:<codes_codec>:<dlens_codec>:<dtext_codec>"``; the chunk's
    ``__lens_payload`` still holds the PER-ROW byte lengths (so the
    lengths-stream prefilters work unchanged on sdict chunks)."""
    head = np.array([n_distinct, len(dlens_payload)],
                    dtype=np.uint32).tobytes()
    mid = np.array([len(dbytes_payload)], dtype=np.uint32).tobytes()
    return head + bytes(dlens_payload) + mid + bytes(dbytes_payload) \
        + bytes(codes_payload)


def sdict_unpack(spec: str, payload: bytes):
    """Inverse of :func:`sdict_pack`: ``(codes_codec, codes_payload,
    dlens int64[k], dbytes uint8[...])`` with the distinct set decoded
    (it is small by construction — the encoder only picks sdict for
    low-cardinality chunks)."""
    _, ccodec, lcodec, tcodec = spec.split(":", 3)
    mv = memoryview(payload)
    k, llen = (int(x) for x in np.frombuffer(mv[:8], np.uint32))
    off = 8
    dlens_p = mv[off:off + llen]
    off += llen
    tlen = int(np.frombuffer(mv[off:off + 4], np.uint32)[0])
    off += 4
    dbytes_p = mv[off:off + tlen]
    off += tlen
    dlens = decode(lcodec, dlens_p, k, np.int64)
    dbytes = decode(tcodec, dbytes_p, int(dlens.sum()),
                    np.int8).view(np.uint8)
    return ccodec, mv[off:], dlens, dbytes


def _sdict_distinct_array(dlens: np.ndarray, dbytes: np.ndarray):
    """The distinct set as a pyarrow large_string array."""
    import pyarrow as pa

    offs = np.concatenate(([0], np.cumsum(dlens))).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_utf8(), len(dlens),
        [None, pa.py_buffer(offs.tobytes()),
         pa.py_buffer(np.ascontiguousarray(dbytes).tobytes())])


def _sdict_match(spec: str, text_payload: bytes, n: int,
                 pred) -> tuple[np.ndarray, np.ndarray]:
    """Every string leaf on an ``sdict:`` chunk: ``pred`` tests the
    bytes of each string in the (small) distinct set, then
    :func:`match_in` selects the rows whose code passed — the text
    bytes are never touched per row."""
    ccodec, codes_p, dlens, dbytes = sdict_unpack(spec, text_payload)
    offs = np.concatenate(([0], np.cumsum(dlens)))
    buf = dbytes.tobytes()
    return match_in(ccodec, codes_p, n, np.int64,
                    [j for j in range(len(dlens))
                     if pred(buf[offs[j]:offs[j + 1]])])


def match_in_str(spec: str, lens_payload: bytes, text_payload: bytes,
                 n: int, values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions where a STRING chunk equals
    ANY of ``values`` (SQL ``col IN (...)``) — evaluated in ONE pass:
    the lengths stream prefilters per distinct VALUE LENGTH (a chunk
    with no row of any candidate byte length answers empty without
    decoding text), the text decodes at most once, and each length
    class byte-compares its candidate rows against only the values of
    that length.  Equivalent to an OR-chain of :func:`match_eq_str`
    but without re-decoding the text per value.  Null slots match as
    the ``''`` filler; the caller applies the validity (see
    :func:`match_eq_str`).  ``sdict:`` chunks test the values against
    the distinct set and run :func:`match_in` on the integer code
    stream — no text decode."""
    if n == 0 or not values:
        return _EMPTY_RUNS
    if spec.startswith("sdict:"):
        targets = {v.encode("utf-8") for v in values}
        return _sdict_match(spec, text_payload, n, targets.__contains__)
    if not spec.startswith("str:"):
        raise TypeError(f"match_in_str needs a string chunk, got {spec!r}")
    _, lcodec, tcodec = spec.split(":", 2)
    by_len: dict[int, list[bytes]] = {}
    for v in dict.fromkeys(values):
        b = v.encode("utf-8")
        by_len.setdefault(len(b), []).append(b)
    # lengths prefilter per candidate byte length; text decodes only
    # if at least one length class has candidate rows
    live = [ln for ln in by_len
            if ln == 0 or count_eq(lcodec, lens_payload, n,
                                   np.int64, ln) > 0]
    if not live:
        return _EMPTY_RUNS
    lens = decode(lcodec, lens_payload, n, np.int64)
    mask = np.zeros(n, dtype=bool)
    data = None
    for ln in live:
        cand_idx = np.flatnonzero(lens == ln)
        if not len(cand_idx):
            continue
        if ln == 0:
            mask[cand_idx] = True        # '' is the only 0-byte value
            continue
        if data is None:
            data = decode(tcodec, text_payload, int(lens.sum()),
                          np.int8).view(np.uint8)
            offs = np.concatenate(([0], np.cumsum(lens)))
        idx = offs[:-1][cand_idx][:, None] + np.arange(ln)
        window = data[idx]
        hit = np.zeros(len(cand_idx), dtype=bool)
        for vb in by_len[ln]:
            hit |= (window == np.frombuffer(vb, dtype=np.uint8)) \
                .all(axis=1)
        mask[cand_idx[hit]] = True
    return _mask_to_runs(mask)


def match_prefix_str(spec: str, lens_payload: bytes, text_payload: bytes,
                     n: int, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions where a STRING chunk STARTS
    WITH ``prefix`` (SQL ``LIKE 'prefix%'``) — the prefix predicate
    leaf, sibling of :func:`match_eq_str`.  The lengths stream is again
    the compressed-domain prefilter: a chunk with no row of at least
    ``len(prefix)`` bytes (:func:`count_range`, the summed runs of one
    :func:`match_range` over the narrow lengths payload, is 0) answers
    empty without decoding its text bytes; surviving
    chunks byte-compare only the first ``len(prefix)`` bytes of the
    long-enough candidate rows, vectorized.  Null slots match as the
    ``''`` filler; the caller applies the validity (see
    :func:`match_eq_str`).  ``sdict:``
    chunks prefix-test only the (small) distinct set, then run
    :func:`match_in` on the matching codes — no per-row text work."""
    pbytes = prefix.encode("utf-8")
    plen = len(pbytes)
    if n == 0:
        return _EMPTY_RUNS
    if plen == 0:
        return (np.array([0], dtype=np.int64),
                np.array([n], dtype=np.int64))   # '' prefixes every row
    if spec.startswith("sdict:"):
        return _sdict_match(spec, text_payload, n,
                            lambda b: b.startswith(pbytes))
    if not spec.startswith("str:"):
        raise TypeError(
            f"match_prefix_str needs a string chunk, got {spec!r}")
    _, lcodec, tcodec = spec.split(":", 2)
    if count_range(lcodec, lens_payload, n, np.int64, plen,
                   np.iinfo(np.int64).max) == 0:
        return _EMPTY_RUNS
    lens = decode(lcodec, lens_payload, n, np.int64)
    cand = lens >= plen
    data = decode(tcodec, text_payload, int(lens.sum()),
                  np.int8).view(np.uint8)
    offs = np.concatenate(([0], np.cumsum(lens)))
    cand_idx = np.flatnonzero(cand)
    idx = offs[:-1][cand_idx][:, None] + np.arange(plen)
    eq = (data[idx] == np.frombuffer(pbytes, dtype=np.uint8)) \
        .all(axis=1)
    mask = np.zeros(n, dtype=bool)
    mask[cand_idx[eq]] = True
    return _mask_to_runs(mask)


def match_suffix_str(spec: str, lens_payload: bytes, text_payload: bytes,
                     n: int, suffix: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions where a STRING chunk ENDS
    WITH ``suffix`` (SQL ``LIKE '%s'``) — the mirror of
    :func:`match_prefix_str`: the lengths stream prefilters (no row of
    at least ``len(suffix)`` bytes -> empty without text decode),
    survivors byte-compare only the LAST ``len(suffix)`` bytes of the
    long-enough candidate rows.  ``sdict:`` chunks suffix-test the
    distinct set and run :func:`match_in` on the matching codes.
    Null slots match as the ``''`` filler; the caller applies the
    validity (see :func:`match_eq_str`)."""
    sbytes = suffix.encode("utf-8")
    slen = len(sbytes)
    if n == 0:
        return _EMPTY_RUNS
    if slen == 0:
        return (np.array([0], dtype=np.int64),
                np.array([n], dtype=np.int64))   # '' suffixes every row
    if spec.startswith("sdict:"):
        return _sdict_match(spec, text_payload, n,
                            lambda b: b.endswith(sbytes))
    if not spec.startswith("str:"):
        raise TypeError(
            f"match_suffix_str needs a string chunk, got {spec!r}")
    _, lcodec, tcodec = spec.split(":", 2)
    if count_range(lcodec, lens_payload, n, np.int64, slen,
                   np.iinfo(np.int64).max) == 0:
        return _EMPTY_RUNS
    lens = decode(lcodec, lens_payload, n, np.int64)
    cand = lens >= slen
    data = decode(tcodec, text_payload, int(lens.sum()),
                  np.int8).view(np.uint8)
    ends = np.cumsum(lens)
    cand_idx = np.flatnonzero(cand)
    idx = (ends[cand_idx] - slen)[:, None] + np.arange(slen)
    eq = (data[idx] == np.frombuffer(sbytes, dtype=np.uint8)) \
        .all(axis=1)
    mask = np.zeros(n, dtype=bool)
    mask[cand_idx[eq]] = True
    return _mask_to_runs(mask)


def match_contains_str(spec: str, lens_payload: bytes,
                       text_payload: bytes, n: int,
                       needle: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical run-list of the positions where a STRING chunk
    CONTAINS ``needle`` (SQL ``LIKE '%s%'``).  Plain chunks decode the
    flat text ONCE and find every occurrence with C-speed
    ``bytes.find`` over the whole buffer (iterations == occurrence
    count, not row count), mapping each hit to its row via one
    ``searchsorted`` against the row offsets and keeping only hits
    that do not straddle a row boundary.  ``sdict:`` chunks substring-
    test the (small) distinct set and run :func:`match_in` on the
    matching codes.  Null slots match as the ``''`` filler; the caller
    applies the validity (see :func:`match_eq_str`)."""
    nbytes_ = needle.encode("utf-8")
    nlen = len(nbytes_)
    if n == 0:
        return _EMPTY_RUNS
    if nlen == 0:
        return (np.array([0], dtype=np.int64),
                np.array([n], dtype=np.int64))   # every row contains ''
    if spec.startswith("sdict:"):
        return _sdict_match(spec, text_payload, n,
                            lambda b: nbytes_ in b)
    if not spec.startswith("str:"):
        raise TypeError(
            f"match_contains_str needs a string chunk, got {spec!r}")
    _, lcodec, tcodec = spec.split(":", 2)
    if count_range(lcodec, lens_payload, n, np.int64, nlen,
                   np.iinfo(np.int64).max) == 0:
        return _EMPTY_RUNS
    lens = decode(lcodec, lens_payload, n, np.int64)
    data = decode(tcodec, text_payload, int(lens.sum()),
                  np.int8).view(np.uint8)
    buf = data.tobytes()
    offs = np.concatenate(([0], np.cumsum(lens)))
    hits = []
    p = buf.find(nbytes_)
    while p >= 0:
        hits.append(p)
        p = buf.find(nbytes_, p + 1)
    if not hits:
        return _EMPTY_RUNS
    ph = np.asarray(hits, dtype=np.int64)
    rows = np.searchsorted(offs, ph, side="right") - 1
    inside = ph + nlen <= offs[rows + 1]
    mask = np.zeros(n, dtype=bool)
    mask[rows[inside]] = True
    return _mask_to_runs(mask)


def gather_str_runs(spec: str, lens_payload: bytes, text_payload: bytes,
                    n: int, starts: np.ndarray, lengths: np.ndarray):
    """Late-materialize a STRING chunk at the positions of a canonical
    selection run-list: returns a ``pyarrow`` ``large_string`` array of
    the selected rows, in position order — the string sibling of
    :func:`gather_runs`.  Decodes the lengths stream once, then copies
    ONLY the selected rows' byte ranges out of the decoded flat text
    (one vectorized gather; zero-length rows are handled by the
    repeat-based index construction).  Pass the FULL-chunk run-list to
    decode everything.  ``sdict:`` chunks gather CODES at the selected
    positions (:func:`gather_runs` on the integer code stream) and
    take from the distinct-set array — selected text bytes are never
    copied row by row."""
    import pyarrow as pa

    if spec.startswith("sdict:"):
        ccodec, codes_p, dlens, dbytes = sdict_unpack(spec, text_payload)
        if n == 0 or (len(starts) == 0):
            return pa.array([], type=pa.large_utf8())
        codes_sel = gather_runs(ccodec, codes_p, n, np.int64,
                                starts, lengths)
        dist = _sdict_distinct_array(dlens, dbytes)
        return dist.take(pa.array(codes_sel))
    if not spec.startswith("str:"):
        raise TypeError(
            f"gather_str_runs needs a string chunk, got {spec!r}")
    _, lcodec, tcodec = spec.split(":", 2)
    if n == 0 or not len(starts):
        return pa.array([], type=pa.large_utf8())
    lens = decode(lcodec, lens_payload, n, np.int64)
    data = decode(tcodec, text_payload, int(lens.sum()),
                  np.int8).view(np.uint8)
    if len(starts) == 1 and starts[0] == 0 and lengths[0] == n:
        # full-chunk selection (the ALL path): the decoded buffers ARE
        # the answer — skip the per-byte gather entirely
        offs = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        return pa.Array.from_buffers(
            pa.large_utf8(), n,
            [None, pa.py_buffer(offs.tobytes()),
             pa.py_buffer(np.ascontiguousarray(data).tobytes())])
    idx = _runs_to_indices(starts, lengths)
    offs = np.concatenate(([0], np.cumsum(lens)))
    sel_lens = lens[idx]
    byte_starts = offs[:-1][idx]
    cs = np.cumsum(sel_lens)
    total = int(cs[-1]) if len(cs) else 0
    if total:
        out_idx = (np.repeat(byte_starts, sel_lens)
                   + np.arange(total, dtype=np.int64)
                   - np.repeat(cs - sel_lens, sel_lens))
        sel_bytes = np.ascontiguousarray(data[out_idx])
    else:
        sel_bytes = np.empty(0, dtype=np.uint8)
    value_offsets = np.concatenate(
        ([0], cs)).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_utf8(), len(idx),
        [None, pa.py_buffer(value_offsets.tobytes()),
         pa.py_buffer(sel_bytes.tobytes())])


def agg_sum_runs(codec: str, payload: bytes, n: int, dtype,
                 starts: np.ndarray, lengths: np.ndarray) -> int:
    """Exact integer SUM of an encoded chunk's values inside a canonical
    selection run-list (as produced by :func:`match_eq`, usually on a
    DIFFERENT column of the same chunk) — ``SUM(col) WHERE <predicate>``
    without materializing either column.  The rle path zips selection
    runs against value runs with a prefix-weighted closed form (the
    reference's run-merge idiom, ref pyrle/src/rle.pyx, as a filtered
    aggregate); other codecs decode + gather + exact-sum.  Integer
    dtypes only, same contract and uint64 bias framing as
    :func:`agg_sum`.  The run-list is validated (in-bounds, sorted,
    disjoint, positive lengths) — a malformed selection raises."""
    payload, sdt, bias = _stream(payload, dtype, "agg_sum_runs", "iu")
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(starts) != len(lengths):
        raise ValueError("starts/lengths shape mismatch")
    if n == 0 or len(starts) == 0:
        return 0
    if (lengths <= 0).any() or starts[0] < 0 or \
            int(starts[-1] + lengths[-1]) > n or \
            (starts[1:] < starts[:-1] + lengths[:-1]).any():
        raise ValueError("selection run-list must be sorted, disjoint, "
                         "positive-length and within [0, n)")
    return CODECS[codec].agg_sum_runs(payload, n, sdt, starts, lengths) \
        + int(lengths.sum()) * bias
