"""Per-chunk value-distribution profiling and codec auto-selection.

Generalizes the reference's single hard-coded representation (runs+values,
ref pyrle/rle.py:146-147) into a codec *choice*: profile each chunk
(cardinality, run-length histogram, bit-width, byte-pair compressibility),
estimate every codec's encoded size analytically, and pick the smallest.
The chosen codec and the profile are recorded as lineage next to the
encoded payload (see tokrle.stages.encoder).

Estimates are exact for plain/bitpack/for and near-exact for dict/rle
(they ignore only fixed ~14-byte headers); fsst is estimated from a word
sample.  Selection is therefore deterministic and costs O(n) per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tokrle.codecs._bits import bit_width
from tokrle.codecs.core import (_POW2, Fsst, _stream_dtype,
                                best_pfor_width, encode, u64_to_i64)

_SAMPLE = 1 << 16


@dataclass
class ChunkProfile:
    n: int
    itemsize: int
    vmin: int
    vmax: int
    n_runs: int
    max_run: int
    runs_exact: bool          # False when run stats are sampled estimates
    cardinality: int          # exact when cheap, else sample lower bound
    cardinality_exact: bool
    fsst_hit_ratio: float     # estimated fraction of 16-bit words covered by table
    delta_width: int = 64     # bit width of the largest zigzag delta
    delta_exact: bool = False  # True only after an exact diff pass
    # histogram of per-delta (x - vmin) bit widths for PFOR width/cost
    # estimation; from a strided sample of width_hist_n deltas (exact when
    # width_hist_n == n).  None when the span is 0 (pfor can't beat rle).
    width_hist: np.ndarray | None = None
    width_hist_n: int = 0
    # histogram of per-SUCCESSIVE-DIFFERENCE zigzag bit widths for the
    # delta->pfor cascade's width/cost estimation; exact for small chunks,
    # else accumulated over adjacency-preserving windows (delta_hist_n =
    # #diffs observed; exceptions scale like pfor's sampled estimate — the
    # codec recomputes exactly on encode, so a miss only skews the size
    # estimate, never the payload)
    delta_hist: np.ndarray | None = None
    delta_hist_n: int = 0

    @property
    def raw_bytes(self) -> int:
        return self.n * self.itemsize


def _run_density_sampled(x: np.ndarray, windows: int = 16,
                         window_len: int = 512) -> float:
    """Fraction of adjacent pairs that differ, estimated from a few
    contiguous windows (adjacency-preserving sample)."""
    n = len(x)
    cnt = 0
    tot = 0
    for s in np.linspace(0, n - window_len, windows).astype(np.int64):
        w = x[s:s + window_len]
        cnt += int(np.count_nonzero(w[1:] != w[:-1]))
        tot += len(w) - 1
    return (cnt + 1) / max(tot, 1)


def _zigzag_width(x: np.ndarray) -> int:
    """Bit width of the largest zigzag-encoded successive difference
    (modular uint64 arithmetic, mirrors codecs.core.Delta)."""
    if len(x) < 2:
        return 0
    u = x.astype(np.uint64)
    d = (u[1:] - u[:-1]).view(np.int64)
    z = ((d << np.int64(1)) ^ (d >> np.int64(63))).view(np.uint64)
    return bit_width(int(z.max()))


def _zigzag_hist(x: np.ndarray) -> np.ndarray | None:
    """Histogram of zigzag-delta bit widths (hist[b] = #diffs needing b
    bits); None for <2 elements.  Same modular arithmetic as Delta."""
    if len(x) < 2:
        return None
    u = x.astype(np.uint64)
    d = (u[1:] - u[:-1]).view(np.int64)
    z = ((d << np.int64(1)) ^ (d >> np.int64(63))).view(np.uint64)
    from tokrle.codecs._bits import bit_widths

    return np.bincount(bit_widths(z))


def profile_chunk(x: np.ndarray) -> ChunkProfile:
    """O(n) with small constants: two reduction passes (min/max) always;
    the expensive exact run/cardinality scans run only when a cheap
    adjacency-preserving sample says the respective codec could win."""
    n = len(x)
    if n == 0:
        return ChunkProfile(0, x.dtype.itemsize, 0, 0, 0, 0, True, 0, True, 0.0)
    vmin = int(x.min())
    vmax = int(x.max())
    span = vmax - vmin
    # runs: sample first; exact scan only for runs-friendly chunks
    if n <= (1 << 15):
        neq = x[1:] != x[:-1]
        n_runs = 1 + int(np.count_nonzero(neq))
        density = n_runs / n
    else:
        density = _run_density_sampled(x)
        n_runs = max(1, int(density * n))
    runs_exact = True
    if density <= 0.5 and n > (1 << 15):
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(x[:-1], x[1:], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        n_runs = len(starts)
        max_run = int(np.diff(starts, append=n).max())
    elif n <= (1 << 15):
        starts = np.flatnonzero(np.concatenate(([True], neq)))
        max_run = int(np.diff(starts, append=n).max()) if len(starts) else n
    else:
        max_run = 1       # high-entropy: rle cannot win; skip the exact scan
        runs_exact = False
    # cardinality: O(n) bincount when the value span is small, else sample
    if 0 <= span < (1 << 20) and span < 8 * n:
        card = int(np.count_nonzero(np.bincount((x - vmin).astype(np.int64),
                                                minlength=span + 1)))
        card_exact = True
    else:
        sample = x[:: max(1, n // _SAMPLE)]
        card = len(np.unique(sample))
        card_exact = False
    # delta: exact zigzag-width for small chunks; large chunks first probe
    # the same adjacency-preserving windows — only when the sampled width
    # beats the FOR span width (the codec delta must outdo) does the exact
    # full diff pass run.  Selection never trusts a sampled width: a width
    # that underestimates the true max would corrupt the encoding.
    span_w = bit_width(span) if span >= 0 else 64
    if n <= (1 << 15):
        delta_hist = _zigzag_hist(x)
        delta_w = len(delta_hist) - 1 if delta_hist is not None else 0
        delta_exact = True
        delta_hist_n = n - 1
    else:
        dh = np.zeros(65, dtype=np.int64)
        for s in np.linspace(0, n - 512, 16).astype(np.int64):
            h = _zigzag_hist(x[s:s + 512])
            if h is not None:
                dh[: len(h)] += h
        dw_sample = int(np.flatnonzero(dh).max()) if dh.any() else 0
        if dw_sample < span_w:
            delta_hist = _zigzag_hist(x)
            delta_w = len(delta_hist) - 1 if delta_hist is not None else 0
            delta_exact = True
            delta_hist_n = n - 1
        else:
            delta_w, delta_exact = dw_sample, False
            delta_hist = dh[: dw_sample + 1].copy() if dh.any() else None
            delta_hist_n = int(dh.sum())
    # pfor: per-delta bit-width histogram from a strided sample (exact for
    # small chunks) — one searchsorted pass over <=_SAMPLE values
    if span > 0:
        ps = x if n <= (1 << 15) else x[:: max(1, n // _SAMPLE)]
        pd_ = (ps.astype(np.int64) - np.int64(vmin)).astype(np.uint64)
        from tokrle.codecs._bits import bit_widths

        width_hist = np.bincount(bit_widths(pd_),
                                 minlength=bit_width(span) + 1)
        width_hist_n = len(ps)
    else:
        width_hist, width_hist_n = None, 0
    # fsst: estimated top-254 16-bit-word coverage from a strided sample of
    # the value buffer viewed as uint16 words (zero-copy view, no tobytes)
    words = x.view(np.uint16) if x.dtype.itemsize % 2 == 0 else \
        np.frombuffer(x.tobytes()[:len(x) * x.dtype.itemsize // 2 * 2],
                      dtype=np.uint16)
    ws = words[:: max(1, len(words) // _SAMPLE)]
    if len(ws):
        _, counts = np.unique(ws, return_counts=True)
        top = np.sort(counts)[::-1][: Fsst.MAX_SYMBOLS]
        hit_ratio = float(top.sum() / len(ws))
    else:
        hit_ratio = 0.0
    return ChunkProfile(n, x.dtype.itemsize, vmin, vmax, n_runs, max_run,
                        runs_exact, card, card_exact, hit_ratio,
                        delta_w, delta_exact, width_hist, width_hist_n,
                        delta_hist, delta_hist_n)


def estimate_sizes(p: ChunkProfile) -> dict[str, float]:
    """Estimated payload bytes per codec for a profiled chunk."""
    if p.n == 0:
        return {"plain": 0.0}
    est: dict[str, float] = {}
    est["plain"] = float(p.raw_bytes)
    span_w = bit_width(p.vmax - p.vmin)
    if p.vmin >= 0:
        est["bitpack"] = 1 + p.n * bit_width(p.vmax) / 8
    est["for"] = 9 + p.n * span_w / 8
    code_w = bit_width(max(p.cardinality - 1, 0))
    est["dict"] = 18 + p.cardinality * span_w / 8 + p.n * code_w / 8
    if p.runs_exact:
        run_w = bit_width(max(p.max_run - 1, 0))
        est["rle"] = 14 + p.n_runs * (run_w + span_w) / 8
    # sampled run stats (high-entropy chunk): rle cannot win, skip it
    if p.delta_exact:
        est["delta"] = 9 + (p.n - 1) * p.delta_width / 8
    # sampled delta width (wide-delta chunk): delta cannot beat FOR, skip it
    if p.width_hist is not None:
        # exception counts scale from the sample; encode recomputes the
        # width exactly on the full chunk, so a sampling miss costs at most
        # a slightly-off size estimate, never a wrong payload
        est["pfor"] = best_pfor_width(
            p.width_hist, p.n, bit_width(p.vmax - p.vmin),
            sample_n=p.width_hist_n if p.width_hist_n != p.n else None)[1]
    if p.delta_hist is not None and p.n >= 2:
        # delta->pfor cascade: PFOR's width chooser over the zigzag-delta
        # width histogram; same scaled-sample contract as pfor above
        est["dpfor"] = best_pfor_width(
            p.delta_hist, p.n - 1, len(p.delta_hist) - 1,
            sample_n=p.delta_hist_n if p.delta_hist_n != p.n - 1 else
            None)[1]
    nwords = p.raw_bytes // 2
    est["fsst"] = (10 + 2 * Fsst.MAX_SYMBOLS + nwords / 8
                   + nwords * (p.fsst_hit_ratio + 2 * (1 - p.fsst_hit_ratio)))
    return est


def select_codec(p: ChunkProfile) -> str:
    est = estimate_sizes(p)
    return min(est, key=est.__getitem__)


def auto_encode(x: np.ndarray) -> tuple[str, bytes, ChunkProfile]:
    """Profile -> select -> encode; returns (codec, payload, profile).

    The profile's bounds are passed into the codec so it skips its own
    min/max reduction passes (two fewer full-array scans per chunk).

    Floats are profiled and encoded as their same-width integer BIT
    PATTERNS (see codecs.core.encode): every codec round-trips them
    exactly, repeated-value float columns still win rle/dict, and the
    selector never sees non-integer arithmetic.  float32/float64 columns
    additionally enter the ALP codec (scaled-decimal digits + raw-bits
    exceptions) in the size race — decimal-like floats (prices, rates)
    drop from 64 raw bits to the digit span's width.  Every column is
    profiled in its codec stream dtype (``codecs.core._stream_dtype``), so
    the returned profile's bounds are datetime counts or the int64 image
    of a uint64 column."""
    is_float = x.dtype.kind == "f" and x.dtype.itemsize in (4, 8)
    u64_flag = None
    x = np.ascontiguousarray(x)
    if x.dtype == np.uint64:
        # the bias flag rides as the framing byte, matching
        # codecs.core.encode's uint64 path
        x, u64_flag = u64_to_i64(x)
    else:
        x = x.view(_stream_dtype(x.dtype))
    p = profile_chunk(x)
    est = estimate_sizes(p)
    codec = min(est, key=est.__getitem__)
    if is_float:
        from tokrle.codecs.core import alp_estimate, xor_estimate

        if alp_estimate(x) < est[codec]:
            codec = "alp"
            est[codec] = alp_estimate(x)
        # XOR-of-previous competes on smooth non-decimal float streams
        # (sensor-like series, sorted floats): sign/exponent/high-mantissa
        # bits cancel where integer-domain deltas of the BIT PATTERNS
        # explode.  64-bit inputs only: xor trims bits from the uint64
        # view, which is a pure win only at full width.
        if x.dtype.itemsize == 8 and xor_estimate(x) < est[codec]:
            codec = "xor"
    payload = encode(codec, x, p.vmin, p.vmax)
    # the analytic estimate can rarely lose to plain on adversarial input;
    # never ship a payload larger than raw
    if len(payload) >= p.raw_bytes and codec != "plain":
        codec = "plain"
        payload = encode("plain", x)
    if u64_flag is not None:
        payload = bytes([int(u64_flag)]) + payload
    return codec, payload, p
