"""Round-trip and selection tests for the codec layer.

The bit-identical decode(encode(x)) == x gate generalizes the reference's
Rle construction round-trips (reference tests/test_hypothesis.py) to every
codec and to auto-selection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokrle.codecs.core import CODECS, decode, encode
from tokrle.select import auto_encode, estimate_sizes, profile_chunk, select_codec

RNG = np.random.default_rng(42)

CORPORA = {
    "zipf_tokens": RNG.zipf(1.3, size=20000).astype(np.int32) % 50000,
    "small_vocab": RNG.integers(0, 100, size=20000).astype(np.int32),
    "runs_heavy": np.repeat(RNG.integers(0, 50, size=200), RNG.integers(1, 400, size=200)).astype(np.int32),
    "constant": np.full(10000, 7, dtype=np.int32),
    "negative": RNG.integers(-1000, 1000, size=5000).astype(np.int32),
    "wide_int64": RNG.integers(-2**40, 2**40, size=5000).astype(np.int64),
    "empty": np.empty(0, dtype=np.int32),
    "single": np.array([123456], dtype=np.int32),
    "two_values": RNG.choice([17, 9000000], size=10000).astype(np.int32),
    "sorted_ids": np.sort(RNG.integers(0, 10**9, size=20000)).astype(np.int64),
    # mostly-narrow ids + rare huge outliers: FOR's span width blows up,
    # cardinality too high for dict, entropy too high for rle -> pfor
    "outlier_patched": np.where(RNG.random(20000) < 0.003,
                                RNG.integers(1 << 20, 1 << 30, size=20000),
                                RNG.integers(0, 1024, size=20000)).astype(np.int64),
    "timestamps": (np.cumsum(RNG.integers(0, 1000, size=20000)) + 10**15).astype(np.int64),
    # sorted ids whose gaps are mostly tiny with rare huge jumps: plain
    # delta's single width blows up on the jumps -> delta->pfor cascade
    "postings": np.cumsum(np.where(RNG.random(20000) < 0.002,
                                   RNG.integers(1 << 24, 1 << 32, size=20000),
                                   RNG.integers(1, 16, size=20000))).astype(np.int64),
}


@pytest.mark.parametrize("codec", list(CODECS))
@pytest.mark.parametrize("name", list(CORPORA))
def test_roundtrip_bit_identical(codec, name):
    x = CORPORA[name]
    if codec == "bitpack" and len(x) and x.min() < 0:
        pytest.skip("bitpack is non-negative only")
    payload = encode(codec, x)
    out = decode(codec, payload, len(x), x.dtype)
    assert out.dtype == x.dtype
    assert np.array_equal(out, x)


@pytest.mark.parametrize("name", list(CORPORA))
def test_auto_encode_roundtrip_and_never_expands(name):
    x = CORPORA[name]
    codec, payload, prof = auto_encode(x)
    out = decode(codec, payload, len(x), x.dtype)
    assert np.array_equal(out, x)
    if len(x):
        assert len(payload) <= prof.raw_bytes + 32


def test_selector_picks_sensible_codecs():
    assert select_codec(profile_chunk(CORPORA["runs_heavy"])) == "rle"
    # constant chunk: FOR at width 0 is 9 bytes — smaller than rle's header
    assert select_codec(profile_chunk(CORPORA["constant"])) == "for"
    # small vocab, no runs -> dict or bitpack (both ~7 bits/val); must beat plain
    p = profile_chunk(CORPORA["small_vocab"])
    est = estimate_sizes(p)
    assert est[select_codec(p)] < est["plain"] / 4
    # negative values -> for beats plain
    p = profile_chunk(CORPORA["negative"])
    assert select_codec(p) in ("for", "dict")
    # sorted / smooth series -> delta family (narrow zigzag deltas beat
    # FOR's span); exponential-ish gaps give dpfor's patched width the
    # edge on sorted_ids, uniform gaps keep plain delta on timestamps
    assert select_codec(profile_chunk(CORPORA["sorted_ids"])) == "dpfor"
    assert select_codec(profile_chunk(CORPORA["timestamps"])) == "delta"
    # high-entropy tokens: the exact delta diff pass is skipped entirely
    assert not profile_chunk(CORPORA["zipf_tokens"].repeat(3)[:70000]).delta_exact
    # narrow values + rare huge outliers -> pfor (patched exceptions beat
    # FOR's single span width; verify it actually compresses >3x vs FOR)
    x = CORPORA["outlier_patched"]
    assert select_codec(profile_chunk(x)) == "pfor"
    assert len(encode("pfor", x)) * 2.9 < len(encode("for", x))
    # sampled width-histogram path (n > _SAMPLE => strided) picks pfor too
    x_big = np.tile(x, 8)
    p = profile_chunk(x_big)
    assert p.width_hist_n < len(x_big)
    assert select_codec(p) == "pfor"
    # postings-style sorted stream (tiny gaps + rare huge jumps): the
    # delta->pfor cascade beats plain delta by the jump width ratio
    x = CORPORA["postings"]
    assert select_codec(profile_chunk(x)) == "dpfor"
    assert len(encode("dpfor", x)) * 3 < len(encode("delta", x))
    # sampled delta-histogram path (n > 2^15 skips the exact diff pass
    # when the windowed width already reaches span width) still estimates
    # dpfor from the scaled window histogram and the payload round-trips
    x_big = np.tile(x, 4)
    p = profile_chunk(x_big)
    est = estimate_sizes(p)
    assert "dpfor" in est
    payload = encode("dpfor", x_big)
    from tokrle.codecs.core import decode as _dec
    assert np.array_equal(_dec("dpfor", payload, len(x_big), x_big.dtype),
                          x_big)


def test_estimates_close_to_actual():
    for name in ("zipf_tokens", "small_vocab", "runs_heavy", "two_values"):
        x = CORPORA[name]
        p = profile_chunk(x)
        est = estimate_sizes(p)
        for codec, e in est.items():
            actual = len(encode(codec, x))
            assert actual <= e * 1.2 + 64, (name, codec, actual, e)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=-2**31, max_value=2**31 - 1),
                min_size=0, max_size=300))
def test_hypothesis_roundtrip_all_codecs(vals):
    x = np.array(vals, dtype=np.int32)
    for codec in CODECS:
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        out = decode(codec, encode(codec, x), len(x), x.dtype)
        assert np.array_equal(out, x), codec


def test_float64_plain_roundtrip():
    x = np.array([1.5, np.nan, -0.0, np.inf], dtype=np.float64)
    out = decode("plain", encode("plain", x), len(x), x.dtype)
    assert np.array_equal(out.view(np.uint64), x.view(np.uint64))


def test_compression_beats_reference_representation():
    """Our auto-selected codec must beat the reference's (runs int64 +
    values float64 = 16 bytes/run) representation on run-heavy data, and
    beat raw int32 on everything compressible."""
    x = CORPORA["runs_heavy"]
    codec, payload, prof = auto_encode(x)
    ref_bytes = prof.n_runs * 16  # pyrle rle.py:146-147 representation
    assert len(payload) < ref_bytes
    assert len(payload) < prof.raw_bytes / 4


def test_fsst_roundtrip_arbitrary_bytes():
    from hypothesis import given
    from hypothesis import strategies as st

    from tokrle.codecs.core import decode, encode

    @given(st.binary(max_size=3000))
    def inner(data):
        x = np.frombuffer(data, dtype=np.uint8).view(np.int8)
        payload = encode("fsst", x)
        out = decode("fsst", payload, len(x), np.int8)
        assert np.array_equal(out, x)

    inner()


def test_fsst_multibyte_symbols_beat_two_byte_cap():
    """Repeated 8-byte-aligned patterns must compress well past the 2x
    ceiling a 2-byte-only symbol table has on text (the round-1 gap)."""
    from tokrle.codecs.core import decode, encode

    x = np.frombuffer(b"abcdefgh" * 4096, dtype=np.uint8).view(np.int8)
    payload = encode("fsst", x)
    assert len(payload) < len(x) / 4
    assert np.array_equal(decode("fsst", payload, len(x), np.int8), x)


def test_fsst_sampled_training_still_exact():
    """Past TRAIN_SAMPLE words the table trains on a stride sample; the
    round-trip must stay bit-identical regardless."""
    from tokrle.codecs.core import Fsst, decode, encode

    rng = np.random.default_rng(3)
    n = (4 * Fsst.TRAIN_SAMPLE + 1000) * 4  # > sampling threshold in words
    x = rng.integers(0, 300, size=n // 4, dtype=np.int64).astype(np.int32)
    payload = encode("fsst", x)
    assert np.array_equal(decode("fsst", payload, len(x), np.int32), x)


def test_fsstg_roundtrip_arbitrary_bytes():
    from tokrle.codecs.core import decode, encode

    @given(st.binary(max_size=3000))
    @settings(max_examples=60)
    def inner(data):
        x = np.frombuffer(data, dtype=np.uint8).view(np.int8)
        payload = encode("fsstg", x)
        out = decode("fsstg", payload, len(x), np.int8)
        assert np.array_equal(out, x)

    inner()


def test_fsstg_parse_matches_sequential_greedy():
    """The pointer-doubling parse must mark EXACTLY the positions a
    left-to-right sequential greedy longest-match parse visits (FSST
    paper section 2's parse semantics), including across sub-block
    boundaries and at the chunk tail."""
    from tokrle.codecs.core import FsstGreedy

    rng = np.random.default_rng(7)
    # skewed byte soup with planted repeats so real multi-length symbols train
    parts = []
    for _ in range(40):
        parts.append(b"hello world ")
        parts.append(bytes(rng.integers(0, 256, rng.integers(1, 200), dtype=np.uint8)))
        parts.append(b"the quick brown fox")
    raw = np.frombuffer(b"".join(parts), dtype=np.uint8)
    n = len(raw)
    c = FsstGreedy()
    w8 = c._w8(raw)
    tables, vals, lens = c._train(raw, w8)
    assert len(vals) > 0  # the planted repeats must yield symbols
    len_at, _ = c._match_longest(w8, n, tables)
    got = np.flatnonzero(c._parse(len_at, n))
    # sequential reference: greedy walk using the same per-position lengths
    ref, p = [], 0
    while p < n:
        ref.append(p)
        p += int(len_at[p])
    assert np.array_equal(got, np.array(ref))


def test_fsstg_sequential_greedy_end_to_end_small_blocks():
    """Same equivalence with a tiny BLOCK so many sub-block boundaries are
    exercised (symbols may not cross them; literals chain through)."""
    from tokrle.codecs.core import FsstGreedy, decode

    class Tiny(FsstGreedy):
        BLOCK = 64

    x = np.frombuffer(b"abcabcabcXabcabc" * 300, dtype=np.uint8).view(np.int8)
    t = Tiny()
    payload = t.encode(x)
    assert np.array_equal(t.decode(payload, len(x), np.int8), x)
    # payload layout is self-describing: the stock decoder reads it too
    assert np.array_equal(decode("fsstg", payload, len(x), np.int8), x)


def test_fsstg_beats_aligned_fsst_on_text():
    """The arbitrary-offset greedy parse exists to catch repeats the
    aligned windows dilute across alignment phases: word-structured text
    (each repeat at an arbitrary byte offset) must compress materially
    better than the aligned-window tables manage."""
    from tokrle.codecs.core import encode

    rng = np.random.default_rng(11)
    vocab = [b"the", b"model", b"data", b"token", b"stream", b"encode",
             b"ray", b"batch", b"compression", b"symbol", b"greedy",
             b"parse", b"with", b"and", b"for", b"column"]
    words = [vocab[i] for i in rng.integers(0, len(vocab), 8000)]
    x = np.frombuffer(b" ".join(words), dtype=np.uint8).view(np.int8)
    aligned = len(encode("fsst", x))
    greedy = len(encode("fsstg", x))
    assert greedy < aligned * 0.8, (greedy, aligned)


@pytest.mark.parametrize("codec", list(CODECS))
def test_decode_range_matches_slice(codec):
    from tokrle.codecs.core import decode_range

    for name in ("zipf_tokens", "runs_heavy", "outlier_patched",
                 "negative", "empty", "single"):
        x = CORPORA[name]
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        for a, b in ((0, 0), (0, 7), (3, 11), (8, 4096), (5, len(x)),
                     (-2, 3), (0, 10**9)):
            got = decode_range(codec, payload, len(x), x.dtype, a, b)
            b2 = min(len(x), b)
            a2 = min(max(0, a), b2)
            assert got.dtype == x.dtype
            assert np.array_equal(got, x[a2:b2]), (name, a, b)


def test_float_auto_encode_bit_exact_regression():
    """auto_encode used to pick delta on float64 and corrupt values via
    int casts; floats must now round-trip bit-exactly through EVERY
    selected codec (encoded as same-width integer bit patterns) and
    repeated-value float columns must actually compress."""
    from tokrle.codecs.core import decode_range

    cases = {
        "mixed": np.array([1.5, -2.25, 3.75, 1e300, -0.0, 7.5] * 100),
        "repeated": np.repeat(np.array([0.07, 0.01, 0.05, 0.0]), 500),
        "special": np.array([np.nan, np.inf, -np.inf, -0.0, 1e-310] * 40),
        "f32": RNG.standard_normal(1500).astype(np.float32),
    }
    for name, x in cases.items():
        iv = {4: np.int32, 8: np.int64}[x.dtype.itemsize]
        c, payload, _ = auto_encode(x)
        out = decode(c, payload, len(x), x.dtype)
        assert out.dtype == x.dtype
        assert np.array_equal(out.view(iv), x.view(iv)), (name, c)
        r = decode_range(c, payload, len(x), x.dtype, 5, 23)
        assert np.array_equal(r.view(iv), x[5:23].view(iv)), (name, c)
    c, payload, _ = auto_encode(cases["repeated"])
    assert len(payload) * 100 < cases["repeated"].nbytes  # rle on bits


def test_alp_decimal_floats_win_and_roundtrip_bit_exact():
    """ALP (scaled-decimal digits, division decode) must win selection on
    decimal-like float columns and round-trip bit-exactly with ZERO loss
    through NaN / inf / -0.0 exceptions (raw-bits stream)."""
    from tokrle.codecs.core import decode_range

    rng = np.random.default_rng(11)
    prices = np.round(rng.uniform(0, 1000, 60000), 2)
    prices[::97] = np.nan      # aliases a naive stride-97 sampler
    prices[5] = -0.0
    prices[17] = np.inf
    prices[23] = -np.inf
    c, payload, _ = auto_encode(prices)
    assert c == "alp"
    assert len(payload) * 3 < prices.nbytes  # >3x on 2-decimal data
    out = decode(c, payload, len(prices), prices.dtype)
    assert np.array_equal(out.view(np.int64), prices.view(np.int64))
    r = decode_range(c, payload, len(prices), prices.dtype, 90, 200)
    assert np.array_equal(r.view(np.int64), prices[90:200].view(np.int64))


def test_alp_division_decode_exact_on_parsed_decimals():
    """String-parsed decimals (the real-world shape: CSV/JSON floats) must
    produce ZERO exceptions — IEEE division by the exact power of ten is
    correctly rounded, unlike the reciprocal multiply (~14% 1-ulp
    exceptions measured)."""
    from tokrle.codecs.core import _alp_digits

    rng = np.random.default_rng(3)
    parsed = np.array([float(f"{v:.2f}") for v in rng.uniform(0, 1000, 4000)])
    digits, exact = _alp_digits(parsed, parsed.view(np.int64), 2, 0, 8)
    assert exact.all()


def test_alp_float32_and_integer_valued_floats():
    rng = np.random.default_rng(5)
    f32 = np.round(rng.uniform(0, 100, 30000), 1).astype(np.float32)
    c, payload, _ = auto_encode(f32)
    assert c == "alp"
    out = decode(c, payload, len(f32), f32.dtype)
    assert np.array_equal(out.view(np.int32), f32.view(np.int32))
    # integer-valued float64s: e=0 probe, digits sub-encode
    iv = rng.integers(0, 5000, 30000).astype(np.float64)
    c2, pl2, _ = auto_encode(iv)
    assert c2 == "alp" and len(pl2) * 4 < iv.nbytes
    assert np.array_equal(decode(c2, pl2, len(iv), iv.dtype), iv)


def test_alp_never_selected_for_random_floats():
    """High-entropy doubles have no decimal structure: every value is an
    exception, the estimate is raw-size-plus, and alp must lose."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(20000)
    c, payload, _ = auto_encode(x)
    assert c != "alp"
    out = decode(c, payload, len(x), x.dtype)
    assert np.array_equal(out.view(np.int64), x.view(np.int64))


@settings(max_examples=60)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                min_size=0, max_size=200))
def test_hypothesis_alp_roundtrip_float64(vals):
    x = np.array(vals, dtype=np.float64)
    payload = encode("alp", x)
    out = decode("alp", payload, len(x), x.dtype)
    assert np.array_equal(out.view(np.int64), x.view(np.int64))


def test_datetime64_all_codecs_roundtrip_and_range():
    """Timestamps/durations encode as their int64 counts through the
    module boundary; every codec round-trips them exactly and ranged
    decode honors the logical dtype."""
    from tokrle.codecs.core import decode_range

    rng = np.random.default_rng(7)
    base = np.int64(1_704_067_200_000_000)
    us = base + np.sort(rng.integers(0, 10**12, 4000))
    for logical in ("datetime64[us]", "datetime64[ns]", "timedelta64[ms]"):
        x = us.view(logical)
        for name in ("plain", "rle", "dict", "bitpack", "for", "delta",
                     "pfor"):
            payload = encode(name, x)
            out = decode(name, payload, len(x), x.dtype)
            assert out.dtype == x.dtype and np.array_equal(out, x), name
        r = decode_range("delta", encode("delta", x), len(x), x.dtype,
                         37, 1201)
        assert r.dtype == x.dtype and np.array_equal(r, x[37:1201])


def test_datetime64_auto_encode_compresses_sorted_events():
    rng = np.random.default_rng(3)
    us = np.int64(1_704_067_200_000_000) + np.cumsum(
        rng.integers(0, 2000, 60000))
    x = us.astype("datetime64[us]")
    c, payload, _ = auto_encode(x)
    out = decode(c, payload, len(x), x.dtype)
    assert np.array_equal(out, x)
    # sorted event times: small deltas must beat 8 raw bytes/value
    assert len(payload) * 3 < x.nbytes


# ---------------------------------------------------------------------------
# compressed-domain aggregation: agg_sum(payload) == exact sum of decode()


def _exact_py_sum(x: np.ndarray) -> int:
    return sum(int(v) for v in x)


@pytest.mark.parametrize("codec", list(CODECS))
def test_agg_sum_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import agg_sum

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        want = _exact_py_sum(decode(codec, payload, len(x), x.dtype))
        assert agg_sum(codec, payload, len(x), x.dtype) == want, name


def test_agg_sum_extreme_values_use_exact_arithmetic():
    """Sums near (and beyond) int64 range: the split-sum / guarded-dot
    paths must stay exact where a naive int64 accumulation would wrap."""
    from tokrle.codecs.core import agg_sum

    cases = [
        np.full(5000, 2**62, dtype=np.int64),             # wraps int64 sum
        np.full(5000, -(2**62), dtype=np.int64),
        np.repeat(np.array([2**62 - 3, -(2**62) + 7], dtype=np.int64), 999),
        np.array([2**63 - 1] * 300 + [-(2**63)] * 100, dtype=np.int64),
        np.sort(RNG.integers(-2**62, 2**62, size=4000)),  # delta, big span
    ]
    for x in cases:
        for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                      "dpfor"):
            payload = encode(codec, x)
            want = _exact_py_sum(decode(codec, payload, len(x), x.dtype))
            got = agg_sum(codec, payload, len(x), x.dtype)
            assert got == want, (codec, x[:3])


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=400))
@settings(max_examples=120, deadline=None)
def test_hypothesis_agg_sum_all_codecs(vals):
    from tokrle.codecs.core import agg_sum

    x = np.array(vals, dtype=np.int64)
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                      "dpfor"):
        payload = encode(codec, x)
        want = _exact_py_sum(decode(codec, payload, len(x), x.dtype))
        assert agg_sum(codec, payload, len(x), x.dtype) == want, codec


def test_agg_sum_rejects_floats():
    from tokrle.codecs.core import agg_sum

    x = np.array([1.5, 2.5])
    payload = encode("plain", x.view(np.int64))
    with pytest.raises(TypeError):
        agg_sum("plain", payload, 2, np.float64)


def test_xor_wins_on_truncated_precision_floats():
    """xor's unique niche: HIGH-cardinality float64 streams with shared
    high bits AND trailing-zero low bits (float32-upcast / quantized
    data) — dict loses to cardinality, delta/FOR can't trim the 29 zero
    mantissa bits, xor's chunk trim removes them.  Smooth full-precision
    streams stay with delta (IEEE bit patterns are order-preserving, so
    integer deltas are already narrow — xor must NOT displace it)."""
    rng = np.random.default_rng(21)
    sensor = (50 + np.cumsum(rng.standard_normal(20000) * 0.01)) \
        .astype(np.float32).astype(np.float64)
    c, payload, _ = auto_encode(sensor)
    assert c == "xor", c
    out = decode(c, payload, len(sensor), sensor.dtype)
    assert np.array_equal(out.view(np.int64), sensor.view(np.int64))
    assert len(payload) * 2 < sensor.nbytes     # > 2x on upcast data

    smooth = 1000.0 + np.cumsum(rng.standard_normal(20000) * 1e-4)
    c2, p2, _ = auto_encode(smooth)
    # xor must not displace the delta family (plain or delta->pfor cascade)
    assert c2 in ("delta", "dpfor"), c2
    out2 = decode(c2, p2, len(smooth), smooth.dtype)
    assert np.array_equal(out2.view(np.int64), smooth.view(np.int64))

    # specials round-trip through the forced codec too
    weird = np.array([np.nan, -np.inf, -0.0, 1e-310, 5.5] * 50)
    pw = encode("xor", weird)
    assert np.array_equal(decode("xor", pw, len(weird),
                                 weird.dtype).view(np.int64),
                          weird.view(np.int64))


def test_xor_never_selected_when_it_loses():
    """Random doubles (mantissa entropy ~ full width) must NOT pick xor
    over plain; decimal columns must still pick alp."""
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(8000) * np.exp(rng.integers(-300, 300, 8000))
    c, payload, _ = auto_encode(noise)
    out = decode(c, payload, len(noise), noise.dtype)
    assert np.array_equal(out.view(np.int64), noise.view(np.int64))
    assert len(payload) <= noise.nbytes + 16

    decimals = np.round(rng.uniform(0, 1000, 8000), 2)
    c2, _, _ = auto_encode(decimals)
    assert c2 == "alp", c2


# ---------------------------------------------------------------------------
# full-range uint64 (hash / signature columns): one framing byte says
# whether the int64 stream is xor-2^63-biased (order-preserving bijection)
# ---------------------------------------------------------------------------

_U64_CASES = {
    "full_range": np.random.default_rng(7).integers(
        0, 2**64, 4000, dtype=np.uint64),
    "top_heavy": np.random.default_rng(8).integers(
        0, 2**10, 4000, dtype=np.uint64) + np.uint64(2**63),
    "runs": np.repeat(np.array([2**63 + 5, 3, 2**64 - 1],
                               dtype=np.uint64), 500),
    "sorted_hashes": np.sort(np.random.default_rng(9).integers(
        0, 2**64, 4000, dtype=np.uint64)),
    "small": np.random.default_rng(10).integers(
        0, 100, 4000, dtype=np.uint64),
    "edge": np.array([0, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
    "empty": np.empty(0, dtype=np.uint64),
}


@pytest.mark.parametrize("name", sorted(_U64_CASES))
@pytest.mark.parametrize("codec", ["plain", "rle", "dict", "bitpack",
                                   "for", "delta", "pfor", "dpfor",
                                   "xor", "fsst"])
def test_uint64_full_range_roundtrip(name, codec):
    from tokrle.codecs.core import agg_sum, decode_range, exact_sum_int

    x = _U64_CASES[name]
    needs_bias = len(x) and int(x.max()) >= 2**63
    biased_has_negative = needs_bias and int(x.min()) < 2**63
    if codec == "bitpack" and biased_has_negative:
        # bitpack's non-negative contract rejects the biased domain the
        # same way it rejects negative int64 — explicit, not a crash
        with pytest.raises(ValueError):
            encode(codec, x)
        return
    p = encode(codec, x)
    d = decode(codec, p, len(x), np.uint64)
    assert d.dtype == np.uint64 and np.array_equal(d, x)
    if len(x) > 20:
        assert np.array_equal(
            decode_range(codec, p, len(x), np.uint64, 3, 17), x[3:17])
    assert agg_sum(codec, p, len(x), np.uint64) == exact_sum_int(x)


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_uint64_auto_encode(name):
    from tokrle.select import auto_encode

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    d = decode(codec, payload, len(x), np.uint64)
    assert d.dtype == np.uint64 and np.array_equal(d, x)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])),
    min_size=0, max_size=200))
def test_hypothesis_uint64_framing_roundtrip(vals):
    from tokrle.codecs.core import agg_sum, exact_sum_int
    from tokrle.select import auto_encode

    x = np.array(vals, dtype=np.uint64)
    codec, payload, _ = auto_encode(x)
    d = decode(codec, payload, len(x), np.uint64)
    assert d.dtype == np.uint64 and np.array_equal(d, x)
    assert agg_sum(codec, payload, len(x), np.uint64) == exact_sum_int(x)


# --- count_eq: the predicate-on-compressed-data primitive -----------------

@pytest.mark.parametrize("codec", list(CODECS))
def test_count_eq_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import count_eq

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        vals = ([int(x[0]), int(x.max()), int(x.min()) - 1, 7]
                if len(x) else [0, 7])
        vals += [10**15, -10**15]     # outside int32 domain -> 0 fast path
        for v in vals:
            want = int(np.count_nonzero(dec.astype(object) == v))
            got = count_eq(codec, payload, len(x), x.dtype, v)
            assert got == want, (name, v, got, want)


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=300))
@settings(max_examples=80, deadline=None)
def test_hypothesis_count_eq_all_codecs(vals):
    from tokrle.codecs.core import count_eq

    x = np.array(vals, dtype=np.int64)
    targets = vals[:3] + [0, -1, 12345, 2**63 - 1]
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                  "dpfor"):
        payload = encode(codec, x)
        for v in targets:
            want = int(np.count_nonzero(x == v)) if len(x) else 0
            assert count_eq(codec, payload, len(x), x.dtype, v) == want, \
                (codec, v)


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_count_eq_uint64_framing(name):
    """Full-range uint64 counts through the bias framing byte: present
    values, absent values, and values no unbiased stream can hold."""
    from tokrle.codecs.core import count_eq

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    targets = ([int(x[0]), int(x.max()), 5] if len(x) else [0]) \
        + [2**64 - 1, 2**63, 2**63 - 1]
    for v in targets:
        want = int(np.count_nonzero(x == np.uint64(v))) if len(x) else 0
        assert count_eq(codec, payload, len(x), np.uint64, v) == want, v
    # out-of-domain values answer 0 without touching the payload
    assert count_eq(codec, payload, len(x), np.uint64, -1) == 0
    assert count_eq(codec, payload, len(x), np.uint64, 1 << 64) == 0


def test_count_eq_datetime_counts():
    from tokrle.codecs.core import count_eq

    x = np.array(["2026-01-01", "2026-01-02", "2026-01-02", "2026-03-01"],
                 dtype="datetime64[ns]")
    codec, payload, _ = auto_encode(x)
    xi = x.view(np.int64)
    for v in [int(xi[1]), int(xi[0]), 0]:
        want = int(np.count_nonzero(xi == v))
        assert count_eq(codec, payload, len(x), x.dtype, v) == want


def test_count_eq_rejects_floats():
    from tokrle.codecs.core import count_eq

    x = np.array([1.5, 2.5, 1.5], dtype=np.float64)
    codec, payload, _ = auto_encode(x)
    with pytest.raises(TypeError, match="integer-only"):
        count_eq(codec, payload, len(x), x.dtype, 1)


@pytest.mark.parametrize("codec", list(CODECS))
def test_count_range_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import count_range

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype).astype(object)
        if len(x):
            mid = int(x[len(x) // 2])
            windows = [(int(x.min()), int(x.max())),      # covers all
                       (mid, mid),                        # single value
                       (int(x.min()) - 5, mid),
                       (int(x.max()) + 1, int(x.max()) + 9),   # empty
                       (7, 3)]                            # inverted
        else:
            windows = [(0, 10), (5, 3)]
        windows += [(-10**15, 10**15)]   # clamped to the dtype domain
        for lo, hi in windows:
            want = int(np.count_nonzero((dec >= lo) & (dec <= hi)))
            got = count_range(codec, payload, len(x), x.dtype, lo, hi)
            assert got == want, (name, lo, hi, got, want)


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=250),
       st.integers(min_value=-2**63, max_value=2**63 - 1),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=80, deadline=None)
def test_hypothesis_count_range_all_codecs(vals, lo, width):
    from tokrle.codecs.core import count_range

    x = np.array(vals, dtype=np.int64)
    hi = min(lo + width, 2**63 - 1)
    want = int(np.count_nonzero(
        (x.astype(object) >= lo) & (x.astype(object) <= hi)))
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                  "dpfor"):
        payload = encode(codec, x)
        assert count_range(codec, payload, len(x), x.dtype,
                           lo, hi) == want, codec


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_count_range_uint64_framing(name):
    """Range counts across the 2^63 bias boundary: windows straddling
    the boundary, fully above it, and outside the uint64 domain."""
    from tokrle.codecs.core import count_range

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    xo = x.astype(object)
    windows = [(0, 2**64 - 1), (2**63 - 10, 2**63 + 10),
               (2**63, 2**64 - 1), (0, 100), (-50, 50),
               (2**64, 2**64 + 9)]
    if len(x):
        windows.append((int(x.min()), int(x.max())))
    for lo, hi in windows:
        want = int(np.count_nonzero((xo >= lo) & (xo <= hi)))
        assert count_range(codec, payload, len(x), np.uint64,
                           lo, hi) == want, (lo, hi)


def test_count_range_rejects_floats():
    from tokrle.codecs.core import count_range

    x = np.array([1.5, 2.5], dtype=np.float64)
    codec, payload, _ = auto_encode(x)
    with pytest.raises(TypeError, match="integer-only"):
        count_range(codec, payload, len(x), x.dtype, 0, 2)


@pytest.mark.parametrize("codec", list(CODECS))
def test_distinct_values_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import distinct_values

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        want = np.unique(decode(codec, payload, len(x), x.dtype))
        got = distinct_values(codec, payload, len(x), x.dtype)
        assert got.dtype == x.dtype, (name, got.dtype)
        assert np.array_equal(got, want), name


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=250))
@settings(max_examples=60, deadline=None)
def test_hypothesis_distinct_values_all_codecs(vals):
    from tokrle.codecs.core import distinct_values

    x = np.array(vals, dtype=np.int64)
    want = np.unique(x)
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                  "dpfor"):
        payload = encode(codec, x)
        assert np.array_equal(
            distinct_values(codec, payload, len(x), x.dtype), want), codec


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_distinct_values_uint64_framing(name):
    """Distinct sets through the bias framing: sorted in uint64 order,
    exact across the 2^63 boundary."""
    from tokrle.codecs.core import distinct_values

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    got = distinct_values(codec, payload, len(x), np.uint64)
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.unique(x))


def test_distinct_values_rle_recurring_nonadjacent():
    """A value recurring in NON-adjacent runs must not be double-counted
    by rle's run-values path."""
    from tokrle.codecs.core import distinct_values

    x = np.array([5] * 10 + [7] * 3 + [5] * 4 + [9] + [5] * 2,
                 dtype=np.int64)
    payload = encode("rle", x)
    assert distinct_values("rle", payload, len(x),
                           x.dtype).tolist() == [5, 7, 9]


def test_distinct_values_rejects_floats():
    from tokrle.codecs.core import distinct_values

    x = np.array([1.5, 2.5], dtype=np.float64)
    codec, payload, _ = auto_encode(x)
    with pytest.raises(TypeError, match="integer-only"):
        distinct_values(codec, payload, len(x), x.dtype)


@pytest.mark.parametrize("codec", list(CODECS))
def test_value_counts_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import value_counts

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        wv, wc = np.unique(decode(codec, payload, len(x), x.dtype),
                           return_counts=True)
        gv, gc = value_counts(codec, payload, len(x), x.dtype)
        assert gv.dtype == x.dtype and gc.dtype == np.int64, name
        assert np.array_equal(gv, wv) and np.array_equal(gc, wc), name
        assert int(gc.sum()) == len(x), name       # counts conserve n


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=250))
@settings(max_examples=60, deadline=None)
def test_hypothesis_value_counts_all_codecs(vals):
    from tokrle.codecs.core import value_counts

    x = np.array(vals, dtype=np.int64)
    wv, wc = np.unique(x, return_counts=True)
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                  "dpfor"):
        payload = encode(codec, x)
        gv, gc = value_counts(codec, payload, len(x), x.dtype)
        assert np.array_equal(gv, wv) and np.array_equal(gc, wc), codec


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_value_counts_uint64_framing(name):
    from tokrle.codecs.core import value_counts

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    wv, wc = np.unique(x, return_counts=True)
    gv, gc = value_counts(codec, payload, len(x), np.uint64)
    assert gv.dtype == np.uint64
    assert np.array_equal(gv, wv) and np.array_equal(gc, wc)


def test_value_counts_rle_nonadjacent_runs_fold():
    """A value recurring in non-adjacent runs must fold its run lengths
    into ONE histogram row."""
    from tokrle.codecs.core import value_counts

    x = np.array([5] * 10 + [7] * 3 + [5] * 4 + [9] + [5] * 2,
                 dtype=np.int64)
    payload = encode("rle", x)
    gv, gc = value_counts("rle", payload, len(x), x.dtype)
    assert gv.tolist() == [5, 7, 9] and gc.tolist() == [16, 3, 1]


# --- match_eq / agg_sum_runs: selection run-lists + filtered sums ---------

def _runs_oracle(mask: np.ndarray):
    """Reference run-list from a boolean mask, built the slow clear way."""
    starts, lengths = [], []
    i, n = 0, len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            starts.append(i)
            lengths.append(j - i)
            i = j
        else:
            i += 1
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


@pytest.mark.parametrize("codec", list(CODECS))
def test_match_eq_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import match_eq

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        vals = ([int(x[0]), int(x.max()), int(x.min()) - 1, 7]
                if len(x) else [0, 7])
        vals += [10**15, -10**15]     # outside int32 domain -> empty
        for v in vals:
            ws, wl = _runs_oracle(dec.astype(object) == v)
            gs, gl = match_eq(codec, payload, len(x), x.dtype, v)
            assert np.array_equal(gs, ws) and np.array_equal(gl, wl), \
                (name, v)


_NARROW = [np.int8, np.int16, np.uint8, np.uint16, np.int32, np.uint32]


@pytest.mark.parametrize("codec", list(CODECS))
@pytest.mark.parametrize("dt", _NARROW, ids=lambda d: np.dtype(d).name)
def test_int_predicates_at_narrow_dtype_edges(codec, dt):
    """match_range, match_eq, match_in, count_eq and count_range agree
    with a Python-int oracle on chunks that hold a narrow dtype's
    extremes, for bounds at, inside and beyond the domain edges — the
    one dtype step clamps every bound and target into the stream."""
    from tokrle.codecs.core import (count_eq, count_range, match_eq,
                                    match_in, match_range)

    info = np.iinfo(dt)
    lo, hi = int(info.min), int(info.max)
    vals = [v for v in [lo, lo, lo + 1, -1, -1, 0, 0, 1, 7, 7, 7,
                        hi - 1, hi, hi] if lo <= v <= hi]
    vals += np.random.default_rng(3).integers(
        lo, hi, 64, endpoint=True).tolist()
    if codec == "bitpack":
        vals = [v for v in vals if v >= 0]    # non-negative only
    if codec == "alp" and np.dtype(dt).itemsize not in (4, 8):
        pytest.skip("alp takes 4/8-byte (float-view) input only")
    x = np.array(vals, dtype=dt)
    payload = encode(codec, x)
    n = len(x)
    bounds = [lo - 5, lo, lo + 1, -1, 0, 1, hi - 1, hi, hi + 7,
              2**70, -2**70]

    def same(got, a, b):
        want = _runs_oracle([a <= v <= b for v in vals])
        return all(np.array_equal(g, w) for g, w in zip(got, want))

    for v in bounds:
        assert same(match_eq(codec, payload, n, dt, v), v, v), v
        assert count_eq(codec, payload, n, dt, v) == vals.count(v), v
        for b in bounds:
            assert same(match_range(codec, payload, n, dt, v, b), v, b), \
                (v, b)
            assert count_range(codec, payload, n, dt, v, b) == \
                sum(v <= u <= b for u in vals), (v, b)
    for tg in (bounds, bounds[::2], bounds[1::3], [7, hi + 7]):
        got = match_in(codec, payload, n, dt, tg)
        want = _runs_oracle([u in tg for u in vals])
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), tg


@pytest.mark.parametrize("codec", list(CODECS))
def test_agg_sum_runs_matches_decode_on_corpora(codec):
    """Filtered sums over (a) the chunk's own equality selections and
    (b) an EXTERNAL selection (as built from another column's match_eq)
    must equal the gathered-decode sum exactly."""
    from tokrle.codecs.core import agg_sum_runs, match_eq

    rng = np.random.default_rng(13)
    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        if len(x) == 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        for v in (int(x[0]), int(x.max())):
            s, l = match_eq(codec, payload, len(x), x.dtype, v)
            want = int(sum(int(t) for t in dec[dec.astype(object) == v]))
            assert agg_sum_runs(codec, payload, len(x), x.dtype,
                                s, l) == want, (name, v)
        mask = rng.random(len(x)) < 0.35     # external selection
        s, l = _runs_oracle(mask)
        want = int(sum(int(t) for t in dec[mask]))
        assert agg_sum_runs(codec, payload, len(x), x.dtype,
                            s, l) == want, name


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                max_size=200),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_hypothesis_match_agg_runs_all_codecs(vals, seed):
    """Full-int64 values (exercising the rle object-dtype fallback when
    the prefix dot can't be proven int64-safe) + a random selection."""
    from tokrle.codecs.core import agg_sum_runs, match_eq

    x = np.array(vals, dtype=np.int64)
    rng = np.random.default_rng(seed)
    mask = rng.random(len(x)) < 0.5
    sel_s, sel_l = _runs_oracle(mask)
    want_sel = int(sum(int(t) for t in x[mask]))
    targets = vals[:2] + [0, 2**63 - 1]
    for codec in ("plain", "rle", "dict", "for", "delta", "pfor",
                  "dpfor"):
        payload = encode(codec, x)
        for v in targets:
            ws, wl = _runs_oracle(x == v) if len(x) else \
                (np.empty(0, np.int64), np.empty(0, np.int64))
            gs, gl = match_eq(codec, payload, len(x), x.dtype, v)
            assert np.array_equal(gs, ws) and np.array_equal(gl, wl), \
                (codec, v)
            want = int(sum(int(t) for t in x[x == v]))
            assert agg_sum_runs(codec, payload, len(x), x.dtype,
                                gs, gl) == want, (codec, v)
        if len(sel_s):
            assert agg_sum_runs(codec, payload, len(x), x.dtype,
                                sel_s, sel_l) == want_sel, codec


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_match_agg_runs_uint64_framing(name):
    """Full-range uint64 selections through the bias framing byte: the
    positions are bias-invariant and the selected sum re-adds
    n_selected * 2^63."""
    from tokrle.codecs.core import agg_sum_runs, match_eq

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    targets = ([int(x[0]), int(x.max()), 5] if len(x) else [0]) \
        + [2**64 - 1, 2**63, 2**63 - 1]
    for v in targets:
        mask = x == np.uint64(v) if len(x) else np.zeros(0, bool)
        ws, wl = _runs_oracle(mask)
        gs, gl = match_eq(codec, payload, len(x), np.uint64, v)
        assert np.array_equal(gs, ws) and np.array_equal(gl, wl), v
        want = int(sum(int(t) for t in x[mask]))
        assert agg_sum_runs(codec, payload, len(x), np.uint64,
                            gs, gl) == want, v
    # out-of-domain values answer empty without touching the payload
    for v in (-1, 1 << 64):
        gs, gl = match_eq(codec, payload, len(x), np.uint64, v)
        assert len(gs) == 0 and len(gl) == 0


def test_match_eq_rle_closed_form_is_canonical():
    """Non-adjacent recurrences of the target value stay separate runs;
    the rle path must return them sorted and gap-separated."""
    from tokrle.codecs.core import match_eq

    x = np.array([5] * 10 + [7] * 3 + [5] * 4 + [9] + [5] * 2,
                 dtype=np.int64)
    payload = encode("rle", x)
    s, l = match_eq("rle", payload, len(x), x.dtype, 5)
    assert s.tolist() == [0, 13, 18] and l.tolist() == [10, 4, 2]


def test_agg_sum_runs_rejects_malformed_selection():
    from tokrle.codecs.core import agg_sum_runs

    x = np.arange(100, dtype=np.int64)
    payload = encode("for", x)
    ok = lambda s, l: agg_sum_runs("for", payload, len(x), x.dtype,
                                   np.array(s, np.int64),
                                   np.array(l, np.int64))
    assert ok([10, 50], [5, 5]) == sum(range(10, 15)) + sum(range(50, 55))
    for bad_s, bad_l in ([[10], [0]],          # zero length
                         [[-1], [5]],          # negative start
                         [[98], [5]],          # past the end
                         [[10, 12], [5, 5]],   # overlapping
                         [[50, 10], [5, 5]]):  # unsorted
        with pytest.raises(ValueError, match="run-list"):
            ok(bad_s, bad_l)


def test_match_agg_runs_reject_floats():
    from tokrle.codecs.core import agg_sum_runs, match_eq

    x = np.array([1.5, 2.5, 1.5], dtype=np.float64)
    codec, payload, _ = auto_encode(x)
    with pytest.raises(TypeError, match="integer-only"):
        match_eq(codec, payload, len(x), x.dtype, 1)
    with pytest.raises(TypeError, match="integer-only"):
        agg_sum_runs(codec, payload, len(x), x.dtype,
                     np.array([0], np.int64), np.array([1], np.int64))


# --- match_range / runs_intersect: range selections + predicate AND -------

@pytest.mark.parametrize("codec", list(CODECS))
def test_match_range_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import match_range

    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        if len(x):
            vmin, vmax = int(x.min()), int(x.max())
            windows = [(vmin, vmax),             # full domain -> full run
                       (vmin + 1, vmax - 1),
                       (0, 3), (vmax + 1, vmax + 10),   # empty
                       (-10**15, 10**15)]
        else:
            windows = [(0, 5)]
        for lo, hi in windows:
            if lo > hi:
                continue
            d = dec.astype(object)
            ws, wl = _runs_oracle(
                np.array([(lo <= t <= hi) for t in d], dtype=bool)
                if len(x) else np.zeros(0, bool))
            gs, gl = match_range(codec, payload, len(x), x.dtype, lo, hi)
            assert np.array_equal(gs, ws) and np.array_equal(gl, wl), \
                (name, lo, hi)


def test_match_range_rle_coalesces_adjacent_runs():
    """A range can match NEIGHBOURING rle runs; the closed form must
    coalesce them into one canonical selection run."""
    from tokrle.codecs.core import match_range

    x = np.repeat(np.array([1, 2, 3, 7, 2, 1, 8, 2, 3], np.int64), 4)
    payload = encode("rle", x)
    s, l = match_range("rle", payload, len(x), x.dtype, 1, 3)
    assert s.tolist() == [0, 16, 28] and l.tolist() == [12, 8, 8]


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_match_range_uint64_framing(name):
    from tokrle.codecs.core import match_range

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    windows = ([(int(x.min()), int(x.max())),
                (int(x.min()) + 1, int(x.max()) - 1)] if len(x) else []) \
        + [(2**63 - 5, 2**63 + 5), (0, 2**64 - 1), (2**64, 2**64 + 5)]
    for lo, hi in windows:
        if lo > hi:
            continue
        mask = np.array([lo <= int(t) <= hi for t in x], dtype=bool) \
            if len(x) else np.zeros(0, bool)
        ws, wl = _runs_oracle(mask)
        gs, gl = match_range(codec, payload, len(x), np.uint64, lo, hi)
        assert np.array_equal(gs, ws) and np.array_equal(gl, wl), (lo, hi)


@given(st.lists(st.booleans(), max_size=120),
       st.lists(st.booleans(), max_size=120))
@settings(max_examples=120, deadline=None)
def test_hypothesis_runs_intersect(ma, mb):
    """Run-list intersection == boolean AND, for every mask pair."""
    from tokrle.codecs.core import _mask_to_runs, runs_intersect

    n = min(len(ma), len(mb))
    a = np.array(ma[:n], dtype=bool)
    b = np.array(mb[:n], dtype=bool)
    gs, gl = runs_intersect(*_mask_to_runs(a), *_mask_to_runs(b))
    ws, wl = _runs_oracle(a & b)
    assert np.array_equal(gs, ws) and np.array_equal(gl, wl)


def test_runs_intersect_output_is_bounded():
    """Interval-intersection output can't exceed len(a) + len(b) — the
    no-quadratic-blow-up guarantee the pipeline relies on."""
    from tokrle.codecs.core import _mask_to_runs, runs_intersect

    rng = np.random.default_rng(3)
    a = rng.random(10000) < 0.5
    b = rng.random(10000) < 0.5
    sa, la = _mask_to_runs(a)
    sb, lb = _mask_to_runs(b)
    gs, gl = runs_intersect(sa, la, sb, lb)
    assert len(gs) <= len(sa) + len(sb)
    ws, wl = _runs_oracle(a & b)
    assert np.array_equal(gs, ws) and np.array_equal(gl, wl)


@given(st.lists(st.booleans(), max_size=120),
       st.lists(st.booleans(), max_size=120))
@settings(max_examples=120, deadline=None)
def test_hypothesis_runs_union_complement(ma, mb):
    """Run-list union == boolean OR; complement == boolean NOT — with
    De Morgan closing the algebra: NOT(a OR b) == NOT a AND NOT b."""
    from tokrle.codecs.core import (_mask_to_runs, runs_complement,
                                    runs_intersect, runs_union)

    n = min(len(ma), len(mb))
    a = np.array(ma[:n], dtype=bool)
    b = np.array(mb[:n], dtype=bool)
    ra, rb = _mask_to_runs(a), _mask_to_runs(b)
    gu = runs_union(*ra, *rb)
    wu = _runs_oracle(a | b)
    assert np.array_equal(gu[0], wu[0]) and np.array_equal(gu[1], wu[1])
    gc = runs_complement(*ra, n)
    wc = _runs_oracle(~a)
    assert np.array_equal(gc[0], wc[0]) and np.array_equal(gc[1], wc[1])
    # De Morgan on the run representation
    lhs = runs_complement(*gu, n)
    rhs = runs_intersect(*runs_complement(*ra, n),
                         *runs_complement(*rb, n))
    assert np.array_equal(lhs[0], rhs[0]) and \
        np.array_equal(lhs[1], rhs[1])


def test_runs_union_merges_touching_intervals():
    """Intervals that touch end-to-start must coalesce into one
    canonical run (gap-separated invariant)."""
    from tokrle.codecs.core import runs_union

    s, l = runs_union(np.array([0, 10], np.int64),
                      np.array([5, 5], np.int64),
                      np.array([5], np.int64), np.array([5], np.int64))
    assert s.tolist() == [0] and l.tolist() == [15]


@pytest.mark.parametrize("codec", list(CODECS))
def test_gather_runs_matches_decode_on_corpora(codec):
    """Late materialization: gather_runs over sparse AND dense
    selections must equal the positional gather of a full decode —
    both the per-run decode_range path and the decode+gather path."""
    from tokrle.codecs.core import gather_runs

    rng = np.random.default_rng(51)
    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        if len(x) < 10:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        # sparse (few tiny runs -> random-access path where supported)
        sparse = np.zeros(len(x), bool)
        sparse[rng.choice(len(x), size=max(1, len(x) // 100),
                          replace=False)] = True
        # dense (majority selected -> decode+gather path)
        dense = rng.random(len(x)) < 0.7
        for mask in (sparse, dense):
            s, l = _runs_oracle(mask)
            got = gather_runs(codec, payload, len(x), x.dtype, s, l)
            assert got.dtype == x.dtype, name
            assert np.array_equal(got, dec[mask]), (name, mask.sum())


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_gather_runs_uint64_framing(name):
    from tokrle.codecs.core import gather_runs

    x = _U64_CASES[name]
    if len(x) < 4:
        return
    codec, payload, _ = auto_encode(x)
    mask = np.zeros(len(x), bool)
    mask[:: max(1, len(x) // 7)] = True
    s, l = _runs_oracle(mask)
    got = gather_runs(codec, payload, len(x), np.uint64, s, l)
    assert got.dtype == np.uint64 and np.array_equal(got, x[mask])


@pytest.mark.parametrize("codec", list(CODECS))
def test_match_in_matches_decode_on_corpora(codec):
    from tokrle.codecs.core import match_in

    rng = np.random.default_rng(67)
    for name, x in CORPORA.items():
        if codec == "bitpack" and len(x) and x.min() < 0:
            continue
        payload = encode(codec, x)
        dec = decode(codec, payload, len(x), x.dtype)
        sets = ([[int(x[0]), int(x.max())],
                 sorted({int(v) for v in
                         x[rng.choice(len(x), min(40, len(x)),
                                      replace=False)]}),
                 [int(x.max()) + 1, 10**15]] if len(x) else [[0]]) \
            + [[], [-10**15, 10**15]]
        for tgt in sets:
            tset = set(tgt)
            mask = np.array([int(v) in tset for v in dec], bool) \
                if len(x) else np.zeros(0, bool)
            ws, wl = _runs_oracle(mask)
            gs, gl = match_in(codec, payload, len(x), x.dtype, tgt)
            assert np.array_equal(gs, ws) and np.array_equal(gl, wl), \
                (name, len(tgt))


@pytest.mark.parametrize("name", sorted(_U64_CASES))
def test_match_in_uint64_framing(name):
    from tokrle.codecs.core import match_in

    x = _U64_CASES[name]
    codec, payload, _ = auto_encode(x)
    sets = ([[int(x[0]), int(x.max())]] if len(x) else []) + \
        [[2**63 - 1, 2**63, 2**64 - 1], [-5, 2**64, 2**64 + 7], []]
    for tgt in sets:
        tset = {t for t in tgt if 0 <= t < 2**64}
        mask = np.array([int(v) in tset for v in x], bool)
        ws, wl = _runs_oracle(mask)
        gs, gl = match_in(codec, payload, len(x), np.uint64, tgt)
        assert np.array_equal(gs, ws) and np.array_equal(gl, wl), tgt


def test_match_in_rle_coalesces_and_dict_full_cover():
    from tokrle.codecs.core import match_in

    # neighbouring rle runs with different values, both in the set
    x = np.repeat(np.array([1, 2, 9, 2, 1], np.int64), 3)
    payload = encode("rle", x)
    s, l = match_in("rle", payload, len(x), x.dtype, [1, 2])
    assert s.tolist() == [0, 9] and l.tolist() == [6, 6]
    # a set covering the whole dictionary answers the full chunk from
    # the dict stream alone
    y = np.array([5, 7, 5, 7, 9] * 20, np.int64)
    payload = encode("dict", y)
    s, l = match_in("dict", payload, len(y), y.dtype, [5, 7, 9, 11])
    assert s.tolist() == [0] and l.tolist() == [len(y)]


# ---------------------------------------------------------------------------
# String kernel family: match_eq_str / match_in_str / match_prefix_str /
# gather_str_runs, on BOTH chunk forms (plain str: and dictionary sdict:),
# property-tested against plain-Python oracles.
# ---------------------------------------------------------------------------

def _encode_str_chunk(vals, form):
    """Encode a list of strings the way table_encode does, returning
    (spec, lens_payload, text_payload)."""
    from tokrle.codecs.core import encode as cenc
    from tokrle.codecs.core import sdict_pack
    from tokrle.select import auto_encode

    data = "".join(vals).encode("utf-8")
    lens = np.array([len(v.encode("utf-8")) for v in vals],
                    dtype=np.int64)
    lcodec, lpayload, _ = auto_encode(lens)
    if form == "str":
        tpayload = cenc("fsst", np.frombuffer(data, dtype=np.uint8)
                        .view(np.int8))
        return f"str:{lcodec}:fsst", lpayload, tpayload
    uniq = list(dict.fromkeys(vals))
    codes = np.array([uniq.index(v) for v in vals], dtype=np.int64)
    ub = [u.encode("utf-8") for u in uniq]
    dlens = np.array([len(b) for b in ub], dtype=np.int64)
    dbytes = (np.frombuffer(b"".join(ub), dtype=np.uint8)
              if dlens.sum() else np.empty(0, np.uint8))
    ccodec, cpayload, _ = auto_encode(codes)
    dlc, dlp, _ = auto_encode(dlens)
    dbp = cenc("fsst", dbytes.view(np.int8))
    return (f"sdict:{ccodec}:{dlc}:fsst", lpayload,
            sdict_pack(cpayload, dlp, dbp, len(uniq)))


_WORDS = st.text(
    alphabet=st.characters(codec="utf-8", max_codepoint=0x2FFF),
    max_size=12)


@given(vals=st.lists(_WORDS, min_size=1, max_size=60),
       probe=_WORDS,
       form=st.sampled_from(["str", "sdict"]),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_string_match_kernels_property(vals, probe, form, data):
    from tokrle.codecs.core import (_runs_to_indices, gather_str_runs,
                                    match_contains_str, match_eq_str,
                                    match_in_str, match_prefix_str,
                                    match_suffix_str)

    n = len(vals)
    # probe both an arbitrary value and one guaranteed present
    target = data.draw(st.sampled_from([probe, vals[0]]))
    spec, lp, tp = _encode_str_chunk(vals, form)

    starts, lengths = match_eq_str(spec, lp, tp, n, target)
    got = set(_runs_to_indices(starts, lengths).tolist())
    assert got == {i for i, v in enumerate(vals) if v == target}

    in_set = data.draw(st.lists(st.sampled_from(vals + [probe, ""]),
                                max_size=5))
    starts, lengths = match_in_str(spec, lp, tp, n, in_set)
    got = set(_runs_to_indices(starts, lengths).tolist())
    assert got == {i for i, v in enumerate(vals) if v in set(in_set)}

    prefix = data.draw(st.sampled_from(
        [probe, vals[0][:1], vals[0], ""]))
    starts, lengths = match_prefix_str(spec, lp, tp, n, prefix)
    got = set(_runs_to_indices(starts, lengths).tolist())
    assert got == {i for i, v in enumerate(vals)
                   if v.startswith(prefix)}

    suffix = data.draw(st.sampled_from(
        [probe, vals[0][-1:], vals[0], ""]))
    starts, lengths = match_suffix_str(spec, lp, tp, n, suffix)
    got = set(_runs_to_indices(starts, lengths).tolist())
    assert got == {i for i, v in enumerate(vals)
                   if v.endswith(suffix)}

    needle = data.draw(st.sampled_from(
        [probe, vals[0][1:3], vals[0], ""]))
    starts, lengths = match_contains_str(spec, lp, tp, n, needle)
    got = set(_runs_to_indices(starts, lengths).tolist())
    assert got == {i for i, v in enumerate(vals) if needle in v}

    # gather at the eq-match positions reproduces exactly the target
    starts, lengths = match_eq_str(spec, lp, tp, n, target)
    arr = gather_str_runs(spec, lp, tp, n, starts, lengths)
    assert arr.to_pylist() == [v for v in vals if v == target]
    # full-chunk gather is the identity
    full = gather_str_runs(spec, lp, tp, n,
                           np.zeros(1, np.int64),
                           np.full(1, n, np.int64))
    assert full.to_pylist() == vals


def test_match_eq_str_length_miss_never_decodes_text():
    """When no row has the value's byte length, the lengths stream alone
    answers: a text payload that cannot be decoded is never touched."""
    from tokrle.codecs.core import decode, match_eq_str

    vals = ["en", "de", "fr", "en"] * 50
    spec, lp, _ = _encode_str_chunk(vals, "str")
    bad = b"\xff\xff\xff"
    with pytest.raises(Exception):
        decode("fsst", bad, 400, np.int8)
    starts, lengths = match_eq_str(spec, lp, bad, len(vals), "xyz")
    assert len(starts) == 0 and len(lengths) == 0
