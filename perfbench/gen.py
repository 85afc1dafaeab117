"""Seeded input generators.  Every input is a pure function of the seed
and the size, and is built here, outside tokrle; tokrle only receives
the finished Parquet files and tables."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import doc_hash, table_doc_hashes

# Sizes follow tokrle's own defaults: synth_tokens (the repo's synthetic
# corpus) draws doc lengths 1..2*mean_len with mean_len=512 from
# n_sources=20 sources, and encode_corpus cuts chunks of
# DEFAULT_BATCH_SIZE=2048 docs (~1M tokens).  ``*_file_docs`` is the docs
# per input Parquet file: ingest is one of bench.py's 4096-doc blocks
# (two default chunks); train_read splits the same number of docs into
# 256-doc files, so its corpus has 16 chunks and a fetch of FETCH_K = 2
# ids touches at most 1/8 of them.  Larger corpora do not fit this
# benchmark's run time on one core.
SIZES = {
    "full": {"ingest_docs": 4096, "ingest_file_docs": 4096,
             "train_docs": 4096, "train_file_docs": 256,
             "lineitem_rows": 300_000, "mean_len": 512, "n_sources": 20},
    "tiny": {"ingest_docs": 400, "ingest_file_docs": 200,
             "train_docs": 400, "train_file_docs": 25,
             "lineitem_rows": 20_000, "mean_len": 64, "n_sources": 8},
}

REGIMES = ("long_runs", "low_card", "narrow_range", "zipf")
VOCAB = 32000


def _regime_tokens(rng, regime: int, n: int) -> np.ndarray:
    """The four value regimes of tokrle.sources.tokens._synth_doc_tokens."""
    if regime == 0:
        vals = rng.integers(0, 16, size=max(n // 32, 1))
        toks = np.repeat(vals, rng.geometric(1 / 32, size=len(vals)))[:n]
        if len(toks) < n:
            toks = np.pad(toks, (0, n - len(toks)), constant_values=vals[0])
    elif regime == 1:
        toks = rng.integers(0, 256, size=n)
    elif regime == 2:
        toks = 1_000_000 + (rng.zipf(1.4, n) % 2048)
    else:
        toks = rng.zipf(1.3, n) % VOCAB
    return toks.astype(np.int32)


def _token_table(ids: list[str], toks: list[np.ndarray],
                 sources: list[str]) -> pa.Table:
    offs = np.concatenate(([0], np.cumsum([len(t) for t in toks])))
    flat = np.concatenate(toks) if toks else np.empty(0, np.int32)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.string()),
        "tokens": pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()),
                                           pa.array(flat, type=pa.int32())),
        "n_tok": pa.array(np.diff(offs).astype(np.int32), type=pa.int32()),
        "source": pa.array(sources, type=pa.string()),
    })


class Corpus:
    """A generated token corpus: the token table, its per-doc hashes and
    the properties recorded next to the metrics."""

    def __init__(self, table: pa.Table, props: dict) -> None:
        self.table = table
        self.props = props
        self.hashes = table_doc_hashes(table)

    def write(self, in_dir: str, docs_per_file: int) -> int:
        """Write as Parquet files of ``docs_per_file`` consecutive docs
        (the default snappy compression); returns their total bytes."""
        os.makedirs(in_dir, exist_ok=True)
        total = 0
        for k, s in enumerate(range(0, self.table.num_rows, docs_per_file)):
            p = os.path.join(in_dir, f"part-{k:03d}.parquet")
            pq.write_table(self.table.slice(s, docs_per_file), p)
            total += os.path.getsize(p)
        return total


def ingest_corpus(seed: int, n_docs: int, mean_len: int,
                  n_sources: int) -> Corpus:
    """Four regimes with skew by source: source s holds a Zipf-skewed
    share of the docs and draws from regime s % 4 (the regimes of
    synth_tokens).  Docs are stored in source order, as a per-source
    export arrives, so chunks differ in their regime mix."""
    rng = np.random.default_rng([seed, 1])
    share = 1.0 / np.arange(1, n_sources + 1) ** 0.8
    bounds = np.round(np.cumsum(share) / share.sum() * n_docs).astype(int)
    src = np.searchsorted(bounds, np.arange(n_docs), side="right")
    lens = rng.integers(1, 2 * mean_len + 1, size=n_docs)
    toks = [_regime_tokens(np.random.default_rng([seed, 2, i]),
                           int(s) % 4, int(n))
            for i, (s, n) in enumerate(zip(src, lens))]
    ids = [f"s{seed}-d{i}" for i in range(n_docs)]
    table = _token_table(ids, toks, [f"src{s}" for s in src])
    regime_tok = {r: int(sum(lens[src % 4 == k]))
                  for k, r in enumerate(REGIMES)}
    return Corpus(table, {"regime_tokens": regime_tok,
                          "n_sources": n_sources, "mean_len": mean_len})


def train_corpus(seed: int, n_docs: int, mean_len: int,
                 n_sources: int) -> Corpus:
    """High-entropy Zipf ids over a 32000-entry vocabulary, shaped like
    BPE output: a seeded permutation maps Zipf ranks to ids, and each
    source has its own Zipf exponent (1.05 to 1.4)."""
    rng = np.random.default_rng([seed, 3])
    perm = rng.permutation(VOCAB).astype(np.int32)
    src = np.sort(rng.integers(0, n_sources, size=n_docs))
    expo = np.linspace(1.05, 1.4, n_sources)
    lens = rng.integers(1, 2 * mean_len + 1, size=n_docs)
    toks = []
    for i, (s, n) in enumerate(zip(src, lens)):
        r = np.random.default_rng([seed, 4, i])
        toks.append(perm[(r.zipf(expo[s], int(n)) - 1) % VOCAB])
    ids = [f"t{seed}-d{i}" for i in range(n_docs)]
    table = _token_table(ids, toks, [f"src{s}" for s in src])
    return Corpus(table, {"vocab": VOCAB, "n_sources": n_sources,
                          "mean_len": mean_len,
                          "zipf_exponents": [round(float(e), 3)
                                             for e in expo]})


def upsert_delta(corpus: Corpus, seed: int, cycle: int, mean_len: int,
                 frac: float = 0.01) -> tuple[pa.Table, dict]:
    """About ``frac`` of the docs replaced and ``frac`` new ones, drawn
    from the same regimes.  Returns the delta table and the expected
    doc hashes after the upsert."""
    rng = np.random.default_rng([seed, 5, cycle])
    n = corpus.table.num_rows
    k = max(1, int(n * frac))
    rep = np.sort(rng.choice(n, size=k, replace=False))
    ids_all = corpus.table.column("doc_id").to_pylist()
    srcs = corpus.table.column("source").to_pylist()
    ids = [ids_all[i] for i in rep] + [f"s{seed}-c{cycle}-n{j}"
                                       for j in range(k)]
    sources = [srcs[i] for i in rep] + [srcs[int(j)] for j in
                                        rng.integers(0, n, size=k)]
    toks = [_regime_tokens(np.random.default_rng([seed, 6, cycle, j]),
                           int(s[3:]) % 4,
                           int(rng.integers(1, 2 * mean_len + 1)))
            for j, s in enumerate(sources)]
    delta = _token_table(ids, toks, sources)
    want = dict(corpus.hashes)
    want.update({d: doc_hash(t) for d, t in zip(ids, toks)})
    return delta, want


def lineitem(seed: int, n_rows: int) -> pa.Table:
    """TPC-H-shaped lineitem columns: orders of 1-7 lines with sparse
    ascending order keys, 20000 parts, 1000 suppliers, quantities 1-50,
    return flags A/N/R.  Sorted on l_suppkey, as the encoded layout is."""
    rng = np.random.default_rng([seed, 7])
    lines = rng.integers(1, 8, size=n_rows)
    ends = np.cumsum(lines)
    lines = lines[:np.searchsorted(ends, n_rows) + 1]
    lines[-1] -= int(lines.sum() - n_rows)
    order = np.repeat(np.arange(len(lines)), lines)
    okey = (order // 8) * 32 + order % 8 + 1
    start = np.repeat(np.cumsum(lines) - lines, lines)
    lnum = np.arange(n_rows) - start + 1
    flag = np.array(["A", "N", "R"])[rng.choice(3, size=n_rows,
                                                p=[0.25, 0.5, 0.25])]
    t = pa.table({
        "l_orderkey": pa.array(okey, type=pa.int64()),
        "l_partkey": pa.array(rng.integers(1, 20001, n_rows), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(1, 1001, n_rows), type=pa.int64()),
        "l_linenumber": pa.array(lnum, type=pa.int64()),
        "l_quantity": pa.array(rng.integers(1, 51, n_rows), type=pa.int64()),
        "l_returnflag": pa.array(flag, type=pa.string()),
    })
    return t.sort_by([("l_suppkey", "ascending"),
                      ("l_orderkey", "ascending")])
