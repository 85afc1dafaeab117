"""The three workloads.  Each builds its seeded input, sets up (timed, in
repetitions), warms up, runs its closed loop for the run's seconds with
one client, checks every answer, and returns what it measured plus the
state the traced run's layer probes need."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gen
from common import (count_mismatches, dir_bytes, measured, median,
                    parquet_files, table_doc_hashes, timed)

SETUP_REPS = 3
MIN_CYCLES = 6
MIN_EPOCHS = 10
MIN_FETCHES = 20
MIN_QUERY_ROUNDS = 6
FETCH_K = 2
LINEITEM_COLS = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                 "l_quantity", "l_returnflag"]
TABLE_BATCH_ROWS = 2560


class Ctx:
    def __init__(self, seed, seconds, size, tracer, out_dir,
                 flip_byte=False):
        self.seed, self.seconds = seed, seconds
        self.size, self.tr, self.out = size, tracer, out_dir
        self.flip_byte = flip_byte
        self.sizes = gen.SIZES[size]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def op(self, check) -> bool:
        """Count one operation; ``check`` returns True when its output
        was right.  An exception counts as a failure."""
        self.attempted += 1
        try:
            ok = bool(check())
        except Exception as e:  # noqa: BLE001 - every failure is counted
            ok = False
            self.errors.append(f"{type(e).__name__}: {e}"[:300])
        if not ok:
            self.failed += 1
        return ok


# ------------------------------------------------------- token corpora


def corpus_files_of(enc_dir: str) -> list[str]:
    """Parquet files of an encoded corpus's live view."""
    from tokrle.pipelines.corpus import corpus_files

    files = corpus_files(enc_dir)
    return files if isinstance(files, list) else parquet_files(files)


def decode_corpus_locally(enc_dir: str) -> pa.Table:
    """Read the live view of an encoded corpus and decode it with
    tokrle's decode stage, in this process (verification only)."""
    from tokrle.stages.encoder import decode_chunks

    parts = [decode_chunks(pq.read_table(f))
             for f in corpus_files_of(enc_dir)]
    return pa.concat_tables([p for p in parts if p.num_rows])


def corpus_bytes(enc_dir: str) -> int:
    return dir_bytes(corpus_files_of(enc_dir))


def collect(ds) -> pa.Table:
    parts = [b for b in ds.iter_batches(batch_format="pyarrow",
                                        batch_size=None) if b.num_rows]
    return pa.concat_tables(parts) if parts else pa.table(
        {"doc_id": pa.array([], pa.string()),
         "tokens": pa.array([], pa.list_(pa.int32()))})


def flip_payload_byte(enc_dir: str) -> None:
    """Corrupt one byte in the middle of the first chunk's payload (the
    benchmark's own self-test: the checks must catch it)."""
    path = corpus_files_of(enc_dir)[0]
    t = pq.read_table(path)
    pay = t.column("payload").to_pylist()
    b = bytearray(pay[0])
    b[len(b) // 2] ^= 0xFF
    pay[0] = bytes(b)
    t = t.set_column(t.schema.get_field_index("payload"), "payload",
                     pa.array(pay, type=pa.binary()))
    pq.write_table(t, path)


def ingest(ctx: Ctx) -> dict:
    import ray.data

    from tokrle.pipelines.corpus import (compact_corpus, encode_corpus,
                                         upsert_corpus)

    S = ctx.sizes
    corpus = gen.ingest_corpus(ctx.seed, S["ingest_docs"], S["mean_len"],
                               S["n_sources"])
    in_dir = ctx.path("in")
    snappy = corpus.write(in_dir, S["ingest_file_docs"])
    n_tok = int(corpus.table.column("n_tok").to_numpy().sum())
    # a small separate corpus for the warm-up cycles of the set-up
    warm = gen.ingest_corpus(ctx.seed + 1_000_003, 64, 64, 4)
    warm_in = ctx.path("warm_in")
    warm.write(warm_in, 32)

    def cycle(src_dir, enc, cyc, c, op, checked):
        """encode -> upsert -> compact on a fresh directory; with
        ``checked`` each step counts as an operation and its output is
        decoded and compared with the expected docs."""
        tr, m = ctx.tr, {}
        delta, want = gen.upsert_delta(c, ctx.seed, cyc, S["mean_len"])
        delta_ds = ray.data.from_arrow(delta)

        def step(name, fn, expect, out=enc, key=None):
            def run():
                with tr.span(name, op):
                    m[key or name] = measured(fn)
                return not checked or count_mismatches(table_doc_hashes(
                    decode_corpus_locally(out)), expect) == 0
            return ctx.op(run) if checked else run()

        # encode is the shortest step, so a cycle takes two samples of
        # it; the first output is checked and dropped
        enc2 = enc + "_2"
        step("corpus.encode_corpus", lambda: encode_corpus(src_dir, enc2),
             c.hashes, enc2, "encode2")
        shutil.rmtree(enc2, ignore_errors=True)
        step("corpus.encode_corpus", lambda: encode_corpus(src_dir, enc),
             c.hashes)
        encoded = corpus_bytes(enc)
        before = {f: os.stat(f).st_mtime_ns for f in parquet_files(enc)}
        step("corpus.upsert_corpus", lambda: upsert_corpus(enc, delta_ds),
             want)
        written = dir_bytes(f for f in parquet_files(enc)
                            if before.get(f) != os.stat(f).st_mtime_ns)
        step("corpus.compact_corpus", lambda: compact_corpus(enc), want)
        nan = float("nan")
        ((t_e2, c_e2, _), (t_enc, c_enc, erun), (t_up, c_up, _),
         (t_cp, c_cp, crun)) = (
            m.get(k, (nan, nan, {})) for k in (
                "encode2", "corpus.encode_corpus", "corpus.upsert_corpus",
                "corpus.compact_corpus"))
        return {"encode_s": t_enc, "encode_cpu_s": c_enc,
                "encode2_s": t_e2, "encode2_cpu_s": c_e2,
                "upsert_compact_s": t_up + t_cp,
                "upsert_compact_cpu_s": c_up + c_cp,
                "n_tokens": erun.get("n_tokens", 0),
                "encoded_bytes": encoded,
                "upsert_written": written,
                "delta_raw_bytes": 4 * int(
                    delta.column("n_tok").to_numpy().sum()),
                "compact_bytes": crun.get("bytes_compacted", 0)}

    setup = []
    for k in range(SETUP_REPS):
        enc = ctx.path(f"warm_enc{k}")
        t, _ = timed(cycle, warm_in, enc, 1000 + k, warm, 0, False)
        setup.append(t)
        shutil.rmtree(enc, ignore_errors=True)

    samples = []
    t0 = time.perf_counter()
    cyc = 0
    enc = None
    while time.perf_counter() - t0 < ctx.seconds or cyc < MIN_CYCLES:
        if enc:
            shutil.rmtree(enc, ignore_errors=True)
        enc = ctx.path(f"enc{cyc}")
        samples.append(cycle(in_dir, enc, cyc, corpus, ctx.tr.new_op(),
                             True))
        samples[-1]["traced"] = ctx.tr.active
        cyc += 1
    ratio = 4 * n_tok / median([s["encoded_bytes"] for s in samples])
    enc_rate = [s["n_tokens"] / s[k] for s in samples
                for k in ("encode2_s", "encode_s")]
    enc_cpu_rate = [s["n_tokens"] / s[k] for s in samples
                    for k in ("encode2_cpu_s", "encode_cpu_s")]
    upc = [s["upsert_compact_s"] for s in samples]
    upc_cpu = [s["upsert_compact_cpu_s"] for s in samples]
    return {
        "setup_reps_s": setup,
        "bulk_tok_per_cpu_s": median(enc_cpu_rate),
        "op_cpu_p50_s": median(upc_cpu),
        "compression_ratio": ratio,
        "named": _named(encode_tok_per_s=("tok/s", enc_rate),
                        encode_tok_per_cpu_s=("tok/cpu_s", enc_cpu_rate),
                        upsert_compact_s=("s", upc),
                        upsert_compact_cpu_s=("cpu_s", upc_cpu)),
        "input": {"docs": corpus.table.num_rows, "tokens": n_tok,
                  **corpus.props, "snappy_parquet_bytes": snappy,
                  "value_span": _span(corpus.table)},
        "state": {"in_dir": in_dir, "enc_dir": enc, "samples": samples,
                  "op_series": (upc, [s["traced"] for s in samples])},
    }


def _named(**series) -> dict:
    """Per-workload metric names: median and samples."""
    return {k: {"value": median(v), "unit": u, "samples": v}
            for k, (u, v) in series.items()}


def _span(table: pa.Table) -> list[int]:
    import pyarrow.compute as pc

    mm = pc.min_max(pc.list_flatten(table.column("tokens")))
    return [mm["min"].as_py(), mm["max"].as_py()]


def train_read(ctx: Ctx) -> dict:
    from tokrle.pipelines.corpus import encode_corpus, read_corpus
    from tokrle.pipelines.encode import (build_doc_index, decode_tokens,
                                         fetch_docs_indexed)

    S = ctx.sizes
    corpus = gen.train_corpus(ctx.seed, S["train_docs"], S["mean_len"],
                              S["n_sources"])
    in_dir = ctx.path("in")
    snappy = corpus.write(in_dir, S["train_file_docs"])
    n_tok = int(corpus.table.column("n_tok").to_numpy().sum())
    tr = ctx.tr

    setup, enc_walls, enc = [], [], None
    for k in range(SETUP_REPS):
        if enc:
            shutil.rmtree(enc, ignore_errors=True)
        enc = ctx.path(f"enc{k}")
        op = tr.new_op(alternate=False)
        t0 = time.perf_counter()
        with tr.span("corpus.encode_corpus", op):
            enc_walls.append(timed(encode_corpus, in_dir, enc)[0])
        with tr.span("encode.build_doc_index", op):
            build_doc_index(enc)
        setup.append(time.perf_counter() - t0)

    ids_all = corpus.table.column("doc_id").to_pylist()
    rng = np.random.default_rng([ctx.seed, 11])

    def epoch(op):
        with tr.span("encode.decode_tokens", op):
            return measured(lambda: collect(decode_tokens(read_corpus(enc))))

    def fetch(op, ids):
        with tr.span("encode.fetch_docs_indexed", op):
            return measured(lambda: collect(fetch_docs_indexed(enc, ids)))

    # warm-up: one epoch and two fetches, untimed
    epoch(0)
    for _ in range(2):
        fetch(0, list(rng.choice(ids_all, FETCH_K, replace=False)))
    if ctx.flip_byte:
        flip_payload_byte(enc)

    t0 = time.perf_counter()
    dec_s, dec_cpu, fetch_s, fetch_cpu = [], [], [], []
    fetch_ids, fetch_traced = [], []

    def one_epoch():
        dt, cpu, tab = epoch(tr.new_op())
        dec_s.append(dt)
        dec_cpu.append(cpu)
        return count_mismatches(table_doc_hashes(tab), corpus.hashes) == 0

    def one_fetch():
        ids = [str(i) for i in rng.choice(ids_all, FETCH_K, replace=False)]
        dt, cpu, tab = fetch(tr.new_op(), ids)
        fetch_s.append(dt)
        fetch_cpu.append(cpu)
        fetch_traced.append(tr.active)
        fetch_ids.append(ids)
        want = {d: corpus.hashes[d] for d in ids}
        return count_mismatches(table_doc_hashes(tab), want) == 0

    n_ep = n_fe = 0
    while time.perf_counter() - t0 < 0.4 * ctx.seconds or n_ep < MIN_EPOCHS:
        ctx.op(one_epoch)
        n_ep += 1
    while time.perf_counter() - t0 < ctx.seconds or n_fe < MIN_FETCHES:
        ctx.op(one_fetch)
        n_fe += 1
    rates = [n_tok / d for d in dec_s]
    cpu_rates = [n_tok / c for c in dec_cpu]
    return {
        "setup_reps_s": setup,
        "bulk_tok_per_cpu_s": median(cpu_rates),
        "op_cpu_p50_s": median(fetch_cpu),
        "compression_ratio": 4 * n_tok / corpus_bytes(enc),
        "named": _named(decode_tok_per_s=("tok/s", rates),
                        decode_tok_per_cpu_s=("tok/cpu_s", cpu_rates),
                        fetch_p50_s=("s", fetch_s),
                        fetch_cpu_p50_s=("cpu_s", fetch_cpu)),
        "input": {"docs": corpus.table.num_rows, "tokens": n_tok,
                  **corpus.props, "snappy_parquet_bytes": snappy,
                  "value_span": _span(corpus.table), "fetch_k": FETCH_K},
        "state": {"in_dir": in_dir, "enc_dir": enc, "encode_s": enc_walls,
                  "decode_s": dec_s, "op_series": (fetch_s, fetch_traced),
                  "fetch_ids": fetch_ids},
    }


# ------------------------------------------------------------ pushdown


def query_mix(rng) -> list[dict]:
    """One round of the fixed query mix, constants drawn from ``rng``.
    Each entry: name, call(enc_dir) -> comparable answer, the DuckDB
    SQL over the raw table ``t``, and the predicate leaves and columns
    the layer probe replays."""
    from tokrle.pipelines import table_encode as te

    s = int(rng.integers(1, 1001))
    a = int(rng.integers(1, 970))
    b = int(rng.integers(1, 980))
    ln = int(rng.integers(1, 8))
    k = int(rng.integers(5, 51))
    # low-cardinality columns: a 20000-value l_partkey histogram makes
    # one query take 20 s on one core and would dominate the mix
    qcol = ["l_quantity", "l_suppkey", "l_linenumber"][int(rng.integers(3))]
    c = int(rng.integers(1, 940))
    d = int(rng.integers(1, 1001))
    q = int(rng.integers(1, 51))

    def rows(df, cols):
        if not len(df):
            return []
        return sorted(tuple(_py(v) for v in r)
                      for r in df[cols].itertuples(index=False))

    b_expr = ("and", ("range", "l_suppkey", a, a + 30),
              ("range", "l_linenumber", 1, 3))
    g_expr = ("and", ("range", "l_suppkey", b, b + 20),
              ("eq", "l_linenumber", ln))
    s_expr = ("range", "l_suppkey", c, c + 60)
    w_expr = ("and", ("eq", "l_suppkey", d), ("range", "l_quantity", 1, q))
    return [
        {"name": "value_count",
         "call": lambda e: te.encoded_value_count(e, "l_suppkey", s),
         "answer": lambda df: rows(df, ["n_match"]),
         "sql": f"SELECT count(*) FROM t WHERE l_suppkey = {s}",
         "leaves": [("eq", "l_suppkey", s)], "aggs": []},
        {"name": "boolean_agg",
         "call": lambda e: te.encoded_boolean_agg(e, b_expr, ["l_quantity"]),
         "answer": lambda df: rows(df, ["n_match", "sum_l_quantity"]),
         "sql": "SELECT count(*), coalesce(sum(l_quantity), 0) FROM t "
                f"WHERE l_suppkey BETWEEN {a} AND {a + 30} "
                "AND l_linenumber BETWEEN 1 AND 3",
         "leaves": list(b_expr[1:]), "aggs": ["l_quantity"]},
        {"name": "filtered_group_agg",
         "call": lambda e: te.encoded_filtered_group_agg(
             e, "l_suppkey", g_expr, ["l_quantity"]),
         "answer": lambda df: rows(df, ["l_suppkey", "n",
                                        "sum_l_quantity"]),
         "sql": "SELECT l_suppkey, count(*), sum(l_quantity) FROM t "
                f"WHERE l_suppkey BETWEEN {b} AND {b + 20} "
                f"AND l_linenumber = {ln} GROUP BY 1",
         "leaves": list(g_expr[1:]), "aggs": ["l_quantity"]},
        {"name": "topk_rows",
         "call": lambda e: te.encoded_topk_rows(e, "l_partkey", k),
         "answer": lambda df: rows(df, ["value", "n"]),
         "sql": "SELECT l_partkey, count(*) FROM (SELECT l_partkey FROM t "
                f"ORDER BY l_partkey DESC LIMIT {k}) GROUP BY 1",
         "leaves": [], "aggs": [], "value_counts": ["l_partkey"]},
        {"name": "quantiles",
         "call": lambda e: te.encoded_quantiles(e, qcol),
         "answer": lambda df: rows(df, ["quantile", "sum_v", "n_rows"]),
         "sql": f"SELECT quantile_disc({qcol}, 0.25), "
                f"quantile_disc({qcol}, 0.5), quantile_disc({qcol}, 0.75), "
                f"sum({qcol}), count(*) FROM t",
         "sql_rows": lambda r: sorted((q, r[0][3], r[0][4])
                                     for q in r[0][:3]),
         "leaves": [], "aggs": [], "value_counts": [qcol]},
        {"name": "group_by_str",
         "call": lambda e: te.encoded_group_by_str(
             e, "l_returnflag", ["l_quantity"], expr=s_expr),
         "answer": lambda df: rows(df, ["l_returnflag", "n",
                                        "sum_l_quantity"]),
         "sql": "SELECT l_returnflag, count(*), sum(l_quantity) FROM t "
                f"WHERE l_suppkey BETWEEN {c} AND {c + 60} GROUP BY 1",
         "leaves": [s_expr], "aggs": ["l_quantity"]},
        {"name": "scan_where",
         "call": lambda e: (te.encoded_scan_where(
             e, w_expr, ["l_orderkey", "l_partkey"]).to_pandas(), {}),
         "answer": lambda df: rows(df, ["l_orderkey", "l_partkey"]),
         "sql": "SELECT l_orderkey, l_partkey FROM t WHERE "
                f"l_suppkey = {d} AND l_quantity BETWEEN 1 AND {q}",
         "leaves": list(w_expr[1:]), "aggs": ["l_orderkey", "l_partkey"]},
    ]


def _py(v):
    return v.item() if hasattr(v, "item") else v


def pushdown(ctx: Ctx) -> dict:
    import duckdb
    import ray.data

    from tokrle.pipelines.table_encode import encode_table_columns

    table = gen.lineitem(ctx.seed, ctx.sizes["lineitem_rows"])
    raw = ctx.path("raw", "lineitem.parquet")
    os.makedirs(os.path.dirname(raw))
    pq.write_table(table, raw)
    tr = ctx.tr

    setup, enc = [], None
    for k in range(SETUP_REPS):
        if enc:
            shutil.rmtree(enc, ignore_errors=True)
        enc = ctx.path(f"enc{k}")
        op = tr.new_op(alternate=False)
        with tr.span("table_encode.encode_table_columns", op):
            t, _ = timed(lambda: encode_table_columns(
                ray.data.read_parquet(raw), LINEITEM_COLS,
                batch_size=TABLE_BATCH_ROWS).write_parquet(enc))
        setup.append(t)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{raw}')")

    def run_query(q, op):
        with tr.span(f"table_encode.encoded_{q['name']}", op):
            dt, cpu, (df, counters) = measured(q["call"], enc)
        return dt, cpu, df, counters

    def check(q, df):
        got = q["answer"](df)
        ref = con.execute(q["sql"]).fetchall()
        ref = q["sql_rows"](ref) if "sql_rows" in q else sorted(
            tuple(_py(v) for v in r) for r in ref)
        return got == ref

    # warm-up: one untimed round with its own constants
    for q in query_mix(np.random.default_rng([ctx.seed, 12])):
        run_query(q, 0)

    rng = np.random.default_rng([ctx.seed, 13])
    lat, lat_cpu, traced, per_query, counters_all, rounds = \
        [], [], [], {}, [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < ctx.seconds or \
            len(rounds) < MIN_QUERY_ROUNDS:
        mix = query_mix(rng)
        rounds.append(mix)
        for q in mix:
            def one(q=q, op=tr.new_op()):
                dt, cpu, df, counters = run_query(q, op)
                lat.append(dt)
                lat_cpu.append(cpu)
                traced.append(tr.active)
                per_query.setdefault(q["name"], []).append(dt)
                counters_all.append((q["name"], counters))
                return check(q, df)
            ctx.op(one)
    raw_vals = sum(table.column(c).nbytes for c in LINEITEM_COLS)
    # one sample per round: the mean CPU of a query over the fixed mix.
    # A median over single queries would fall between query kinds and
    # jump when one kind crossed the middle
    n_q = len(rounds[0])
    mix_cpu = [sum(lat_cpu[i:i + n_q]) / n_q
               for i in range(0, len(lat_cpu), n_q)]
    # every query answers over the whole table; pruning is how it is
    # fast.  Per round, so the median mirrors op_cpu_p50_s
    rows_per_s = [table.num_rows / x for x in lat]
    rows_per_cpu_s = [table.num_rows / x for x in mix_cpu]
    return {
        "setup_reps_s": setup,
        "bulk_tok_per_cpu_s": median(rows_per_cpu_s),
        "op_cpu_p50_s": median(mix_cpu),
        "compression_ratio": raw_vals / dir_bytes(parquet_files(enc)),
        "named": _named(query_p50_s=("s", lat),
                        query_cpu_p50_s=("cpu_s", lat_cpu),
                        query_mix_cpu_s=("cpu_s", mix_cpu),
                        query_rows_per_s=("rows/s", rows_per_s),
                        query_rows_per_cpu_s=("rows/cpu_s", rows_per_cpu_s),
                        ),
        "per_query_s": per_query,
        "input": {"rows": table.num_rows, "columns": LINEITEM_COLS,
                  "sorted_on": "l_suppkey",
                  "chunk_rows": TABLE_BATCH_ROWS,
                  "snappy_parquet_bytes": os.path.getsize(raw),
                  "value_span": {c: [int(table.column(c).to_numpy().min()),
                                     int(table.column(c).to_numpy().max())]
                                 for c in LINEITEM_COLS[:-1]}},
        "state": {"enc_dir": enc, "rounds": rounds,
                  "counters": counters_all, "op_series": (lat, traced)},
    }


WORKLOADS = {"ingest": ingest, "train_read": train_read,
             "pushdown": pushdown}
