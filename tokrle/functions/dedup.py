"""Deduplication operators for training-data pipelines.

- exact_dedup: hash-partition on the key column + per-group first
  (one shuffle; survivor = min doc_id, deterministic).
- minhash_lsh_dedup: shingle -> minhash -> LSH band buckets -> per-bucket
  connected grouping -> survivor per near-dup cluster.  Deterministic
  (seeded hash mixers), vectorized per batch; the only shuffles are the
  band-bucket groupby and the final survivor dedup.
- simhash64: 64-bit simhash over token streams (vectorized), for
  Hamming-distance near-dup checks.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

_MERSENNE = (1 << 61) - 1
_LOG = logging.getLogger(__name__)

# two independent 16-byte keys -> 2 x 64-bit vectorized content hashes
# (combined 128 bits: collision probability ~ n^2 / 2^129, negligible at
# 10^12 docs)
_HASH_KEY_A = "tokrle.dedup.ha!"
_HASH_KEY_B = "tokrle.dedup.hb!"


def exact_dedup(ds, key: str = "text", id_col: str = "doc_id",
                keep_cols: tuple[str, ...] = (), *,
                return_full_rows: bool = False):
    """Keep one row (min ``id_col``) per distinct ``key`` value.

    Scale shape: a map stage computes a 128-bit content hash of ``key``
    (two independent vectorized 64-bit hashes), and the shuffle key is the
    hash — the exchange moves ``(h1, h2, id, keep_cols)`` rows, never the
    document payload.  Survivors are ``(id_col, *keep_cols)`` rows; pass
    ``return_full_rows=True`` to co-group-join the survivors back to the
    full input rows (a second shuffle on ``id_col`` — only worth it when
    the payload is actually needed downstream).
    """
    carry = [id_col, *keep_cols]

    # Both stages are Arrow-in/Arrow-out with EXPLICIT schemas: a pandas
    # stage returning an empty DataFrame (an upstream filter can empty any
    # block) becomes a schema-less block, which crashes Acero inside the
    # native semi-join downstream.  Typed empty Arrow tables flow through
    # shuffle and join cleanly.
    def _first_per_hash(df: pd.DataFrame, idc: str) -> pd.DataFrame:
        return df.sort_values(["_h1", "_h2", idc], kind="mergesort") \
            .drop_duplicates(["_h1", "_h2"], keep="first")

    def _hash_schema(batch: pa.Table) -> pa.Schema:
        return pa.schema([batch.schema.field(c) for c in carry]
                         + [pa.field("_h1", pa.int64()),
                            pa.field("_h2", pa.int64())])

    def hash_stage(batch: pa.Table) -> pa.Table:
        vals = batch.column(key).to_pandas().to_numpy(dtype=object)
        out = batch.select(carry).to_pandas()
        out["_h1"] = pd.util.hash_array(
            vals, hash_key=_HASH_KEY_A, categorize=False).view(np.int64)
        out["_h2"] = pd.util.hash_array(
            vals, hash_key=_HASH_KEY_B, categorize=False).view(np.int64)
        # map-side combiner: duplicates that co-occur in a batch collapse
        # BEFORE the shuffle (the final block pass re-applies the same
        # min-id rule globally, so the result is unchanged)
        out = _first_per_hash(out, id_col)
        return pa.Table.from_pandas(out, schema=_hash_schema(batch),
                                    preserve_index=False)

    hashed = ds.map_batches(hash_stage, batch_format="pyarrow")

    def block_first(batch: pa.Table) -> pa.Table:
        out = _first_per_hash(batch.to_pandas(), id_col)[carry]
        schema = pa.schema([batch.schema.field(c) for c in carry])
        return pa.Table.from_pandas(out, schema=schema,
                                    preserve_index=False)

    winners = _group_blocks(hashed, ["_h1", "_h2"]).map_batches(
        block_first, batch_size=None, batch_format="pyarrow")
    if not return_full_rows:
        return winners
    return semi_join(ds, winners.select_columns([id_col]), on=id_col)


def auto_concurrency() -> tuple[int, int]:
    """Autoscaling actor-pool bound sized to the CLUSTER: a hard (1, 4)
    cap silently serializes a 32-cpu (or 256-node) run behind 4 actors
    — measured on the 1B-token prep volume run (4 workers at ~70% CPU
    while 28 cores idled).  The pool still starts at 1 and only grows
    under backpressure, so small inputs pay nothing."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(4, cpus))


def _group_blocks(ds, keys: list[str], num_partitions: int | None = None):
    """Hash-repartition so every block holds COMPLETE key groups, letting a
    plain vectorized ``map_batches(fn, batch_size=None)`` replace
    ``groupby(...).map_groups`` — one shuffle either way, but the per-group
    Python call (brutal when groups are tiny and numerous, e.g. LSH
    buckets averaging 1-2 rows) becomes one sort/dedup kernel per block.

    VERSION COUPLING (Ray 2.49): the complete-groups-per-block invariant
    holds because hash-shuffle finalize emits exactly ONE block per
    partition — upstream carries a "TODO break down blocks to target
    size" (ray.data._internal.execution.operators.hash_shuffle); if a
    future Ray splits finalized partitions into multiple blocks, every
    downstream per-block fold (semi/anti co-group joins, dedup leaders,
    sessionize, label propagation, RLE-table folds, HLL/quantile finals)
    would silently compute per-FRAGMENT results.
    tests/test_functions.py::test_group_blocks_survives_small_block_target
    pins the invariant with a partition far above target_max_block_size —
    it failing on a Ray upgrade means: re-key these folds (e.g. follow the
    repartition with a per-block regroup or switch to map_groups)."""
    from ray.data.context import ShuffleStrategy

    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # the aggregator actors reserve no CPU: by default they hold a share
    # of the cluster's CPUs, which on a 1-CPU session leaves the
    # exchange's 1-CPU map task unschedulable, and the job never ends
    ds.context.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0
    ds.context.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0
    n = _join_partitions(num_partitions, size_bytes=_upstream_size_hint(ds))
    ds.context.max_hash_shuffle_aggregators = n
    # any DOWNSTREAM hash aggregate in the same plan inherits this context;
    # Ray's default of 200 partitions would spin up 200-way exchanges for
    # kilobyte-scale finals — pin it to the same CPU-sized count
    ds.context.default_hash_shuffle_parallelism = n
    return ds.repartition(n, keys=keys)


#: target in-memory bytes per exchange partition: each partition is an
#: aggregator actor (a fresh worker process), so small inputs must not pay
#: CPU-count-many process spin-ups — measured at sf0.1 (1.5 MB shuffled)
#: the 16-actor exchange cost ~5 s of pure startup vs ~2.6 s at 2-4.
_TARGET_PARTITION_BYTES = 128 << 20


def _upstream_size_hint(ds) -> int | None:
    """Nearest known metadata size walking UP the logical plan, summed over
    branches (parquet reads know their in-memory size from file metadata
    WITHOUT executing; map lineages report None and defer to their input).
    Never triggers execution; returns None when any branch is unknowable.

    The hint over-estimates exchanges that project rows down (hash-only
    shuffles) and under-estimates expanding maps (shingling) — both fine,
    because the result only ever LOWERS the partition count below the
    CPU-sized cap; at real scale every input saturates the cap anyway."""

    def walk(node, depth: int) -> int | None:
        if depth > 32:
            return None
        md = node.infer_metadata()
        if md.size_bytes is not None:
            return md.size_bytes
        deps = node.input_dependencies
        if not deps:
            return None
        total = 0
        for d in deps:
            s = walk(d, depth + 1)
            if s is None:
                return None
            total += s
        return total

    try:
        return walk(ds._logical_plan.dag, 0)
    except Exception:
        return None


def _combined_size_hint(*datasets) -> int | None:
    """Sum of the datasets' upstream size hints, or None if ANY side is
    unknowable — a partially-known sum would undersize the exchange for
    the unknown (possibly dominant) side; unknown falls back to the CPU
    cap instead."""
    total = 0
    for ds in datasets:
        s = _upstream_size_hint(ds)
        if s is None:
            return None
        total += s
    return total


def _join_partitions(num_partitions: int | None,
                     size_bytes: int | None = None) -> int:
    """Hash-exchange partition count: each partition is an aggregator ACTOR
    holding a CPU, so requesting more partitions than free CPUs deadlocks
    the streaming executor (measured: 32 partitions at num_cpus=4 hangs).
    Default: half the cluster CPUs, capped [2, 64] — and when the input
    size is cheaply known, no more than one partition per
    ``_TARGET_PARTITION_BYTES`` (actor spin-up dominates tiny exchanges).
    Pass explicitly on real multi-node clusters (~total_cores/2)."""
    if num_partitions is not None:
        return num_partitions
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    cap = max(2, min(64, cpus // 2))
    if size_bytes:
        return max(2, min(cap, -(-size_bytes // _TARGET_PARTITION_BYTES)))
    return cap


def _unique_keys(key_ds, on: str):
    """Distinct ``on`` values of ``key_ds`` via a native hash aggregate.

    Two jobs in one: (a) shrinks the join's build side (an LSH loser list
    repeats each doc up to #bands times), and (b) schema-normalizes it —
    ``map_batches`` over a hash-repartitioned dataset emits SCHEMA-LESS
    empty blocks for empty partitions, which crash Acero inside the native
    join; the aggregate digests them into one well-typed table."""
    return key_ds.select_columns([on]).groupby(on).count() \
        .select_columns([on])


def semi_join(ds, keep_ds, on: str = "doc_id", *,
              num_partitions: int | None = None):
    """Distributed semi-join: rows of ``ds`` whose ``on`` value appears in
    ``keep_ds`` (no driver-side id set, no per-group Python calls)."""
    return _cogroup_filter_join(ds, keep_ds, on, keep_present=True,
                                num_partitions=num_partitions)


def _arrow_fields(schema) -> list:
    """(name, arrow_type) pairs from a ray.data Schema, whether the
    underlying blocks are Arrow (types are pa.DataType) or pandas (types
    are numpy dtypes; object columns are strings throughout this repo)."""
    base = getattr(schema, "base_schema", None)
    if isinstance(base, pa.Schema):
        return [(f.name, f.type) for f in base]
    out = []
    for name, typ in zip(schema.names, schema.types):
        if not isinstance(typ, pa.DataType):
            dt = np.dtype(typ)
            typ = pa.string() if dt == object else pa.from_numpy_dtype(dt)
        out.append((name, typ))
    return out


def _cogroup_filter_join(ds, key_ds, on: str, *, keep_present: bool,
                         num_partitions: int | None = None):
    """Semi/anti join as a TAGGED-UNION CO-GROUP: one hash exchange, one
    vectorized per-block filter — deliberately NOT Ray's native join.

    Ray 2.49's native hash join crashes (ArrowInvalid: "No match ... for
    key field reference" inside Acero) whenever ANY join partition
    receives ZERO rows on one side — the empty partition's table is built
    schema-less.  (Measured: left_semi/left_anti crash; inner joins
    short-circuit empty partitions and are unaffected, so
    orders_per_nation / lineitem_per_nation keep the native join.)  With
    a small or skewed build side (e.g. a handful of dedup winners hashing
    into a subset of partitions) that is a routine, data-dependent
    condition, so natives are unusable for key-filter joins.  Here both sides are schema-harmonized (the key side carries
    typed nulls for the payload columns), tagged with an int8 ``_side``,
    unioned, hash-repartitioned on the key, and filtered block-locally —
    empty partitions simply produce empty typed blocks.

    Exchange volume is identical to the native join (payload + keys move
    once).  SQL null semantics: a NULL key never matches, so semi drops
    it and anti keeps it."""
    import pyarrow.compute as pc

    keys = _unique_keys(key_ds, on)
    fields = _arrow_fields(ds.schema())
    names = [n for n, _ in fields]

    def tag_left(batch: pa.Table) -> pa.Table:
        return batch.select(names).append_column(
            "_side", pa.array(np.zeros(len(batch), np.int8)))

    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {name: (batch.column(on).cast(typ) if name == on
                       else pa.nulls(len(batch), type=typ))
                for name, typ in fields}
        return pa.table(cols).append_column(
            "_side", pa.array(np.ones(len(batch), np.int8)))

    both = ds.map_batches(tag_left, batch_format="pyarrow").union(
        keys.map_batches(tag_right, batch_format="pyarrow"))

    def per_block(batch: pa.Table) -> pa.Table:
        k = batch.column(on)
        side = batch.column("_side")
        right_keys = k.filter(pc.equal(side, 1)).combine_chunks()
        # SQL nulls: strip null keys from the build side — is_in treats
        # a null in the value_set as matching null inputs, which would
        # invert the documented NULL-never-matches contract
        right_keys = right_keys.drop_null()
        present = pc.fill_null(pc.is_in(k, value_set=right_keys), False)
        if not keep_present:
            present = pc.invert(present)
        keep = pc.and_(pc.equal(side, 0), present)
        return batch.filter(keep).drop_columns(["_side"])

    return _group_blocks(both, [on], num_partitions).map_batches(
        per_block, batch_size=None, batch_format="pyarrow")


def _word_shingles_hashed(texts: pa.Array, k: int = 3):
    """Per-doc sets of hashed k-word shingles, vectorized over the
    flattened word array.  Returns (hashes: uint64 array, doc_offsets)."""
    import pyarrow.compute as pc

    words = pc.split_pattern(texts, " ")
    la = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    per_doc = pc.list_value_length(la).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = la.flatten()
    # hash each word with a polynomial over its bytes (vectorized via arrow
    # hash is unavailable -> use python-free numpy over offsets/data)
    from tokrle.functions._arrays import string_buffers

    word_offsets, data_u8 = string_buffers(flat)
    data = data_u8.astype(np.uint64)
    # word hash: sum(byte * 131^pos_in_word) — vectorized with reduceat
    lengths = np.diff(word_offsets)
    if len(lengths) == 0:
        return np.empty(0, np.uint64), np.zeros(len(texts) + 1, np.int64)
    within = (np.arange(word_offsets[0], word_offsets[-1], dtype=np.int64)
              - np.repeat(word_offsets[:-1], lengths))
    maxlen = int(lengths.max()) if len(lengths) else 1
    pw = np.array([pow(131, p, _MERSENNE) for p in range(maxlen)],
                  dtype=np.uint64)
    from tokrle.kernels.segments import segment_sums

    seg = data[word_offsets[0]:word_offsets[-1]] * pw[within]
    # cumsum-diff, not reduceat: a trailing empty word (text ending with a
    # space) makes the last offset == len(seg), which reduceat rejects
    whash = segment_sums(seg, word_offsets - word_offsets[0])
    # k-word shingle hash: combine k consecutive word hashes
    doc_offsets = np.concatenate(([0], np.cumsum(per_doc)))
    sh_per_doc = np.maximum(per_doc - k + 1, 1)
    sh_offsets = np.concatenate(([0], np.cumsum(sh_per_doc)))
    idx = (np.arange(sh_offsets[-1], dtype=np.int64)
           - np.repeat(sh_offsets[:-1], sh_per_doc)
           + np.repeat(doc_offsets[:-1], sh_per_doc))
    mix = np.uint64(0)
    for j in range(k):
        take = np.minimum(idx + j, np.repeat(doc_offsets[1:], sh_per_doc) - 1)
        mix = mix * np.uint64(1000003) + whash[take]
    return mix, sh_offsets


class MinHasher:
    """Stateful minhash stage: permutation parameters built once per actor."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3,
                 seed: int = 42) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes, offsets = _word_shingles_hashed(
            batch.column("text").combine_chunks()
            if isinstance(batch.column("text"), pa.ChunkedArray)
            else batch.column("text"), self.k)
        n_docs = len(batch)
        if len(hashes):
            # (a*h + b) mod p over the FLAT shingle array for all perms at
            # once, then one minimum.reduceat per-doc fold (every doc has
            # >= 1 shingle by construction, so reduceat segments are safe).
            # No per-doc Python loop: two C passes over (num_perm, n_shingles)
            vals = (self.a[:, None] * hashes[None, :]
                    + self.b[:, None]) % _MERSENNE
            sigs = np.minimum.reduceat(vals, offsets[:-1], axis=1).T
        else:
            sigs = np.zeros((n_docs, self.num_perm), dtype=np.uint64)
        flat = np.ascontiguousarray(sigs).reshape(-1).view(np.int64)
        list_offsets = np.arange(n_docs + 1, dtype=np.int32) * self.num_perm
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "signature": pa.ListArray.from_arrays(
                pa.array(list_offsets, type=pa.int32()),
                pa.array(flat, type=pa.int64())),
        })


def _lsh_band_buckets(ds, *, num_perm: int, bands: int, shingle_k: int,
                      concurrency):
    """(doc_id, source, bucket) rows: minhash signatures -> one int64
    bucket key per band (shared by minhash_lsh_dedup / minhash_clusters)."""
    if concurrency is None:
        concurrency = auto_concurrency()
    rows_per_band = num_perm // bands
    sigs = ds.map_batches(MinHasher, batch_size=1024,
                          fn_constructor_kwargs={"num_perm": num_perm,
                                                 "shingle_k": shingle_k},
                          batch_format="pyarrow", concurrency=concurrency)

    def to_buckets(batch: pa.Table) -> pa.Table:
        sig_col = batch.column("signature")
        la = sig_col.combine_chunks() if isinstance(
            sig_col, pa.ChunkedArray) else sig_col
        flat = la.flatten().to_numpy(zero_copy_only=False)
        sig = np.ascontiguousarray(flat).view(np.uint64).reshape(
            len(batch), num_perm)
        parts = []
        for bidx in range(bands):
            band = sig[:, bidx * rows_per_band:(bidx + 1) * rows_per_band]
            bh = np.full(len(batch), np.uint64(0xCBF29CE484222325))
            for c in range(band.shape[1]):      # rows_per_band (~4) passes
                bh = bh * np.uint64(1099511628211) + band[:, c]
            # int64 bucket key mixing in the band index (no string keys:
            # the shuffle moves 8-byte ints, and hash-partitioning is
            # cheaper than on variable-length strings)
            band_salt = np.uint64((bidx * 0x9E3779B97F4A7C15) % (1 << 64))
            bucket = (bh ^ band_salt).view(np.int64)
            parts.append(pa.table({
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "bucket": pa.array(bucket, type=pa.int64()),
            }))
        return pa.concat_tables(parts)

    return sigs.map_batches(to_buckets, batch_format="pyarrow")


def _block_bucket_leaders(df: pd.DataFrame) -> pd.DataFrame:
    """Per co-located block: each bucket's exact leader (min doc_id),
    folded to one (doc, min-leader-in-this-block) partial per doc."""
    df = df.sort_values(["bucket", "doc_id"], kind="mergesort")
    b = df["bucket"].to_numpy()
    d = df["doc_id"].to_numpy()
    starts = np.flatnonzero(
        np.concatenate([[True], b[1:] != b[:-1]])) if len(b) else \
        np.zeros(0, dtype=np.int64)
    runs = np.diff(np.append(starts, len(b)))
    leader = np.repeat(d[starts], runs)
    part = pd.DataFrame({
        "doc_id": d, "source": df["source"].to_numpy(), "leader": leader,
    })
    return part.groupby(["doc_id", "source"], sort=False,
                        as_index=False)["leader"].min()


def minhash_clusters(ds, *, num_perm: int = 64, bands: int = 16,
                     shingle_k: int = 3, concurrency=None):
    """Per-doc near-dup CLUSTER assignment: (doc_id, source, cluster)
    where ``cluster`` is the smallest doc_id found in any LSH band bucket
    containing the doc (single leader-wins pass; transitive chains
    collapse fully under repeated application, matching
    :func:`minhash_lsh_dedup`'s survivor semantics — a doc survives dedup
    iff ``cluster == doc_id``).

    Same two-shuffle scale shape as the dedup: bucket co-location +
    vectorized per-block leader fold, then a native Min aggregate."""
    from ray.data.aggregate import Min

    buckets = _lsh_band_buckets(ds, num_perm=num_perm, bands=bands,
                                shingle_k=shingle_k, concurrency=concurrency)
    partials = _group_blocks(buckets, ["bucket"]).map_batches(
        _block_bucket_leaders, batch_size=None, batch_format="pandas")
    return partials.groupby(["doc_id", "source"]).aggregate(
        Min("leader", alias_name="cluster"))


def _propagate_labels(state, rounds: int):
    """Distributed min-label propagation over a (doc_id, source, bucket,
    label) edge table: each round sets every row's label to the minimum
    label in its BUCKET, then to the minimum label of its DOC — i.e. one
    step of connected components over the doc-bucket bipartite graph,
    expressed as two hash repartitions with vectorized per-block folds
    (NO joins; labels ride along with the edge rows).  Labels only
    decrease; ``rounds`` bounds the component diameter covered."""

    def fold(key: str):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return df
            m = df.groupby(key, sort=False)["label"].transform("min")
            return df.assign(label=m)
        return f

    for r in range(rounds):
        state = _group_blocks(state, ["bucket"]).map_batches(
            fold("bucket"), batch_size=None, batch_format="pandas")
        state = _group_blocks(state, ["doc_id"]).map_batches(
            fold("doc_id"), batch_size=None, batch_format="pandas")
        # materialize between rounds: chaining 2*rounds shuffle stages in
        # one streaming plan oversubscribes aggregator actors
        state = state.materialize()
    return state


def minhash_connected_clusters(ds, *, rounds: int = 3, num_perm: int = 64,
                               bands: int = 16, shingle_k: int = 3,
                               concurrency=None):
    """Near-dup clusters with TRANSITIVE closure (up to ``rounds`` hops):
    connected components over the doc-LSH-bucket graph via iterated
    min-label propagation.  Returns (doc_id, source, cluster); docs whose
    near-dup chain is shorter than ``rounds`` get their component's
    smallest doc_id as cluster (single-round = minhash_clusters)."""
    from ray.data.aggregate import Min

    buckets = _lsh_band_buckets(ds, num_perm=num_perm, bands=bands,
                                shingle_k=shingle_k, concurrency=concurrency)

    def seed(batch: pa.Table) -> pa.Table:
        return batch.append_column("label", batch.column("doc_id"))

    state = _propagate_labels(
        buckets.map_batches(seed, batch_format="pyarrow"), rounds)
    return state.groupby(["doc_id", "source"]).aggregate(
        Min("label", alias_name="cluster"))


def minhash_lsh_dedup(ds, *, num_perm: int = 64, bands: int = 16,
                      shingle_k: int = 3, concurrency=None,
                      return_full_rows: bool = False):
    """MinHash+LSH near-dup grouping: signature -> band buckets ->
    bucket-grouped cluster leaders -> global survivor set.

    Returns a Dataset of (doc_id, source) survivors: a doc is dropped if
    any LSH band bucket contains a doc with smaller doc_id (leader-wins,
    deterministic; transitively-connected duplicates collapse toward the
    smallest id over repeated application — single pass matches common
    one-round LSH dedup practice).

    Scale shape — TWO shuffles, no join, no per-group Python calls:
    (1) hash-repartition the (doc_id, source, bucket) rows by bucket so a
    vectorized per-block pass computes every bucket's exact leader and
    folds to at most one (doc, dropped-here?) partial per doc per block;
    (2) a native Max aggregate over the int8 ``dropped`` flags, then a
    vectorized filter.  ``return_full_rows=True`` semi-joins survivors
    back to the full input rows (a third shuffle — only when the payload
    is needed downstream)."""
    buckets = _lsh_band_buckets(ds, num_perm=num_perm, bands=bands,
                                shingle_k=shingle_k, concurrency=concurrency)

    def combine_batch(df: pd.DataFrame) -> pd.DataFrame:
        # MAP-SIDE COMBINER + hot-bucket skew guard: within a batch, every
        # doc except the per-bucket batch-leader already has a smaller doc
        # in that bucket — it is PROVABLY dropped and its bucket row never
        # needs to ship.  The global bucket minimum is always its own
        # batch's leader, so its row always ships and the reduce side sees
        # it: the survivor set is EXACTLY unchanged.  A bucket holding a
        # million-member duplicate cluster ships one row per batch instead
        # of a million rows to one partition.
        df = df.sort_values(["bucket", "doc_id"], kind="mergesort")
        lead = ~df["bucket"].duplicated(keep="first")
        win = df.loc[lead, ["doc_id", "source", "bucket"]].copy()
        win["pre_dropped"] = np.int8(0)
        lose = df.loc[~lead, ["doc_id", "source"]] \
            .drop_duplicates(ignore_index=True)
        # spread the flag-carrier rows by doc hash — a constant key here
        # would funnel every pre-dropped row of a giant cluster into ONE
        # hash partition, re-creating the skew the combiner removes.  The
        # value itself is never used for leader computation (see block fn).
        lose["bucket"] = pd.util.hash_pandas_object(
            lose["doc_id"], index=False).to_numpy().view(np.int64)
        lose["pre_dropped"] = np.int8(1)
        return pd.concat([win, lose], ignore_index=True)

    def block_dropped_partials(df: pd.DataFrame) -> pd.DataFrame:
        # per-doc partial flag "some bucket in this block has a smaller
        # doc" — an int8, so the aggregate shuffle moves flags, not ids.
        # pre-dropped rows are flag carriers only; they are EXCLUDED from
        # leader computation (their bucket key is synthetic).
        pre = df.loc[df["pre_dropped"] == 1, ["doc_id", "source"]]
        part = _block_bucket_leaders(df[df["pre_dropped"] == 0])
        flags = pd.DataFrame({
            "doc_id": part["doc_id"], "source": part["source"],
            "dropped": (part["leader"] != part["doc_id"]).astype(np.int8),
        })
        if len(pre):
            flags = pd.concat(
                [flags, pre.assign(dropped=np.int8(1))], ignore_index=True)
            flags = flags.groupby(["doc_id", "source"], sort=False,
                                  as_index=False)["dropped"].max()
        return flags

    partials = _group_blocks(
        buckets.map_batches(combine_batch, batch_format="pandas"),
        ["bucket"]).map_batches(
        block_dropped_partials, batch_size=None, batch_format="pandas")

    from ray.data.aggregate import Max

    flags = partials.groupby(["doc_id", "source"]).aggregate(
        Max("dropped", alias_name="dropped"))

    def keep_survivors(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kept = batch.filter(pc.equal(batch.column("dropped"), 0))
        return kept.select(["doc_id", "source"])

    survivors = flags.map_batches(keep_survivors, batch_format="pyarrow")
    if not return_full_rows:
        return survivors
    return semi_join(ds, survivors, on="doc_id")


def anti_join(ds, drop_ds, on: str = "doc_id", *,
              num_partitions: int | None = None):
    """Distributed anti-join: rows of ``ds`` whose ``on`` value does NOT
    appear in ``drop_ds`` (scales to drop lists larger than driver
    memory; duplicate drop keys are fine).  Implemented as a tagged
    co-group — see :func:`_cogroup_filter_join` for why not the native
    join."""
    return _cogroup_filter_join(ds, drop_ds, on, keep_present=False,
                                num_partitions=num_partitions)


def simhash_batch(batch: pa.Table) -> pa.Table:
    """64-bit simhash over the token stream, vectorized per batch."""
    from tokrle.stages.encoder import _flat_tokens

    values, offsets = _flat_tokens(batch)
    n_docs = len(batch)
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(values):
        h = (values.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        h ^= h >> np.uint64(29)
        doc_idx = np.repeat(np.arange(n_docs), np.diff(offsets))
        for bit in range(64):
            bits = ((h >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
            contrib = np.where(bits == 1, 1, -1)
            s = np.bincount(doc_idx, weights=contrib, minlength=n_docs)
            out |= (s > 0).astype(np.uint64) << np.uint64(bit)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "source": batch.column("source"),
        "simhash": pa.array(out.astype(np.int64), type=pa.int64()),
    })


def ngram_jaccard_pairs(ds, *, shingle_k: int = 3, threshold: float = 0.5,
                        max_group: int = 512):
    """Candidate near-dup pairs with exact n-gram Jaccard similarity.

    Scale shape: a cheap blocking key (doc length bucket + first shingle
    hash band) groups candidates, then the exact Jaccard is computed only
    within groups — no O(n^2) across the corpus.  Returns
    (doc_a, doc_b, jaccard) rows with jaccard >= threshold.

    ``threshold`` must be > 0: pairs are generated from shingle
    collisions (inverted index), so zero-overlap pairs never surface.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0 (pairs come from shingle "
                         "collisions; zero-overlap pairs are never "
                         "generated)")

    def shingle_sets(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        text = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
        hashes, offsets = _word_shingles_hashed(text, shingle_k)
        n = len(batch)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64),
                            np.diff(offsets))
        # per-doc unique shingles: one lexsort + adjacent-dedupe pass (the
        # sort also makes each doc's first entry its min-hash)
        if len(hashes):
            order = np.lexsort((hashes, doc_idx))
            d, h = doc_idx[order], hashes[order]
            keep = np.ones(len(d), dtype=bool)
            keep[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
            d, h = d[keep], h[keep]
        else:
            d = np.empty(0, dtype=np.int64)
            h = hashes
        per_doc_u = np.bincount(d, minlength=n)
        u_offs = np.concatenate(([0], np.cumsum(per_doc_u)))
        minh = np.zeros(n, dtype=np.uint64)
        nz = per_doc_u > 0
        minh[nz] = h[u_offs[:-1][nz]]
        # blocking key: (set-size bucket, min-hash band) as one int64
        block = (per_doc_u // 8) * 64 + (minh % np.uint64(64)).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "block": pa.array(block, type=pa.int64()),
            "shingles": pa.ListArray.from_arrays(
                pa.array(u_offs, type=pa.int32()),
                pa.array(h.view(np.int64), type=pa.int64())),
        })

    blocked = ds.map_batches(shingle_sets, batch_format="pyarrow")

    def pairs_in_block(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_group:
            # no silent caps: record how many candidates the bound drops
            _LOG.warning("ngram_jaccard_pairs: block %r truncated "
                         "%d -> %d docs", g["block"].iloc[0], len(g),
                         max_group)
        g = g.sort_values("doc_id", kind="mergesort").head(max_group)
        empty = pd.DataFrame({
            "doc_a": g["doc_id"].iloc[:0].reset_index(drop=True),
            "doc_b": g["doc_id"].iloc[:0].reset_index(drop=True),
            "jaccard": pd.Series(dtype="float64")})
        ng = len(g)
        if ng < 2:
            return empty
        # inverted-index collision counting instead of the O(g^2)
        # per-pair intersect1d loop (r2 advisor finding): intersection
        # sizes come from one lexsort of all (shingle, doc) entries —
        # each run of an equal shingle contributes one count to every
        # doc pair in the run; work is sum(run^2), not g^2 * set_size
        sets = [np.asarray(s, dtype=np.int64) for s in g["shingles"]]
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        total = int(sizes.sum())
        if total == 0:
            return empty
        doc = np.repeat(np.arange(ng, dtype=np.int64), sizes)
        h = np.concatenate(sets)
        order = np.lexsort((doc, h))     # primary shingle, secondary doc
        hs, dsorted = h[order], doc[order]
        starts = np.flatnonzero(np.concatenate(([True], hs[1:] != hs[:-1])))
        run_lens = np.diff(np.concatenate((starts, [len(hs)])))
        pair_keys = []
        for m in np.unique(run_lens):
            if m < 2:
                continue
            s_m = starts[run_lens == m]
            mat = dsorted[s_m[:, None] + np.arange(m)]  # (k, m) ascending
            iu, ju = np.triu_indices(int(m), 1)
            pair_keys.append((mat[:, iu] * ng + mat[:, ju]).ravel())
        if not pair_keys:
            return empty
        keys, inter = np.unique(np.concatenate(pair_keys),
                                return_counts=True)
        ai, bi = keys // ng, keys % ng
        union = sizes[ai] + sizes[bi] - inter
        jac = inter / np.maximum(union, 1)
        mask = jac >= threshold
        ids = g["doc_id"].to_numpy()
        return pd.DataFrame({"doc_a": ids[ai[mask]],
                             "doc_b": ids[bi[mask]],
                             "jaccard": jac[mask]})

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # complete blocking-key groups per hash partition; iterate groups
        # in-process (pandas groupby, ~us per group) instead of one Ray
        # map_groups dispatch (~ms) per group
        frames = [pairs_in_block(g) for _, g in
                  df.groupby("block", sort=False)]
        return (pd.concat(frames, ignore_index=True) if frames else
                pd.DataFrame(columns=["doc_a", "doc_b", "jaccard"]))

    return _group_blocks(blocked, ["block"]).map_batches(
        block_pairs, batch_size=None, batch_format="pandas")


def minhash_verified_pairs(ds, *, num_perm: int = 64, bands: int = 32,
                           shingle_k: int = 3, threshold_num: int = 1,
                           threshold_den: int = 2, concurrency=None,
                           big_bucket_warn: int = 512):
    """Near-dup pairs by LSH candidate generation + EXACT shingle-set
    verification: (doc_a, doc_b, n_inter, n_union) for every candidate
    pair whose exact word-shingle Jaccard satisfies
    ``n_inter * threshold_den >= threshold_num * n_union`` (integer
    cross-multiplication — no cross-engine float compares).

    This is the minhash family's deterministic SELF-ORACLE: with many
    bands of few rows the candidate recall at the threshold is
    ``1 - (1 - s^r)^b`` (~1 - 1e-6 at s = 0.5, r = 2, b = 32), so the
    verified output equals the exact all-pairs Jaccard result, which a
    SQL oracle reproduces with list functions — unlike raw LSH bucket
    output, which has no SQL analog (CORRECTNESS r3 `no_oracle` rows).

    Scale shape: candidates come from the band-bucket exchange (never
    all-pairs); verification ships each doc's unique-shingle set through
    two hash co-group exchanges (attach A's set, then B's) — linear in
    corpus size + candidate count, no driver-side materialization.  A
    degenerate bucket (mass-duplicated content) is warned about but NOT
    truncated — truncation would silently break the exactness contract;
    run exact_dedup first if the corpus has giant identical groups.
    """
    buckets = _lsh_band_buckets(ds, num_perm=num_perm, bands=bands,
                                shingle_k=shingle_k,
                                concurrency=concurrency)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, g in df.groupby("bucket", sort=False):
            if len(g) < 2:
                continue
            if len(g) > big_bucket_warn:
                _LOG.warning("minhash_verified_pairs: bucket %r holds %d "
                             "docs (pair expansion is quadratic; consider "
                             "exact_dedup first)", g["bucket"].iloc[0],
                             len(g))
            ids = np.sort(g["doc_id"].to_numpy())
            iu, ju = np.triu_indices(len(ids), 1)
            frames.append(pd.DataFrame({"doc_a": ids[iu],
                                        "doc_b": ids[ju]}))
        out = (pd.concat(frames, ignore_index=True) if frames else
               pd.DataFrame({"doc_a": pd.Series(dtype=object),
                             "doc_b": pd.Series(dtype=object)}))
        # same-block dedup only; the global dedup rides the doc_a
        # exchange below (all copies of a pair share doc_a)
        return out.drop_duplicates()

    cand = _group_blocks(buckets, ["bucket"]).map_batches(
        bucket_pairs, batch_size=None, batch_format="pandas")

    def shingle_sets(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        text = text.combine_chunks() if isinstance(
            text, pa.ChunkedArray) else text
        hashes, offsets = _word_shingles_hashed(text, shingle_k)
        n = len(batch)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64),
                            np.diff(offsets))
        if len(hashes):
            order = np.lexsort((hashes, doc_idx))
            d, h = doc_idx[order], hashes[order]
            keep = np.ones(len(d), dtype=bool)
            keep[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
            d, h = d[keep], h[keep]
        else:
            d, h = np.empty(0, np.int64), hashes
        u_offs = np.concatenate(
            ([0], np.cumsum(np.bincount(d, minlength=n))))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "shingles": pa.ListArray.from_arrays(
                pa.array(u_offs, type=pa.int32()),
                pa.array(h.view(np.int64), type=pa.int64())),
        })

    def attach(pairs, key: str, out_col: str, has_sh_a: bool):
        """Co-group ``pairs`` with the corpus's per-doc shingle sets on
        ``key`` and append that side's set as ``out_col`` (tagged-union
        exchange; per-block pandas merge, vectorized).  Every column is
        cast to its contract type — an empty hash partition otherwise
        emits null-typed columns that break the union."""
        sets = ds.map_batches(shingle_sets, batch_format="pyarrow")
        names = (["k", "side", "doc_a", "doc_b"]
                 + (["sh_a"] if has_sh_a else []) + ["shingles"])
        lst = pa.list_(pa.int64())

        def _empty_tagged() -> pa.Table:
            types = {"k": pa.string(), "side": pa.int8(),
                     "doc_a": pa.string(), "doc_b": pa.string(),
                     "sh_a": lst, "shingles": lst}
            return pa.table({m: pa.array([], type=types[m])
                             for m in names})

        def tag_pairs(batch: pa.Table) -> pa.Table:
            n = len(batch)
            if not n:
                return _empty_tagged()
            cols = {"k": batch.column(key).cast(pa.string()),
                    "side": pa.array(np.ones(n, dtype=np.int8)),
                    "doc_a": batch.column("doc_a").cast(pa.string()),
                    "doc_b": batch.column("doc_b").cast(pa.string()),
                    "shingles": pa.nulls(n, type=lst)}
            if has_sh_a:
                cols["sh_a"] = batch.column("sh_a").cast(lst)
            return pa.table({m: cols[m] for m in names})

        def tag_sets(batch: pa.Table) -> pa.Table:
            n = len(batch)
            if not n:
                return _empty_tagged()
            cols = {"k": batch.column("doc_id").cast(pa.string()),
                    "side": pa.array(np.zeros(n, dtype=np.int8)),
                    "doc_a": pa.nulls(n, type=pa.string()),
                    "doc_b": pa.nulls(n, type=pa.string()),
                    "shingles": batch.column("shingles").cast(lst)}
            if has_sh_a:
                cols["sh_a"] = pa.nulls(n, type=lst)
            return pa.table({m: cols[m] for m in names})

        left = pairs.map_batches(tag_pairs, batch_format="pyarrow")
        right = sets.map_batches(tag_sets, batch_format="pyarrow")
        union = left.union(right)

        def _lists(series: pd.Series) -> pa.ListArray:
            # object-of-ndarray -> one concatenate + offsets (pandas would
            # otherwise re-emerge as a ragged-tensor extension type)
            arrs = [np.asarray(a, dtype=np.int64) for a in series]
            lens = np.fromiter((len(a) for a in arrs), dtype=np.int64,
                               count=len(arrs))
            offs = np.concatenate(([0], np.cumsum(lens)))
            flat = (np.concatenate(arrs) if lens.sum()
                    else np.empty(0, np.int64))
            return pa.ListArray.from_arrays(
                pa.array(offs, type=pa.int32()),
                pa.array(flat, type=pa.int64()))

        def per_block(df: pd.DataFrame) -> pa.Table:
            out_names = (["doc_a", "doc_b"]
                         + (["sh_a"] if has_sh_a else []) + [out_col])
            if not len(df) or "side" not in df.columns:
                return pa.table({
                    m: pa.array([], type=lst if m.startswith("sh") else
                                pa.string()) for m in out_names})
            p = df[df["side"] == 1].drop(columns=["side", "shingles"])
            s = df[df["side"] == 0][["k", "shingles"]]
            p = p.drop_duplicates(subset=["doc_a", "doc_b"])
            out = p.merge(s, on="k", how="inner").rename(
                columns={"shingles": out_col})
            cols = {}
            for m in out_names:
                cols[m] = (_lists(out[m]) if m.startswith("sh")
                           else pa.array(out[m].astype(str).to_numpy()
                                         if len(out) else [],
                                         type=pa.string()))
            return pa.table(cols)

        return _group_blocks(union, ["k"]).map_batches(
            per_block, batch_size=None, batch_format="pandas")

    with_a = attach(cand, "doc_a", "sh_a", has_sh_a=False)
    with_b = attach(with_a, "doc_b", "sh_b", has_sh_a=True)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "doc_a": pd.Series(dtype=object),
            "doc_b": pd.Series(dtype=object),
            "n_inter": pd.Series(dtype="int64"),
            "n_union": pd.Series(dtype="int64")})
        n = len(df)
        if not n:
            return empty
        la = df["sh_a"].map(len).to_numpy(dtype=np.int64)
        lb = df["sh_b"].map(len).to_numpy(dtype=np.int64)
        # exact |A ∩ B| per pair, vectorized across ALL pairs in the
        # block: each side's set is unique, so a duplicated (pair, hash)
        # entry after one lexsort is exactly one cross-side hit
        h = np.concatenate([
            np.concatenate(df["sh_a"].to_list()) if la.sum() else
            np.empty(0, np.int64),
            np.concatenate(df["sh_b"].to_list()) if lb.sum() else
            np.empty(0, np.int64)])
        p = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la),
                            np.repeat(np.arange(n, dtype=np.int64), lb)])
        order = np.lexsort((h, p))
        ps, hs = p[order], h[order]
        dup = (ps[1:] == ps[:-1]) & (hs[1:] == hs[:-1])
        inter = np.bincount(ps[1:][dup], minlength=n)
        union = la + lb - inter
        ok = (union > 0) & (inter * threshold_den
                            >= threshold_num * union)
        return pd.DataFrame({
            "doc_a": df["doc_a"].to_numpy()[ok],
            "doc_b": df["doc_b"].to_numpy()[ok],
            "n_inter": inter[ok].astype(np.int64),
            "n_union": union[ok].astype(np.int64)})

    return with_b.map_batches(verify, batch_size=None,
                              batch_format="pandas")


def embedding_near_dups(ds, *, threshold: float = 0.95, n_planes: int = 8,
                        vec_col: str = "embedding", id_col: str = "vec_id",
                        max_group: int = 1024, seed: int = 13):
    """Embedding-cosine near-duplicate pairs via hyperplane-LSH blocking +
    exact within-bucket cosine (vectorized matmul per bucket)."""

    class SigStage:
        """Stateful signer: hyperplanes sampled once per actor (lazily, on
        the first batch, since the embedding dim comes from the data) —
        setup in state, not per batch."""

        def __init__(self) -> None:
            self.planes: np.ndarray | None = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            from tokrle.functions.ann import _signatures, _to_matrix

            m = _to_matrix(batch.column(vec_col))
            if len(m):
                if self.planes is None or self.planes.shape[1] != m.shape[1]:
                    rng = np.random.default_rng(seed)
                    self.planes = rng.standard_normal((n_planes, m.shape[1]))
                sig = _signatures(m, self.planes)  # ONE sign convention
            else:
                sig = np.zeros(0, dtype=np.int64)
            return pa.table({
                id_col: batch.column(id_col),
                "bucket": pa.array(sig, type=pa.int64()),
                vec_col: batch.column(vec_col),
            })

    buckets = ds.map_batches(SigStage, batch_size=4096,
                             batch_format="pyarrow",
                             concurrency=auto_concurrency())

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_group:
            _LOG.warning("embedding_near_dups: bucket %r truncated "
                         "%d -> %d vectors", g["bucket"].iloc[0], len(g),
                         max_group)
        g = g.sort_values(id_col, kind="mergesort").head(max_group)
        m = np.stack(g[vec_col].map(np.asarray).to_list()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1
        m = m / norms
        sims = m @ m.T
        ids = g[id_col].to_numpy()
        ii, jj = np.where(np.triu(sims, 1) >= threshold)
        return pd.DataFrame({
            "id_a": ids[ii], "id_b": ids[jj],
            "cosine": sims[ii, jj],
        })

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        frames = [pairs(g) for _, g in df.groupby("bucket", sort=False)]
        return (pd.concat(frames, ignore_index=True) if frames else
                pd.DataFrame(columns=["id_a", "id_b", "cosine"]))

    return _group_blocks(buckets, ["bucket"]).map_batches(
        block_pairs, batch_size=None, batch_format="pandas")
