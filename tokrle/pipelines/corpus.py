"""Corpus-level resumable encode: directory of token Parquet -> encoded
Parquet + lineage, restartable at partition granularity.

Resume unit = a GROUP of input files (:func:`plan_groups`): all pending
groups run through one executor of fused per-file read -> encode -> write
tasks (:func:`_run_file_tasks`): in the calling process, one file after
another, when the input decodes to at most
``tokrle.pipelines.encode._LOCAL_DECODE_BYTES``, and as ONE Dataset job
above that.  A group's manifest row is published the moment its last file
reports, so a killed run loses only the groups still in flight.  Groups
are deterministic (sorted file list, fixed grouping), so re-runs resume
exactly.

The reference has no fault tolerance at all (a failed ray.get kills the
job, ref pyrle/rledict.py:173); this plus Ray Data's task retries is the
scale-out replacement.
"""

from __future__ import annotations

import collections
import functools
import glob
import hashlib
import os
import time
import weakref

from tokrle.pipelines.encode import (DEFAULT_BATCH_SIZE, encode_tokens,
                                     normalize_by_source)
from tokrle.state.manifest import Manifest

GROUP_FILES = 32
# auto-sizing targets: enough bytes per group that pipeline spin-up
# amortizes, small enough that a crash loses minutes, not hours.  The
# target counts ON-DISK (compressed parquet) bytes — ~256 MB on disk is
# roughly 1 GB of raw token data at typical parquet ratios
GROUP_TARGET_BYTES = 256 << 20
GROUP_MAX_FILES = 64


def list_units(in_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(in_dir, "*.parquet")))


def plan_groups(units: list[str], *, target_bytes: int = GROUP_TARGET_BYTES,
                max_files: int = GROUP_MAX_FILES) -> list[list[str]]:
    """Deterministic size-aware grouping: consecutive (sorted) files are
    grouped until ~target_bytes or max_files — so tiny-file corpora do not
    pay one pipeline spin-up per handful of MB and huge-file corpora still
    resume at a fine granularity.  Same files + sizes -> same groups."""
    groups: list[list[str]] = []
    cur: list[str] = []
    size = 0
    for p in units:
        s = os.path.getsize(p)
        if cur and (size + s > target_bytes or len(cur) >= max_files):
            groups.append(cur)
            cur, size = [], 0
        cur.append(p)
        size += s
    if cur:
        groups.append(cur)
    return groups


def _group_id(paths: list[str]) -> str:
    h = hashlib.blake2b(digest_size=10)
    for p in paths:
        h.update(p.encode())
        h.update(b"\x00")  # separator: ['ab','c'] must not equal ['a','bc']
    return h.hexdigest()


_LINEAGE_SUMS = ("n_tokens", "raw_bytes", "encoded_bytes")
# the encoded-chunk columns decode_chunks needs
_CHUNK_COLUMNS = ["codec", "payload", "n_tokens", "row_offsets", "doc_id",
                  "doc_source"]


def _lineage_sums(enc: "pa.Table") -> tuple[int, int, int]:
    """(n_tokens, raw_bytes, encoded_bytes) summed over encoded chunks."""
    import pyarrow.compute as pc

    return tuple(pc.sum(enc.column(k)).as_py() or 0 for k in _LINEAGE_SUMS)


def _run_file_tasks(items: list[dict], task, unit_key: str, on_unit_done,
                    *, files: list[str], token_col: str,
                    on_row=None) -> None:
    """The one executor of the write entry points: run ``task`` (a
    per-file ``map_batches`` function returning one metrics row per item)
    over ``items``, one item per call, and stream the metrics rows back.
    ``on_row(unit, row)`` sees every row; ``on_unit_done(unit)`` runs the
    moment the LAST item of a unit (``item[unit_key]``) reports, so
    crash-publish ordering is defined in exactly one place and a crash
    mid-run keeps every published unit.

    When the input ``files`` decode to at most ``_LOCAL_DECODE_BYTES``
    (:func:`_fits_in_caller` over their ``token_col`` column), ``task``
    runs in the calling process on one item at a time, in item order, and
    no Ray job starts; above it the items run as ONE Dataset job."""
    remaining = collections.Counter(item[unit_key] for item in items)
    if _fits_in_caller(files, token_col):
        rows = (row for item in items
                for row in task({k: [v] for k, v in item.items()})
                .to_pylist())
    else:
        import ray.data

        rows = ray.data.from_items(
            items, override_num_blocks=len(items)).map_batches(
            task, batch_size=1, batch_format="numpy").iter_rows()
    for row in rows:
        u = row[unit_key]
        if on_row is not None:
            on_row(u, row)
        remaining[u] -= 1
        if remaining[u] == 0:
            on_unit_done(u)


def _fits_in_caller(files: list[str], token_col: str) -> bool:
    """Whether ``files`` decode to at most ``_LOCAL_DECODE_BYTES`` of
    int32 tokens, 4 bytes per token summed from their ``token_col``
    column (``n_tok`` of a token file, ``n_tokens`` of an encoded one).
    The sum stops at the first file that passes the ceiling, so a large
    corpus reads only a few small columns before it takes the Ray job."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tokrle.pipelines import encode

    total = 0
    for f in files:
        col = pq.read_table(f, columns=[token_col]).column(0)
        total += 4 * (pc.sum(col).as_py() or 0)
        if total > encode._LOCAL_DECODE_BYTES:
            return False
    return True


def _encode_groups(groups: list[list[str]], out_dir: str, task,
                   token_col: str, *, batch_size: int,
                   local_group: bool) -> dict:
    """Executor of :func:`encode_corpus` and :func:`recompress`: every
    pending group's files run through :func:`_run_file_tasks` as fused
    read->encode->write tasks (``task``: :func:`_encode_write_file_task`
    or :func:`_recompress_file_task`, whose input files count their
    tokens in ``token_col``); only per-file metrics rows return, and one
    manifest row is published per completed group.  Returns run
    metrics.

    Per-group ``seconds`` in the manifest is the SUM of that group's
    per-file task times (compute seconds, not wall — groups execute
    concurrently)."""
    manifest = Manifest(out_dir)
    done = manifest.completed_units()
    run = {"units_total": len(groups), "units_skipped": 0,
           "n_tokens": 0, "raw_bytes": 0, "encoded_bytes": 0, "seconds": 0.0}
    pending: list[tuple[str, list[str]]] = []
    for grp in groups:
        gid = _group_id(grp)
        if gid in done:
            run["units_skipped"] += 1
            continue
        # a previous CRASHED attempt may have left partial files (its
        # manifest row was never published); clear them or stale-grouping
        # leftovers would sit next to the re-run's outputs
        unit_out = os.path.join(out_dir, f"group={gid}")
        if os.path.isdir(unit_out):
            import shutil

            shutil.rmtree(unit_out)
        pending.append((gid, grp))
    if not pending:
        return run
    t0 = time.perf_counter()
    per_group: dict[str, dict] = {
        gid: {"n_files": len(grp), "first_file": grp[0], "n_tokens": 0,
              "raw_bytes": 0, "encoded_bytes": 0, "seconds": 0.0}
        for gid, grp in pending}

    def accumulate(gid: str, row) -> None:
        m = per_group[gid]
        for k in ("n_tokens", "raw_bytes", "encoded_bytes", "seconds"):
            m[k] += row[k]

    def publish(gid: str) -> None:
        manifest.mark_done(gid, per_group[gid])
        for k in _LINEAGE_SUMS:
            run[k] += per_group[gid][k]

    # publish each group's manifest row the moment its LAST file reports
    # — resume granularity stays per-group even though all groups share
    # one run
    _run_file_tasks(
        [{"path": p, "group": gid} for gid, grp in pending for p in grp],
        functools.partial(task, out_dir=out_dir, batch_size=batch_size,
                          local_group=local_group),
        "group", publish, files=[p for _, grp in pending for p in grp],
        token_col=token_col, on_row=accumulate)
    run["seconds"] = time.perf_counter() - t0
    return run


def _encode_write_file_task(batch: dict, *, out_dir: str, batch_size: int,
                            local_group: bool = False) -> "pa.Table":
    """Fully-fused resume-unit task: read one input file locally, encode it
    chunk by chunk, WRITE the encoded table straight into its group's
    directory, and return a single ~100-byte metrics row.

    :func:`_run_file_tasks` calls it once per input file: in the calling
    process for a small corpus, otherwise as one task of ONE Dataset job
    over ALL pending groups at full cluster width (one pipeline spin-up
    total, stragglers amortize across every file), instead of one
    sequential Dataset job per 256 MB resume group — which on a 256-node
    cluster would leave almost the whole cluster idle per group.  Nothing
    but the metrics row crosses the object store.

    Crash-idempotent: the output file name is a pure function of the input
    path, written via tmp + ``os.replace``; a retried or re-run task
    atomically overwrites its own previous partial output.
    """
    import pyarrow.parquet as pq

    from tokrle.pipelines.encode import _encode_batch

    def encode_file(path: str) -> list:
        table = pq.read_table(path, columns=["doc_id", "tokens", "n_tok",
                                             "source"])
        return [_encode_batch(table.slice(start, batch_size),
                              local_group=local_group)
                for start in range(0, len(table), batch_size)]

    return _write_file_parts(batch, out_dir, encode_file)


def _write_file_parts(batch: dict, out_dir: str, to_parts) -> "pa.Table":
    """Per-file loop of the fused encode and recompress tasks:
    ``to_parts(path)`` returns the file's encoded part tables, published
    as the file's output part in its group's directory (tmp + atomic
    rename, a name that is a pure function of the input path; nothing is
    written when the input decoded to zero rows).  Returns one metrics
    row per file."""
    import pyarrow as pa

    from tokrle.state.manifest import _unit_id

    rows: dict[str, list] = {"group": [], "path": [], "n_tokens": [],
                             "raw_bytes": [], "encoded_bytes": [],
                             "seconds": []}
    for path, gid in zip(batch["path"], batch["group"]):
        t0 = time.perf_counter()
        final = os.path.join(out_dir, f"group={gid}",
                             f"part-{_unit_id(path)}.parquet")
        enc = _write_parts(to_parts(path), final + ".tmp")
        if enc is not None:
            os.replace(final + ".tmp", final)
        sums = (0, 0, 0) if enc is None else _lineage_sums(enc)
        rows["group"].append(gid)
        rows["path"].append(path)
        for k, v in zip(_LINEAGE_SUMS, sums):
            rows[k].append(v)
        rows["seconds"].append(time.perf_counter() - t0)
    return pa.table(rows)


def _write_parts(parts: list, path: str) -> "pa.Table | None":
    """Concat encoded part tables and write them to ``path``, creating its
    directory; returns the written table, or None (and writes nothing)
    when the parts hold no chunk row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    enc = pa.concat_tables(parts) if parts else None
    if enc is None or not enc.num_rows:
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(enc, path)
    return enc


def _recompress_file_task(batch: dict, *, out_dir: str, batch_size: int,
                          local_group: bool = False) -> "pa.Table":
    """Fused recompress resume-unit task: read one ENCODED parquet file
    locally, stream-decode it a few chunks at a time, re-encode at the new
    chunking/codec settings, and write the result into its group's
    directory — the decoded token stream never leaves the task, let alone
    the object store.  Single-job shape and crash idempotence exactly as
    :func:`_encode_write_file_task`.

    Decoded rows are buffered and re-sliced to uniform ``batch_size``
    chunks across the whole file (one tail chunk per file), matching what
    the Dataset map_batches path produced per block."""
    import pyarrow.parquet as pq

    def reencode_file(path: str) -> list:
        return _decode_reencode_stream(
            [pq.read_table(path, columns=_CHUNK_COLUMNS)],
            batch_size=batch_size, local_group=local_group)

    return _write_file_parts(batch, out_dir, reencode_file)


def _decode_reencode_stream(enc_tables, *, batch_size: int,
                            local_group: bool, filter_fn=None) -> list:
    """Stream chunk rows from ``enc_tables`` (an iterable of encoded
    pyarrow Tables) through decode -> optional ``filter_fn`` (token-table
    -> token-table) -> uniform ``batch_size`` re-batch -> encode,
    returning the encoded part tables.  Transient memory is bounded by a
    few chunks plus one re-batch buffer regardless of the total stream
    size."""
    from tokrle.pipelines.encode import _encode_batch
    from tokrle.stages.encoder import decode_chunks

    decode_rows = 4

    def decoded():
        for enc_in in enc_tables:
            for s in range(0, enc_in.num_rows, decode_rows):
                tok = decode_chunks(enc_in.slice(s, decode_rows))
                yield tok if filter_fn is None else filter_fn(tok)

    return [_encode_batch(t, local_group=local_group)
            for t in _rebatch(decoded(), batch_size)]


def _rebatch(tables, batch_size: int):
    """Cut a stream of token tables into ``batch_size``-row slices that
    run across table boundaries, plus one shorter tail slice; holds at
    most one slice plus the current table."""
    import pyarrow as pa

    buf: list = []
    buf_rows = 0
    for tok in tables:
        if tok.num_rows:
            buf.append(tok)
            buf_rows += tok.num_rows
        while buf_rows >= batch_size:
            t = pa.concat_tables(buf) if len(buf) > 1 else buf[0]
            yield t.slice(0, batch_size)
            rem = t.slice(batch_size)
            buf = [rem] if rem.num_rows else []
            buf_rows = rem.num_rows
    if buf_rows:
        yield pa.concat_tables(buf) if len(buf) > 1 else buf[0]


def recompress(in_encoded: str, out_dir: str, *,
               batch_size: int = DEFAULT_BATCH_SIZE,
               by_source: bool = False) -> dict:
    """Re-encode an already-encoded corpus (codec migration / compaction /
    re-chunking): fused decode->encode->write tasks per input file, so
    the decoded token stream never materializes, and a killed run resumes
    at group granularity exactly like :func:`encode_corpus`.

    Typical uses: switch source grouping (``by_source``), change the
    chunk size after data drift, or pick up codec improvements on old data.
    """
    local_group = normalize_by_source(by_source)
    # scan the LIVE view only: a raw recursive glob would ingest
    # _docindex partitions (wrong schema), *.tmp/*.old crash leftovers,
    # and superseded pre-compaction member dirs (duplicated docs)
    live = corpus_files(in_encoded)
    units = sorted(glob.glob(os.path.join(in_encoded, "*.parquet"))) \
        if isinstance(live, str) else live
    return _encode_groups(plan_groups(sorted(units)), out_dir,
                          _recompress_file_task, "n_tokens",
                          batch_size=batch_size, local_group=local_group)


def encode_corpus(in_dir: str, out_dir: str, *,
                  batch_size: int = DEFAULT_BATCH_SIZE,
                  by_source: bool = False,
                  group_files: int | None = None) -> dict:
    """Encode every token Parquet file under ``in_dir`` into ``out_dir``,
    skipping groups already recorded in the manifest. Returns run metrics.

    ``group_files``: None (default) = size-aware auto grouping
    (:func:`plan_groups`, ~1 GB or 64 files per resume unit); an int keeps
    the fixed files-per-group behavior.

    Each input file is read inside its encode task (see
    _encode_write_file_task), so read -> encode -> write fuses into
    single tasks and NO raw token bytes cross the object store;
    ``by_source=True`` groups each batch by source inside those tasks."""
    local_group = normalize_by_source(by_source)
    units = list_units(in_dir)
    if group_files is None:
        groups = plan_groups(units)
    else:
        groups = [units[i:i + group_files]
                  for i in range(0, len(units), group_files)]
    return _encode_groups(groups, out_dir, _encode_write_file_task, "n_tok",
                          batch_size=batch_size, local_group=local_group)


def _adopt_plain_layout(enc_dir: str) -> None:
    """Wrap a plain ``encode_tokens(...).write_parquet`` output (parquet
    files directly under ``enc_dir``, no ``group=*`` dirs) into a single
    ``group=base`` directory so the group-level writers (upsert/compact)
    can include it in the live view.  Without this, an upsert on a plain
    corpus would scan nothing for replacements and its delta group would
    then HIDE every pre-existing doc from :func:`live_groups` readers.

    Idempotent and crash-convergent under the module's single-writer
    assumption: files move one-by-one into the constant-named
    ``group=base.tmp`` (excluded from every live view), and the final
    rename publishes the group only when no plain files remain; a re-run
    after a crash resumes the moves and completes the rename."""
    if glob.glob(os.path.join(enc_dir, "group=*")):
        adopted = os.path.isdir(os.path.join(enc_dir, "group=base")) or \
            os.path.isdir(os.path.join(enc_dir, "group=base.tmp"))
        if not adopted:
            return  # already a group layout with no adoption in flight
    plain = sorted(glob.glob(os.path.join(enc_dir, "*.parquet")))
    tmp = os.path.join(enc_dir, "group=base.tmp")
    base = os.path.join(enc_dir, "group=base")
    if not plain and not os.path.isdir(tmp):
        return
    os.makedirs(tmp, exist_ok=True)
    for p in plain:
        os.rename(p, os.path.join(tmp, os.path.basename(p)))
    if os.path.isdir(base):  # crash between the two renames of a re-run
        for p in glob.glob(os.path.join(tmp, "*.parquet")):
            os.rename(p, os.path.join(base, os.path.basename(p)))
        os.rmdir(tmp)
    else:
        os.rename(tmp, base)


def upsert_corpus(enc_dir: str, delta_ds, *,
                  batch_size: int = DEFAULT_BATCH_SIZE,
                  by_source: bool = False) -> dict:
    """Doc-level upsert into an encoded corpus (LSM-style merge): rows of
    ``delta_ds`` (token-table schema: doc_id, tokens, n_tok, source)
    REPLACE same-doc_id documents already in the corpus and append
    otherwise.

    Scale shape — the delta is the SMALL side by definition (an
    incremental ingest batch against a 100-TB corpus):

    - the delta is materialized once and its doc_id set collected from
      its Arrow blocks, one block at a time, in the calling process;
    - the corpus's doc_id-list column is streamed with ``pyarrow.dataset``
      in the caller (:func:`tokrle.pipelines.encode._doc_id_hits`), which
      counts the replaced docs per chunk row — payload bytes never leave
      storage;
    - only the AFFECTED resume groups (directories holding a replaced
      doc) are decoded -> filtered -> re-encoded through
      :func:`_run_file_tasks` (in the caller when they are small), and
      each is swapped in via write-to-``.tmp`` then rename-old-ASIDE
      (``gdir`` -> ``gdir.old``; ``tmp`` -> ``gdir``; delete ``.old``):
      every crash point leaves either the old or the new group fully
      readable, and :func:`recover_groups` / :func:`live_groups` resolve
      the leftovers;
    - the delta encodes into ONE new group keyed by the hash of its
      doc_id set, so re-running the same upsert is idempotent (the group
      is rewritten in place, never duplicated).  A delta of at most
      ``_LOCAL_DECODE_BYTES`` of tokens encodes in the caller, cut into
      the slices ``map_batches(batch_size=...)`` would cut and written as
      one ``part-*.parquet`` per task that job would run
      (:func:`_delta_tasks`); a larger one is an
      ``encode_tokens(...).write_parquet`` job.

    Returns run metrics (groups_rewritten, docs_replaced, docs_added, ...).
    """
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc

    from tokrle.pipelines import encode

    local_group = normalize_by_source(by_source)
    manifest = Manifest(enc_dir)
    recover_groups(enc_dir)  # converge any interrupted prior swap first
    _adopt_plain_layout(enc_dir)  # plain write_parquet output -> group=base
    delta = delta_ds.materialize()  # small side: ids are needed up front
    id_set: set[str] = set()
    n_docs = n_tok = 0
    for block in _delta_blocks(delta):
        id_set.update(pc.unique(block.column("doc_id").cast(pa.string()))
                      .to_pylist())
        n_docs += block.num_rows
        n_tok += len(pc.list_flatten(block.column("tokens")))
    ids = sorted(id_set)
    run = {"groups_rewritten": 0, "docs_replaced": 0,
           "docs_added": n_docs, "seconds": 0.0}
    t0 = time.perf_counter()
    if not ids:
        return run
    wanted = pa.array(ids, type=pa.string())

    # scan the LIVE view only (post-compaction the pointer is
    # authoritative; superseded member dirs may still exist mid-GC)
    files = [f for g in live_groups(enc_dir) for f in _group_files(g)]
    hits = encode._doc_id_hits(files, wanted)
    run["docs_replaced"] = int(pc.sum(hits.column("n_hit")).as_py() or 0)
    group_dirs = sorted({os.path.dirname(p)
                         for p in hits.column("path").to_pylist()})

    def _swap_group(gdir: str, n_files: int) -> None:
        """Crash-safe swap: rename the old group ASIDE (never delete it
        before the replacement is in place).  Every interruption point
        leaves a recoverable state — see recover_groups()/live_groups():
          after rename(gdir -> .old):  base missing, .old = old data
          after rename(tmp -> gdir):   base = new data, .old = garbage
        """
        tmp = gdir + ".tmp"
        # a fully-replaced group encodes to zero rows and writes no
        # files — keep the (empty) dir so the swap still works
        os.makedirs(tmp, exist_ok=True)
        old = gdir + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.rename(gdir, old)
        os.rename(tmp, gdir)
        shutil.rmtree(old)
        run["groups_rewritten"] += 1
        gid = os.path.basename(gdir).split("=", 1)[-1]
        manifest.mark_done(gid, {"n_files": n_files,
                                 "upsert_rewrite": True,
                                 "seconds": time.perf_counter() - t0})

    if group_dirs:
        # ALL affected groups rewrite through ONE run of fused
        # decode->drop->re-encode->write tasks (one per member file);
        # each group's atomic swap publishes the moment its last file
        # reports — same executor as encode_corpus/compact
        group_files = {g: _group_files(g) for g in group_dirs}
        for g in group_dirs:
            shutil.rmtree(g + ".tmp", ignore_errors=True)
        _run_file_tasks(
            [{"gdir": g, "path": p} for g, fs in group_files.items()
             for p in fs],
            functools.partial(_upsert_rewrite_file_task,
                              batch_size=batch_size,
                              local_group=local_group, wanted=wanted),
            "gdir", lambda g: _swap_group(g, len(group_files[g])),
            files=[p for fs in group_files.values() for p in fs],
            token_col="n_tokens")

    h = hashlib.blake2b(digest_size=10)
    for i in ids:
        h.update(i.encode())
        h.update(b"\x00")
    gid = f"upsert-{h.hexdigest()}"
    unit_out = os.path.join(enc_dir, f"group={gid}")
    # write-to-tmp + atomic rename: a half-written delta must never be
    # live (on a pointerless corpus every complete group=* dir is)
    unit_tmp = unit_out + ".tmp"
    shutil.rmtree(unit_tmp, ignore_errors=True)
    shutil.rmtree(unit_out, ignore_errors=True)
    if 4 * n_tok <= encode._LOCAL_DECODE_BYTES:
        for i, slices in enumerate(_delta_tasks(delta, batch_size)):
            _write_parts([encode._encode_batch(t, local_group=local_group)
                          for t in slices],
                         os.path.join(unit_tmp, f"part-{i:06d}.parquet"))
    else:
        encode_tokens(delta, batch_size=batch_size,
                      by_source=by_source).write_parquet(unit_tmp)
    os.makedirs(unit_tmp, exist_ok=True)  # empty delta still publishes
    os.rename(unit_tmp, unit_out)
    dt = time.perf_counter() - t0
    manifest.mark_done(gid, {"n_files": 0, "first_file": "<delta>",
                             "upsert_delta": True, "seconds": dt})
    # keep the live-group pointer (if compaction created one) in sync:
    # the delta group joins the view atomically
    if os.path.exists(_groups_pointer(enc_dir)):
        names = {os.path.basename(g) for g in live_groups(enc_dir)}
        names.add(os.path.basename(unit_out))
        _publish_groups(enc_dir, sorted(names))
    run["seconds"] = dt
    return run


def _delta_blocks(delta):
    """The blocks of a materialized Dataset as Arrow tables, in order,
    fetched one at a time."""
    import ray
    from ray.data.block import BlockAccessor

    for bundle in delta.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            yield BlockAccessor.for_block(ray.get(ref)).to_arrow()


def _delta_tasks(delta, batch_size: int):
    """The token tables each task of
    ``delta.map_batches(fn, batch_size=batch_size)`` hands ``fn``, one
    list per task, when ``delta`` is a ``materialize()`` output (its input
    is one ref bundle per block): Ray Data gives a task the next blocks,
    in order, until they hold at least ``batch_size`` rows (the last task
    takes the rest), and the task cuts them into ``batch_size``-row
    slices plus one tail."""
    blocks: list = []
    rows = 0
    for block in _delta_blocks(delta):
        blocks.append(block)
        rows += block.num_rows
        if rows >= batch_size:
            yield list(_rebatch(blocks, batch_size))
            blocks, rows = [], 0
    if rows:
        yield list(_rebatch(blocks, batch_size))


def _upsert_rewrite_file_task(batch: dict, *, batch_size: int,
                              local_group: bool,
                              wanted: "pa.Array") -> "pa.Table":
    """Fused upsert-rewrite task: stream-decode one member file of an
    affected group, DROP the replaced doc_ids (``wanted``), re-encode,
    and write into the group's invisible ``.tmp`` dir.  The group's
    crash-safe swap runs when its last file reports."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tokrle.state.manifest import _unit_id

    def drop(tok: "pa.Table") -> "pa.Table":
        return tok.filter(pc.invert(pc.is_in(tok.column("doc_id"),
                                             value_set=wanted)))

    rows: dict[str, list] = {"gdir": [], "path": [], "seconds": []}
    for gdir, path in zip(batch["gdir"], batch["path"]):
        t0 = time.perf_counter()
        _write_parts(_decode_reencode_stream(
            [pq.read_table(path, columns=_CHUNK_COLUMNS)],
            batch_size=batch_size, local_group=local_group, filter_fn=drop),
            os.path.join(gdir + ".tmp", f"part-{_unit_id(path)}.parquet"))
        rows["gdir"].append(gdir)
        rows["path"].append(path)
        rows["seconds"].append(time.perf_counter() - t0)
    return pa.table(rows)


def _groups_pointer(enc_dir: str) -> str:
    return os.path.join(enc_dir, "_manifest", "groups.json")


def live_groups(enc_dir: str) -> list[str]:
    """Directories that make up the corpus's CURRENT view.

    If the atomic live-group pointer (written by :func:`compact_corpus`)
    exists it is authoritative; otherwise every ``group=*`` directory is
    live (the pre-compaction layout).  Readers that honor this list are
    immune to the compaction race: the pointer swap is a single
    ``os.replace``, so a reader sees either the old members or the new
    compacted group — never both, never neither.
    """
    import json

    ptr = _groups_pointer(enc_dir)
    if os.path.exists(ptr):
        with open(ptr) as f:
            names = json.load(f)["groups"]
        # read-only crash recovery: an upsert interrupted between its two
        # renames leaves only 'group=<gid>.old' — serve that as the group
        return [p if os.path.isdir(p) else p + ".old"
                for n in names for p in [os.path.join(enc_dir, n)]]
    # exclude '*.tmp' (partial rewrite — must never be read) and '*.old'
    # whose base dir exists (post-swap garbage awaiting GC); an '*.old'
    # with NO base dir is a swap interrupted mid-rename: the old data is
    # the only complete copy, so it IS the live group.
    out = []
    for p in sorted(glob.glob(os.path.join(enc_dir, "group=*"))):
        if not os.path.isdir(p) or p.endswith(".tmp"):
            continue
        if p.endswith(".old"):
            if not os.path.isdir(p[:-len(".old")]):
                out.append(p)
        else:
            out.append(p)
    return out


def recover_groups(enc_dir: str) -> dict:
    """Converge crash leftovers from an interrupted group swap (single
    writer assumed): ``group=<gid>.old`` with a missing base dir is the
    only complete copy — rename it back; with a base dir present it is
    post-swap garbage — delete it; ``group=<gid>.tmp`` is always a
    partial rewrite — delete it.  Idempotent; called by the writers
    (upsert/compact) before mutating.  Readers get the same view without
    mutation via :func:`live_groups`."""
    import shutil

    stats = {"restored": 0, "gc_old": 0, "gc_tmp": 0}
    for p in sorted(glob.glob(os.path.join(enc_dir, "group=*.old"))):
        base = p[:-len(".old")]
        if os.path.isdir(base):
            shutil.rmtree(p, ignore_errors=True)
            stats["gc_old"] += 1
        else:
            os.rename(p, base)
            stats["restored"] += 1
    for p in sorted(glob.glob(os.path.join(enc_dir, "group=*.tmp"))):
        if os.path.basename(p) == "group=base.tmp":
            continue  # adoption staging: holds the ONLY copy of plain
            # files mid-move; _adopt_plain_layout resumes it, never GC
        shutil.rmtree(p, ignore_errors=True)
        stats["gc_tmp"] += 1
    return stats


def _publish_groups(enc_dir: str, names: list[str]) -> None:
    import json

    ptr = _groups_pointer(enc_dir)
    os.makedirs(os.path.dirname(ptr), exist_ok=True)
    tmp = ptr + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"groups": sorted(names)}, f)
    os.replace(tmp, ptr)  # atomic commit point


def _group_files(g: str) -> list[str]:
    """The Parquet files of group directory ``g``, sorted."""
    return sorted(glob.glob(os.path.join(g, "*.parquet")))


def corpus_files(enc_dir: str) -> list[str] | str:
    """Parquet paths of the corpus's LIVE view — what every reader of an
    encoded dir must scan instead of ``enc_dir`` itself: while an upsert's
    ``group=*.tmp`` exists, or after a crashed ``compact_corpus`` that
    published the pointer but did not finish GC'ing member dirs, the raw
    directory holds superseded/partial groups that would surface
    duplicated or stale docs.  Falls back to ``enc_dir`` when there is no
    group layout (a plain ``encode_tokens(...).write_parquet`` output)."""
    groups = live_groups(enc_dir)
    if not groups:
        return enc_dir
    return [f for g in groups for f in _group_files(g)]


#: read_corpus Dataset -> (live-view files, columns) it reads.  Keyed
#: weakly by the Dataset object: every transform makes a new object, so
#: only an untransformed corpus read is ever found here.
_CORPUS_READS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _dir_parquet_files(d: str) -> list[str]:
    """The files under a plain ``write_parquet`` directory, as
    ``read_parquet`` lists them: recursive, sorted, and skipping every
    name that starts with ``.`` or ``_``."""
    out = []
    for root, dirs, names in os.walk(d):
        dirs[:] = [x for x in dirs if not x.startswith((".", "_"))]
        out += [os.path.join(root, n) for n in names
                if not n.startswith((".", "_"))]
    return sorted(out)


def _hive_parts(path: str) -> dict:
    """The ``key=value`` directory segments of ``path``: the string
    columns ``read_parquet``'s default hive partitioning adds."""
    return dict(s.split("=") for s in os.path.dirname(path).split("/")
                if s.count("=") == 1)


def _read_corpus_files(paths: list, columns: list[str] | None):
    """One read task of :func:`read_corpus`: each file one row group at
    a time, with its hive path segments appended as string columns."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    for path in paths:
        with pq.ParquetFile(path) as pf:
            names = pf.schema_arrow.names
            parts = {k: v for k, v in _hive_parts(path).items()
                     if k not in names and (columns is None or k in columns)}
            for i in range(pf.num_row_groups):
                t = pf.read_row_group(i, columns=None if columns is None
                                      else [c for c in columns if c in names])
                if not t.num_rows:
                    continue
                for k, v in parts.items():
                    t = t.append_column(k, pa.array([v] * t.num_rows,
                                                    pa.string()))
                yield t if columns is None else t.select(columns)


@functools.cache
def _corpus_source_cls():
    """The Datasource behind :func:`read_corpus`, defined on first use so
    importing this module does not import Ray."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class _CorpusSource(Datasource):
        """The live-view files of a corpus with their footers read once:
        row counts, sizes and the projected schema come from the footers,
        so building the read starts no Ray task and ``schema()`` and
        ``count()`` read no data."""

        def __init__(self, files, columns):
            self._paths = (_dir_parquet_files(files)
                           if isinstance(files, str) else list(files))
            self._columns = columns
            metas = [pq.read_metadata(p) for p in self._paths]
            self._rows = [m.num_rows for m in metas]
            self._bytes = [sum(m.row_group(g).total_byte_size
                               for g in range(m.num_row_groups))
                           for m in metas]
            self._schema = None
            if metas:
                schema = metas[0].schema.to_arrow_schema()
                for k in _hive_parts(self._paths[0]):
                    if k not in schema.names:
                        schema = schema.append(pa.field(k, pa.string()))
                self._schema = schema if columns is None else pa.schema(
                    [schema.field(c) for c in columns], schema.metadata)

        def get_name(self) -> str:
            return "Parquet"

        def estimate_inmemory_data_size(self) -> int:
            return sum(self._bytes)

        def get_read_tasks(self, parallelism: int) -> list:
            tasks = []
            for idx in np.array_split(np.arange(len(self._paths)),
                                      parallelism):
                if not len(idx):
                    continue
                paths = [self._paths[i] for i in idx]
                meta = BlockMetadata(
                    num_rows=sum(self._rows[i] for i in idx),
                    size_bytes=sum(self._bytes[i] for i in idx),
                    exec_stats=None, input_files=paths)
                tasks.append(ReadTask(
                    functools.partial(_read_corpus_files, paths,
                                      self._columns),
                    meta, schema=self._schema))
            return tasks

    return _CorpusSource


def read_corpus(enc_dir: str, columns: list[str] | None = None):
    """Encoded-corpus Dataset over the LIVE groups only: a lazy read of
    :func:`corpus_files` with ``read_parquet``'s rows, hive ``group``
    column, schema and operator name (``ReadParquet``), built from the
    files' footers with no Ray task (``read_parquet`` samples files in
    Ray tasks to estimate sizes).  Each read task reads its files one
    row group at a time.  An empty live view reads as zero blocks.

    The Dataset also remembers its file list and ``columns``, so
    ``decode_tokens(read_corpus(d))`` can decode a corpus of at most
    ``tokrle.pipelines.encode._LOCAL_DECODE_BYTES`` decoded bytes in the
    calling process, with no Ray job; a transformed read (``limit``,
    ``filter``, ``materialize``, ...) always takes the Ray job."""
    import ray.data

    files = corpus_files(enc_dir)
    ds = ray.data.read_datasource(_corpus_source_cls()(files, columns))
    _CORPUS_READS[ds] = (files, columns)
    return ds


def _compact_bin_task(batch: dict, *, enc_dir: str, batch_size: int,
                      local_group: bool = False) -> "pa.Table":
    """Fused compaction task: stream-decode ALL of one bin's member files,
    re-batch to uniform ``batch_size`` chunks across the whole bin (so
    compression recovers — the point of compaction), encode, and write one
    consolidated file into the bin's invisible ``.tmp`` dir.  The bin's
    atomic view swap is published when this task's metrics row arrives;
    all bins run through ONE :func:`_run_file_tasks` run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows: dict[str, list] = {"bin": [], "n_tokens": [],
                             "encoded_bytes": [], "seconds": []}
    for name, files_s in zip(batch["bin"], batch["files"]):
        t0 = time.perf_counter()
        files = [f for f in files_s.split("\x00") if f]
        tmp_dir = os.path.join(enc_dir, name) + ".tmp"
        os.makedirs(tmp_dir, exist_ok=True)
        enc = _write_parts(_decode_reencode_stream(
            (pq.read_table(f, columns=_CHUNK_COLUMNS) for f in files),
            batch_size=batch_size, local_group=local_group),
            os.path.join(tmp_dir, "part-000.parquet"))
        n_tok, _, enc_b = (0, 0, 0) if enc is None else _lineage_sums(enc)
        rows["bin"].append(name)
        rows["n_tokens"].append(n_tok)
        rows["encoded_bytes"].append(enc_b)
        rows["seconds"].append(time.perf_counter() - t0)
    return pa.table(rows)


def compact_corpus(enc_dir: str, *, target_bytes: int = GROUP_TARGET_BYTES,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   by_source: bool = False) -> dict:
    """Merge undersized groups (LSM compaction): repeated
    :func:`upsert_corpus` deltas and fully-rewritten groups accumulate
    many small directories; this folds every group under
    ``target_bytes/2`` into consolidated ~``target_bytes`` groups by
    streaming decode -> re-encode (chunks get full batches again, so
    compression recovers too).

    Crash safety (no WAL): (1) the compacted group is written to a fresh
    ``group=compact-...`` dir nobody references, (2) the LIVE-GROUP
    POINTER swaps atomically (``os.replace``) to the new view, (3) member
    dirs are deleted last (pure garbage collection).  A crash at any
    point leaves one consistent view for :func:`read_corpus` readers.
    """
    import shutil

    local_group = normalize_by_source(by_source)
    manifest = Manifest(enc_dir)
    recover_groups(enc_dir)  # never let '.old' leftovers enter the pointer
    _adopt_plain_layout(enc_dir)
    groups = live_groups(enc_dir)
    # pin the view BEFORE writing anything: on a pointerless corpus every
    # complete group=* dir is live, so a finished compact dir would be
    # double-counted between its final rename and the pointer publish
    if groups and not os.path.exists(_groups_pointer(enc_dir)):
        _publish_groups(enc_dir, [os.path.basename(g) for g in groups])
    sizes = {g: sum(os.path.getsize(f) for f in _group_files(g))
             for g in groups}
    small = [g for g in groups if sizes[g] < target_bytes // 2]
    run = {"groups_before": len(groups), "groups_after": len(groups),
           "bins": 0, "bytes_compacted": 0, "seconds": 0.0}
    if len(small) < 2:
        return run
    t0 = time.perf_counter()
    # greedy size-aware bin pack over the sorted small groups
    bins: list[list[str]] = []
    cur: list[str] = []
    acc = 0
    for g in small:
        if cur and acc + sizes[g] > target_bytes:
            bins.append(cur)
            cur, acc = [], 0
        cur.append(g)
        acc += sizes[g]
    if cur:
        bins.append(cur)
    bins = [b for b in bins if len(b) >= 2]
    live = set(groups)

    plan: dict[str, tuple[list[str], list[str]]] = {}
    for members in bins:
        h = hashlib.blake2b(digest_size=10)
        for g in members:
            h.update(os.path.basename(g).encode())
            h.update(b"\x00")
        new_name = f"group=compact-{h.hexdigest()}"
        new_dir = os.path.join(enc_dir, new_name)
        files = [f for g in members for f in _group_files(g)]
        # write-to-tmp + atomic rename: the pointer is pinned (above), so
        # the renamed dir stays invisible until the publish below — and a
        # crash mid-write leaves only a .tmp that recover_groups GCs
        shutil.rmtree(new_dir + ".tmp", ignore_errors=True)
        shutil.rmtree(new_dir, ignore_errors=True)
        plan[new_name] = (members, files)

    def _finish_bin(new_name: str) -> None:
        """Atomic per-bin publish: rename the finished .tmp, swap the
        live-group pointer, then GC the member dirs."""
        nonlocal live
        members, files = plan[new_name]
        new_dir = os.path.join(enc_dir, new_name)
        os.makedirs(new_dir + ".tmp", exist_ok=True)  # empty bin case
        os.rename(new_dir + ".tmp", new_dir)
        live = (live - set(members)) | {new_dir}
        _publish_groups(enc_dir, [os.path.basename(g) for g in live])
        for g in members:
            shutil.rmtree(g, ignore_errors=True)
        manifest.mark_done(new_name.split("=", 1)[1],
                           {"n_files": len(files), "compacted": True,
                            "members": ",".join(os.path.basename(g)
                                                for g in members),
                            "seconds": time.perf_counter() - t0})
        run["bins"] += 1
        run["bytes_compacted"] += sum(sizes[g] for g in members)

    if plan:
        # ALL bins in ONE run (one fused decode->re-batch->encode->write
        # task per bin — compaction's full-batch re-chunking is preserved
        # because each task streams its WHOLE bin), with each bin's
        # atomic view swap published the moment its task reports
        _run_file_tasks(
            [{"bin": name, "files": "\x00".join(files)}
             for name, (_, files) in plan.items()],
            functools.partial(_compact_bin_task, enc_dir=enc_dir,
                              batch_size=batch_size,
                              local_group=local_group),
            "bin", _finish_bin,
            files=[f for _, files in plan.values() for f in files],
            token_col="n_tokens")
    run["groups_after"] = len(live)
    run["seconds"] = time.perf_counter() - t0
    return run
