"""CLI entry point — the unit a cluster run submits via ``ray job submit``:

    ray job submit --working-dir . -- python -m tokrle.cli encode \
        --in-dir /data/tokens --out-dir /data/encoded [--by-source]

    python -m tokrle.cli decode --in-dir /data/encoded --out-dir /data/tokens2
    python -m tokrle.cli verify --tokens /data/tokens --encoded /data/encoded
    python -m tokrle.cli table-encode --in-dir /data/any.parquet \
        --out-dir /data/enc --columns id,text --text-codec auto
    python -m tokrle.cli table-verify --source /data/any.parquet \
        --encoded /data/enc --columns id,text

In a cluster, ``ray.init(address="auto")`` attaches to the running cluster;
standalone it starts a local one.  This is the only module that owns a Ray
session besides bench.py and the test fixture.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up(num_cpus: int | None) -> bool:
    """Attach to (or start) a Ray session; True when this call started
    it, so :func:`main` ends only a session it owns."""
    import ray

    started = not ray.is_initialized()
    if started:
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


#: Subcommands that only scan in the calling process with pyarrow: they
#: start no Ray session (starting and stopping one costs seconds).
_CALLER_ONLY = {"table-scan", "table-agg"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tokrle")
    sub = ap.add_subparsers(dest="cmd", required=True)

    enc = sub.add_parser("encode", help="token parquet dir -> encoded dir")
    enc.add_argument("--in-dir", required=True)
    enc.add_argument("--out-dir", required=True)
    enc.add_argument("--batch-size", type=int, default=2048)
    enc.add_argument("--by-source", action="store_true",
                     help="group each batch's documents by source before "
                          "encoding (single-source chunks, no shuffle)")
    enc.add_argument("--group-files", type=int, default=None,
                     help="resume-unit size in input files "
                          "(default: size-aware auto grouping, ~1GB/unit)")
    enc.add_argument("--num-cpus", type=int, default=None)

    rec = sub.add_parser("recompress",
                         help="encoded dir -> re-encoded dir (migration)")
    rec.add_argument("--in-dir", required=True)
    rec.add_argument("--out-dir", required=True)
    rec.add_argument("--batch-size", type=int, default=2048)
    rec.add_argument("--by-source", action="store_true",
                     help="group by source, as for encode")
    rec.add_argument("--num-cpus", type=int, default=None)

    ups = sub.add_parser("upsert",
                         help="doc-level upsert: token parquet delta "
                              "replaces/appends docs in an encoded dir")
    ups.add_argument("--enc-dir", required=True)
    ups.add_argument("--delta-dir", required=True,
                     help="token-table parquet dir (doc_id, tokens, "
                          "n_tok, source)")
    ups.add_argument("--batch-size", type=int, default=2048)
    ups.add_argument("--num-cpus", type=int, default=None)

    cp = sub.add_parser("compact",
                        help="merge undersized groups behind the atomic "
                             "live-group pointer")
    cp.add_argument("--enc-dir", required=True)
    cp.add_argument("--target-bytes", type=int, default=None,
                    help="consolidated group size (default ~256MB)")
    cp.add_argument("--batch-size", type=int, default=2048)
    cp.add_argument("--num-cpus", type=int, default=None)

    di = sub.add_parser("doc-index",
                        help="build the persistent doc_id -> chunk index "
                             "(hive-partitioned by id-hash bucket)")
    di.add_argument("--enc-dir", required=True)
    di.add_argument("--index-dir", default=None)
    di.add_argument("--buckets", type=int, default=64)
    di.add_argument("--num-cpus", type=int, default=None)

    fd = sub.add_parser("fetch",
                        help="point-lookup docs by id (uses the doc index "
                             "when present, else a metadata scan)")
    fd.add_argument("--enc-dir", required=True)
    fd.add_argument("--ids", required=True,
                    help="comma-separated doc ids")
    fd.add_argument("--out-dir", default=None,
                    help="write fetched docs as parquet; default prints "
                         "a JSON summary")
    fd.add_argument("--num-cpus", type=int, default=None)

    dec = sub.add_parser("decode", help="encoded dir -> token parquet dir")
    dec.add_argument("--in-dir", required=True)
    dec.add_argument("--out-dir", required=True)
    dec.add_argument("--num-cpus", type=int, default=None)

    te = sub.add_parser("table-encode",
                        help="any parquet table -> per-column encoded "
                             "parquet (int + string columns)")
    te.add_argument("--in-dir", required=True)
    te.add_argument("--out-dir", required=True)
    te.add_argument("--columns", required=True,
                    help="comma-separated column names")
    te.add_argument("--batch-size", type=int, default=65536)
    te.add_argument("--text-codec", default="auto",
                    choices=["fsst", "fsstg", "auto"])
    te.add_argument("--cluster-by", default=None,
                    help="sort by this column before encoding (tight "
                         "zone maps for 1-D range scans)")
    te.add_argument("--zorder", default=None,
                    help="colA,colB: Z-order (Morton) cluster before "
                         "encoding (zone maps prune 2-D range scans)")
    te.add_argument("--num-cpus", type=int, default=None)

    ts = sub.add_parser("table-scan",
                        help="zone-map pruned range count over a "
                             "table-encode dir")
    ts.add_argument("--encoded", required=True)
    ts.add_argument("--where", required=True, action="append",
                    help="col:lo:hi inclusive range (repeatable; "
                         "conjunction)")
    ts.add_argument("--num-cpus", type=int, default=None)

    tv = sub.add_parser("table-verify",
                        help="decode a table-encode dir and checksum "
                             "against the source table")
    tv.add_argument("--source", required=True)
    tv.add_argument("--encoded", required=True)
    tv.add_argument("--columns", required=True)
    tv.add_argument("--num-cpus", type=int, default=None)

    cc = sub.add_parser("clean-corpus",
                        help="documents parquet -> cleaned, deduped, "
                             "source-partitioned parquet")
    cc.add_argument("--in-path", required=True)
    cc.add_argument("--out-dir", required=True)
    cc.add_argument("--min-words", type=int, default=20)
    cc.add_argument("--max-frac-den", type=int, default=5)
    cc.add_argument("--near-dedup", action="store_true")
    cc.add_argument("--num-cpus", type=int, default=None)

    pp = sub.add_parser("prep",
                        help="documents parquet -> packed+encoded "
                             "training examples (quality filter, dedup, "
                             "decontam, tokenize, pack, encode; encode "
                             "resumes at group granularity)")
    pp.add_argument("--in-path", required=True)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--stage-dir", default=None,
                    help="packed token-table staging dir (default "
                         "<out-dir>_stage); reused on restart")
    pp.add_argument("--seq-len", type=int, default=512)
    pp.add_argument("--eos", type=int, default=3)
    pp.add_argument("--min-words", type=int, default=20)
    pp.add_argument("--no-decontam", action="store_true")
    pp.add_argument("--eval-mask", type=int, default=15)
    pp.add_argument("--num-cpus", type=int, default=None)

    ver = sub.add_parser("verify", help="streaming roundtrip checksum")
    ver.add_argument("--tokens", required=True)
    ver.add_argument("--encoded", required=True)
    ver.add_argument("--num-cpus", type=int, default=None)

    ta = sub.add_parser("table-agg",
                        help="COUNT/SUM/MIN/MAX from codec payloads + "
                             "zone maps of a table-encode dir (no "
                             "decode; add --where / --group-by for "
                             "pushdown variants)")
    ta.add_argument("--encoded", required=True)
    ta.add_argument("--columns", required=True,
                    help="comma-separated integer columns to aggregate")
    ta.add_argument("--where", default=None,
                    help="col:lo:hi inclusive key range (zone maps "
                         "prune chunks outside it; chunks wholly inside "
                         "never decode; NULL keys never match)")
    ta.add_argument("--group-by", default=None,
                    help="integer group column (group-pure chunks "
                         "never decode)")
    ta.add_argument("--num-cpus", type=int, default=None)

    bt = sub.add_parser("bpe-train",
                        help="learn BPE merges over a token parquet "
                             "dir; write merges.json")
    bt.add_argument("--in-dir", required=True)
    bt.add_argument("--merges", type=int, default=16)
    bt.add_argument("--out", required=True, help="merge-table JSON path")
    bt.add_argument("--num-cpus", type=int, default=None)

    rm = sub.add_parser("remap",
                        help="frequency-ranked token id remap: learn + "
                             "apply; write remapped token parquet + "
                             "rank table")
    rm.add_argument("--in-dir", required=True)
    rm.add_argument("--out-dir", required=True)
    rm.add_argument("--num-cpus", type=int, default=None)

    args = ap.parse_args(argv)
    owns_ray = args.cmd not in _CALLER_ONLY and _ray_up(args.num_cpus)
    try:
        if args.cmd == "encode":
            from tokrle.pipelines.corpus import encode_corpus

            run = encode_corpus(args.in_dir, args.out_dir,
                                batch_size=args.batch_size,
                                by_source=args.by_source,
                                group_files=args.group_files)
            print(json.dumps(run))
        elif args.cmd == "recompress":
            from tokrle.pipelines.corpus import recompress

            run = recompress(args.in_dir, args.out_dir,
                             batch_size=args.batch_size,
                             by_source=args.by_source)
            print(json.dumps(run))
        elif args.cmd == "upsert":
            import ray.data

            from tokrle.pipelines.corpus import upsert_corpus

            delta = ray.data.read_parquet(args.delta_dir)
            run = upsert_corpus(args.enc_dir, delta,
                                batch_size=args.batch_size)
            print(json.dumps(run))
        elif args.cmd == "compact":
            from tokrle.pipelines.corpus import (GROUP_TARGET_BYTES,
                                                 compact_corpus)

            run = compact_corpus(
                args.enc_dir,
                target_bytes=args.target_bytes or GROUP_TARGET_BYTES,
                batch_size=args.batch_size)
            print(json.dumps(run))
        elif args.cmd == "doc-index":
            from tokrle.pipelines.encode import build_doc_index

            out = build_doc_index(args.enc_dir, args.index_dir,
                                  n_buckets=args.buckets)
            print(json.dumps({"index_dir": out, "buckets": args.buckets}))
        elif args.cmd == "fetch":
            import os

            from tokrle.pipelines.encode import fetch_docs, fetch_docs_indexed

            ids = [s for s in args.ids.split(",") if s]
            idx = os.path.join(args.enc_dir, "_docindex")
            ds = (fetch_docs_indexed(args.enc_dir, ids)
                  if os.path.isdir(idx) else fetch_docs(args.enc_dir, ids))
            if args.out_dir:
                ds.write_parquet(args.out_dir)
                print(json.dumps({"rows": "written", "out": args.out_dir,
                                  "indexed": os.path.isdir(idx)}))
            else:
                df = ds.to_pandas()
                print(json.dumps({
                    "n_docs": len(df),
                    "n_tokens": int(df["n_tok"].sum()) if len(df) else 0,
                    "indexed": os.path.isdir(idx),
                    "doc_ids": sorted(df["doc_id"].tolist()),
                }))
        elif args.cmd == "decode":
            from tokrle.pipelines.corpus import read_corpus
            from tokrle.pipelines.encode import decode_tokens

            decode_tokens(read_corpus(args.in_dir)).write_parquet(
                args.out_dir)
            print(json.dumps({"status": "ok", "out": args.out_dir}))
        elif args.cmd == "prep":
            import os

            from tokrle.pipelines.corpus import encode_corpus
            from tokrle.pipelines.prep import training_examples

            stage = args.stage_dir or args.out_dir.rstrip("/") + "_stage"
            # staging is the non-resumable half (one narrow pipeline);
            # reuse it on restart so only the resumable encode re-runs.
            # A _SUCCESS sentinel gates reuse: a run killed mid-write
            # leaves parquet files but no sentinel, so restart
            # regenerates instead of silently encoding a partial stage
            sentinel = os.path.join(stage, "_SUCCESS")
            # the sentinel records the parameters that SHAPED the stage:
            # a rerun with different packing/filter args must regenerate,
            # not silently reuse stale examples
            stamp = json.dumps({
                "in_path": args.in_path, "seq_len": args.seq_len,
                "eos": args.eos, "min_words": args.min_words,
                "eval_mask": None if args.no_decontam else args.eval_mask,
            }, sort_keys=True)
            stale = True
            if os.path.isfile(sentinel):
                with open(sentinel) as f:
                    stale = f.read().strip() != stamp
            if stale:
                import shutil

                # Never delete a directory this tool didn't build: a
                # partial stage from a killed run contains ONLY our
                # parquet shards, so anything else there means the user
                # pointed --stage-dir at pre-existing data.
                if os.path.isdir(stage):
                    foreign = [f for f in os.listdir(stage)
                               if not f.endswith(".parquet")
                               and f != "_SUCCESS"]
                    if foreign:
                        raise SystemExit(
                            f"stage dir {stage} has no _SUCCESS sentinel "
                            f"but contains non-stage files {foreign[:5]}; "
                            f"refusing to delete — pass a fresh "
                            f"--stage-dir or remove it manually")
                    shutil.rmtree(stage)
                examples = training_examples(
                    args.in_path, seq_len=args.seq_len, eos=args.eos,
                    min_words=args.min_words,
                    eval_mask=None if args.no_decontam else args.eval_mask)
                examples.write_parquet(stage)
                with open(sentinel, "w") as f:
                    f.write(stamp)
            run = encode_corpus(stage, args.out_dir, batch_size=8192,
                                by_source=True)
            run["stage_dir"] = stage
            print(json.dumps(run))
        elif args.cmd == "clean-corpus":
            from tokrle.pipelines.clean import clean_corpus

            run = clean_corpus(args.in_path, args.out_dir,
                               min_words=args.min_words,
                               max_frac_den=args.max_frac_den,
                               near_dedup=args.near_dedup)
            print(json.dumps(run))
        elif args.cmd == "table-encode":
            import ray.data

            from tokrle.pipelines.table_encode import encode_table_columns

            cols = args.columns.split(",")
            ds = ray.data.read_parquet(args.in_dir, columns=cols)
            if args.zorder:
                from tokrle.functions.layout import cluster_zorder

                za, zb = args.zorder.split(",")
                ds = cluster_zorder(ds, za, zb)
            elif args.cluster_by:
                ds = ds.sort(args.cluster_by)
            enc = encode_table_columns(ds, cols, batch_size=args.batch_size,
                                       text_codec=args.text_codec)
            enc.write_parquet(args.out_dir)
            from ray.data.aggregate import Sum

            stats = ray.data.read_parquet(
                args.out_dir, columns=["raw_bytes", "encoded_bytes"]) \
                .aggregate(Sum("raw_bytes", alias_name="raw"),
                           Sum("encoded_bytes", alias_name="enc"))
            print(json.dumps({
                "status": "ok", "out": args.out_dir,
                "raw_bytes": int(stats["raw"]),
                "encoded_bytes": int(stats["enc"]),
                "ratio": round(stats["raw"] / max(stats["enc"], 1), 3),
            }))
        elif args.cmd == "table-scan":
            from tokrle.pipelines.table_encode import \
                encoded_conjunction_agg

            preds = []
            for w in args.where:
                c, lo, hi = w.rsplit(":", 2)
                preds.append(("range", c, int(lo), int(hi)))
            df, stats = encoded_conjunction_agg(args.encoded, preds, [])
            print(json.dumps({
                "status": "ok", "n_rows": int(df["n_match"].iloc[0]),
                "chunks_total": stats["chunks_total"],
                "chunks_scanned": stats["chunks_scanned"]}))
        elif args.cmd == "table-verify":
            import ray.data

            from tokrle.pipelines.table_encode import (_column_checksums,
                                                       decode_table_columns)

            cols = args.columns.split(",")
            src = ray.data.read_parquet(args.source, columns=cols)
            dec = decode_table_columns(
                ray.data.read_parquet(args.encoded), cols)
            a = _column_checksums(src, cols)
            b = _column_checksums(dec, cols)
            match = a == b
            print(json.dumps({"match": match, "source": a, "decoded": b}))
            return 0 if match else 1
        elif args.cmd == "verify":
            import ray.data

            from tokrle.pipelines.corpus import read_corpus
            from tokrle.pipelines.encode import decode_tokens, roundtrip_check

            src = ray.data.read_parquet(args.tokens)
            dec = decode_tokens(read_corpus(args.encoded))
            res = roundtrip_check(src, dec)
            match = res["source"] == res["decoded"]
            print(json.dumps({"match": match, **res}))
            return 0 if match else 1
        elif args.cmd == "table-agg":
            cols = args.columns.split(",")
            if args.where is not None:
                from tokrle.pipelines.table_encode import encoded_range_agg

                c, lo, hi = args.where.rsplit(":", 2)
                df, counters = encoded_range_agg(args.encoded, c,
                                                 int(lo), int(hi), cols)
                print(json.dumps({"status": "ok", **counters,
                                  "rows": df.to_dict("records")}))
            elif args.group_by is not None:
                from tokrle.pipelines.table_encode import encoded_group_agg

                df, counters = encoded_group_agg(args.encoded,
                                                 args.group_by, cols)
                print(json.dumps({"status": "ok", **counters,
                                  "rows": df.to_dict("records")}))
            else:
                from tokrle.pipelines.table_encode import encoded_column_agg

                df = encoded_column_agg(args.encoded, cols)
                print(json.dumps({"status": "ok",
                                  "rows": df.to_dict("records")}))
        elif args.cmd == "bpe-train":
            import ray.data

            from tokrle.functions.bpe import train_bpe

            ds = ray.data.read_parquet(args.in_dir)
            merges, _ = train_bpe(ds, args.merges)
            with open(args.out, "w") as f:
                json.dump(merges, f, indent=1)
            print(json.dumps({"status": "ok", "n_merges": len(merges),
                              "out": args.out}))
        elif args.cmd == "remap":
            import os

            import numpy as np
            import ray.data

            from tokrle.functions.vocab import (apply_token_remap,
                                                build_token_remap)

            ds = ray.data.read_parquet(args.in_dir)
            old_of_new, new_of_old = build_token_remap(ds)
            os.makedirs(args.out_dir, exist_ok=True)
            np.save(os.path.join(args.out_dir, "old_of_new.npy"),
                    old_of_new)
            apply_token_remap(ds, new_of_old).write_parquet(
                os.path.join(args.out_dir, "tokens"))
            print(json.dumps({"status": "ok",
                              "vocab_size": len(old_of_new),
                              "out": args.out_dir}))
    finally:
        if owns_ray:
            import ray

            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
