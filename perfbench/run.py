#!/usr/bin/env python3
"""tokrle benchmark: one command, three workloads, one client in a closed
loop inside a fresh local Ray session sized to this host's CPUs.

    python3 perfbench/run.py --workload {ingest,train_read,pushdown} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it is a
``{"detail": ...}`` object with per-sample lists, input properties and
context; the same detail (and, traced, the spans) is written under
``.bench_out/`` in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (OUT_ROOT, PROBE, REF_PROBE_S, ROOT, RSS,  # noqa: E402
                    WORK_CPUS, Tracer, cpu_steal_s, fresh_dir, median,
                    ray_session, stop_session)

END_TO_END = {  # name -> unit; the names every workload reports
    "setup_s": "s",
    "bulk_tok_per_ref_cpu_s": "tok/ref_cpu_s",
    "op_ref_cpu_p50_s": "ref_cpu_s",
    "compression_ratio": "x",
    "peak_rss_mb": "MB",
    "ok_op_frac": "frac",
}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ingest", "train_read", "pushdown"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--flip-payload-byte", action="store_true",
                   help="self-test: corrupt one encoded payload byte "
                        "(train_read) so the checks must fail")
    return p.parse_args(argv)


def session_warmup(out: str, seed: int) -> None:
    """First Ray Data jobs of the session (worker start, tokrle import in
    the workers), untimed by the workloads and charged to set-up."""
    import gen
    from tokrle.pipelines.corpus import encode_corpus, read_corpus
    from tokrle.pipelines.encode import decode_tokens

    c = gen.ingest_corpus(seed + 2_000_003, 16, 32, 4)
    c.write(os.path.join(out, "session_in"), 8)
    encode_corpus(os.path.join(out, "session_in"),
                  os.path.join(out, "session_enc"))
    decode_tokens(read_corpus(os.path.join(out, "session_enc"))).count()


def main(argv=None) -> int:
    t_start, steal0 = time.perf_counter(), cpu_steal_s()
    args = parse(argv)
    sys.path.insert(0, ROOT)
    try:
        import tokrle.pipelines.corpus  # noqa: F401
    except ImportError as e:
        print(f"cannot import tokrle from {ROOT}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(tokrle.__file__).startswith(ROOT + os.sep):
        print(f"tokrle imported from {tokrle.__file__}, not from {ROOT}",
              file=sys.stderr)
        return 2
    import layers
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = fresh_dir(os.path.join(OUT_ROOT, f"{tag}-{os.getpid()}"))
    os.chdir(ROOT)
    ray_tmp = os.path.relpath(os.path.join(OUT_ROOT, f"ray{os.getpid()}"))
    tracer = Tracer(enabled=bool(args.trace))
    ctx = workloads.Ctx(args.seed, args.seconds, args.size, tracer, out,
                        flip_byte=args.flip_payload_byte)
    try:
        t0 = time.perf_counter()
        with tracer.span("session.start"):
            session = ray_session(ray_tmp)
            session_warmup(out, args.seed)
        session_s = time.perf_counter() - t0
        res = workloads.WORKLOADS[args.workload](ctx)
        workload_s = time.perf_counter() - t0 - session_s
        per_layer = layers.probe(args.workload, ctx, res) if args.trace \
            else None
    finally:
        peak_mb = RSS.peak_mb()
        killed = stop_session()
        shutil.rmtree(ray_tmp, ignore_errors=True)

    res.pop("state")
    failed_frac = ctx.failed / max(ctx.attempted, 1)
    # how much slower than the reference the host ran: the gated CPU
    # figures are the run's medians divided by it (common.REF_PROBE_S)
    slow = statistics.fmean(PROBE) / REF_PROBE_S
    e2e = {
        "setup_s": session_s + median(res["setup_reps_s"]),
        "bulk_tok_per_ref_cpu_s": res["bulk_tok_per_cpu_s"] * slow,
        "op_ref_cpu_p50_s": res["op_cpu_p50_s"] / slow,
        "compression_ratio": res["compression_ratio"],
        "peak_rss_mb": peak_mb,
        "ok_op_frac": 1.0 - failed_frac,
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "size": args.size, "trace": args.trace,
        "loop": "closed, 1 client", **session, "work_cpus": WORK_CPUS,
        "working_set": "every input, encoded corpus and table fits in "
                       "memory and the OS page cache on this host; reads "
                       "are served from the page cache, not the disk",
        "setup": {"session_s": session_s,
                  "reps_s": res["setup_reps_s"]},
        "failed_op_frac": failed_frac, "errors": ctx.errors[:10],
        "named_metrics": res["named"], "input": res["input"],
        **({"per_query_s": res["per_query_s"]} if "per_query_s" in res
           else {}),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in e2e.items()},
        "processes_killed_at_stop": killed,
        "wall_s": {"session": session_s, "workload": workload_s,
                   "total": time.perf_counter() - t_start},
        # CPU time the hypervisor took during the run: the host noise
        # every timing above includes
        "cpu_steal_s": cpu_steal_s() - steal0,
        # the probe's CPU time before each timed operation
        "host_probe_s": {"ref": REF_PROBE_S, "mean": slow * REF_PROBE_S,
                         "samples": PROBE},
        "unscaled": {"bulk_tok_per_cpu_s": res["bulk_tok_per_cpu_s"],
                     "op_cpu_p50_s": res["op_cpu_p50_s"]},
    }
    if args.trace:
        detail["per_layer"] = per_layer["metrics"]
        detail["layer_detail"] = per_layer["detail"]
        detail["span_self_s"] = tracer.self_times()
        detail["trace_file"] = os.path.join(out, "spans.json")
        tracer.dump(detail["trace_file"])
        metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                   for k, v in per_layer["metrics"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(detail, f, indent=1, default=str)
    for d in os.listdir(out):
        if os.path.isdir(os.path.join(out, d)):
            shutil.rmtree(os.path.join(out, d), ignore_errors=True)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
