"""Run every queries() entry at the given sf and compare it to its
oracle_sql() via DuckDB (row count + sorted-column value comparison).

Each result line on stdout ends with ``hash=<16 hex>``, a content hash
of the answer (:func:`answer_hash`), and each query's wall time goes to
stderr, so two runs answer alike exactly when their stdout is equal:
``python tools/check_oracles.py SF > a.txt`` in two checkouts, then
``diff a.txt b.txt``."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def answer_hash(raw: pd.DataFrame, got: pd.DataFrame) -> str:
    """Content hash of one answer: its canonical frame's values plus the
    raw frame's column names and dtypes, so two runs (say, of two
    commits) that print the same hash for a query returned the same
    answer, dtypes included."""
    import hashlib

    h = hashlib.sha256(repr(list(raw.dtypes.astype(str).items())).encode())
    h.update(pd.util.hash_pandas_object(got, index=False).to_numpy()
             .tobytes())
    return h.hexdigest()[:16]


def main(sf_dir: str, only: list[str] | None = None) -> int:
    """``only``: optional list of substrings — run just the queries whose
    name contains any of them (fast re-check after a targeted change)."""
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    qs = E.queries()
    sqls = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and not any(s in name for s in only):
            continue
        t0 = time.perf_counter()
        try:
            raw = to_df(fn(sf_dir))
            got = canon(raw)
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        # the wall time goes to stderr, so two runs' stdout diff clean
        print(f"  [{dt:.1f}s] {name}", file=sys.stderr)
        digest = answer_hash(raw, got)
        if name not in sqls:
            print(f"ok(rows-only) {name}: {len(got)} rows  hash={digest}")
            continue
        want = canon(con.sql(sqls[name]).df())
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)}  "
                  f"hash={digest}")
            failures += 1
            continue
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: cols {list(got.columns)} != {list(want.columns)}")
            failures += 1
            continue
        eq = True
        for c in got.columns:
            a, b = got[c], want[c]
            if np.issubdtype(a.dtype, np.floating) or \
                    np.issubdtype(b.dtype, np.floating):
                ok = np.allclose(a.astype(float), b.astype(float))
            else:
                ok = (a.astype(str) == b.astype(str)).all() \
                    if a.dtype == object else (a.to_numpy() == b.to_numpy()).all()
            if not ok:
                print(f"FAIL {name}: column {c} differs")
                print("  got :", a.head(8).tolist())
                print("  want:", b.head(8).tolist())
                eq = False
        if eq:
            print(f"OK   {name}: {len(got)} rows match oracle  "
                  f"hash={digest}")
        else:
            failures += 1
    return failures


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    rc = main(sf, only=sys.argv[2:] or None)
    ray.shutdown()
    sys.exit(1 if rc else 0)
