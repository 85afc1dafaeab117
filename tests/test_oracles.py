"""Mini driver-gate replica: run a subset of queries() against their
oracle_sql() via DuckDB at sf0.001, inside the normal pytest run.  The full
sweep lives in tools/check_oracles.py."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("documents", "events", "lineitem", "embeddings")

SUBSET = [
    "encode_roundtrip_stats",
    "coverage_total",
    "coverage_mul",
    "coverage_ge",
    "text_quality",
    "dedup_exact",
    "session_stats",
    "regex_token_counts",
    "codec_roundtrip_rle",
    "ann_top1",
    "ngram_planted_pairs",
    "png_pixel_sums",
    "wav_window_sums",
    "apng_frame_sums",
    "csv_source_stats",
    "jsonl_source_stats",
    "simhash_signatures",
    "encoded_range_agg_stats",
    "encoded_predicate_stats",
    "encoded_range_count_stats",
    "encoded_filtered_agg_stats",
    "encoded_conjunction_stats",
    "encoded_histogram_stats",
    "encoded_quantile_stats",
    "encoded_ts_quantile_stats",
    "encoded_group_quantile_stats",
    "encoded_group_agg_stats",
    "encoded_group_minmax_stats",
]


@pytest.fixture(scope="module")
def entry(ray_session):
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(entry, con, name):
    got = entry.queries()[name](SF).reset_index(drop=True)
    want = con.sql(entry.oracle_sql()[name]).df().reset_index(drop=True)
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want)
    for c in got.columns:
        g = got[c].to_numpy()
        w = want[c].to_numpy()
        if np.issubdtype(got[c].dtype, np.number):
            assert np.array_equal(g.astype(np.int64), w.astype(np.int64)), c
        else:
            assert (g.astype(str) == w.astype(str)).all(), c


def test_entry_smoke(entry):
    ds = entry.entry()
    df = ds.to_pandas()
    assert len(df) >= 1
    assert {"chunk_id", "codec", "payload", "n_tokens"} <= set(df.columns)
