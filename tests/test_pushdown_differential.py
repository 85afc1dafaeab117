"""Generated differential test of the compressed-domain scan cores.

Hypothesis draws small nullable tables (int8, int64, full-range uint64,
``timestamp[us]`` and short strings, so ``sdict`` and plain ``str``
string chunks both occur, plus an int64 column of multiples of 2^61
whose sums often leave int64), a chunk size and a predicate tree of
``eq``/``range``/``in``/``is_null`` leaves and the string leaves
``eq_str``/``in_str``/``prefix_str``/``suffix_str``/``contains_str``
under ``and``/``or``/``not``, encodes the table in the caller and
checks the COUNT/SUM/MIN/MAX (integer, string, uint64 and composite
GROUP BY keys), histogram, quantile, distinct and row-scan answers
against DuckDB, per chunk and per batch.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

#: column -> its SQL value expression (timestamps compare as epoch µs)
_SQL_COL = {"i8": "i8", "i64": "i64", "u64": "u64", "ts": "epoch_us(ts)",
            "s": "s"}
#: integer columns with zone maps: the predicate leaves' columns
_LEAF_COLS = {"i8": (-6, 6), "i64": (-50, 50), "ts": (0, 40)}
_STRINGS = ["", "a", "ab", "b", "zz", "é"]
#: string leaf -> its DuckDB function (literal matches, not LIKE)
_STR_SQL = {"prefix_str": "starts_with", "suffix_str": "ends_with",
            "contains_str": "contains"}
_I64 = (-(1 << 63), (1 << 63) - 1)


class _Rows:
    """The ``map_batches`` of a Dataset over one in-memory table, so
    :func:`encode_table_columns` encodes in the caller."""

    def __init__(self, table: pa.Table):
        self.table = table

    def map_batches(self, fn, batch_size, batch_format):
        assert batch_format == "pyarrow"
        return pa.concat_tables(
            [fn(self.table.slice(i, batch_size))
             for i in range(0, max(len(self.table), 1), batch_size)])


@st.composite
def _tables(draw):
    # sizes come from the seeded generator: the derandomized gate's
    # first examples would otherwise all be tiny
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(0, 65))
    null_rate = rng.choice([0.0, 0.2, 0.6])

    def mask():
        return rng.random(n) < null_rate

    # clustered or shuffled low-cardinality columns, so chunks are pure
    # (one-value zone maps) as well as mixed
    i8 = rng.integers(-5, 6, n)
    if rng.random() < 0.5:
        i8 = np.sort(i8)
    u64 = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    u64[rng.random(n) < 0.5] |= np.uint64(1 << 63)
    u64 = u64[rng.integers(0, max(n, 1), n)] if n else u64   # ties
    table = pa.table({
        "i8": pa.array(i8.astype(np.int8), mask=mask()),
        "i64": pa.array(rng.integers(-40, 41, n) * 1_000_003, mask=mask()),
        "u64": pa.array(u64, mask=mask()),
        "ts": pa.array(rng.integers(0, 40, n).astype("datetime64[us]"),
                       mask=mask()),
        "s": pa.array(rng.choice(_STRINGS[:rng.integers(1, 7)], n),
                      pa.string(), mask=mask()),
        "big": pa.array(rng.integers(-4, 4, n) << 61, mask=mask()),
    })
    return table, int(rng.choice([4, 8, 16, 32]))


def _expr(rng, depth=0):
    kind = rng.choice(["leaf"] * 3 + (["and", "or", "not"] if depth < 3
                                      else []))
    if kind in ("and", "or"):
        return (kind, _expr(rng, depth + 1), _expr(rng, depth + 1))
    if kind == "not":
        return ("not", _expr(rng, depth + 1))
    leaf = rng.choice(["eq", "range", "in", "is_null", "eq_str", "in_str",
                       *_STR_SQL])
    if leaf.endswith("_str"):
        # probe strings: present ones and absent ones
        words = _STRINGS + ["z", "x"]
        if leaf == "in_str":
            return (leaf, "s", [str(w) for w in
                                rng.choice(words, rng.integers(1, 4))])
        return (leaf, "s", str(rng.choice(words)))
    if leaf == "is_null":
        return ("is_null", str(rng.choice(list(_SQL_COL))))
    col = str(rng.choice(list(_LEAF_COLS)))
    lo, hi = _LEAF_COLS[col]
    scale = 1_000_003 if col == "i64" else 1

    def value():
        return int(rng.integers(lo, hi + 1)) * scale

    if leaf == "eq":
        return ("eq", col, value())
    if leaf == "in":
        return ("in", col, [value() for _ in range(rng.integers(1, 5))])
    a, b = sorted((value(), value()))
    return ("range", col, a, b)


@st.composite
def _exprs(draw):
    """A predicate tree of depth at most 3 from a seeded generator, so
    the derandomized gate draws every leaf kind (see :func:`_tables`)."""
    return _expr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def _sql(e) -> str:
    if e is None:
        return "true"
    if e[0] in ("and", "or"):
        return f"({_sql(e[1])} {e[0]} {_sql(e[2])})"
    if e[0] == "not":
        return f"(not {_sql(e[1])})"
    col = _SQL_COL[e[1]]
    if e[0] == "is_null":
        return f"({col} is null)"
    if e[0] == "eq_str":
        return f"({col} = '{e[2]}')"
    if e[0] == "in_str":
        return f"({col} in ({', '.join(repr(v) for v in e[2])}))"
    if e[0] in _STR_SQL:
        return f"{_STR_SQL[e[0]]}({col}, '{e[2]}')"
    if e[0] == "eq":
        return f"({col} = {e[2]})"
    if e[0] == "in":
        return f"({col} in ({', '.join(map(str, e[2]))}))"
    return f"({col} between {e[2]} and {e[3]})"


def _py(v):
    """A frame or DuckDB value as a comparable Python value (timestamps
    as epoch µs, NULL as None)."""
    if v is None or (isinstance(v, float) and v != v):
        return None
    if isinstance(v, (np.datetime64, pd.Timestamp)):
        return int(np.datetime64(v, "us").astype(np.int64))
    return v if isinstance(v, str) else int(v)


def _rows(df) -> list:
    return sorted((tuple(_py(v) for v in row)
                   for row in df.itertuples(index=False)), key=repr)


def _or_overflow(fn):
    """``fn`` with an ``OverflowError`` answered as the frame
    ``overflow``, so that ``any_batching`` checks that both batchings
    raise."""
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            return pd.DataFrame({"overflow": [1]}), {}
    return run


def _want_or_overflow(want: list, sum_at: int) -> list:
    """DuckDB's exact rows, or the ``overflow`` frame's rows when a SUM
    (column ``sum_at`` of the rows) leaves int64."""
    return [(1,)] if any(not _I64[0] <= r[sum_at] <= _I64[1]
                         for r in want) else want


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=_tables(), expr=_exprs() | st.none(), k=st.integers(1, 12))
def test_folded_cores_match_duckdb(ray_session, tmp_path_factory,
                                   any_batching, case, expr, k):
    import duckdb

    from tokrle.pipelines import table_encode as te

    table, chunk = case
    out_dir = tmp_path_factory.mktemp("diff")
    pq.write_table(te.encode_table_columns(_Rows(table),
                                           list(_SQL_COL) + ["big"],
                                           batch_size=chunk),
                   str(out_dir / "part-0.parquet"))
    enc = str(out_dir)
    con = duckdb.connect()
    con.register("t", table)
    where = _sql(expr)

    def sql(q: str) -> list:
        return sorted((tuple(_py(v) for v in r)
                       for r in con.execute(q).fetchall()), key=repr)

    for minmax in (False, True):
        got, _ = any_batching(te.encoded_boolean_agg, enc, expr,
                              ["i8", "i64"], with_minmax=minmax)
        ext = ", min(i8), max(i8), min(i64), max(i64)" if minmax else ""
        want = sql(f"select count(*), coalesce(sum(i8), 0), "
                   f"coalesce(sum(i64), 0){ext} from t where {where}")
        cols = ["n_match", "sum_i8", "sum_i64"] + \
            (["min_i8", "max_i8", "min_i64", "max_i64"] if minmax else [])
        assert _rows(got[cols]) == want, (expr, minmax)
        got, _ = any_batching(_or_overflow(te.encoded_boolean_agg), enc,
                              expr, ["big"], with_minmax=minmax)
        want = sql("select count(*), coalesce(sum(big), 0)" +
                   (", min(big), max(big)" if minmax else "") +
                   f" from t where {where}")
        assert _rows(got) == _want_or_overflow(want, 1), (expr, minmax)
    for keys in (["i8"], ["s"], ["u64"], ["s", "i8"]):
        got, _ = any_batching(te.encoded_filtered_group_agg, enc,
                              keys if len(keys) > 1 else keys[0], expr,
                              ["i64"], with_minmax=True)
        k_sql = ", ".join(keys)
        assert _rows(got) == sql(
            f"select {k_sql}, count(*), coalesce(sum(i64), 0), min(i64), "
            f"max(i64) from t where {where} group by {k_sql}"), (keys, expr)
        got, _ = any_batching(_or_overflow(te.encoded_filtered_group_agg),
                              enc, keys, expr, ["big"])
        assert _rows(got) == _want_or_overflow(sql(
            f"select {k_sql}, count(*), coalesce(sum(big), 0) from t "
            f"where {where} group by {k_sql}"), len(keys) + 1), (keys, expr)
    for col, sql_col in _SQL_COL.items():
        hist, _ = any_batching(te.encoded_boolean_histogram, enc, expr, col)
        assert _rows(hist) == sql(
            f"select {sql_col}, count(*) from t where {where} and "
            f"{col} is not null group by 1"), (col, expr)
        got, _ = any_batching(te.encoded_boolean_quantiles, enc, expr, col)
        qsel = ", ".join(
            f"epoch_us(quantile_disc(ts, {q}))" if col == "ts" else
            f"quantile_disc({col}, {q})" for q in (0.25, 0.5, 0.75))
        want = con.execute(f"select {qsel}, count({col}) from t "
                           f"where {where}").fetchone()
        assert [_py(v) for v in got["quantile"]] == \
            [_py(v) for v in want[:3]], (col, expr)
        assert set(got["n_rows"]) == {want[3]}
        got, _ = any_batching(te.encoded_distinct_count, enc, col, expr)
        assert got["n_distinct"].tolist() == [con.execute(
            f"select count(distinct {col}) from t where {where}")
            .fetchone()[0]], (col, expr)
        if col == "s":
            continue
        top, _ = any_batching(te.encoded_boolean_topk, enc, expr, col, k)
        assert _rows(top) == sql(
            f"select v, count(*) from (select {sql_col} v from t where "
            f"{where} and {col} is not null order by v desc limit {k}) "
            "group by v"), (col, expr, k)
    proj = ["i64", "u64", "s"]

    def scan(*args):
        rows = te.encoded_scan_where(*args).take_all()
        return pd.DataFrame({"row": sorted(
            (tuple(_py(r[c]) for c in proj) for r in rows), key=repr)}), {}

    got, _ = any_batching(scan, enc, expr, proj)
    assert got["row"].tolist() == sql(
        f"select {', '.join(proj)} from t where {where}"), expr
    got, _ = any_batching(te.encoded_str_distinct, enc, "s", expr)
    assert got["n_distinct"].tolist() == [con.execute(
        f"select count(distinct s) from t where {where}").fetchone()[0]]
    got, _ = any_batching(te.encoded_str_quantiles, enc, "s")
    want = con.execute("select quantile_disc(s, 0.25), quantile_disc(s, 0.5),"
                       " quantile_disc(s, 0.75) from t").fetchone()
    assert got["quantile"].tolist() == list(want)
