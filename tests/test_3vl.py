"""SQL three-valued logic on the run representation.

The compressed-domain predicate evaluator (:func:`tokrle.pipelines.
table_encode._expr_eval3`) evaluates trees over NULLABLE chunks as a
Kleene algebra of (TRUE, POSSIBLE) run-list pairs.  These tests pin it
against a dense NumPy Kleene oracle over random values, null masks and
random predicate trees — the same adversarial shape the reference pins
its run-merge arithmetic with (ref tests/test_hypothesis.py), now for
ANSI NULL semantics.
"""
import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from tokrle.codecs.core import _runs_to_indices, valid_to_runs
from tokrle.pipelines.table_encode import _chunk_sel, _expr_eval3
from tokrle.select import auto_encode


def test_valid_to_runs_basic():
    # empty bitmap == all valid
    s, ln = valid_to_runs(b"", 5)
    assert s.tolist() == [0] and ln.tolist() == [5]
    s, ln = valid_to_runs(b"", 0)
    assert len(s) == 0
    # LSB-packed: bit i of byte i//8 is row i
    mask = np.array([1, 0, 0, 1, 1, 1, 0, 0, 1, 1], dtype=np.uint8)
    packed = np.packbits(mask, bitorder="little").tobytes()
    s, ln = valid_to_runs(packed, len(mask))
    dense = np.zeros(len(mask), dtype=bool)
    for a, b in zip(s, ln):
        dense[a:a + b] = True
    assert (dense == mask.astype(bool)).all()


def _dense(sel, n):
    """_ALL-or-run-list selection -> dense boolean mask."""
    if isinstance(sel, str):
        return np.ones(n, dtype=bool)
    out = np.zeros(n, dtype=bool)
    if len(sel[0]):
        out[_runs_to_indices(*sel)] = True
    return out


def _kleene_oracle(e, cols, valid):
    """(true_mask, unknown_mask) of a predicate tree, dense NumPy."""
    kind = e[0]
    if kind == "and":
        t1, u1 = _kleene_oracle(e[1], cols, valid)
        t2, u2 = _kleene_oracle(e[2], cols, valid)
        p = (t1 | u1) & (t2 | u2)
        return t1 & t2, p & ~(t1 & t2)
    if kind == "or":
        t1, u1 = _kleene_oracle(e[1], cols, valid)
        t2, u2 = _kleene_oracle(e[2], cols, valid)
        p = (t1 | u1) | (t2 | u2)
        return t1 | t2, p & ~(t1 | t2)
    if kind == "not":
        t1, u1 = _kleene_oracle(e[1], cols, valid)
        return ~(t1 | u1), u1
    c = e[1]
    v, ok = cols[c], valid[c]
    if kind == "is_null":
        return ~ok, np.zeros(len(v), dtype=bool)
    if kind == "not_null":
        return ok, np.zeros(len(v), dtype=bool)
    if kind == "eq":
        m = v == e[2]
    elif kind == "range":
        m = (v >= e[2]) & (v <= e[3])
    else:                               # in
        m = np.isin(v, np.array(sorted(e[2]), dtype=np.int64)) \
            if e[2] else np.zeros(len(v), dtype=bool)
    return m & ok, ~ok


def _chunk_fixture(arrays):
    """{name: (values, valid_mask)} -> the _expr_eval3 accessor set.

    Mirrors encode_table_columns' integer branch: nulls fill with 0,
    zone maps cover the FILLED values, validity ships LSB-packed."""
    enc, vbits, zmin, zmax = {}, {}, {}, {}
    for c, (v, ok) in arrays.items():
        filled = np.where(ok, v, 0).astype(np.int64)
        codec, payload, _ = auto_encode(filled)
        enc[c] = (codec, payload, filled.dtype)
        vbits[c] = b"" if ok.all() else \
            np.packbits(ok, bitorder="little").tobytes()
        zmin[c] = np.array([filled.min()])
        zmax[c] = np.array([filled.max()])
    return (lambda c, i: enc[c], lambda c, i: vbits[c], zmin, zmax)


def _no_str_chunk(c, i):
    """String-chunk accessor of the integer-only fixture: the generated
    trees hold no string leaf, so the evaluator never calls it."""
    raise AssertionError(f"string accessor called for {c!r}")


_VAL = st.integers(min_value=-8, max_value=8)


def _leaf(col_names):
    c = st.sampled_from(col_names)
    return st.one_of(
        st.tuples(st.just("eq"), c, _VAL),
        st.tuples(st.just("range"), c, _VAL, _VAL).map(
            lambda t: (t[0], t[1], min(t[2], t[3]), max(t[2], t[3]))),
        st.tuples(st.just("in"), c,
                  st.lists(_VAL, max_size=4).map(tuple)),
        st.tuples(st.just("is_null"), c),
        st.tuples(st.just("not_null"), c),
    )


def _tree(col_names):
    return st.recursive(
        _leaf(col_names),
        lambda kids: st.one_of(
            st.tuples(st.just("and"), kids, kids),
            st.tuples(st.just("or"), kids, kids),
            st.tuples(st.just("not"), kids)),
        max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       n=st.integers(min_value=1, max_value=200))
def test_expr_eval3_matches_dense_kleene_oracle(data, n):
    cols, valid = {}, {}
    for c in ("a", "b"):
        v = np.array(data.draw(st.lists(_VAL, min_size=n, max_size=n)),
                     dtype=np.int64)
        ok = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), dtype=bool)
        cols[c], valid[c] = v, ok
    expr = data.draw(_tree(["a", "b"]))
    chunk_col, valid_fn, zmin, zmax = _chunk_fixture(
        {c: (cols[c], valid[c]) for c in cols})

    t, p = _expr_eval3(expr, 0, n, zmin, zmax, chunk_col, _no_str_chunk,
                       valid_fn)
    ot, ou = _kleene_oracle(expr, cols, valid)
    assert (_dense(t, n) == ot).all()
    dense_p = _dense(t, n) if p is None else _dense(p, n)
    assert (dense_p == (ot | ou)).all()
    # a scan core's selection of the same streams, read as a one-chunk
    # batch, is exactly the TRUE set
    batch = pa.table({
        f"{c}__{k}": [x] for c in cols
        for k, x in zip(("codec", "payload", "dtype", "valid"),
                        (chunk_col(c, 0)[0], bytes(chunk_col(c, 0)[1]),
                         str(chunk_col(c, 0)[2]), valid_fn(c, 0)))})
    sel = _chunk_sel(expr, batch, 0, n, zmin, zmax)
    assert (_dense(sel, n) == ot).all()


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n=st.integers(min_value=1, max_value=200))
def test_expr_eval3_null_free_degenerates_two_valued(data, n):
    """On null-free chunks POSSIBLE is always None (P == T) and the
    evaluation equals classic boolean logic — the fast path never pays
    for the Kleene machinery."""
    v = np.array(data.draw(st.lists(_VAL, min_size=n, max_size=n)),
                 dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    expr = data.draw(_tree(["a"]))
    chunk_col, valid_fn, zmin, zmax = _chunk_fixture({"a": (v, ok)})
    t, p = _expr_eval3(expr, 0, n, zmin, zmax, chunk_col, _no_str_chunk,
                       valid_fn)
    assert p is None
    ot, ou = _kleene_oracle(expr, {"a": v}, {"a": ok})
    assert not ou.any()
    assert (_dense(t, n) == ot).all()
