import pytest
from hypothesis import settings

# deterministic example generation: the correctness gate should be
# reproducible run to run (exploration happens in dev, not in the gate)
settings.register_profile("gate", derandomize=True, deadline=None)
settings.load_profile("gate")


@pytest.fixture(scope="session")
def ray_session():
    """Single Ray session for the whole test run (local, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def any_batching(monkeypatch):
    """``run(fn, *args, **kwargs)`` calls a pushdown entry point twice,
    with ``_SCAN_BATCH_CHUNKS`` at 1 (one partial per chunk) and at its
    default (a small table is one batch), asserts that the answers
    (dtypes included) and the counter dicts are equal, and returns the
    default's ``(answer, counters)`` (counters ``{}`` for an entry
    point that returns a bare frame)."""
    import pandas as pd

    from tokrle.pipelines import table_encode

    default = table_encode._SCAN_BATCH_CHUNKS

    def run(fn, *args, **kwargs):
        res = []
        for b in (1, default):
            monkeypatch.setattr(table_encode, "_SCAN_BATCH_CHUNKS", b)
            r = fn(*args, **kwargs)
            res.append(r if isinstance(r, tuple) else (r, {}))
        (one_df, one_ctr), (df, ctr) = res
        pd.testing.assert_frame_equal(one_df, df)
        assert one_ctr == ctr
        return res[1]

    return run
