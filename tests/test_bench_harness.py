"""bench.py's command line and the scripts under tools/ stay loadable."""

import glob
import os
import py_compile
import runpy
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_unknown_mode_exits_2_and_tools_compile(tmp_path):
    """An argument bench.py does not know exits 2 with a usage line
    instead of running the default suite; bench imports, and every
    tools/*.py compiles and runs its imports (not its ``__main__``), so
    a tool importing a deleted name fails here."""
    p = subprocess.run([sys.executable, "bench.py", "--scaling"],
                       cwd=REPO, capture_output=True, text=True, timeout=30)
    assert p.returncode == 2, p.stderr[-800:]
    assert "usage" in p.stderr

    sys.path.insert(0, REPO)
    try:
        import bench  # noqa: F401

        tools = sorted(glob.glob(os.path.join(REPO, "tools", "*.py")))
        assert tools
        for path in tools:
            py_compile.compile(path, cfile=str(tmp_path / "t.pyc"),
                               doraise=True)
            runpy.run_path(path, run_name="tools_import_check")
    finally:
        sys.path.remove(REPO)
