"""The benchmark harness still finds every name it wraps.

``bench/harness.py`` times the package from the outside: it replaces
package-level names and the methods of one operator and loss with
timing wrappers, and a traced run fails on a name that is gone.  These
tests import the harness without running it, so a rename in the package
fails here as well as in ``bench/selftest.py``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import harness
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode
    return harness


def test_every_traced_name_exists(harness):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in harness.traced_names() if not hasattr(owner, attr)]
    assert not missing


def test_every_wrapped_method_exists_on_each_workload(harness, tmp_path):
    for name, wl in harness.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        bundle, _ = harness.setup(wl, harness.workload_values(wl, 0, True, None),
                                  wl.tiny_K, workdir)
        tr = harness.Tracer()
        try:
            harness.trace_instances(tr, bundle)  # raises TraceError on a missing method
        finally:
            tr.restore()
