"""The benchmark harness still finds every name it wraps, and its spans still record.

``bench/harness.py`` times the package from the outside: it replaces
package-level names and the methods of one operator and loss with
timing wrappers, and a traced run fails on a name that is gone or on an
expected span that records no call.  Most tests import the harness
without running it; one runs a tiny traced pass of each workload.  So a
rename in the package, or a layer the wrappers no longer reach, fails
here as well as in ``bench/selftest.py``.
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


@pytest.mark.parametrize("name", ["sep_rollout", "deconv_train", "sc_train"])
def test_tiny_traced_pass_is_correct(harness, name, tmp_path):
    # a traced run fails when an expected span (metric.h_norm, say) records no call
    result, raw = harness.run_workload(name, 0, 1.0, 1, tiny=True, out_dir=tmp_path)
    assert result["correct"], (raw["checks"], [u["error"] for u in raw["units"] if not u["ok"]])
