"""Self-tests of the benchmark itself (not of gkmbmo).

Run from the root of a checkout:

    python3 bench/selftest.py

1. A tiny-size pass of every workload, untraced and traced, emits every
   metric BENCHMARK.json names, with its unit, and passes its checks; the
   traced half starts on the same instance and step as the untraced half.
2. An inadmissible config (alpha = 1.5) is counted as failed units.
3. Every name the tracer and the unit hook replace is restored afterwards.
4. The output checks reject a broken reverse rule and a moved output, and
   an error raised in the reference run is a failed check, not a crash.
"""

import json
import sys
import tempfile
from pathlib import Path

# run sets the BLAS thread count, so it is imported before anything imports numpy
from run import BENCHMARK_JSON, HERE, import_package

SPEC = json.loads(BENCHMARK_JSON.read_text())
OUT = HERE / "out" / "selftest"


class SelfTestFailure(AssertionError):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def check_emits_every_metric(harness):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in harness.WORKLOADS:
            result, raw = harness.run_workload(name, 0, 1.0, trace, tiny=True, out_dir=OUT)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics {got} != {want}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: tiny pass not correct: {raw['checks']} "
                   f"{[u['error'] for u in raw['units'] if not u['ok']][:3]}")
            if trace:
                first = {ph: next(((u["instance"], u["t"]) for u in raw["units"]
                                   if u["phase"] == ph), None)
                         for ph in ("untraced", "traced")}
                expect(first["untraced"] == first["traced"] and raw["human"]["paired units"],
                       f"{name}: traced phase not paired with the untraced one: {first}")
            print(f"ok  tiny {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} units")


def check_inadmissible_config_counts_as_failed(harness):
    for name in harness.WORKLOADS:
        result, raw = harness.run_workload(name, 0, 0.5, 0, tiny=True,
                                           overrides={"bmo.alpha": 1.5}, out_dir=OUT)
        expect(result["attempted"] >= 1 and result["failed"] == result["attempted"],
               f"{name}: {result['failed']} of {result['attempted']} units failed")
        expect(not result["correct"], f"{name}: inadmissible config reported correct")
        expect(all("ContractError" in u["error"] for u in raw["units"]),
               f"{name}: failures are not the injected ContractError")
        print(f"ok  inadmissible {name}: {result['failed']}/{result['attempted']} failed")


def check_wrappers_restored(harness):
    names = [(owner, attr) for owner, attr, _, _ in harness.traced_names()]
    before = {(id(o), a): vars(o)[a] for o, a in names}
    hooked = harness.bmo.inner_loop
    harness.run_workload("deconv_train", 0, 1.0, 1, tiny=True, out_dir=OUT)
    changed = [a for o, a in names if vars(o)[a] is not before[id(o), a]]
    expect(not changed, f"not restored after a traced run: {changed}")
    expect(harness.bmo.inner_loop is hooked, "unit hook left on bmo.inner_loop")

    wl = harness.WORKLOADS["deconv_train"]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bundle, _ = harness.setup(wl, harness.workload_values(wl, 0, True, None),
                                  wl.K, Path(tmp))
    tr = harness.Tracer()
    harness.trace_instances(tr, bundle)
    expect("apply" in vars(bundle.op) and "value" in vars(bundle.loss), "instances not wrapped")
    tr.restore()
    expect(not {"apply", "apply_vjp", "metric", "validate_omega"} & set(vars(bundle.op)),
           "operator methods not restored")
    expect(not {"value", "grad_u", "hess_vec", "smoothness"} & set(vars(bundle.loss)),
           "loss methods not restored")

    try:
        harness.Tracer().wrap(harness.cli, "no_such_name", "x")
    except harness.TraceError:
        pass
    else:
        raise SelfTestFailure("wrapping a missing name did not fail")
    print("ok  wrappers restored; a missing name fails loudly")


def check_output_checks_reject_errors(harness):
    wl = harness.WORKLOADS["sc_train"]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bundle, run_cfg = harness.setup(wl, harness.workload_values(wl, 0, False, None),
                                        wl.K, Path(tmp))
    honest = harness.fd_check(bundle, run_cfg, 0)
    original = harness.cli.hypergradient
    harness.cli.hypergradient = lambda tape: original(tape, corrupt_rule=True)
    try:
        corrupt = harness.fd_check(bundle, run_cfg, 0)
    finally:
        harness.cli.hypergradient = original
    expect(min(honest) <= harness.FD_TOL < min(corrupt),
           f"fd check: honest {honest}, corrupt_rule {corrupt}, tolerance {harness.FD_TOL}")

    def diverge(*args, **kwargs):
        raise harness.DivergenceError("injected")

    original = harness.cli.train
    harness.cli.train = diverge
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            problems = harness.reference_check(wl, Path(tmp))
    finally:
        harness.cli.train = original
    expect(problems and "DivergenceError" in problems[0],
           f"reference check of a diverging run: {problems}")

    expected = json.loads(harness.REFERENCE.read_text())["sc_train"]
    moved = dict(expected, phi=expected["phi"] * (1 + 10 * harness.REL_TOL))
    expect(not harness.compare(expected, dict(expected)), "reference compare rejects equal values")
    expect(harness.compare(expected, moved), "reference compare accepts a moved phi")
    print(f"ok  fd check: honest {min(honest):.1e}, corrupt_rule {min(corrupt):.1e}; "
          "reference compare rejects a moved phi; a raising reference run is a problem")


def main():
    import_package()
    import harness

    OUT.mkdir(parents=True, exist_ok=True)
    check_emits_every_metric(harness)
    check_inadmissible_config_counts_as_failed(harness)
    check_wrappers_restored(harness)
    check_output_checks_reject_errors(harness)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
