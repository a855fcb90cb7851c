"""Benchmark of gkmbmo: sc_train, deconv_train and sep_rollout.

Run from the root of a checkout:

    python3 bench/run.py --workload sc_train --seed 1 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

A run measures for ``run_seconds`` of BENCHMARK.json; ``--seconds``
overrides it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Raw results (every unit, warm-up included) and spans go
to ``bench/out/``.  See ``bench/README.md``.
"""

import os

# One BLAS thread, set before numpy is first imported; selftest.py and
# make_reference.py rely on this by importing this module first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("sc_train", "deconv_train", "sep_rollout")
CHILD_TIMEOUT_S = 600


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; all of them, one process each, when omitted")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p.parse_args(argv)


def import_package():
    """Import gkmbmo from this checkout's src/, never from anywhere else."""
    if not (SRC / "gkmbmo" / "__init__.py").is_file():
        sys.exit(f"error: no gkmbmo sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gkmbmo

    if Path(gkmbmo.__file__).resolve().parent != (SRC / "gkmbmo").resolve():
        sys.exit(f"error: gkmbmo imported from {gkmbmo.__file__}, not from {SRC}")


def print_human(result, raw):
    m = raw["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} threads={m['threads']}")
    print(f"{raw['workload']} seed={raw['seed']} trace={raw['trace']}: "
          f"{result['attempted']} units attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for key, problems in raw["checks"].items():
        if problems:
            print(f"  check {key} FAILED: {'; '.join(problems)}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in raw["human"].items():
        print(f"  {name} = {value:.6g}" if isinstance(value, float) else f"  {name} = {value}")


def run_all(args):
    """Run every workload in its own process, so each peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S, check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    if args.workload is None:
        return run_all(args)
    import harness
    from tracer import TraceError

    try:
        result, raw = harness.run_workload(args.workload, args.seed, args.seconds, args.trace)
    except TraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print_human(result, raw)
    for entry in result["metrics"].values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None    # a metric with no sample (every unit failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
