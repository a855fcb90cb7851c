"""Workloads, unit clock, output checks and metrics of the gkmbmo benchmark.

Everything here drives gkmbmo from the outside, through the calls the
``gkmbmo gen``/``train``/``diagnose`` verbs make: ``cli.cmd_gen``,
``cli.load_instance``, ``cli.build_bundle``, ``cli.bmo_config``,
``cli.train`` and ``cli.inner_loop``.  ``run_workload`` runs one workload
for one seed and returns the result that ``run.py`` prints.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from gkmbmo import bmo, cli, hypergrad, metric, operators, tasks
from gkmbmo.errors import ContractError, DivergenceError, NumericsError
from tracer import TraceError, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# A unit that raises one of these is a failed unit, not a crash.
UNIT_ERRORS = (DivergenceError, ContractError, NumericsError)

# Relative tolerance of the reference comparison.  The program's own
# iterative estimates stop at 1e-6 relative (spectral_norm_estimate) and
# 1e-8 (min_eigen_estimate), so replacing one by an exact routine may move
# every output by ~1e-7; 1e-5 leaves a hundredfold margin for that, while a
# wrong forward or reverse rule moves grad_norm and phi by far more.
REL_TOL = 1e-5
REF_SEED = 0          # instance seed of the reference check, whatever --seed is
REF_T = 2             # outer steps of the reference train
REF_K = 300           # inner steps of the reference rollout

# Directional central-difference check of the hypergradient.  A step of
# 1e-8 keeps soft-threshold kinks out of the bracket: at 1e-6 a third of
# sparse-coding seeds crossed one, at 1e-7 one direction in thirty, at 1e-8
# none of 180, with round-off below 1e-7.  Two directions are tried and
# the better one must pass, so one bracket holding a kink is no failure;
# the corrupt_rule canary of hypergradient errs by 1.7e-4 or more.
FD_STEP = 1e-8
FD_TOL = 1e-5
FD_DIRECTIONS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    task: str
    kind: str             # "train": one unit per outer step; "rollout": one per inner_loop
    overrides: dict       # config fields on top of the CLI defaults
    tiny: dict            # extra fields for the self-test's tiny pass
    instances: int        # distinct instances a run cycles through, one set-up per visit
    visit: int            # units per visit to an instance
    warmup: int           # leading units of each phase left out of the percentiles
    K: int = 0            # rollout length (rollout workloads)
    tiny_K: int = 0


WORKLOADS = {
    "sc_train": Workload(
        "sc_train", "sparse_coding", "train", {},
        {"gen.m": 8, "gen.n": 16, "gen.batch": 8, "bmo.K": 3},
        instances=16, visit=10, warmup=2),
    "deconv_train": Workload(
        "deconv_train", "deconv", "train", {"gen.n": 64, "op.net_widths": "64"},
        {"gen.n": 8, "op.net_widths": "8", "bmo.K": 3},
        instances=8, visit=100, warmup=10),
    "sep_rollout": Workload(
        "sep_rollout", "separation", "rollout", {"gen.n": 64}, {"gen.n": 8},
        instances=4, visit=1, warmup=0, K=2000, tiny_K=50),
}

# per-layer metric name -> span or counter name
SETUP_SPANS = {"tasks.gen_ms": "tasks.gen", "tasks.io_ms": "tasks.io",
               "tasks.build_ms": "tasks.build", "cli.bmo_config_ms": "cli.bmo_config"}
UNIT_SELF_MS = {
    "metric.min_eigen_ms": "metric.min_eigen", "operators.metric_ms": "operators.metric",
    "metric.solve_ms": "metric.solve", "metric.h_norm_ms": "metric.h_norm",
    "metric.h_project_ms": "metric.h_project", "operators.apply_ms": "operators.apply",
    "operators.apply_vjp_ms": "operators.apply_vjp",
    "operators.metric_quad_vjp_ms": "operators.metric_quad_vjp",
    "operators.validate_omega_ms": "operators.validate_omega",
    "operators.renormalize_ms": "operators.renormalize",
    "metric.spectral_norm_ms": "metric.spectral_norm", "hypergrad.loss_ms": "hypergrad.loss",
    "hypergrad.smoothness_ms": "hypergrad.smoothness",
}
UNIT_TOTAL_MS = {"bmo.inner_ms": "bmo.inner", "bmo.hypergrad_ms": "bmo.hypergrad"}
UNIT_CALLS = {
    "metric.min_eigen.calls": "metric.min_eigen", "operators.metric.calls": "operators.metric",
    "metric.solve.calls": "metric.solve", "operators.apply.calls": "operators.apply",
    "operators.apply_vjp.calls": "operators.apply_vjp",
    "operators.validate_omega.calls": "operators.validate_omega",
    "operators.omega_view.calls": "operators.omega_view",
    "metric.spectral_norm.calls": "metric.spectral_norm", "hypergrad.loss.calls": "hypergrad.loss",
}

# Spans that must record calls on every workload; a zero means the
# wrapping no longer reaches the layer, and the traced run fails.
EXPECTED = {
    "setup": ("tasks.gen", "tasks.io", "tasks.build", "cli.bmo_config"),
    "rollout": ("operators.apply", "operators.metric", "operators.validate_omega",
                "metric.min_eigen", "metric.solve", "metric.h_norm", "metric.h_project",
                "hypergrad.loss", "hypergrad.smoothness", "operators.omega_view"),
}
EXPECTED["train"] = EXPECTED["rollout"] + (
    "operators.apply_vjp", "operators.metric_quad_vjp", "operators.renormalize",
    "bmo.inner", "bmo.hypergrad", "metric.spectral_norm")


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def machine_facts():
    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# set-up: gen -> instance save/load -> build_bundle -> bmo_config
# ---------------------------------------------------------------------------

def workload_values(wl, seed, tiny, overrides):
    values = {"task": wl.task, "seed": seed, **wl.overrides}
    if tiny:
        values.update(wl.tiny)
    values.update(overrides or {})
    return values


def setup(wl, values, K, workdir):
    """One set-up the way ``gkmbmo gen`` then ``gkmbmo train`` does it."""
    cfg = cli.parse_config(None, values)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_gen(cfg, workdir)
    inst = cli.load_instance(workdir / "instance.bin")
    bundle = cli.build_bundle(cfg, inst)
    run_cfg = cli.bmo_config(cfg, bundle, K=K or None)
    return bundle, run_cfg


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

class _Stop(Exception):
    """Raised from the unit hook to end a train() visit."""


class Clock:
    """Delimits units and set-ups, stops a phase at its deadline, keeps every record."""

    def __init__(self):
        self.units = []
        self.setups = []
        self.tracer = None           # set for the traced phase only
        self.current = None
        self.phase = None
        self.deadline = 0.0
        self.last_unit = 0.0
        self.last_setup = 0.0
        self.visit = -1
        self.instance = None
        self.t = 0
        self.warm_left = 0
        self.tape = None

    def start_phase(self, phase, deadline, warmup):
        """Start a phase on the first visit, so every phase covers the same instances."""
        self.phase, self.deadline, self.warm_left = phase, deadline, warmup
        self.last_unit = self.last_setup = 0.0
        self.visit = -1

    def room_for(self, now, setup=False):
        """Whether one more unit (and set-up), as long as the last ones, ends by the deadline."""
        return now + self.last_unit + (self.last_setup if setup else 0.0) <= self.deadline

    def begin_visit(self, instance):
        self.visit += 1
        self.instance = instance
        self.t = 0
        return f"setup{self.visit}"

    def record_setup(self, label, seconds):
        self.setups.append({"phase": self.phase, "label": label, "instance": self.instance,
                            "seconds": seconds})
        self.last_setup = seconds

    def open(self, now):
        self.current = {"phase": self.phase, "visit": self.visit, "instance": self.instance,
                        "t": self.t, "start": now, "end": now, "ok": True,
                        "warmup": self.warm_left > 0, "phi": None, "error": None}
        self.warm_left -= 1
        self.t += 1
        self.units.append(self.current)
        if self.tracer is not None:
            self.tracer.unit = len(self.units) - 1

    def close(self, now):
        if self.current is None:
            return
        self.current["end"] = now
        if self.current["ok"]:
            self.last_unit = now - self.current["start"]
        self.current = None
        if self.tracer is not None:
            self.tracer.unit = None

    def fail(self, now, err):
        if self.current is None:
            self.open(now)
        self.current["ok"] = False
        self.current["error"] = f"{type(err).__name__}: {err}"
        self.close(now)


def tape_stats(tape):
    """Bytes and arrays per step that the tape holds, from the arrays themselves."""
    arrays = {}
    per_step = 0
    for step in tape.steps:
        held = [v for v in vars(step).values() if isinstance(v, np.ndarray)]
        per_step = max(per_step, len(held))
        for v in held:
            arrays[id(v)] = v.nbytes
    return {"tape_mb": sum(arrays.values()) / 1e6, "arrays_per_step": per_step}


def train_visit(bundle, run_cfg, clock, steps):
    """Run ``cli.train`` for at most ``steps`` outer steps; each outer step is a unit.

    Outer steps are delimited by the entries into ``inner_loop`` as train()
    calls it, through a hook that only reads the clock, so the untraced
    run carries no tracing.
    """
    inner = bmo.inner_loop

    def hook(*args, **kwargs):
        now = time.perf_counter()
        clock.close(now)
        if clock.t >= steps or not clock.room_for(now):
            raise _Stop
        clock.open(now)
        result = inner(*args, **kwargs)
        clock.current["phi"] = result[1].loss_value
        if clock.tape is None:
            clock.tape = tape_stats(result[1])
        return result

    bmo.inner_loop = hook
    try:
        cli.train(bundle.op, bundle.loss, bundle.omega0, run_cfg)
    except _Stop:
        pass
    except UNIT_ERRORS as err:
        clock.fail(time.perf_counter(), err)
    finally:
        bmo.inner_loop = inner
        clock.close(time.perf_counter())


def rollout_omega(bundle, rng):
    """A distinct admissible omega: omega0 with all its penalties scaled by one factor.

    Scaling beta and every rho together scales G(omega) as a whole, so
    the inverse power iteration that proves it positive definite takes
    the same number of steps for every draw; independent draws change that
    count a hundredfold across the box and would swamp the step time.
    """
    base = bundle.omega0
    vals = base.values.copy()
    c = rng.uniform(1.0, 1.2)
    for s in base.layout:
        sl = slice(s.offset, s.offset + s.size)
        if s.role == "penalty":
            vals[sl] *= c
        elif s.role == "threshold":
            vals[sl] *= rng.uniform(0.5, 2.0, s.size)
    if not bundle.bounds.contains(vals):
        raise ContractError("rollout omega left the box")
    return base.with_values(vals)


def check_rollout(u, records, K):
    if len(records) != K:
        return f"{len(records)} records for K={K}"
    if not np.all(np.isfinite(u)):
        return "non-finite final iterate"
    if not all(math.isfinite(r.residual_hlb_sq) and math.isfinite(r.loss) for r in records):
        return "non-finite residual or loss record"
    _, violations = bmo.residual_envelope_check(
        [(r.k, r.residual_hlb_sq) for r in records], split=K // 8)
    if violations:
        return f"{violations} residual envelope violations past k={K // 8}"
    return None


def rollout_rng(seed):
    """The omega draws of the rollouts, the same sequence in every phase."""
    return np.random.default_rng([seed, 1])


def rollout_visit(bundle, run_cfg, clock, rng, K):
    """One forward-only rollout, as ``gkmbmo diagnose`` runs it, is one unit."""
    omega = rollout_omega(bundle, rng)
    clock.open(time.perf_counter())
    unit = clock.current
    try:
        u, _, records = cli.inner_loop(bundle.op, bundle.loss, omega, run_cfg,
                                       u0=bundle.u0, build_tape=False, record=True)
    except UNIT_ERRORS as err:
        clock.fail(time.perf_counter(), err)
        return
    clock.close(time.perf_counter())
    unit["phi"] = records[-1].loss if records else None
    problem = check_rollout(u, records, K)
    if problem:
        unit["ok"], unit["error"] = False, problem


def run_phase(wl, clock, values, K, workdir, rng):
    """Visits until the phase deadline; each sets up the next instance, then runs its units."""
    while clock.room_for(time.perf_counter(), setup=True):
        label = clock.begin_visit((clock.visit + 1) % len(values))
        tr = clock.tracer
        if tr is not None:
            tr.unit = label
        t0 = time.perf_counter()
        try:
            bundle, run_cfg = setup(wl, values[clock.instance], K, workdir)
        except UNIT_ERRORS as err:
            clock.fail(time.perf_counter(), err)
            continue
        finally:
            if tr is not None:
                tr.unit = None
        clock.record_setup(label, time.perf_counter() - t0)
        if tr is not None:
            trace_instances(tr, bundle)
        if wl.kind == "train":
            train_visit(bundle, run_cfg, clock, wl.visit)
        else:
            rollout_visit(bundle, run_cfg, clock, rng, K)


def check_train_determinism(units):
    """Every visit to an instance must reproduce phi_t of its first visit bit for bit."""
    first = {}
    for u in units:
        if not u["ok"] or u["phi"] is None:
            continue
        ref = first.setdefault((u["instance"], u["t"]), u["phi"])
        if not math.isfinite(u["phi"]):
            u["ok"], u["error"] = False, "non-finite phi"
        elif u["phi"] != ref:
            u["ok"], u["error"] = False, f"phi at t={u['t']} differs between visits"


# ---------------------------------------------------------------------------
# output checks outside the timed region
# ---------------------------------------------------------------------------

def reference_outputs(wl, workdir):
    """Outputs of a short, fixed run on the instance of REF_SEED."""
    values = workload_values(wl, REF_SEED, False, None)
    bundle, run_cfg = setup(wl, values, wl.K, workdir)
    if wl.kind == "train":
        report = cli.train(bundle.op, bundle.loss, bundle.omega0,
                           dataclasses.replace(run_cfg, T=REF_T))
        traj = report.trajectory
        last_t = traj.outer[-1][0]
        kth = [row for row in traj.inner if row[0] == last_t][-1]
        omega = report.omega_final
        return {"phi": traj.outer[-1][1], "grad_norm_t0": traj.outer[0][2],
                "grad_norm": traj.outer[-1][2], "residual_K": kth[2], "loss_K": kth[4],
                **{f"omega.{s.name}": float(np.linalg.norm(omega.view(s.name)))
                   for s in omega.layout}}
    u, _, records = cli.inner_loop(bundle.op, bundle.loss, bundle.omega0,
                                   dataclasses.replace(run_cfg, K=REF_K),
                                   u0=bundle.u0, build_tape=False, record=True)
    return {"phi": bundle.loss.value(u), "residual_K": records[-1].residual_hlb_sq,
            "loss_K": records[-1].loss, "u_norm": float(np.linalg.norm(u))}


def reference_check(wl, workdir):
    """Compare reference_outputs with reference.json; returns a list of problems."""
    try:
        got = reference_outputs(wl, workdir)
    except UNIT_ERRORS as err:
        return [f"{type(err).__name__}: {err}"]
    return compare(json.loads(REFERENCE.read_text())[wl.name], got)


def compare(expected, got):
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if have is None or not abs(have - want) <= REL_TOL * max(abs(want), abs(have)):
            problems.append(f"{key}: {have!r} vs reference {want!r}")
    return problems


def fd_check(bundle, run_cfg, seed):
    """Relative errors of directional central differences of hypergradient at omega0.

    Layer-matrix slices are left out of each direction, so the perturbed
    networks keep their spectral-norm certificate, and so is any
    coordinate whose step alone makes omega inadmissible (a dual step
    already at its upper limit of 1).
    """
    omega = bundle.omega0
    _, tape, _ = cli.inner_loop(bundle.op, bundle.loss, omega, run_cfg,
                                u0=bundle.u0, record=False)
    grad = cli.hypergradient(tape)
    rng = np.random.default_rng([seed, 2])

    def phi(values):
        return bmo.evaluate_phiK(bundle.op, bundle.loss, omega.with_values(values), run_cfg)

    errors = []
    for _ in range(FD_DIRECTIONS):
        d = rng.standard_normal(omega.dim) * (np.abs(omega.values) + 1.0)
        for s in omega.layout:
            if s.role == "layer-matrix":
                d[s.offset:s.offset + s.size] = 0.0
        for i in np.flatnonzero(d):
            for sign in (1.0, -1.0):
                vals = omega.values.copy()
                vals[i] += sign * FD_STEP * d[i]
                try:
                    bundle.op.validate_omega(omega.with_values(vals))
                except ContractError:
                    d[i] = 0.0
                    break
        fd = (phi(omega.values + FD_STEP * d) - phi(omega.values - FD_STEP * d)) / (2 * FD_STEP)
        analytic = float(grad @ d)
        errors.append(abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12))
    return errors


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def traced_names():
    """(owner, attribute, span name, count only) of every package-level name wrapped."""
    names = [(cli, attr, "tasks.gen", False)
             for attr in ("gen_sparse_coding", "gen_deconv", "gen_separation")]
    names += [(cli, attr, "tasks.io", False) for attr in ("save_instance", "load_instance")]
    names += [(cli, "build_bundle", "tasks.build", False),
              (cli, "bmo_config", "cli.bmo_config", False)]
    names += [(mod, "min_eigen_estimate", "metric.min_eigen", False)
              for mod in (metric, hypergrad, cli)]
    names += [(mod, "spectral_norm_estimate", "metric.spectral_norm", False)
              for mod in (metric, operators, hypergrad, tasks)]
    names += [(metric.MetricMatrix, "solve", "metric.solve", False),
              (hypergrad, "h_norm", "metric.h_norm", False),
              (hypergrad, "h_project", "metric.h_project", False),
              (bmo, "inner_loop", "bmo.inner", False),
              (bmo, "hypergradient", "bmo.hypergrad", False),
              (bmo, "renormalize_for", "operators.renormalize", False),
              (operators.HyperParams, "view", "operators.omega_view", True)]
    return names


def trace_instances(tr, bundle):
    """Wrap the methods of the operator and loss that a visit's units run on."""
    for attr in ("apply", "apply_vjp", "metric", "metric_quad_vjp", "validate_omega"):
        tr.wrap(bundle.op, attr, f"operators.{attr}")
    for attr in ("value", "grad_u", "hess_vec"):
        tr.wrap(bundle.loss, attr, "hypergrad.loss")
    tr.wrap(bundle.loss, "smoothness", "hypergrad.smoothness")


def layer_metrics(tr, clock, wl):
    """Per-layer metrics of the traced phase; fails when an expected span is silent."""
    units = [i for i, u in enumerate(clock.units)
             if u["phase"] == "traced" and u["ok"] and not u["warmup"]]
    setups = [s["label"] for s in clock.setups if s["phase"] == "traced"]
    if not units or not setups:
        raise TraceError("the traced phase completed no unit")
    n = len(units)
    setup_sum = [tr.summarize([label]) for label in setups]
    per_unit = tr.summarize(units)
    silent = [name for name in EXPECTED["setup"] if not all(s.get(name) for s in setup_sum)]
    silent += [name for name in EXPECTED[wl.kind] if not per_unit.get(name, (0, 0, 0))[2]]
    if silent:
        raise TraceError(f"{wl.name}: expected spans recorded no calls: {', '.join(silent)}")

    def per(name, field):
        return per_unit.get(name, (0.0, 0.0, 0))[field] / n

    out = {key: (statistics.median(1e3 * s[name][0] for s in setup_sum), "ms")
           for key, name in SETUP_SPANS.items()}
    out.update({key: (1e3 * per(name, 1), "ms") for key, name in UNIT_SELF_MS.items()})
    out.update({key: (1e3 * per(name, 0), "ms") for key, name in UNIT_TOTAL_MS.items()})
    out.update({key: (per(name, 2), "count") for key, name in UNIT_CALLS.items()})
    update = 0.0
    if wl.kind == "train":
        # the rest of each outer step: clamp, renormalize, validate, records
        update = sum(clock.units[i]["end"] - clock.units[i]["start"] for i in units) / n
        update -= sum(per(name, 0) for name in UNIT_TOTAL_MS.values())
    out["bmo.update_ms"] = (1e3 * update, "ms")
    tape = clock.tape or {"tape_mb": 0.0, "arrays_per_step": 0}
    out["hypergrad.tape_mb"] = (tape["tape_mb"], "MB")
    out["hypergrad.tape_arrays_per_step"] = (tape["arrays_per_step"], "count")
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def step_ms(clock, phase):
    return [1e3 * (u["end"] - u["start"]) for u in clock.units
            if u["phase"] == phase and u["ok"] and not u["warmup"]]


def trace_overhead_pct(clock):
    """Median over paired units of traced / untraced time, minus 1, in percent.

    Both phases start on the first visit with the same rollout draws, so a
    unit is paired with the one of the same (visit, t) in the other phase:
    the same instance, outer step and omega.  Returns (overhead, pairs).
    """
    base = {(u["visit"], u["t"]): u["end"] - u["start"] for u in clock.units
            if u["phase"] == "untraced" and u["ok"] and not u["warmup"]}
    ratios = [(u["end"] - u["start"]) / base[u["visit"], u["t"]] for u in clock.units
              if u["phase"] == "traced" and u["ok"] and not u["warmup"]
              and (u["visit"], u["t"]) in base]
    return (100.0 * (statistics.median(ratios) - 1.0) if ratios else math.nan), len(ratios)


def instance_seeds(seed, count):
    """Instance seeds of one run, all drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def run_workload(name, seed, seconds, trace, tiny=False, overrides=None, out_dir=OUT):
    """Run one workload for one seed; returns the result and the raw record."""
    wl = WORKLOADS[name]
    K = wl.tiny_K if tiny else wl.K
    values = [workload_values(wl, s, tiny, overrides) for s in instance_seeds(seed, wl.instances)]
    facts = machine_facts()
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer() if trace else None
    clock = Clock()
    checks = {}
    fd_errors = None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        checks["reference"] = reference_check(wl, workdir)
        if wl.kind == "train":
            try:
                fd_errors = fd_check(*setup(wl, values[0], K, workdir), seed)
                checks["fd"] = ([] if min(fd_errors) <= FD_TOL else
                                [f"relative errors {fd_errors} all above {FD_TOL:g}"])
            except UNIT_ERRORS as err:
                checks["fd"] = [f"{type(err).__name__}: {err}"]

        start = time.perf_counter()
        if not trace:
            clock.start_phase("timed", start + seconds, wl.warmup)
            run_phase(wl, clock, values, K, workdir, rollout_rng(seed))
        else:
            clock.start_phase("untraced", start + seconds / 2, wl.warmup)
            run_phase(wl, clock, values, K, workdir, rollout_rng(seed))
            clock.start_phase("traced", start + seconds, wl.warmup)
            clock.tracer = tr
            try:
                for owner, attr, span, count_only in traced_names():
                    tr.wrap(owner, attr, span, count_only)
                run_phase(wl, clock, values, K, workdir, rollout_rng(seed))
            finally:
                tr.restore()
    if wl.kind == "train":
        check_train_determinism(clock.units)

    attempted = len(clock.units)
    failed = sum(not u["ok"] for u in clock.units)
    problems = [f"{k}: {p}" for k, v in checks.items() for p in v]
    correct = not problems and failed == 0 and attempted > 0
    human = {}
    if not trace:
        steps = step_ms(clock, "timed")
        setup_s = [s["seconds"] for s in clock.setups]
        metrics = {
            "setup_s": (statistics.median(setup_s) if setup_s else math.nan, "s"),
            "step_ms.p50": (statistics.median(steps) if steps else math.nan, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
        human["set-ups"] = len(setup_s)
        human["step samples"] = len(steps)
        if len(steps) >= 100:
            human["step_ms.p90"] = statistics.quantiles(steps, n=10)[-1]
    else:
        metrics = layer_metrics(tr, clock, wl)
        overhead, pairs = trace_overhead_pct(clock)
        metrics["trace.overhead_pct"] = (overhead, "%")
        human["traced units"] = len(step_ms(clock, "traced"))
        human["paired units"] = pairs
    human["error_rate"] = failed / attempted if attempted else math.nan
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    raw = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
           "machine": facts, "configs": values, "checks": checks, "fd_rel_errors": fd_errors,
           "human": human,
           "result": result, "setups": clock.setups, "units": clock.units, "tape": clock.tape}
    stem = f"{name}-seed{seed}-trace{int(bool(trace))}{'-tiny' if tiny else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1, default=str))
    if tr is not None:
        tr.write(out_dir / f"{stem}-spans.csv")
    return result, raw
