"""Batch experiment driver.

Verbs: ``gen`` (write an instance container), ``train`` (run the
two-level loop, write trajectory.csv and report.txt), ``eval`` (quality
metrics for the trained run and the step-size-only baseline),
``diagnose`` (rollout curves, envelope fit, gradient-norm curve, and a
normalization ablation), ``fdcheck`` (finite-difference validation of
the reverse sweep).

Configs are flat UTF-8 ``section.key = value`` files; every field has a
default except ``task``.  Exit codes: 0 success, 2 divergence, arithmetic
that overflows or the separation build's power iteration failing, 3 format
error or unsupported configuration, 4 missing artifact.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bmo import (TRAJECTORY_HEADER, BmoConfig, residual_envelope_check, train)
from .errors import (CapabilityError, ContractError, DivergenceError, FormatError,
                     NumericsError)
from .hypergrad import (LossDescriptor, fd_hypergradient, hypergradient,
                        inner_loop, km_iterate)
from .metric import min_eigen_estimate
from .operators import NetOperator, OmegaBox, make_hyperparams
from .tasks import (TaskBundle, build_deconv_operator, build_separation_operator,
                    build_sparse_coding_operator, gen_deconv, gen_separation,
                    gen_sparse_coding, load_instance, psnr, save_instance, ssim,
                    task_rng)

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_FORMAT = 3
EXIT_MISSING = 4

TASKS = ("sparse_coding", "deconv", "separation", "toy")

_DEFAULTS = {
    "seed": 0,
    "gen.m": 64, "gen.n": 128, "gen.batch": 256, "gen.sparsity": 0.1,
    "gen.noise_frac": 0.1, "gen.kappa1": 1.0, "gen.kappa2": 1.0,
    "gen.kernel_sigma": 1.0, "gen.kernel_width": 7, "gen.noise_sigma": 0.01,
    "gen.njumps": 3, "gen.nspikes": 4, "gen.kappa_b": 0.05, "gen.kappa_r": 0.05,
    "op.beta": 0.1, "op.gamma": 1.0, "op.learnable": "all",
    "op.net_widths": "", "op.identity_net": False, "op.net_rho_bar": 1.0,
    "op.sep_beta": 0.2,
    "bmo.alpha": 0.9, "bmo.mu": 0.5, "bmo.s": "auto", "bmo.s_fraction": 0.5,
    "bmo.K": 15, "bmo.T": 100, "bmo.gamma_lr": 0.0002,
    "bmo.lr_schedule": "expdecay:0.5:30",
    "diag.k_list": "5,10,15", "diag.rollout_factor": 2, "diag.ablation": True,
    "fdcheck.instances": 20, "fdcheck.tolerance": 1e-4, "fdcheck.corrupt": False,
    "toy.weight": 0.5, "toy.bias": 0.0,
}

# a field is parsed as the type of its default; bool is tested first, being an int
_BOOL_KEYS = {k for k, v in _DEFAULTS.items() if isinstance(v, bool)}
_INT_KEYS = {k for k, v in _DEFAULTS.items() if isinstance(v, int) and not isinstance(v, bool)}
_STR_KEYS = {k for k, v in _DEFAULTS.items() if isinstance(v, str)}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def get(self, key):
        if key in self.values:
            return self.values[key]
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        raise FormatError(f"unknown config field {key!r}")

    @property
    def task(self):
        if "task" not in self.values:
            raise FormatError("config is missing the required field 'task'")
        return self.values["task"]


def _coerce(key, raw, line_no):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise FormatError(f"line {line_no}: field {key!r} expects a boolean, got {raw!r}")
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError as err:
            raise FormatError(f"line {line_no}: field {key!r} expects an integer") from err
    if key in _STR_KEYS or key == "task":
        return raw
    try:
        return float(raw)
    except ValueError as err:
        raise FormatError(f"line {line_no}: field {key!r} expects a number") from err


def parse_config(path=None, overrides=None):
    cfg = ExperimentConfig()
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for i, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise FormatError(f"line {i}: expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key != "task" and key not in _DEFAULTS:
                raise FormatError(f"line {i}: unknown config field {key!r}")
            cfg.values[key] = _coerce(key, raw, i)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg.values[key] = value
    if cfg.task not in TASKS:
        raise FormatError(f"unknown task {cfg.task!r}; expected one of {TASKS}")
    return cfg


def _parse_field(key, raw, parse):
    """``parse(raw)`` for a string-valued field; a malformed value is a
    FormatError naming ``key``."""
    try:
        return parse(raw)
    except ValueError:
        raise FormatError(f"field {key!r} has a malformed value {raw!r}") from None


def _int_list(text):
    return tuple(int(x) for x in str(text).split(",") if x.strip())


def _lr_schedule(text):
    if text == "constant":
        return ("constant",)
    name, rate, period = text.split(":")
    if name != "expdecay":
        raise ValueError(name)
    return ("expdecay", float(rate), float(period))


def _omega_values(text):
    return np.array([float(x) for x in text.split(",")])


# ---------------------------------------------------------------------------
# bundle assembly
# ---------------------------------------------------------------------------

def toy_bundle(cfg):
    """Contractive shift toy D(u) = w u + b with the weight pinned by its box."""
    w = float(cfg.get("toy.weight"))
    op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",),
                     widths=(1, 1), rho_bar=0.9)
    omega0 = make_hyperparams([("W0", np.array([[w]]), "layer-matrix"),
                               ("b0", np.array([float(cfg.get("toy.bias"))]),
                                "layer-bias")])
    bounds = OmegaBox(np.array([w, -10.0]), np.array([w, 10.0]))
    loss = LossDescriptor("squared_error", 1, target=np.ones(1))
    return TaskBundle(op, omega0, bounds, loss, u0=np.zeros(1))


def _require_instance(task, inst):
    if inst is None and task != "toy":
        raise FormatError(f"task {task!r} needs an instance file")


def build_bundle(cfg, inst):
    task = cfg.task
    _require_instance(task, inst)
    if task == "toy":
        return toy_bundle(cfg)
    if task == "sparse_coding":
        return build_sparse_coding_operator(inst, learnable=cfg.get("op.learnable"),
                                            beta=cfg.get("op.beta"),
                                            gamma=cfg.get("op.gamma"))
    if task == "deconv":
        widths = _parse_field("op.net_widths", cfg.get("op.net_widths"), _int_list)
        return build_deconv_operator(inst, net_widths=widths,
                                     net_rho_bar=cfg.get("op.net_rho_bar"),
                                     seed=int(cfg.get("seed")),
                                     identity_net=cfg.get("op.identity_net"))
    return build_separation_operator(inst, beta=cfg.get("op.sep_beta"))


def bmo_config(cfg, bundle, K=None, T=None):
    s = cfg.get("bmo.s")
    h_lb = bundle.h_lb if bundle.h_lb is not None else bundle.op.metric(bundle.omega0)
    if isinstance(s, str) and s == "auto":
        bound = min_eigen_estimate(h_lb) / bundle.loss.smoothness()
        s = float(cfg.get("bmo.s_fraction")) * bound
    else:
        s = _parse_field("bmo.s", s, float)
    schedule = _parse_field("bmo.lr_schedule", cfg.get("bmo.lr_schedule"), _lr_schedule)
    return BmoConfig(alpha=float(cfg.get("bmo.alpha")), mu=float(cfg.get("bmo.mu")),
                     s=s, gamma=float(cfg.get("bmo.gamma_lr")),
                     K=K if K is not None else int(cfg.get("bmo.K")),
                     T=T if T is not None else int(cfg.get("bmo.T")),
                     omega_bounds=bundle.bounds, seed=int(cfg.get("seed")),
                     lr_schedule=schedule, u0=bundle.u0, h_lb=h_lb)


def _load_omega(report_path, omega_template):
    text = Path(report_path).read_text()
    for line in text.splitlines():
        if line.startswith("omega = "):
            return omega_template.with_values(
                _parse_field("omega", line[len("omega = "):], _omega_values))
    raise FormatError(f"report {report_path} has no omega line")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg, out):
    task = cfg.task
    seed = int(cfg.get("seed"))
    if task == "toy":
        raise FormatError("the toy task is synthetic; it does not use instance files")
    if task == "sparse_coding":
        inst = gen_sparse_coding(m=cfg.get("gen.m"), n=cfg.get("gen.n"),
                                 batch=cfg.get("gen.batch"),
                                 sparsity=cfg.get("gen.sparsity"),
                                 noise_frac=cfg.get("gen.noise_frac"), seed=seed,
                                 kappa1=cfg.get("gen.kappa1"),
                                 kappa2=cfg.get("gen.kappa2"))
    elif task == "deconv":
        inst = gen_deconv(n=cfg.get("gen.n"), kernel_sigma=cfg.get("gen.kernel_sigma"),
                          kernel_width=cfg.get("gen.kernel_width"),
                          noise_sigma=cfg.get("gen.noise_sigma"), seed=seed)
    else:
        inst = gen_separation(n=cfg.get("gen.n"), njumps=cfg.get("gen.njumps"),
                              nspikes=cfg.get("gen.nspikes"), seed=seed,
                              kappa_b=cfg.get("gen.kappa_b"),
                              kappa_r=cfg.get("gen.kappa_r"))
    path = out / "instance.bin"
    save_instance(inst, path)
    print(f"wrote {path}")
    return EXIT_OK


def _load(cfg, instance_path):
    """The instance at ``instance_path`` (None if not given), checked against the task."""
    inst = load_instance(instance_path) if instance_path else None
    if inst is not None and inst.task != cfg.task:
        raise FormatError(f"instance task {inst.task!r} does not match config task {cfg.task!r}")
    return inst


def cmd_train(cfg, out, instance_path):
    inst = _load(cfg, instance_path)
    bundle = build_bundle(cfg, inst)
    run_cfg = bmo_config(cfg, bundle)
    report = train(bundle.op, bundle.loss, bundle.omega0, run_cfg)
    report.trajectory.to_csv(out / "trajectory.csv")
    report.to_text(out / "report.txt")
    final = report.trajectory.outer[-1] if report.trajectory.outer else (0, float("nan"), float("nan"), "")
    print(f"trained {cfg.task}: T={run_cfg.T} K={run_cfg.K} "
          f"final phi={final[1]:.6g} grad_norm={final[2]:.6g}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'report.txt'}")
    return EXIT_OK


def cmd_eval(cfg, out, instance_path, report_path, baseline_report=None):
    task = cfg.task
    if task == "toy":
        raise FormatError("the toy task has no ground truth; eval takes "
                          "sparse_coding, deconv or separation")
    if report_path is None or not Path(report_path).exists():
        raise FileNotFoundError(report_path or "report.txt")
    inst = _load(cfg, instance_path)
    _require_instance(task, inst)
    rows = []
    if task == "sparse_coding":
        for method, learnable, rpt in (("bmo", "all", report_path),
                                       ("ladmm", "ladmm", baseline_report)):
            bundle = build_sparse_coding_operator(inst, learnable=learnable,
                                                  beta=cfg.get("op.beta"),
                                                  gamma=cfg.get("op.gamma"), test=True)
            omega = bundle.omega0
            if rpt is not None:
                if not Path(rpt).exists():
                    raise FileNotFoundError(rpt)
                omega = _load_omega(rpt, bundle.omega0)
            run_cfg = bmo_config(cfg, bundle)
            u, _, _ = inner_loop(bundle.op, bundle.loss, omega, run_cfg,
                                 build_tape=False, record=False)
            rows.append((method, "heldout_feasibility_loss", bundle.loss.value(u)))
    else:
        bundle = build_bundle(cfg, inst)
        omega = _load_omega(report_path, bundle.omega0)
        run_cfg = bmo_config(cfg, bundle)
        u, _, _ = inner_loop(bundle.op, bundle.loss, omega, run_cfg,
                             build_tape=False, record=False)
        if task == "deconv":
            rec = inst.W.T @ u
            truth = inst.u_star
        else:
            n = inst.b.shape[0]
            rec = u[:n]
            truth = inst.u_b
        peak = float(np.max(np.abs(truth))) or 1.0
        rows.append(("bmo", "psnr", psnr(rec, truth, peak=peak)))
        rows.append(("bmo", "ssim", ssim(rec, truth, peak=peak)))
    path = out / "metrics.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("method,metric,value\n")
        for method, metric, value in rows:
            fh.write(f"{method},{metric},{value!r}\n")
    width = max(len(m) for m, _, _ in rows)
    for method, metric, value in rows:
        print(f"{method:<{width}}  {metric} = {value:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def _expansive_ablation_records(cfg, dim=8, K=40):
    """Rollout of the net W = 2 Q, Q a seeded orthogonal matrix, with normalization disabled.

    Every singular value of W is 2, so the averaged map expands about its fixed point 0.
    """
    rng = task_rng(int(cfg.get("seed")), stream=9)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    W = 2.0 * Q * np.sign(np.diag(R))
    omega = make_hyperparams([("W0", W, "layer-matrix"),
                              ("b0", np.zeros(dim), "layer-bias")])
    op = NetOperator(dim=dim, weight_names=("W0",), bias_names=("b0",),
                     widths=(dim, dim), enforce_certificate=False)
    try:
        return km_iterate(op, omega, BmoConfig(alpha=0.9), rng.standard_normal(dim), K)[1], False
    except DivergenceError:
        return [], True


def cmd_diagnose(cfg, out, instance_path, report_path=None):
    k_list = _parse_field("diag.k_list", cfg.get("diag.k_list"), _int_list)
    bundle = build_bundle(cfg, _load(cfg, instance_path))
    omega = bundle.omega0
    if report_path is not None:
        if not Path(report_path).exists():
            raise FileNotFoundError(report_path)
        omega = _load_omega(report_path, bundle.omega0)
    K = int(cfg.get("bmo.K"))
    rollout_K = K * int(cfg.get("diag.rollout_factor"))
    run_cfg = bmo_config(cfg, bundle, K=rollout_K)
    _, _, recs = inner_loop(bundle.op, bundle.loss, omega, run_cfg, build_tape=False)
    lines = [TRAJECTORY_HEADER]
    for r in recs:
        lines.append(f"inner,0,{r.k},{r.residual_hlb_sq!r},{r.rel_step!r},{r.loss!r},")
    for i, kk in enumerate(k_list):
        ck = replace(run_cfg, K=kk)
        _, tape, _ = inner_loop(bundle.op, bundle.loss, omega, ck, record=False)
        gnorm = float(np.linalg.norm(hypergradient(tape)))
        lines.append(f"outer,{i},{kk},,,{tape.loss_value!r},{gnorm!r}")
    env_line = ""
    if len(recs) >= 16:
        c_fit, violations = residual_envelope_check(
            [(r.k, r.residual_hlb_sq) for r in recs])
        env_line = f"envelope C = {c_fit:.6g}, second-half violations = {violations}"
    abl_viol = None
    if cfg.get("diag.ablation"):
        abl_recs, diverged = _expansive_ablation_records(cfg)
        for r in abl_recs:
            lines.append(f"ablation,0,{r.k},{r.residual_hlb_sq!r},{r.rel_step!r},,")
        if diverged:
            abl_viol = -1
        elif len(abl_recs) >= 16:
            _, abl_viol = residual_envelope_check(
                [(r.k, r.residual_hlb_sq) for r in abl_recs])
    path = out / "diagnostics.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if env_line:
        print(env_line)
    if abl_viol is not None:
        if abl_viol < 0:
            print("ablation: diverged without normalization")
        else:
            print(f"ablation: envelope violations without normalization = {abl_viol}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fdcheck(cfg, out):
    count = int(cfg.get("fdcheck.instances"))
    tol = float(cfg.get("fdcheck.tolerance"))
    if not 0 < tol < math.inf:
        raise FormatError(f"field 'fdcheck.tolerance' must be positive and finite, got {tol!r}")
    corrupt = bool(cfg.get("fdcheck.corrupt"))
    if count == 0:
        print("warning: empty finite-difference suite; vacuous pass")
        return EXIT_OK
    rng = task_rng(int(cfg.get("seed")), stream=5)
    worst = 0.0
    failed = 0
    print(f"{'instance':>8}  {'n':>3}  {'K':>3}  rel_error")
    for i in range(count):
        n = int(rng.integers(2, 7))
        W = rng.standard_normal((n, n))
        W *= rng.uniform(0.3, 0.9) / np.linalg.svd(W, compute_uv=False)[0]
        omega = make_hyperparams([("W0", W, "layer-matrix"),
                                  ("b0", rng.standard_normal(n) * 0.3, "layer-bias")])
        op = NetOperator(dim=n, weight_names=("W0",), bias_names=("b0",),
                         widths=(n, n), nonlinearity="tanh")
        loss = LossDescriptor("squared_error", n, target=rng.standard_normal(n))
        run = BmoConfig(alpha=float(rng.uniform(0.2, 0.8)),
                        mu=float(rng.uniform(0.2, 0.8)),
                        s=float(rng.uniform(0.2, 0.9)), K=int(rng.integers(1, 16)))
        u0 = rng.standard_normal(n)
        _, tape, _ = inner_loop(op, loss, omega, run, u0=u0)
        g = hypergradient(tape, corrupt_rule=corrupt)
        g_fd = fd_hypergradient(op, loss, omega, run, u0=u0)
        rel = float(np.max(np.abs(g - g_fd))) / max(float(np.max(np.abs(g_fd))), 1e-6)
        worst = rel if not rel <= worst else worst   # a NaN error is the worst
        status = "ok" if rel <= tol else "FAIL"
        failed += status == "FAIL"
        print(f"{i:>8}  {n:>3}  {run.K:>3}  {rel:.3e}  {status}")
    print(f"worst relative error: {worst:.3e}")
    if failed:
        print(f"{failed} instance(s) exceeded the {tol:g} tolerance")
        return 1
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="gkmbmo",
                                description="fixed-point operator learning driver")
    p.add_argument("verb", choices=("gen", "train", "eval", "diagnose", "fdcheck"))
    p.add_argument("instance", nargs="?", default=None,
                   help="instance container path (task-dependent)")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed override")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--task", default=None, help="task name override")
    p.add_argument("--report", default=None, help="trained report for eval/diagnose")
    p.add_argument("--baseline-report", default=None,
                   help="trained baseline report for eval")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        overrides = {"seed": args.seed}
        if args.task is not None:
            overrides["task"] = args.task
        cfg = parse_config(args.config, overrides)
        out.mkdir(parents=True, exist_ok=True)
        # an overflow, a division by zero or a NaN made from non-NaN numbers raises where it
        # happens, so a run whose arithmetic breaks ends in one error line
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.verb == "gen":
                return cmd_gen(cfg, out)
            if args.verb == "train":
                return cmd_train(cfg, out, args.instance)
            if args.verb == "eval":
                return cmd_eval(cfg, out, args.instance, args.report,
                                args.baseline_report)
            if args.verb == "diagnose":
                return cmd_diagnose(cfg, out, args.instance, args.report)
            return cmd_fdcheck(cfg, out)
    except (DivergenceError, NumericsError, FloatingPointError, OverflowError) as err:
        print(f"error: diverged ({err})", file=sys.stderr)
        return EXIT_DIVERGED
    except (FormatError, ContractError, CapabilityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except FileNotFoundError as err:
        print(f"error: missing artifact: {err}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
