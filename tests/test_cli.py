import json
import math
import struct

import numpy as np
import pytest

from gkmbmo import cli, tasks
from gkmbmo.errors import CapabilityError, DivergenceError, FormatError
from gkmbmo.tasks import MAGIC, gen_sparse_coding, load_instance, save_instance


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_missing_task_named(self, tmp_path):
        cfg = write_config(tmp_path, "seed = 3\n")
        with pytest.raises(FormatError, match="task"):
            cli.parse_config(cfg)

    def test_unknown_field_line_numbered(self, tmp_path):
        cfg = write_config(tmp_path, "task = toy\nnope.key = 1\n")
        with pytest.raises(FormatError, match="line 2"):
            cli.parse_config(cfg)

    def test_comments_and_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "# comment\ntask = sparse_coding\nbmo.K = 7\n")
        parsed = cli.parse_config(cfg)
        assert parsed.get("bmo.K") == 7
        assert parsed.get("bmo.T") == 100
        assert parsed.get("gen.m") == 64

    def test_type_errors_are_format_errors(self, tmp_path):
        cfg = write_config(tmp_path, "task = toy\nbmo.K = tiny\n")
        with pytest.raises(FormatError, match="bmo.K"):
            cli.parse_config(cfg)


class TestGen:
    def test_default_sparse_shapes(self, tmp_path):
        assert run(["gen", "--task", "sparse_coding", "--seed", 5, "--out", tmp_path]) == 0
        inst = load_instance(tmp_path / "instance.bin")
        assert inst.Q.shape == (64, 128)
        assert inst.b.shape == (64, 256)

    def test_same_seed_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run(["gen", "--task", "deconv", "--seed", 2, "--out", tmp_path / "a"])
        run(["gen", "--task", "deconv", "--seed", 2, "--out", tmp_path / "b"])
        assert ((tmp_path / "a" / "instance.bin").read_bytes()
                == (tmp_path / "b" / "instance.bin").read_bytes())

    def test_missing_task_exit_format(self, tmp_path, capsys):
        assert run(["gen", "--out", tmp_path]) == cli.EXIT_FORMAT
        assert "task" in capsys.readouterr().err

    def test_toy_has_no_instance(self, tmp_path):
        assert run(["gen", "--task", "toy", "--out", tmp_path]) == cli.EXIT_FORMAT


class TestTrain:
    def test_toy_train_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "task = toy\nbmo.K = 20\nbmo.T = 5\n"
                                     "bmo.gamma_lr = 0.05\nbmo.s = 0.2\n"
                                     "bmo.alpha = 0.5\nbmo.lr_schedule = constant\n")
        assert run(["train", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report.txt").exists()
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "phase,t,k,residual_hlb_sq,rel_step,loss,grad_norm"

    def test_t_zero_echoes_omega0(self, tmp_path):
        cfg = write_config(tmp_path, "task = toy\nbmo.T = 0\nbmo.s = 0.2\n"
                                     "toy.bias = 0.25\n")
        assert run(["train", "--config", cfg, "--out", tmp_path]) == 0
        text = (tmp_path / "report.txt").read_text()
        omega_line = [l for l in text.splitlines() if l.startswith("omega = ")][0]
        assert omega_line == "omega = 0.5,0.25"

    def test_sparse_defaults_accepted(self, tmp_path):
        # Epochs 100 / Stage 15 / lr 0.0002 * 0.5^(epoch/30) parse and start
        run(["gen", "--task", "sparse_coding", "--seed", 1, "--out", tmp_path])
        cfg = write_config(tmp_path, "task = sparse_coding\ngen.batch = 8\n"
                                     "bmo.T = 2\n")
        parsed = cli.parse_config(cfg)
        assert parsed.get("bmo.K") == 15
        assert parsed.get("bmo.gamma_lr") == 0.0002
        assert parsed.get("bmo.lr_schedule") == "expdecay:0.5:30"
        assert run(["train", tmp_path / "instance.bin", "--config", cfg,
                    "--out", tmp_path]) == 0

    def test_corrupt_magic_exit_format(self, tmp_path):
        bad = tmp_path / "instance.bin"
        bad.write_bytes(b"WRONGMAGICHEADER" + b"\x00" * 64)
        assert run(["train", bad, "--task", "sparse_coding",
                    "--out", tmp_path]) == cli.EXIT_FORMAT

    def test_task_mismatch_exit_format(self, tmp_path):
        run(["gen", "--task", "deconv", "--out", tmp_path])
        assert run(["train", tmp_path / "instance.bin", "--task", "sparse_coding",
                    "--out", tmp_path]) == cli.EXIT_FORMAT

    def test_non_finite_learning_rate_exit_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "task = toy\nbmo.s = 0.2\nbmo.gamma_lr = nan\n")
        assert run(["train", "--config", cfg, "--out", tmp_path]) == cli.EXIT_FORMAT
        assert "gamma must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise DivergenceError("synthetic blowup", outer_step=3)

        monkeypatch.setattr(cli, "train", boom)
        cfg = write_config(tmp_path, "task = toy\nbmo.s = 0.2\n")
        assert run(["train", "--config", cfg, "--out", tmp_path]) == cli.EXIT_DIVERGED

    def test_capability_error_exit_format_with_one_line(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise CapabilityError("no closed-form primal step for this configuration")

        monkeypatch.setattr(cli, "train", refuse)
        cfg = write_config(tmp_path, "task = toy\nbmo.s = 0.2\n")
        assert run(["train", "--config", cfg, "--out", tmp_path]) == cli.EXIT_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "closed-form" in err[0]

    def test_numerics_error_exit_diverged_with_one_line(self, tmp_path, monkeypatch, capsys):
        # a one-step cap makes the separation build's power iteration of D give up
        monkeypatch.setattr(tasks, "_PINNED_CAP", 1)
        cfg = write_config(tmp_path, "task = separation\ngen.n = 16\n")
        assert run(["gen", "--config", cfg, "--out", tmp_path]) == 0
        assert run(["train", tmp_path / "instance.bin", "--config", cfg,
                    "--out", tmp_path]) == cli.EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "power iteration" in err[0]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    run(["gen", "--task", "sparse_coding", "--seed", 3, "--out", root])
    cfg = write_config(root, "task = sparse_coding\nbmo.T = 3\nbmo.K = 6\n")
    assert run(["train", root / "instance.bin", "--config", cfg,
                "--out", root]) == 0
    return root, cfg


def _container(manifest):
    blob = json.dumps(manifest).encode("utf-8")
    return MAGIC + struct.pack("<I", len(blob)) + blob


def _valid_container(tmp_path):
    path = tmp_path / "valid.bin"
    save_instance(gen_sparse_coding(m=4, n=8, batch=2, seed=1), path)
    load_instance(path)
    return path.read_bytes()


_SCALARS = {"kappa1": 1.0, "kappa2": 1.0}
MALFORMED = {
    "header_cut_before_manifest_length": lambda tmp: MAGIC + b"\x07\x00",
    "manifest_without_arrays": lambda tmp: _container(
        {"task": "sparse_coding", "scalars": _SCALARS}),
    "array_entry_without_shape": lambda tmp: _container(
        {"task": "sparse_coding", "scalars": _SCALARS, "arrays": [{"name": "Q"}]}),
    "negative_dimension": lambda tmp: _container(
        {"task": "sparse_coding", "scalars": _SCALARS,
         "arrays": [{"name": name, "shape": [-1, -1] if name == "Q" else [1]}
                    for name in ("Q", "b", "codes", "noise_mask", "b_test", "codes_test",
                                 "noise_mask_test")]}) + b"\x00" * 64,
    "trailing_bytes_after_payload": lambda tmp: _valid_container(tmp) + b"\x00",
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + ["eval_without_instance"])
def test_malformed_input_exits_format_with_one_line(case, tmp_path, capsys):
    if case == "eval_without_instance":
        report = tmp_path / "report.txt"
        report.write_text("omega = 0.1\n")
        args = ["eval", "--task", "sparse_coding", "--report", report, "--out", tmp_path]
    else:
        bad = tmp_path / "instance.bin"
        bad.write_bytes(MALFORMED[case](tmp_path))
        args = ["train", bad, "--task", "sparse_coding", "--out", tmp_path]
    assert run(args) == cli.EXIT_FORMAT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# (verb, config lines after the task, report omega line or None, key named in the error)
MALFORMED_VALUES = {
    "lr_schedule_two_fields": ("train", "bmo.lr_schedule = expdecay:0.5", None, "bmo.lr_schedule"),
    "lr_schedule_not_numbers": ("train", "bmo.lr_schedule = expdecay:a:b", None,
                                "bmo.lr_schedule"),
    "lr_schedule_zero_period": ("train", "bmo.lr_schedule = expdecay:0.5:0", None,
                                "lr schedule"),
    "s_not_a_number": ("train", "bmo.s = foo", None, "bmo.s"),
    "net_widths_not_ints": ("train", "op.net_widths = a", None, "op.net_widths"),
    "k_list_not_ints": ("diagnose", "diag.k_list = x", None, "diag.k_list"),
    "report_omega_not_numbers": ("diagnose", "", "abc", "omega"),
    "report_omega_nan": ("diagnose", "", "nan,0.0", "slice 'W0'"),
    "report_omega_inf": ("diagnose", "", "0.5,inf", "slice 'b0'"),
    "fdcheck_tolerance_nan": ("fdcheck", "fdcheck.tolerance = nan", None, "fdcheck.tolerance"),
    "fdcheck_tolerance_zero": ("fdcheck", "fdcheck.tolerance = 0", None, "fdcheck.tolerance"),
    "grad_through_metric_removed": ("train", "bmo.grad_through_metric = false", None,
                                    "unknown config field 'bmo.grad_through_metric'"),
    "optimizer_removed": ("train", "bmo.optimizer = gd", None,
                          "unknown config field 'bmo.optimizer'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_value_exits_format_with_one_line(case, tmp_path, capsys):
    verb, lines, omega, named = MALFORMED_VALUES[case]
    # the deconv task is the one that reads op.net_widths; toy needs no instance
    task = "deconv" if "net_widths" in lines else "toy"
    cfg = write_config(tmp_path, f"task = {task}\ngen.n = 8\nbmo.s = 0.2\n{lines}\n")
    args = [verb, "--config", cfg, "--out", tmp_path]
    if task == "deconv":
        assert run(["gen", "--config", cfg, "--out", tmp_path]) == 0
        args.insert(1, tmp_path / "instance.bin")
    if omega is not None:
        report = tmp_path / "report.txt"
        report.write_text(f"omega = {omega}\n")
        args += ["--report", report]
    capsys.readouterr()
    assert run(args) == cli.EXIT_FORMAT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def _manifest(blob):
    """The manifest of a container and the offset where its payload starts."""
    (blob_len,) = struct.unpack("<I", blob[16:20])
    return json.loads(blob[20:20 + blob_len]), 20 + blob_len


def _edit_manifest(blob, edit):
    """The container ``blob`` with its manifest rewritten through ``edit``; the payload stays."""
    manifest, start = _manifest(blob)
    edit(manifest)
    return _container(manifest) + blob[start:]


def _set_entry(blob, index, value):
    """The container ``blob`` with payload entry ``index`` (over all arrays) set to ``value``."""
    start = _manifest(blob)[1] + 8 * index
    return blob[:start] + struct.pack("<d", value) + blob[start + 8:]


def _transpose_q(manifest):
    spec = next(a for a in manifest["arrays"] if a["name"] == "Q")
    spec["shape"] = spec["shape"][::-1]


# (task, config lines, manifest edit after gen or None, text the error names); a
# case without an edit that gen accepts fails at train
UNBUILDABLE = {
    "sparse_coding_zero_batch": ("sparse_coding", "gen.batch = 0", None, "gen.batch"),
    "deconv_n_1": ("deconv", "gen.n = 1", None, "gen.n"),
    "separation_n_1": ("separation", "gen.n = 1", None, "gen.n"),
    "deconv_zero_net_width": ("deconv", "op.net_widths = 0", None, "op.net_widths"),
    "sparse_coding_q_transposed": ("sparse_coding", "", _transpose_q, "shape rule"),
    "deconv_negative_sigma": ("deconv", "", lambda m: m["scalars"].update(sigma=-1.0),
                              "scalar 'sigma'"),
    "deconv_zero_kernel_sigma": ("deconv", "gen.kernel_sigma = 0", None, "gen.kernel_sigma"),
    "deconv_negative_noise_sigma": ("deconv", "gen.noise_sigma = -1", None, "gen.noise_sigma"),
    "deconv_n_6": ("deconv", "gen.n = 6", None, "gen.n"),
    **{f"{task}_negative_{kappa}": (task, f"gen.{kappa} = -1", None, f"gen.{kappa}")
       for task, kappas in (("sparse_coding", ("kappa1", "kappa2")),
                            ("separation", ("kappa_b", "kappa_r")))
       for kappa in kappas},
    "separation_nan_kappa_b": ("separation", "gen.kappa_b = nan", None, "gen.kappa_b"),
    **{f"{task}_negative_seed": (task, "seed = -1", None, "seed")
       for task in ("sparse_coding", "deconv", "separation")},
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_unbuildable_input_exits_format_with_one_line(case, tmp_path, capsys):
    task, lines, edit, named = UNBUILDABLE[case]
    small = {"sparse_coding": "gen.m = 8\ngen.n = 16\ngen.batch = 4",
             "deconv": "gen.n = 8", "separation": "gen.n = 8"}[task]
    cfg = write_config(tmp_path, f"task = {task}\n{small}\nbmo.T = 1\n{lines}\n")
    codes = [run(["gen", "--config", cfg, "--out", tmp_path])]
    if codes[0] == 0:
        if edit is not None:
            path = tmp_path / "instance.bin"
            path.write_bytes(_edit_manifest(path.read_bytes(), edit))
        capsys.readouterr()
        codes.append(run(["train", tmp_path / "instance.bin", "--config", cfg,
                          "--out", tmp_path]))
    assert codes[-1] == cli.EXIT_FORMAT and 1 not in codes
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_exits_format_with_one_line(seed, tmp_path, capsys):
    assert run(["gen", "--task", "deconv", "--seed", seed, "--out", tmp_path]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed must lie in [0, 2**64)")


@pytest.mark.parametrize("task, name", [("sparse_coding", "Q"), ("deconv", "kernel"),
                                        ("deconv", "W")])
def test_overflowing_payload_exits_diverged_with_one_line(task, name, tmp_path, capsys):
    # a huge finite entry loads, and the arithmetic on it overflows
    small = {"sparse_coding": "gen.m = 8\ngen.n = 16\ngen.batch = 4", "deconv": "gen.n = 8"}[task]
    cfg = write_config(tmp_path, f"task = {task}\n{small}\nbmo.T = 1\n")
    assert run(["gen", "--config", cfg, "--out", tmp_path]) == 0
    path = tmp_path / "instance.bin"
    blob = path.read_bytes()
    arrays = _manifest(blob)[0]["arrays"]
    names = [a["name"] for a in arrays]
    first = sum(math.prod(a["shape"]) for a in arrays[:names.index(name)])
    path.write_bytes(_set_entry(blob, first, 1e300))
    capsys.readouterr()
    assert run(["train", tmp_path / "instance.bin", "--config", cfg,
                "--out", tmp_path]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: diverged (overflow")


class TestEvalDiagnose:

    def test_eval_writes_metrics(self, trained, tmp_path):
        root, cfg = trained
        assert run(["eval", root / "instance.bin", "--config", cfg,
                    "--report", root / "report.txt", "--out", tmp_path]) == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,metric,value"
        methods = {l.split(",")[0] for l in lines[1:]}
        assert methods == {"bmo", "ladmm"}

    def test_eval_refuses_toy_by_name(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("omega = 0.5,0.0\n")
        assert run(["eval", "--task", "toy", "--report", report,
                    "--out", tmp_path]) == cli.EXIT_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "toy" in err[0]

    def test_eval_missing_report_exit(self, trained, tmp_path):
        root, cfg = trained
        assert run(["eval", root / "instance.bin", "--config", cfg,
                    "--report", root / "nope.txt",
                    "--out", tmp_path]) == cli.EXIT_MISSING

    def test_diagnose_csv_columns(self, trained, tmp_path):
        root, cfg = trained
        assert run(["diagnose", root / "instance.bin", "--config", cfg,
                    "--report", root / "report.txt", "--out", tmp_path]) == 0
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "phase,t,k,residual_hlb_sq,rel_step,loss,grad_norm"
        phases = {l.split(",")[0] for l in lines[1:]}
        assert "inner" in phases and "outer" in phases and "ablation" in phases

    def test_diagnose_ablation_flags_expansive_net(self, trained, tmp_path, capsys):
        root, cfg = trained
        run(["diagnose", root / "instance.bin", "--config", cfg, "--out", tmp_path,
             "--seed", 0])
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("ablation"))
        assert (line == "ablation: diverged without normalization"
                or int(line.rsplit("= ", 1)[1]) > 0)

    def test_diagnose_toy_monotone_rel_step(self, tmp_path):
        # bias 0.5 puts the fixed point exactly at the loss target, so the
        # rollout decays geometrically with no late harmonic drift
        cfg = write_config(tmp_path, "task = toy\nbmo.K = 30\nbmo.s = 0.2\n"
                                     "bmo.alpha = 0.5\ntoy.bias = 0.5\n"
                                     "diag.ablation = false\n")
        assert run(["diagnose", "--config", cfg, "--out", tmp_path]) == 0
        rows = [l.split(",") for l in
                (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]]
        rel = [float(r[4]) for r in rows if r[0] == "inner"]
        burn = 5
        assert all(rel[i + 1] <= rel[i] * (1 + 1e-9) for i in range(burn, len(rel) - 1))

    def test_diagnose_builds_run_config_once(self, tmp_path, monkeypatch):
        # with bmo.s = auto each build measures the loss's smoothness; K is all that varies
        calls = []
        build = cli.bmo_config
        monkeypatch.setattr(cli, "bmo_config", lambda *a, **k: calls.append(1) or build(*a, **k))
        cfg = write_config(tmp_path, "task = toy\nbmo.K = 4\ndiag.k_list = 2,3,4\n"
                                     "diag.ablation = false\n")
        assert run(["diagnose", "--config", cfg, "--out", tmp_path]) == 0
        outer = [l for l in (tmp_path / "diagnostics.csv").read_text().splitlines()
                 if l.startswith("outer")]
        assert len(calls) == 1 and [l.split(",")[2] for l in outer] == ["2", "3", "4"]

    def test_deconv_eval_metrics(self, tmp_path):
        run(["gen", "--task", "deconv", "--seed", 4, "--out", tmp_path])
        cfg = write_config(tmp_path, "task = deconv\nbmo.T = 2\nbmo.K = 5\n"
                                     "bmo.alpha = 0.5\nop.identity_net = true\n")
        assert run(["train", tmp_path / "instance.bin", "--config", cfg,
                    "--out", tmp_path]) == 0
        assert run(["eval", tmp_path / "instance.bin", "--config", cfg,
                    "--report", tmp_path / "report.txt", "--out", tmp_path]) == 0
        text = (tmp_path / "metrics.csv").read_text()
        assert "psnr" in text and "ssim" in text


class TestFdcheck:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "task = toy\nfdcheck.instances = 5\n")
        assert run(["fdcheck", "--config", cfg, "--out", tmp_path]) == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_corrupt_rule_detected(self, tmp_path):
        cfg = write_config(tmp_path, "task = toy\nfdcheck.instances = 5\n"
                                     "fdcheck.corrupt = true\n")
        assert run(["fdcheck", "--config", cfg, "--out", tmp_path]) != 0

    def test_every_fail_row_counts(self, tmp_path, capsys, monkeypatch):
        # a NaN relative error prints FAIL, so it must fail the run as well
        monkeypatch.setattr(cli, "fd_hypergradient",
                            lambda op, loss, omega, *a, **k: np.full(omega.dim, np.nan))
        cfg = write_config(tmp_path, "task = toy\nfdcheck.instances = 3\n")
        assert run(["fdcheck", "--config", cfg, "--out", tmp_path]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 3 and "3 instance(s) exceeded" in out
        assert "worst relative error: nan" in out

    def test_empty_suite_vacuous_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "task = toy\nfdcheck.instances = 0\n")
        assert run(["fdcheck", "--config", cfg, "--out", tmp_path]) == 0
        assert "warning" in capsys.readouterr().out


class TestDeterminism:
    # (task, gen from the config?, config): sparse coding on the default
    # instance; separation, on a small one, runs the dense ALM path with a
    # factored G(omega) and primal block
    CASES = (
        ("sparse_coding", False, "task = sparse_coding\ngen.batch = 8\nbmo.T = 3\nbmo.K = 5\n"),
        ("separation", True, "task = separation\ngen.n = 16\nbmo.T = 3\nbmo.K = 5\n"),
    )

    def test_short_train_byte_identical(self, tmp_path):
        for task, gen_from_config, config in self.CASES:
            for sub in ("x", "y"):
                d = tmp_path / task / sub
                d.mkdir(parents=True)
                cfg = write_config(d, config)
                gen = ["--config", cfg] if gen_from_config else ["--task", task]
                assert run(["gen", *gen, "--seed", 6, "--out", d]) == 0
                assert run(["train", d / "instance.bin", "--config", cfg, "--out", d]) == 0
                assert run(["eval", d / "instance.bin", "--config", cfg,
                            "--report", d / "report.txt", "--out", d]) == 0
            for name in ("trajectory.csv", "report.txt", "metrics.csv"):
                x, y = (tmp_path / task / sub / name for sub in ("x", "y"))
                assert x.read_bytes() == y.read_bytes(), (task, name)


# ---------------------------------------------------------------------------
# seeded fuzz of the CLI surface
# ---------------------------------------------------------------------------

FUZZ_TASKS = ("sparse_coding", "deconv", "separation")
# tiny sizes: one outer step of two inner steps, two short diagnostic tapes
FUZZ_BASE = {
    "sparse_coding": "gen.m = 4\ngen.n = 8\ngen.batch = 2",
    "deconv": "gen.n = 8\nop.net_widths = 4",
    "separation": "gen.n = 8",
}
FUZZ_RUN = "bmo.T = 1\nbmo.K = 2\ndiag.k_list = 1,2\n"
NUMERIC_KEYS = sorted(k for k, v in cli._DEFAULTS.items()
                      if isinstance(v, (int, float)) and not isinstance(v, bool))


def _fuzz_run(capsys, args):
    """Run ``gkmbmo`` in-process; the exit code, or a description of what broke the rule."""
    capsys.readouterr()
    try:
        code = run(args)
    except Exception as err:   # a RuntimeWarning raises too under this suite's filter
        return None, f"raised {type(err).__name__}: {err}"
    err = capsys.readouterr().err.splitlines()
    if code not in (0, 2, 3, 4):
        return code, f"exit {code}"
    if code and not (len(err) == 1 and err[0].startswith("error: ")):
        return code, f"exit {code} with stderr {err!r}"
    return code, None


def _fuzz_config(root, task, line=""):
    return write_config(root, f"task = {task}\n{FUZZ_BASE[task]}\n{FUZZ_RUN}{line}\n")


@pytest.fixture(scope="module")
def fuzz_instances(tmp_path_factory):
    """One valid tiny instance container per task, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for task in FUZZ_TASKS:
        d = root / task
        d.mkdir()
        assert run(["gen", "--config", _fuzz_config(d, task), "--out", d]) == 0
        out[task] = (d / "instance.bin").read_bytes()
    return out


@pytest.mark.parametrize("task", FUZZ_TASKS)
def test_fuzz_numeric_config_keys(task, fuzz_instances, tmp_path, capsys):
    # every numeric config key at 0, -1 and NaN: gen, then train and diagnose on what
    # gen wrote (or on a valid instance when gen refused the value)
    failures, cases = [], 0
    for key in NUMERIC_KEYS:
        for value in ("0", "-1", "nan"):
            d = tmp_path / f"{key}_{value}"
            d.mkdir()
            cfg = _fuzz_config(d, task, f"{key} = {value}")
            code, bad = _fuzz_run(capsys, ["gen", "--config", cfg, "--out", d])
            if code != 0:
                (d / "instance.bin").write_bytes(fuzz_instances[task])
            for verb in ("train", "diagnose"):
                bad = bad or _fuzz_run(capsys, [verb, d / "instance.bin", "--config", cfg,
                                                "--out", d])[1]
            cases += 1
            if bad:
                failures.append((key, value, bad))
    assert cases >= 90 and not failures, failures


SHAPE_EDITS = {
    "reversed": lambda s: s[::-1],
    "plus_one": lambda s: [d + 1 for d in s],
    "zero": lambda s: [0] * len(s),
    "negative": lambda s: [-d for d in s],
}


def _container_cases(blob, rng):
    """(name, bytes) mutations of one valid container, drawn from ``rng``."""
    manifest, start = _manifest(blob)
    nfloat = (len(blob) - start) // 8
    cases = []
    for _ in range(60):
        pos = int(rng.integers(len(blob)))
        cases.append((f"flip_{pos}", blob[:pos] + bytes([blob[pos] ^ (1 << int(rng.integers(8)))])
                      + blob[pos + 1:]))
    for _ in range(30):
        # an exponent bit of one payload float: a huge, tiny or non-finite entry
        i = int(rng.integers(nfloat))
        (bits,) = struct.unpack("<Q", blob[start + 8 * i:start + 8 * i + 8])
        (value,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << int(rng.integers(52, 63)))))
        cases.append((f"exponent_{i}", _set_entry(blob, i, value)))
    for _ in range(20):
        cut = int(rng.integers(len(blob)))
        cases.append((f"truncate_{cut}", blob[:cut]))
    for value in (math.nan, math.inf, -math.inf, 1e300, -1e300):
        for i in rng.choice(nfloat, size=8, replace=False):
            cases.append((f"{value}_{i}", _set_entry(blob, int(i), value)))
    for j, spec in enumerate(manifest["arrays"]):
        for edit, change in SHAPE_EDITS.items():
            def reshape(m, j=j, change=change):
                m["arrays"][j]["shape"] = change(m["arrays"][j]["shape"])
            cases.append((f"{spec['name']}_{edit}", _edit_manifest(blob, reshape)))

    def grow_all(m):
        # every size grown alike keeps the shape rule and asks for exabytes of payload
        for spec in m["arrays"]:
            spec["shape"] = [d * 10 ** 8 for d in spec["shape"]]
    cases.append(("all_huge", _edit_manifest(blob, grow_all)))
    return cases


@pytest.mark.parametrize("task", FUZZ_TASKS)
def test_fuzz_instance_container(task, fuzz_instances, tmp_path, capsys):
    # bit flips, truncations, non-finite and huge entries, and broken manifest shapes
    rng = np.random.default_rng(FUZZ_TASKS.index(task))
    cfg = _fuzz_config(tmp_path, task)
    failures, cases = [], _container_cases(fuzz_instances[task], rng)
    for name, blob in cases:
        path = tmp_path / "instance.bin"
        path.write_bytes(blob)
        _, bad = _fuzz_run(capsys, ["train", path, "--config", cfg, "--out", tmp_path])
        if bad:
            failures.append((name, bad))
    assert len(cases) >= 150 and not failures, failures
