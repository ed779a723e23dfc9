"""CLI commands: pipeline wiring, idempotence, exit codes, config parsing."""

import json
import os
import re
import struct
import warnings
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from quantdistill.cli import (
    EXIT_CONFIG,
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    main,
)
from quantdistill.config import ExperimentConfig, load_config
from quantdistill.errors import ConfigError
from quantdistill.graph import build_embedding_net, observe_activations
from quantdistill.model_store import save_model
from quantdistill.quantizer import RangeObserver
from quantdistill.tensor_core import Tensor

SMALL_CONFIG = """
# desk-scale smoke configuration
seed = 7
n_identities = 20
latent_dim = 8
input_dim = 16
noise_sigma = 0.15
hidden_dim = 16
embed_dim = 8
teacher_iterations = 200
teacher_lr = 0.1
batch_size = 32
iterations = 40
lr = 1e-4
bits = 8,6
calibration_batches = 4
n_pairs = 100
far_targets = 0.05
"""


def _small_net(bits=None, dims=(16, (16, 16), 8)):
    """A net of SMALL_CONFIG's shape, or of ``dims``; calibrated when ``bits``
    is given."""
    net = build_embedding_net(*dims, seed=1)
    if bits is not None:
        net.set_quantization(bits)
        observers = [RangeObserver() for _ in range(net.activation_site_count)]
        x = Tensor(np.random.default_rng(2).standard_normal((32, dims[0])).astype(np.float32))
        observe_activations(net, x, observers)
        net.activation_params = [o.freeze(bits) for o in observers]
    return net


def _rewrite_body(path, edit):
    """Apply ``edit`` to a model file's body (bytes between magic and CRC)
    and store it with a recomputed CRC, so only the edit is wrong."""
    blob = path.read_bytes()
    body = edit(bytearray(blob[4:-4]))
    path.write_bytes(blob[:4] + bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG + f"out_dir = {tmp_path / 'out'}\n")
    return str(path)


class TestConfigParsing:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("QUANTDISTILL_SEED", raising=False)
        cfg = ExperimentConfig(
            seed=9, n_identities=30, latent_dim=5, input_dim=12, noise_sigma=0.25,
            hidden_dim=10, embed_dim=6, teacher_iterations=40, teacher_lr=0.05,
            batch_size=16, iterations=7, lr=0.002, momentum=0.5, weight_decay=0.001,
            bits=[4, 8], calibration_batches=3, n_pairs=100, far_targets=[0.1, 0.02],
            out_dir="elsewhere")
        default = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        path = tmp_path / "c.txt"
        path.write_text(
            "seed = 9\nn_identities = 30\nlatent_dim = 5\ninput_dim = 12\n"
            "noise_sigma = 0.25\nhidden_dim = 10\nembed_dim = 6\nteacher_iterations = 40\n"
            "teacher_lr = 0.05\nbatch_size = 16\niterations = 7\nlr = 0.002\n"
            "momentum = 0.5\nweight_decay = 0.001\nbits = 4, 8\ncalibration_batches = 3\n"
            "n_pairs = 100\nfar_targets = 0.1, 0.02\nout_dir = elsewhere\n")
        assert load_config(path) == cfg

    def test_calibration_batches_default_is_the_distiller_default(self):
        from quantdistill.distiller import DEFAULT_CALIBRATION_BATCHES

        assert ExperimentConfig().calibration_batches == DEFAULT_CALIBRATION_BATCHES

    def test_comments_and_blanks_ignored(self, cfg_path, monkeypatch):
        monkeypatch.delenv("QUANTDISTILL_SEED", raising=False)
        cfg = load_config(cfg_path)
        assert cfg.seed == 7
        assert cfg.bits == [8, 6]
        assert cfg.far_targets == [0.05]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("no_such_knob = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == "no_such_knob"

    def test_single_identity_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("n_identities = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == "n_identities"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.txt"
        path.write_text("seed = 3\n")
        monkeypatch.setenv("QUANTDISTILL_SEED", "99")
        assert load_config(path).seed == 99

    def test_bad_bit_width_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("bits = 8,5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_repeated_bit_width_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("bits = 8,8\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == "bits"

    @pytest.mark.parametrize("key, value", [("latent_dim", 1), ("input_dim", 1),
                                            ("hidden_dim", 0), ("embed_dim", 0)])
    def test_dimension_error_names_its_one_key(self, tmp_path, key, value):
        path = tmp_path / "c.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == key

    # The distill triple (lr, momentum, weight_decay) and the teacher triple
    # (teacher_lr, momentum, weight_decay) share the SGD bounds.
    @pytest.mark.parametrize("key, value", [("lr", 0.0), ("teacher_lr", -1.0),
                                            ("momentum", 1.0), ("weight_decay", -2.0)])
    def test_sgd_bound_error_names_its_one_key(self, tmp_path, key, value):
        path = tmp_path / "c.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == key
        assert str(exc.value).startswith(f"{key}: must be ")

    def test_repeated_key_rejected_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("seed = 1\n# comment\nseed = 2\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field == "seed"
        assert "line 3" in str(exc.value)
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: seed: line 3" in capsys.readouterr().err


class TestPipeline:
    def test_pretrain_distill_eval(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        teacher = out / "teacher.qfmd"
        assert teacher.exists()
        metrics = json.loads((out / "teacher_metrics.json").read_text())
        assert 0.0 <= metrics["verification"]["accuracy"] <= 1.0

        assert main(["distill", "--config", cfg_path, "--teacher", str(teacher)]) == EXIT_OK
        for b in (8, 6):
            assert (out / f"student_w{b}a{b}.qfmd").exists()
            curve = (out / f"loss_w{b}a{b}.csv").read_text().strip().split("\n")
            assert curve[0] == "step,loss"
            assert len(curve) == 41
        sizes = json.loads((out / "sizes.json").read_text())
        # the files block is the files' bytes; past the payload law's codes a
        # file holds parameter blocks, biases and framing (large at this size)
        teacher_bytes = teacher.stat().st_size
        assert sizes["files"]["teacher_bytes"] == teacher_bytes
        for b in (8, 6):
            student_bytes = (out / f"student_w{b}a{b}.qfmd").stat().st_size
            assert student_bytes < teacher_bytes
            assert sizes["files"]["quantized"][str(b)] == {
                "bytes": student_bytes, "ratio": student_bytes / teacher_bytes}
            assert sizes["files"]["quantized"][str(b)]["ratio"] > sizes["quantized"][str(b)]["ratio"]

        models = [str(teacher), str(out / "student_w8a8.qfmd"), str(out / "student_w6a6.qfmd")]
        assert main(["eval", "--config", cfg_path] + models) == EXIT_OK
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["models"]) == 3
        for row in report["models"]:
            assert row["size_mb"] == os.path.getsize(out / row["model"]) / 1e6
        assert len(report["range_correlation"]) == 1
        assert (out / "range_student_w8a8_vs_student_w6a6.csv").exists()

    def test_zero_step_run_reports_no_losses(self, tmp_path, capsys):
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        cfg = tmp_path / "cfg0.txt"
        cfg.write_text(SMALL_CONFIG.replace("iterations = 40", "iterations = 0")
                       + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["distill", "--config", str(cfg), "--teacher", str(teacher)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "distill_summary.json").read_text())
        for b in (8, 6):
            run = summary["runs"][f"w{b}a{b}"]
            assert run["initial_loss"] is None
            assert run["final_smoothed_loss"] is None
            assert run["converged"] is None
            assert run["model"] == f"student_w{b}a{b}.qfmd"
        captured = capsys.readouterr()
        assert captured.out.count("no fine-tuning steps") == 2
        assert "did not converge" not in captured.err

    def test_final_smoothed_loss_is_the_mean_of_the_last_100_steps(self, tmp_path):
        # 150 steps: a mean over the last 100 rows, not over the 50 after step 100
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        cfg = tmp_path / "cfg150.txt"
        cfg.write_text(SMALL_CONFIG.replace("iterations = 40", "iterations = 150")
                       + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["distill", "--config", str(cfg), "--teacher", str(teacher),
                     "--bits", "8"]) == EXIT_OK
        rows = (tmp_path / "out" / "loss_w8a8.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 150
        tail = [float(row.split(",")[1]) for row in rows[-100:]]
        summary = json.loads((tmp_path / "out" / "distill_summary.json").read_text())
        # the CSV keeps 9 significant digits
        assert summary["runs"]["w8a8"]["final_smoothed_loss"] == pytest.approx(
            np.mean(tail), rel=1e-6)

    def test_bits_override_fans_out(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        assert main(["distill", "--config", cfg_path, "--teacher", str(out / "teacher.qfmd"),
                     "--bits", "8"]) == EXIT_OK
        assert (out / "student_w8a8.qfmd").exists()
        assert not (out / "student_w6a6.qfmd").exists()

    @pytest.mark.parametrize("command", ["pretrain", "distill", "eval"])
    def test_command_creates_missing_nested_out_dir(self, tmp_path, command):
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        out = tmp_path / "runs" / "nested" / "out"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG.replace("teacher_iterations = 200", "teacher_iterations = 1")
                       .replace("iterations = 40", "iterations = 0") + f"out_dir = {out}\n")
        args = {"pretrain": [], "distill": ["--teacher", str(teacher), "--bits", "8"],
                "eval": [str(teacher)]}[command]
        assert main([command, "--config", str(cfg), *args]) == EXIT_OK
        written = {"pretrain": "teacher_metrics.json", "distill": "distill_summary.json",
                   "eval": "eval_report.json"}[command]
        assert (out / written).exists()

    def test_rerun_produces_identical_files(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        first = (out / "teacher.qfmd").read_bytes()
        main(["pretrain", "--config", cfg_path])
        assert (out / "teacher.qfmd").read_bytes() == first

    def test_duplicate_model_deduplicated_with_warning(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        teacher = str(out / "teacher.qfmd")
        assert main(["eval", "--config", cfg_path, teacher, teacher]) == EXIT_OK
        captured = capsys.readouterr()
        assert "duplicate" in captured.err
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["models"]) == 1
        assert "range_correlation" not in report

    # runB's w8 file would take runA's w8 report row or range CSV name; a
    # file that is no model shows that the names are checked before loading
    @pytest.mark.parametrize("second, is_model", [("student_w8a8.qfmd", True),
                                                  ("student_w8a8.bin", True),
                                                  ("student_w8a8.qfmd", False)])
    def test_models_sharing_a_file_name_rejected_before_anything_is_written(
            self, cfg_path, tmp_path, capsys, second, is_model):
        run_a, run_b = tmp_path / "runA", tmp_path / "runB"
        run_a.mkdir()
        run_b.mkdir()
        for bits in (8, 6):
            save_model(_small_net(bits), run_a / f"student_w{bits}a{bits}.qfmd", mode="quantized")
        if is_model:
            save_model(_small_net(8), run_b / second, mode="quantized")
        else:
            (run_b / second).write_bytes(b"JUNKJUNKJUNKJUNK")
        models = [str(run_a / "student_w8a8.qfmd"), str(run_b / second),
                  str(run_a / "student_w6a6.qfmd")]
        assert main(["eval", "--config", cfg_path] + models) == EXIT_CONFIG
        assert "both named student_w8a8" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_single_model_eval_has_no_correlation_section(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        main(["eval", "--config", cfg_path, str(out / "teacher.qfmd")])
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["models"]) == 1
        assert "range_correlation" not in report


class TestReportedSizes:
    """Every reported size is the byte count of the file it names."""

    # A 5-6-3 net: its 6x5 and 3x6 weights at 6 bits are 22.5 and 13.5 code
    # bytes, and each layer pads its codes to whole bytes; a quantized file
    # adds an 8-byte range block per channel and per site (11 in all). An
    # fp32 file holds 48 weights and 9 biases, 4 bytes each, past its framing.
    @pytest.mark.parametrize("bits, expected", [(6, 198), (8, 209), (None, 265)])
    def test_eval_size_is_the_file_bytes(self, tmp_path, bits, expected):
        path = tmp_path / "net.qfmd"
        save_model(_small_net(bits, dims=(5, (6,), 3)), path,
                   mode="fp32" if bits is None else "quantized")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"input_dim = 5\nn_pairs = 20\nout_dir = {tmp_path / 'out'}\n")
        assert main(["eval", "--config", str(cfg), str(path)]) == EXIT_OK
        (row,) = json.loads((tmp_path / "out" / "eval_report.json").read_text())["models"]
        assert path.stat().st_size == expected
        assert row["size_mb"] == expected / 1e6


class TestExitCodes:
    def test_invalid_config_value(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("n_identities = 1\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG

    # every float field of ExperimentConfig
    @pytest.mark.parametrize("field", ["lr", "teacher_lr", "noise_sigma", "momentum",
                                       "weight_decay"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_value_stops_before_training(self, tmp_path, capsys,
                                                           field, value):
        path = tmp_path / "c.txt"
        path.write_text(f"{field} = {value}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {field}: must be finite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # An empty list element, no FAR target (a report without TAR@FAR) and an
    # empty output directory are config errors, caught before any training.
    @pytest.mark.parametrize("line", ["bits = 8,,6", "far_targets = 0.01,", "far_targets =",
                                      "out_dir ="])
    def test_empty_value_stops_before_training(self, tmp_path, capsys, line):
        key = line.split("=")[0].strip()
        path = tmp_path / "c.txt"
        path.write_text("".join(f"{row}\n" for row in SMALL_CONFIG.splitlines()
                                if not row.startswith(key))
                        + f"{line}\n"
                        + ("" if key == "out_dir" else f"out_dir = {tmp_path / 'out'}\n"))
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {key}: " in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # SGD diverges with momentum >= 1 or a negative weight decay
    @pytest.mark.parametrize("field, value", [("momentum", "-0.1"), ("momentum", "1.0"),
                                              ("momentum", "1.5"), ("weight_decay", "-2")])
    def test_out_of_range_sgd_value_stops_before_training(self, tmp_path, capsys,
                                                          field, value):
        path = tmp_path / "c.txt"
        path.write_text(SMALL_CONFIG + f"{field} = {value}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {field}: " in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_repeated_far_target_stops_before_training(self, tmp_path, capsys):
        # The report keys TAR@FAR by target, so a repeated one would vanish.
        path = tmp_path / "c.txt"
        path.write_text(SMALL_CONFIG.replace("far_targets = 0.05", "far_targets = 0.01, 0.01")
                        + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: far_targets: repeated FAR target" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["pretrain", "--config", str(tmp_path / "nope.txt")]) == EXIT_IO

    def test_missing_teacher_file(self, cfg_path, tmp_path):
        assert main(["distill", "--config", cfg_path,
                     "--teacher", str(tmp_path / "nope.qfmd")]) == EXIT_IO

    def test_bad_bits_flag(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        assert main(["distill", "--config", cfg_path, "--teacher", str(out / "teacher.qfmd"),
                     "--bits", "3"]) == EXIT_CONFIG

    def test_unsupported_bits_flag_creates_no_out_dir(self, cfg_path, tmp_path):
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        assert main(["distill", "--config", cfg_path, "--teacher", str(teacher),
                     "--bits", "5"]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_empty_bits_flag(self, cfg_path, tmp_path, capsys):
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        assert main(["distill", "--config", cfg_path, "--teacher", str(teacher),
                     "--bits", ""]) == EXIT_CONFIG
        assert "config error: bits: at least one bit width required" in capsys.readouterr().err
        assert not (tmp_path / "out" / "student_w8a8.qfmd").exists()

    def test_repeated_bits_flag(self, cfg_path, tmp_path):
        teacher = tmp_path / "teacher.qfmd"
        save_model(_small_net(), teacher, mode="fp32")
        assert main(["distill", "--config", cfg_path, "--teacher", str(teacher),
                     "--bits", "8,8"]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "student_w8a8.qfmd").exists()

    @pytest.mark.parametrize("width", [0, 9])
    def test_header_bit_width_outside_table(self, cfg_path, tmp_path, width):
        path = tmp_path / "student.qfmd"
        save_model(_small_net(bits=8), path, mode="quantized")

        def set_width(body):
            body[3] = width  # version u16, mode u8, then bit_width u8
            return body

        _rewrite_body(path, set_width)
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT

    def test_fp32_file_with_activation_blocks(self, cfg_path, tmp_path):
        path = tmp_path / "teacher.qfmd"
        save_model(_small_net(), path, mode="fp32")
        block = struct.pack("<ff", -0.5, 0.5)
        # the body ends in an activation count of 0: claim one block and add it
        _rewrite_body(path, lambda body: body[:-2] + struct.pack("<H", 1) + block)
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT

    def test_zero_point_overflow_on_save(self, tmp_path):
        # A weight row spanning one float32 ulp at 10.0 derives a zero-point
        # near 2.7e9, where the float32 weights s * (c + z) no longer hold
        # their codes: the loader would refuse the file, so it is not written.
        net = _small_net()
        w = net.layers[0].weight.data.copy()
        w[0] = np.where(np.arange(w.shape[1]) % 2, np.nextafter(np.float32(10.0), np.inf),
                        np.float32(10.0))
        net.layers[0] = replace(net.layers[0], weight=Tensor(w))
        teacher = tmp_path / "teacher.qfmd"
        save_model(net, teacher, mode="fp32")
        cfg = tmp_path / "cfg0.txt"
        cfg.write_text(SMALL_CONFIG.replace("iterations = 40", "iterations = 0")
                       + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["distill", "--config", str(cfg), "--teacher", str(teacher),
                     "--bits", "8"]) == EXIT_DIMENSION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_diverging_pretrain_names_stage_step_and_last_loss(self, tmp_path, capsys):
        # lr 1e9 blows the cross-entropy up within a few steps: the run stops
        # at the first non-finite loss instead of training on.
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG.replace("teacher_lr = 0.1", "teacher_lr = 1e9")
                        + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_DIMENSION
        err = capsys.readouterr().err
        assert re.search(r"pretrain step \d+: .*last finite loss [0-9.]+\)", err), err
        assert not (tmp_path / "out" / "teacher.qfmd").exists()

    def test_overflowing_distill_names_layer_without_warnings(self, tmp_path, capsys):
        # lr 1e5 overflows a linear's output within a few steps; the error
        # names the layer, and numpy prints no RuntimeWarning ahead of it.
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG.replace("lr = 1e-4", "lr = 1e5")
                        .replace("iterations = 40", "iterations = 200")
                        + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["distill", "--config", str(path), "--bits", "8",
                         "--teacher", str(tmp_path / "out" / "teacher.qfmd")]) == EXIT_DIMENSION
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert re.search(r"distill w8 step \d+: .*layer \d+.*last finite loss", err), err

    def test_diverging_pretrain_prints_no_warning(self, tmp_path):
        # At lr 1e9 a softmax probability underflows to 0 and its log to
        # -inf: the run still stops with its error alone.
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG.replace("teacher_lr = 0.1", "teacher_lr = 1e9")
                        + f"out_dir = {tmp_path / 'out'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pretrain", "--config", str(path)]) == EXIT_DIMENSION
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_weight_scale_overflowing_float32(self, cfg_path, tmp_path):
        # The widest float32 range gives a weight scale so large that the
        # lowest code dequantizes past float32: a malformed file, not a
        # domain error.
        path = tmp_path / "student.qfmd"
        save_model(_small_net(bits=8), path, mode="quantized")

        def widest_range(body):
            # header (6 bytes), layer kind (1), out/in dims and payload (9),
            # then the first weight block: range_lo and range_hi, f32 each
            top = float(np.finfo(np.float32).max)
            struct.pack_into("<ff", body, 16, -top, top)
            return body

        _rewrite_body(path, widest_range)
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT

    def test_version_1_file_writes_no_report(self, cfg_path, tmp_path, capsys):
        path = tmp_path / "student.qfmd"
        save_model(_small_net(bits=8), path, mode="quantized")

        def set_version(body):
            struct.pack_into("<H", body, 0, 1)
            return body

        _rewrite_body(path, set_version)
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT
        assert "unsupported version 1: this build reads version 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval_report.json").exists()

    @pytest.mark.parametrize("stack", [
        ["relu"],
        [],
        [(2, 3), "relu", (2, 5)],
        [(4, 3), "relu", "relu", (2, 4)],
        [(4, 3), (2, 4)],
        [(2, 3), "relu"],
        [(3, 0)],
    ], ids=["relu-only", "empty", "dims-do-not-compose", "two-relus", "two-linears",
            "trailing-relu", "zero-width"])
    def test_layer_stack_that_is_no_net(self, cfg_path, tmp_path, layer_stack_file, stack):
        path = tmp_path / "teacher.qfmd"
        path.write_bytes(layer_stack_file(stack))
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT

    def test_corrupt_model_file(self, cfg_path, tmp_path):
        bad = tmp_path / "bad.qfmd"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["eval", "--config", cfg_path, str(bad)]) == EXIT_FORMAT

    def test_architecture_mismatch(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        other_cfg = tmp_path / "other.txt"
        other_cfg.write_text(SMALL_CONFIG.replace("hidden_dim = 16", "hidden_dim = 24")
                             + f"out_dir = {tmp_path / 'out2'}\n")
        main(["pretrain", "--config", str(other_cfg)])
        # a second name: two models named teacher would exit 2 before loading
        wide = tmp_path / "out2" / "wide_teacher.qfmd"
        os.replace(tmp_path / "out2" / "teacher.qfmd", wide)
        assert main(["eval", "--config", cfg_path,
                     str(out / "teacher.qfmd"), str(wide)]) == EXIT_DIMENSION


class TestSeedEnvOverride:
    def test_env_seed_changes_outputs(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        base = (out / "teacher.qfmd").read_bytes()
        monkeypatch.setenv("QUANTDISTILL_SEED", "12345")
        main(["pretrain", "--config", cfg_path])
        assert (out / "teacher.qfmd").read_bytes() != base
