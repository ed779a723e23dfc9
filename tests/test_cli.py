"""CLI commands: pipeline wiring, idempotence, exit codes, config parsing."""

import json
import os
import re
import struct
import warnings
import zlib

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
from quantdistill.config import ExperimentConfig, load_config, write_config
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


def _small_net(bits=None):
    """A net of SMALL_CONFIG's shape; calibrated when ``bits`` is given."""
    net = build_embedding_net(16, (16, 16), 8, seed=1)
    if bits is not None:
        net.set_quantization(bits)
        observers = [RangeObserver() for _ in range(net.activation_site_count)]
        x = Tensor(np.random.default_rng(2).standard_normal((32, 16)).astype(np.float32))
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
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=9, bits=[8])
        path = tmp_path / "c.txt"
        write_config(cfg, path)
        assert load_config(path, apply_env_seed=False) == cfg
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_comments_and_blanks_ignored(self, cfg_path):
        cfg = load_config(cfg_path, apply_env_seed=False)
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
        assert sizes["quantized"]["8"]["ratio"] > 0.25  # overhead included
        # packed student files are smaller than the fp32 teacher file even
        # with per-channel parameter overhead (tiny net, so overhead is large)
        teacher_bytes = teacher.stat().st_size
        for b in (8, 6):
            assert (out / f"student_w{b}a{b}.qfmd").stat().st_size < teacher_bytes

        models = [str(teacher), str(out / "student_w8a8.qfmd"), str(out / "student_w6a6.qfmd")]
        assert main(["eval", "--config", cfg_path] + models) == EXIT_OK
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["models"]) == 3
        assert len(report["range_correlation"]) == 1
        assert (out / "range_student_w8a8_vs_student_w6a6.csv").exists()

    def test_bits_override_fans_out(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        assert main(["distill", "--config", cfg_path, "--teacher", str(out / "teacher.qfmd"),
                     "--bits", "8"]) == EXIT_OK
        assert (out / "student_w8a8.qfmd").exists()
        assert not (out / "student_w6a6.qfmd").exists()

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

    def test_single_model_eval_has_no_correlation_section(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        main(["eval", "--config", cfg_path, str(out / "teacher.qfmd")])
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["models"]) == 1
        assert "range_correlation" not in report


class TestExitCodes:
    def test_invalid_config_value(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("n_identities = 1\n")
        assert main(["pretrain", "--config", str(path)]) == EXIT_CONFIG

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
        block = struct.pack("<fiBff", 1.0 / 255.0, 0, 8, -0.5, 0.5)
        # the body ends in an activation count of 0: claim one block and add it
        _rewrite_body(path, lambda body: body[:-2] + struct.pack("<H", 1) + block)
        assert main(["eval", "--config", cfg_path, str(path)]) == EXIT_FORMAT

    def test_zero_point_overflow_on_save(self, tmp_path):
        # A weight row spanning one float32 ulp at 10.0 derives a zero-point
        # near 2.7e9, which no stored int32 block can hold.
        net = _small_net()
        w = net.linear_layers[0].weight.data.copy()
        w[0] = np.where(np.arange(w.shape[1]) % 2, np.nextafter(np.float32(10.0), np.inf),
                        np.float32(10.0))
        net.linear_layers[0].weight = Tensor(w)
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
        # A huge stored weight scale makes the dequantized weights overflow
        # float32: a malformed file, not a domain error.
        path = tmp_path / "student.qfmd"
        save_model(_small_net(bits=8), path, mode="quantized")

        def huge_scale(body):
            # header (6 bytes), layer kind (1), out/in dims and payload (9),
            # then the first weight block starts with its f32 scale
            struct.pack_into("<f", body, 16, 3e38)
            return body

        _rewrite_body(path, huge_scale)
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
        assert main(["eval", "--config", cfg_path,
                     str(out / "teacher.qfmd"),
                     str(tmp_path / "out2" / "teacher.qfmd")]) == EXIT_DIMENSION


class TestSeedEnvOverride:
    def test_env_seed_changes_outputs(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "out"
        main(["pretrain", "--config", cfg_path])
        base = (out / "teacher.qfmd").read_bytes()
        monkeypatch.setenv("QUANTDISTILL_SEED", "12345")
        main(["pretrain", "--config", cfg_path])
        assert (out / "teacher.qfmd").read_bytes() != base
