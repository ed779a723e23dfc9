"""Verification metrics: threshold sweep, TAR@FAR, range overlap."""

import numpy as np
import pytest

from quantdistill.bench_eval import (
    build_pairs,
    best_threshold_accuracy,
    interval_iou,
    pair_scores,
    range_correlation,
    tar_at_far,
    verify,
    write_range_csv,
)
from quantdistill.config import ExperimentConfig
from quantdistill.errors import DimensionError, DomainError, StateError
from quantdistill.graph import build_embedding_net, forward_embed, observe_activations
from quantdistill.quantizer import RangeObserver
from quantdistill.synth import make_identity_space
from quantdistill import tensor_core
from quantdistill.tensor_core import RANGE_ROWS, Tensor


def _space(seed=0, noise=0.15):
    return make_identity_space(20, 8, 12, noise, seed)


def _brute_force_best_accuracy(scores, same):
    """Oracle: try every midpoint of adjacent sorted scores plus sentinels."""
    xs = np.sort(np.unique(scores))
    cands = [xs[0] - 1] + [(xs[i] + xs[i + 1]) / 2 for i in range(len(xs) - 1)] + [xs[-1] + 1]
    return max(np.mean((scores >= t) == same) for t in cands)


def _loop_best_threshold_accuracy(scores, same):
    """Oracle: the plain per-candidate loop, first best threshold kept."""
    order = np.sort(np.unique(scores))
    candidates = [order[0] - 1.0]
    candidates += [float((order[i] + order[i + 1]) / 2.0) for i in range(len(order) - 1)]
    candidates.append(order[-1] + 1.0)
    best_acc, best_thr = -1.0, candidates[0]
    n = scores.size
    for thr in candidates:
        acc = float(np.count_nonzero((scores >= thr) == same)) / n
        if acc > best_acc:
            best_acc, best_thr = acc, thr
    return best_acc, best_thr


def _calibrated(data_seed, net_seed=7, bits=8):
    net = build_embedding_net(12, (16,), 8, seed=net_seed)
    net.set_quantization(bits)
    rng = np.random.default_rng(data_seed)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    for _ in range(6):
        observe_activations(net, Tensor(rng.standard_normal((16, 12)).astype(np.float32)),
                            observers)
    net.activation_params = [o.freeze(bits) for o in observers]
    return net


def _sides(pairs):
    """The first and the second side of every pair: the halves of ``rows``."""
    return pairs.rows.data[:pairs.n_pairs], pairs.rows.data[pairs.n_pairs:]


class TestBuildPairs:
    def test_balanced_counts(self):
        pairs = build_pairs(_space(), 4, seed=0)
        assert pairs.n_pairs == 4
        assert pairs.same.sum() == 2

    def test_same_seed_identical(self):
        a = build_pairs(_space(), 20, seed=1)
        b = build_pairs(_space(), 20, seed=1)
        assert np.array_equal(a.rows.data, b.rows.data)
        assert np.array_equal(a.same, b.same)

    def test_zero_noise_genuine_pairs_identical_inputs(self):
        pairs = build_pairs(_space(noise=0.0), 10, seed=2)
        first, second = _sides(pairs)
        assert np.array_equal(first[pairs.same], second[pairs.same])

    def test_imposter_pairs_use_distinct_identities(self):
        pairs = build_pairs(_space(noise=0.0), 200, seed=3)
        first, second = _sides(pairs)
        diffs = np.abs(first[~pairs.same] - second[~pairs.same]).max(axis=1)
        assert np.all(diffs > 0)

    def test_odd_count_rejected(self):
        with pytest.raises(DomainError):
            build_pairs(_space(), 5, seed=0)


class TestThresholdSweep:
    def test_perfectly_separated(self):
        scores = np.array([1.0, 1.0, -1.0, -1.0])
        same = np.array([True, True, False, False])
        acc, _ = best_threshold_accuracy(scores, same)
        assert acc == 1.0
        assert tar_at_far(scores, same, 0.5) == 1.0
        assert tar_at_far(scores, same, 0.01) == 1.0

    def test_identical_distributions_chance_level(self):
        rng = np.random.default_rng(0)
        scores = np.concatenate([rng.uniform(0, 1, 500), rng.uniform(0, 1, 500)])
        same = np.concatenate([np.ones(500, bool), np.zeros(500, bool)])
        acc, _ = best_threshold_accuracy(scores, same)
        assert abs(acc - 0.5) < 0.05

    def test_hand_worked_four_scores(self):
        # oracle: exhaustive sweep over {0.9, 0.8 genuine; 0.1, 0.95 imposter}
        scores = np.array([0.9, 0.8, 0.1, 0.95])
        same = np.array([True, True, False, False])
        acc, thr = best_threshold_accuracy(scores, same)
        assert acc == 0.75
        assert 0.1 < thr < 0.8

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_brute_force_oracle(self, trial):
        rng = np.random.default_rng(trial)
        n = 101
        scores = np.round(rng.standard_normal(n), 2)
        same = rng.uniform(size=n) < 0.5
        if not same.any() or same.all():
            same[0] = True
            same[-1] = False
        acc, _ = best_threshold_accuracy(scores, same)
        assert acc == pytest.approx(_brute_force_best_accuracy(scores, same))


    @pytest.mark.parametrize("decimals", [None, 3, 1, 0])
    def test_matches_loop_oracle_exactly(self, decimals):
        # accuracy and threshold both identical, including heavily tied scores
        rng = np.random.default_rng(100 + (decimals or 0))
        for _ in range(40):
            n = int(rng.integers(1, 300))
            scores = rng.normal(0.0, 1.0, n) + rng.uniform(0.0, 2.0) * rng.integers(0, 2, n)
            if decimals is not None:
                scores = np.round(scores, decimals)
            same = rng.uniform(size=n) < rng.uniform(0.1, 0.9)
            assert best_threshold_accuracy(scores, same) == _loop_best_threshold_accuracy(scores, same)

    def test_adjacent_float_scores_match_loop_oracle(self):
        # the midpoint of two adjacent doubles rounds onto one of them, so
        # ">= threshold" must hold for a score equal to a candidate
        xs = [0.3]
        for _ in range(5):
            xs.append(float(np.nextafter(xs[-1], 1.0)))
        rng = np.random.default_rng(7)
        for _ in range(60):
            scores = rng.choice(xs, size=12)
            same = rng.uniform(size=12) < 0.5
            assert best_threshold_accuracy(scores, same) == _loop_best_threshold_accuracy(scores, same)


class TestTarAtFar:
    def test_monotone_in_far(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.normal(0.7, 0.2, 400), rng.normal(0.0, 0.2, 400)])
        same = np.concatenate([np.ones(400, bool), np.zeros(400, bool)])
        fars = [0.001, 0.01, 0.05, 0.1, 0.5]
        tars = [tar_at_far(scores, same, f) for f in fars]
        assert all(a <= b + 1e-12 for a, b in zip(tars, tars[1:]))

    def test_achieved_far_within_target(self):
        rng = np.random.default_rng(2)
        scores = np.concatenate([rng.normal(0.7, 0.2, 300), rng.normal(0.0, 0.2, 1000)])
        same = np.concatenate([np.ones(300, bool), np.zeros(1000, bool)])
        for far in (0.01, 0.1):
            k = int(np.floor(far * 1000))
            imposter = np.sort(scores[~same])[::-1]
            thr = imposter[k]
            achieved = np.mean(scores[~same] > thr)
            assert achieved <= far

    # genuine 0.9, 0.5, 0.3, 0.6; imposter 0.4, 0.1, 0.2, 0.05
    SCORES = np.array([0.9, 0.5, 0.3, 0.6, 0.4, 0.1, 0.2, 0.05])
    SAME = np.array([True] * 4 + [False] * 4)

    @pytest.mark.parametrize("far", [-0.25, -1, float("nan"), float("inf"), 1.5])
    def test_far_outside_unit_interval_rejected(self, far):
        # A negative FAR would index the imposter scores from the low end.
        with pytest.raises(DomainError, match=f"got {far}"):
            tar_at_far(self.SCORES, self.SAME, far)

    def test_far_at_the_ends_of_unit_interval(self):
        assert tar_at_far(self.SCORES, self.SAME, 0.0) == 0.75
        assert tar_at_far(self.SCORES, self.SAME, 1.0) == 1.0


class TestVerify:
    def _trained_pairs(self, n_pairs=60):
        space = _space(seed=4)
        net = build_embedding_net(12, (16,), 8, seed=5)
        pairs = build_pairs(space, n_pairs, seed=6)
        return net, pairs

    def test_report_fields_and_determinism(self):
        net, pairs = self._trained_pairs()
        a = verify(net, pairs, [0.1])
        b = verify(net, pairs, [0.1])
        assert a == b
        assert 0.0 <= a.accuracy <= 1.0
        assert set(a.tar_at_far) == {0.1}

    def test_scale_invariance_before_normalization(self):
        # scaling all weights of the last layer scales embeddings before
        # normalization; verification must not change
        net, pairs = self._trained_pairs()
        base = verify(net, pairs, [0.1])
        from quantdistill.graph import Linear

        last = net.layers[-1]
        net.layers[-1] = Linear(
            weight=Tensor(last.weight.data * np.float32(7.0)),
            bias=Tensor(last.bias.data * np.float32(7.0)))
        scaled = verify(net, pairs, [0.1])
        assert scaled.accuracy == pytest.approx(base.accuracy)

    @pytest.mark.parametrize("bits", [None, 8, 6])
    def test_pair_scores_equal_per_side_forwards(self, monkeypatch, bits):
        # 16 pairs are one 32-row epilogue block and 60 pairs four, the last
        # partial; RANGE_ROWS + 6 pairs split into two ranges of 1506 rows
        # (WORKERS 2), each ending in a partial block.
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        for n_pairs in (16, 60, RANGE_ROWS + 6):
            net, pairs = self._trained_pairs(n_pairs)
            if bits is not None:
                net = _calibrated(3, net_seed=5, bits=bits)
            quantized = bits is not None
            a, b = (forward_embed(net, Tensor(side), quantized)[0].data.astype(np.float64)
                    for side in _sides(pairs))
            expected = np.sum(a * b, axis=1)
            assert np.array_equal(pair_scores(net, pairs).view(np.uint64),
                                  expected.view(np.uint64))

    def test_a_zero_norm_embedding_fails_the_request(self):
        # A 5-6-3 net calibrated at 4 bits on 8 rows embeds one of the 20
        # pairs of the default config's space to zero: the last linear's
        # epilogue raises, and so does the whole request. At 6 and 8 bits
        # every pair is scored.
        cfg = ExperimentConfig(input_dim=5, n_pairs=20)
        space = make_identity_space(cfg.n_identities, cfg.latent_dim, cfg.input_dim,
                                    cfg.noise_sigma, cfg.sub_seed("data"))
        pairs = build_pairs(space, cfg.n_pairs, cfg.sub_seed("pairs"))
        calibration = Tensor(np.random.default_rng(1).standard_normal((8, 5)).astype(np.float32))
        for bits in (4, 6, 8):
            net = build_embedding_net(5, (6,), 3, seed=0)
            net.set_quantization(bits)
            observers = [RangeObserver() for _ in range(net.activation_site_count)]
            observe_activations(net, calibration, observers)
            net.activation_params = [o.freeze(bits) for o in observers]
            if bits == 4:
                with pytest.raises(DomainError, match="^cannot normalize a zero-norm row$"):
                    verify(net, pairs)
            else:
                assert verify(net, pairs).n_genuine == 10


class TestRangeCorrelation:
    def test_net_against_itself_all_ones(self):
        net = _calibrated(1)
        rep = range_correlation(net, net)
        assert rep.iou == tuple([1.0] * net.activation_site_count)
        assert rep.mean_iou == 1.0

    def test_interval_iou_cases(self):
        assert interval_iou((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1 / 3)
        assert interval_iou((0.0, 1.0), (2.0, 3.0)) == 0.0
        assert interval_iou((1.0, 1.0), (1.0, 1.0)) == 1.0

    def test_architecture_mismatch(self):
        a = _calibrated(1)
        b = build_embedding_net(12, (8,), 8, seed=1)
        with pytest.raises(DimensionError):
            range_correlation(a, b)

    def test_uncalibrated_rejected(self):
        a = _calibrated(1)
        b = build_embedding_net(12, (16,), 8, seed=7)
        with pytest.raises(StateError):
            range_correlation(a, b)

    def test_csv_export_parses(self, tmp_path):
        import csv

        a = _calibrated(1)
        b = _calibrated(2)
        rep = range_correlation(a, b)
        path = tmp_path / "ranges.csv"
        write_range_csv(path, rep, source_a="real", source_b="synthetic")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * net_sites(a)
        assert {r["source"] for r in rows} == {"real", "synthetic"}
        for r in rows:
            assert float(r["lo"]) <= float(r["hi"])


def net_sites(net):
    return net.activation_site_count
