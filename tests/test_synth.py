"""Synthetic data source: determinism, separability, batch validation."""

import numpy as np
import pytest

from quantdistill.errors import DomainError
from quantdistill.synth import (
    Batch,
    batch_stream,
    derive_seed,
    make_identity_space,
    sample_for_identities,
    sample_labeled,
    sample_unlabeled,
)
from quantdistill.tensor_core import Tensor


def _space(seed=0, **kw):
    args = dict(n_identities=20, latent_dim=8, input_dim=12, noise_sigma=0.15, seed=seed)
    args.update(kw)
    return make_identity_space(**args)


class TestMakeIdentitySpace:
    def test_same_seed_identical(self):
        a, b = _space(5), _space(5)
        assert np.array_equal(a.prototypes, b.prototypes)
        assert np.array_equal(a.mixing, b.mixing)

    def test_prototypes_unit_norm(self):
        s = _space(n_identities=2, latent_dim=8)
        norms = np.linalg.norm(s.prototypes.astype(np.float64), axis=1)
        assert s.prototypes.shape == (2, 8)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_different_seeds_differ(self):
        assert not np.array_equal(_space(1).prototypes, _space(2).prototypes)

    def test_invalid_dims(self):
        with pytest.raises(DomainError):
            make_identity_space(1, 8, 12, 0.1, 0)
        with pytest.raises(DomainError):
            make_identity_space(5, 1, 12, 0.1, 0)
        with pytest.raises(DomainError):
            make_identity_space(5, 8, 12, -0.1, 0)


class TestSampling:
    def test_unlabeled_shape_and_no_labels(self):
        b = sample_unlabeled(_space(), 64, seed=3)
        assert b.inputs.shape == (64, 12)
        assert b.labels is None

    def test_deterministic(self):
        s = _space()
        a = sample_unlabeled(s, 16, seed=9)
        b = sample_unlabeled(s, 16, seed=9)
        assert np.array_equal(a.inputs.data, b.inputs.data)

    def test_zero_noise_collapses_identities(self):
        s = _space(noise_sigma=0.0)
        b = sample_labeled(s, 200, seed=1)
        inputs = b.inputs.data
        labels = np.array(b.labels)
        for lab in set(b.labels):
            rows = inputs[labels == lab]
            assert np.all(rows == rows[0])

    def test_labels_in_range(self):
        b = sample_labeled(_space(), 100, seed=2)
        assert all(0 <= l < 20 for l in b.labels)

    def test_labeled_single_row(self):
        b = sample_labeled(_space(), 1, seed=4)
        assert b.inputs.shape == (1, 12) and len(b.labels) == 1

    def test_same_label_latents_closer_on_average(self):
        # statistical oracle over many pairs: same-identity samples are
        # closer than different-identity samples in input space
        s = _space(n_identities=10)
        b = sample_labeled(s, 400, seed=7)
        x = b.inputs.data.astype(np.float64)
        labels = np.array(b.labels)
        rng = np.random.default_rng(0)
        same_d, diff_d = [], []
        for _ in range(10_000):
            i, j = rng.integers(0, 400, size=2)
            if i == j:
                continue
            d = float(np.linalg.norm(x[i] - x[j]))
            (same_d if labels[i] == labels[j] else diff_d).append(d)
        assert np.mean(same_d) < np.mean(diff_d)

    def test_inputs_bounded_by_tanh(self):
        b = sample_unlabeled(_space(), 10_000, seed=11)
        assert np.all(b.inputs.data > -1.0) and np.all(b.inputs.data < 1.0)
        assert np.all(np.isfinite(b.inputs.data))

    def test_sample_for_identities_range_check(self):
        with pytest.raises(DomainError):
            sample_for_identities(_space(), [25], seed=0)

    def test_desk_scale_defaults_separable(self):
        # precondition for a meaningful teacher: genuine pairs dominate
        # imposter pairs in raw-input cosine (rank AUC > 0.95)
        from quantdistill.bench_eval import build_pairs

        space = make_identity_space(200, 16, 64, 0.15, seed=123)
        pairs = build_pairs(space, 2000, seed=7)
        a, b = np.split(pairs.rows.data.astype(np.float64), 2)
        cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        g, i = cos[pairs.same], cos[~pairs.same]
        ranks = np.argsort(np.argsort(np.concatenate([g, i]))) + 1
        auc = (ranks[: len(g)].sum() - len(g) * (len(g) + 1) / 2) / (len(g) * len(i))
        assert auc > 0.95


class TestBatchStream:
    def test_stream_is_reproducible(self):
        s = _space()
        a = [next(batch_stream(s, 8, seed=5)) for _ in range(1)][0]
        b = next(batch_stream(s, 8, seed=5))
        assert np.array_equal(a.inputs.data, b.inputs.data)

    def test_labeled_flag(self):
        s = _space()
        assert next(batch_stream(s, 4, 0, labeled=True)).labels is not None
        assert next(batch_stream(s, 4, 0, labeled=False)).labels is None


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(42, "teacher") == derive_seed(42, "teacher")
        assert derive_seed(42, "teacher") != derive_seed(42, "data")
        assert derive_seed(42, "teacher") != derive_seed(43, "teacher")


class TestBatchFile:
    def test_labels_length_validated(self):
        with pytest.raises(DomainError):
            Batch(inputs=Tensor(np.zeros((3, 2), dtype=np.float32)), labels=(1,))
