import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icnsim.congruity as congruity
from icnsim.cli import main
from icnsim.congruity import (
    Dataset,
    DatasetSpec,
    Hyperparams,
    N_FEATURES,
    ParameterSet,
    Sample,
    congruity_objective,
    filter_topk,
    forward_negative,
    forward_positive,
    general_error,
    grad_congruity,
    grad_personal,
    init_parameters,
    load_dataset,
    load_model,
    personal_error,
    predict_distance,
    regularizer,
    save_dataset,
    save_model,
    synthesize_dataset,
    train,
)
from icnsim.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParams,
    InvalidSpec,
    NonFiniteLoss,
)

from oracles import central_difference, dense_reconstruction


def zero_net(widths, d_max=None):
    ps = init_parameters(widths, d_max=d_max, rng=0)
    for w in ps.weights:
        w[:] = 0.0
    for b in ps.biases:
        b[:] = 0.0
    return ps


def feature_vec(fill=0.5):
    return np.full(N_FEATURES, fill)


def dataset(kind, rows):
    """rows: list of (features, labels-dict)."""
    return Dataset(kind, [Sample(f, dict(lab)) for f, lab in rows])


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestForwardPositive:
    def test_zero_weights_give_half(self):
        ps = zero_net((2, 1))
        _, y = forward_positive(ps, [0.3, 0.7])
        assert float(y[0]) == 0.5

    def test_zero_input_gives_half(self):
        ps = zero_net((2, 1))
        ps.weights[0][:] = 1.0
        _, y = forward_positive(ps, [0.0, 0.0])
        assert float(y[0]) == 0.5

    def test_two_layer_hand_evaluation(self):
        # sigmoid(sigmoid(w)) composed by hand
        w = 0.7
        ps = zero_net((2, 1, 1))
        ps.weights[0][0, 0] = w
        ps.weights[1][0, 0] = 1.0
        _, y = forward_positive(ps, [1.0, 0.0])
        assert float(y[0]) == pytest.approx(sigmoid(sigmoid(w)), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward_positive(zero_net((3, 1)), [0.1, 0.2])

    def test_pruned_neuron_outputs_zero(self):
        ps = zero_net((2, 2, 1))
        ps.weights[1][0, :] = 5.0
        ps.alive[1][:] = 0.0
        acts, _ = forward_positive(ps, [0.5, 0.5])
        assert np.all(acts[1] == 0.0)


class TestForwardNegative:
    def test_all_zero_parameters_reconstruct_half(self):
        ps = zero_net((3, 2, 1))
        x = forward_negative(ps, [0.8])
        assert np.all(x == 0.5)

    def test_single_neuron_transpose(self):
        c, y = 1.3, 0.6
        ps = zero_net((1, 1))
        ps.weights[0][0, 0] = c
        x = forward_negative(ps, [y])
        assert float(x[0]) == pytest.approx(sigmoid(c * y), abs=1e-15)

    def test_matches_dense_transpose_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            widths = (4, int(rng.integers(1, 5)), int(rng.integers(1, 4)), 1)
            ps = init_parameters(widths, rng=rng)
            y = rng.random(1)
            expected = dense_reconstruction(
                widths, ps.weights, ps.biases, ps.alive, y
            )
            assert np.allclose(forward_negative(ps, y), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward_negative(zero_net((2, 1)), [0.1, 0.2])


class TestRegularizer:
    def test_three_four_five(self):
        ps = zero_net((1, 1))
        ps.weights[0][0, 0] = 3.0
        ps.biases[1][0] = 4.0
        assert regularizer(ps, 2) == pytest.approx(5.0, abs=1e-15)

    def test_manhattan(self):
        ps = zero_net((2, 1))
        ps.weights[0][0] = [1.0, -2.0]
        ps.biases[1][0] = 3.0
        assert regularizer(ps, 1) == pytest.approx(6.0, abs=1e-15)

    def test_zero_vector(self):
        assert regularizer(zero_net((3, 2, 1)), 2) == 0.0

    def test_dead_neurons_excluded(self):
        ps = zero_net((1, 2, 1))
        ps.weights[0][:, 0] = [3.0, 7.0]
        ps.alive[1][1] = 0.0
        assert regularizer(ps, 2) == pytest.approx(3.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0.5, 2.0, 4.0, -2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_axioms(self, values, q, c):
        widths = (len(values), 1)
        ps = zero_net(widths)
        ps.weights[0][0] = values
        base = regularizer(ps, q)
        assert base >= 0.0
        ps2 = zero_net(widths)
        ps2.weights[0][0] = [c * v for v in values]
        assert regularizer(ps2, q) == pytest.approx(abs(c) * base, rel=1e-12)
        other = [v + 1.0 for v in values]
        ps3 = zero_net(widths)
        ps3.weights[0][0] = other
        ps4 = zero_net(widths)
        ps4.weights[0][0] = [a + b for a, b in zip(values, other)]
        assert regularizer(ps4, q) <= regularizer(ps, q) + regularizer(ps3, q) + 1e-9


class TestFilterTopk:
    def test_identical_vectors(self):
        for k in (1, 2, 3):
            assert filter_topk([1, 2, 3], [1, 2, 3], k) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert filter_topk([1, 0], [0, 1], 2) == 0.0

    def test_topk_restriction(self):
        # restriction to the two largest coordinates of the first vector
        assert filter_topk([1, 0, 2, 0], [1, 1, 2, 0], 2) == pytest.approx(1.0)
        assert filter_topk([1, 0, 2, 0], [0, 5, 2, 0], 2) == pytest.approx(
            2.0 / math.sqrt(5.0)  # cos((1,2),(0,2)) by hand
        )

    def test_zero_restriction_gives_zero(self):
        assert filter_topk([0.0, 0.0], [1.0, 1.0], 2) == 0.0

    def test_ties_take_lowest_index(self):
        # |coords| tie between indices 0 and 1; index 0 wins
        assert filter_topk([1, -1, 0], [1, 0, 0], 1) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            filter_topk([1, 2], [1, 2, 3], 1)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_self_similar(self, xs, ys, k):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        assert abs(filter_topk(xs, ys, k)) <= 1.0
        if any(v != 0 for v in xs):
            assert filter_topk(xs, xs, k) == pytest.approx(1.0)


class TestErrorFunctions:
    def test_zeroed_weights_zero_general(self):
        ds = dataset("general", [(feature_vec(0.2), {"distance": 0.9})])
        h = Hyperparams(lambda_g=0.0, lambda_q=0.0)
        assert general_error(zero_net((N_FEATURES, 1)), ds, h) == 0.0

    def test_perfect_predictor_and_reconstruction(self):
        # all-zero net emits 0.5 everywhere; 0.5-valued features and labels
        # have zero residuals, and the regularizer term is zero as well
        ds = dataset("general", [(feature_vec(0.5), {"distance": 0.5})])
        h = Hyperparams(lambda_g=2.0, lambda_q=3.0)
        assert general_error(zero_net((N_FEATURES, 1)), ds, h) == 0.0

    def test_single_labeled_residual(self):
        ds = dataset("general", [(feature_vec(0.3), {"distance": 0.0})])
        h = Hyperparams(lambda_g=1.0, lambda_q=0.0)
        assert general_error(zero_net((N_FEATURES, 1)), ds, h) == pytest.approx(0.25)

    def test_unlabeled_contributes_reconstruction_only(self):
        ds = dataset("general", [(feature_vec(0.5), {})])
        h = Hyperparams(lambda_g=5.0, lambda_q=1.0)
        ps = zero_net((N_FEATURES, 1))
        ps.biases[1][0] = 1.0  # non-zero regularizer, perfect reconstruction
        assert general_error(ps, ds, h) == 0.0
        ds2 = dataset("general", [(feature_vec(0.25), {})])
        expected = 1.0 * N_FEATURES * 0.25 ** 2  # R_q=1 times sum of (0.5-0.25)^2
        assert general_error(ps, ds2, h) == pytest.approx(expected)

    def test_personal_zero_weights(self):
        ds = dataset("personal", [(feature_vec(0.4), {"distance": 0.1})])
        h = Hyperparams(lambda_p=0.0, lambda_k=0.0)
        assert personal_error(zero_net((N_FEATURES, 1)), ds, h) == 0.0

    def test_personal_self_centroid_filter_is_one(self):
        feats = np.linspace(0.1, 0.9, N_FEATURES)
        ds = Dataset("personal", [Sample(feats, {})])
        assert filter_topk(feats, ds.centroid(), 5) == pytest.approx(1.0)

    def test_personal_prediction_residual(self):
        # bias chosen so the output is exactly 0.9; label 0.4; weight 2
        ps = zero_net((N_FEATURES, 1))
        ps.biases[1][0] = math.log(0.9 / 0.1)
        ds = dataset("personal", [(feature_vec(0.0), {"distance": 0.4})])
        h = Hyperparams(lambda_p=2.0, lambda_k=0.0)
        assert personal_error(ps, ds, h) == pytest.approx(2 * 0.25)

    def test_kind_and_empty_checks(self):
        h = Hyperparams()
        ps = zero_net((N_FEATURES, 1))
        with pytest.raises(InvalidParams):
            general_error(ps, dataset("personal", []), h)
        with pytest.raises(EmptyDataset):
            general_error(ps, dataset("general", []), h)
        with pytest.raises(EmptyDataset):
            personal_error(ps, dataset("personal", []), h)


class TestCongruityObjective:
    def _setup(self):
        rng = np.random.default_rng(4)
        dp = dataset(
            "personal",
            [(rng.random(N_FEATURES), {"distance": 0.2}) for _ in range(4)],
        )
        dg = dataset(
            "general",
            [(rng.random(N_FEATURES), {"distance": 0.7}) for _ in range(5)],
        )
        ps = init_parameters((N_FEATURES, 3, 1), rng=rng)
        return ps, dp, dg

    def test_alpha_boundaries_exact(self):
        ps, dp, dg = self._setup()
        h0 = Hyperparams(alpha=0.0, lambda_q=0.2, lambda_k=0.3)
        h1 = Hyperparams(alpha=1.0, lambda_q=0.2, lambda_k=0.3)
        assert congruity_objective(ps, dp, dg, h0) == general_error(ps, dg, h0)
        assert congruity_objective(ps, dp, dg, h1) == personal_error(ps, dp, h1)

    def test_midpoint_blend(self):
        ps, dp, dg = self._setup()
        h = Hyperparams(alpha=0.5, lambda_q=0.2, lambda_k=0.3)
        eg = general_error(ps, dg, h)
        ep = personal_error(ps, dp, h)
        assert congruity_objective(ps, dp, dg, h) == pytest.approx(
            0.5 * eg + 0.5 * ep, rel=1e-15
        )

    def test_convex_combination_bounds(self):
        ps, dp, dg = self._setup()
        for alpha in (0.1, 0.3, 0.6, 0.9):
            h = Hyperparams(alpha=alpha, lambda_q=0.4, lambda_k=0.2)
            e = congruity_objective(ps, dp, dg, h)
            eg = general_error(ps, dg, h)
            ep = personal_error(ps, dp, h)
            assert min(eg, ep) - 1e-12 <= e <= max(eg, ep) + 1e-12
            assert e >= 0.0

    def test_lambda_scaling_is_exact_for_powers_of_two(self):
        ps, dp, dg = self._setup()
        h = Hyperparams(lambda_g=0.75, lambda_q=0.25)
        scaled = Hyperparams(lambda_g=2.0 * 0.75, lambda_q=2.0 * 0.25)
        assert general_error(ps, dg, scaled) == 2.0 * general_error(ps, dg, h)
        hp = Hyperparams(lambda_p=0.5, lambda_k=1.5)
        hp2 = Hyperparams(lambda_p=0.25, lambda_k=0.75)
        assert personal_error(ps, dp, hp2) == 0.5 * personal_error(ps, dp, hp)

    def test_argmin_invariant_under_lambda_scaling(self):
        # single trainable bias; grid argmin of the general error
        ds = dataset("general", [(feature_vec(0.5), {"distance": 0.8})])
        grid = np.linspace(-3, 3, 121)

        def sweep(h):
            losses = []
            for b in grid:
                ps = zero_net((N_FEATURES, 1))
                ps.biases[1][0] = b
                losses.append(general_error(ps, ds, h))
            return int(np.argmin(losses))

        assert sweep(Hyperparams(lambda_g=1.0, lambda_q=0.3)) == sweep(
            Hyperparams(lambda_g=4.0, lambda_q=1.2)
        )


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(19)
        dp = dataset(
            "personal",
            [(rng.random(N_FEATURES), {"distance": float(rng.random())} if i % 2 else {})
             for i in range(5)],
        )
        dg = dataset(
            "general",
            [(rng.random(N_FEATURES), {"distance": float(rng.random())} if i % 3 else {})
             for i in range(6)],
        )
        h = Hyperparams(alpha=0.35, lambda_g=1.1, lambda_q=0.4, lambda_p=0.8,
                        lambda_k=0.6, q=2, k=4)
        ps = init_parameters((N_FEATURES, 4, 1), rng=rng)
        centroid = dp.centroid()
        dW, db = grad_congruity(ps, dp, dg, h, centroid=centroid)
        fn = lambda: congruity_objective(ps, dp, dg, h, centroid=centroid)
        for _ in range(40):
            if rng.random() < 0.5:
                l = int(rng.integers(0, len(ps.weights)))
                r = int(rng.integers(0, ps.weights[l].shape[0]))
                c = int(rng.integers(0, ps.weights[l].shape[1]))
                fd = central_difference(
                    fn, lambda: ps.weights[l][r, c],
                    lambda v: ps.weights[l].__setitem__((r, c), v),
                )
                an = dW[l][r, c]
            else:
                l = int(rng.integers(0, len(ps.biases)))
                j = int(rng.integers(0, len(ps.biases[l])))
                fd = central_difference(
                    fn, lambda: ps.biases[l][j],
                    lambda v: ps.biases[l].__setitem__(j, v),
                )
                an = db[l][j]
            assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-8)


class TestTrain:
    def toy_data(self, n=60, seed=11):
        rng = np.random.default_rng(seed)
        rows = [(f, {"distance": float(f.mean())}) for f in rng.random((n, N_FEATURES))]
        return dataset("personal", rows[: n // 2]), dataset("general", rows[n // 2:])

    def test_alpha_zero_never_prunes(self):
        dp, dg = self.toy_data()
        h = Hyperparams(alpha=0.0, learning_rate=0.05, max_epochs=2,
                        prune_probability=1.0, batch_size=16, rng_seed=3)
        result = train(dp, dg, h, (N_FEATURES, 4, 1), d_max=20)
        assert result.pruned_count == 0

    def test_loss_decreases_on_toy_task(self):
        dp, dg = self.toy_data()
        h = Hyperparams(alpha=0.5, learning_rate=0.1, max_epochs=200,
                        batch_size=32, rng_seed=1, tolerance=1e-15)
        result = train(dp, dg, h, (N_FEATURES, 8, 1), d_max=500)
        assert result.e_star <= 0.5 * result.e_initial

    def test_determinism(self):
        dp, dg = self.toy_data()
        h = Hyperparams(alpha=0.6, learning_rate=0.05, max_epochs=15,
                        batch_size=16, rng_seed=42, prune_probability=0.7)
        a = train(dp, dg, h, (N_FEATURES, 5, 1), d_max=40)
        b = train(dp, dg, h, (N_FEATURES, 5, 1), d_max=40)
        for wa, wb in zip(a.theta_star.weights, b.theta_star.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.theta_star.biases, b.theta_star.biases):
            assert np.array_equal(ba, bb)
        assert a.e_star == b.e_star

    def test_pruned_parameters_stay_zero(self):
        dp, dg = self.toy_data()
        h = Hyperparams(alpha=1.0, learning_rate=0.05, max_epochs=10,
                        batch_size=16, rng_seed=5, prune_probability=1.0)
        result = train(dp, dg, h, (N_FEATURES, 4, 1), d_max=30)
        ps = result.theta_star
        assert result.pruned_count > 0
        for l, frozen in enumerate(ps.w_frozen):
            assert np.all(ps.weights[l][frozen] == 0.0)
        for l, frozen in enumerate(ps.b_frozen):
            assert np.all(ps.biases[l][frozen] == 0.0)

    def test_predictions_cover_both_datasets(self):
        dp, dg = self.toy_data()
        h = Hyperparams(max_epochs=3, learning_rate=0.05, batch_size=16)
        result = train(dp, dg, h, (N_FEATURES, 4, 1), d_max=200)
        assert len(result.predictions) == len(dp) + len(dg)

    def test_empty_dataset_rejected(self):
        dp, dg = self.toy_data()
        h = Hyperparams()
        with pytest.raises(EmptyDataset):
            train(Dataset("personal", []), dg, h, (N_FEATURES, 4, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_raises(self):
        dp, dg = self.toy_data(n=8)
        dg.samples[0].labels["distance"] = float("inf")
        h = Hyperparams(max_epochs=3, learning_rate=0.05, batch_size=8)
        with pytest.raises(NonFiniteLoss):
            train(dp, dg, h, (N_FEATURES, 4, 1), d_max=200)

    def test_arch_validation(self):
        dp, dg = self.toy_data(n=8)
        with pytest.raises(DimensionMismatch):
            train(dp, dg, Hyperparams(), (5, 4, 1))
        with pytest.raises(DimensionMismatch):
            train(dp, dg, Hyperparams(), (N_FEATURES, 4, 2))

    def test_hyperparam_validation(self):
        with pytest.raises(InvalidParams):
            Hyperparams(alpha=1.5).validate()
        with pytest.raises(InvalidParams):
            Hyperparams(learning_rate=0.0).validate()
        with pytest.raises(InvalidParams):
            Hyperparams(q=0).validate()


class TestLoopInvariantWork:
    """Training computes the labels and top-k filters once per dataset and
    reuses known errors; none of that may change a single output bit."""

    GOLDEN_CONFIG = (
        "seeds = 3\nmax_epochs = 15\nn_personal = 40\nn_general = 60\n"
        "lambda_q = 0.3\nlambda_k = 0.7\n"
    )
    # produced by the implementation that recomputed everything on every call
    GOLDEN_SHA256 = {
        "model.txt": "d8fe69ad50ddbd34e18c8a5406ccf585277ac782603a93055f08062f0e754c40",
        "loss.csv": "a348a7ee4e46523a6f39ac3532449173a5a8a60c9e3f8c7d81b89e95edc68294",
    }

    def test_train_outputs_match_golden_hashes(self, tmp_path):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(self.GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name, digest in self.GOLDEN_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("max_epochs", [1, 8])
    def test_filter_runs_twice_per_personal_sample(self, monkeypatch, max_epochs):
        calls = []
        original = congruity.filter_topk

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(congruity, "filter_topk", counting)
        dp, dg = synthesize_dataset(DatasetSpec(n_personal=40, n_general=60), 5)
        h = Hyperparams(lambda_k=0.5, max_epochs=max_epochs, tolerance=1e-15,
                        batch_size=16, rng_seed=2)
        train(dp, dg, h, (N_FEATURES, 4, 1))
        # once for the whole personal set, once for its batches
        assert len(calls) == 2 * len(dp)

    def test_used_dataset_gives_what_a_fresh_one_gives(self):
        dp, _ = synthesize_dataset(DatasetSpec(n_personal=12, n_general=1), 8)
        ps = init_parameters((N_FEATURES, 5, 1), rng=3)
        centroid = dp.centroid()
        # fill the memos under another centroid, k and label kind first
        warm = Hyperparams(lambda_k=0.6, k=2)
        personal_error(ps, dp, warm, centroid=np.full(N_FEATURES, 0.3))
        grad_personal(ps, dp, warm, "classification")
        for k in (2, 4):
            h = Hyperparams(lambda_k=0.6, k=k)
            for label_kind in ("distance", "classification"):
                fresh = lambda: Dataset("personal", list(dp.samples))
                assert (personal_error(ps, dp, h, label_kind, centroid)
                        == personal_error(ps, fresh(), h, label_kind, centroid))
                used = grad_personal(ps, dp, h, label_kind, centroid)
                new = grad_personal(ps, fresh(), h, label_kind, centroid)
                for a, b in zip(used[0] + used[1], new[0] + new[1]):
                    assert np.array_equal(a, b)


class TestZeroWeightTerms:
    """A reconstruction term whose weight is zero is not computed; skipping
    it must give what the full formula gives."""

    # the default lambda_q = lambda_k = 0; recorded with the full formula
    GOLDEN_CONFIG = "seeds = 3\nmax_epochs = 15\nn_personal = 40\nn_general = 60\n"
    GOLDEN_SHA256 = {
        "model.txt": "cc9fe7545f3265a8be6904979afe9512f97074f3ab8e9027cf6e708c1bb059f2",
        "loss.csv": "262ada416bc7720ef70c45c07ce983f256790106e9b73054fa23cfefba2f782c",
    }

    def test_default_lambda_train_matches_golden_hashes(self, tmp_path):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(self.GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name, digest in self.GOLDEN_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    # The embb report does not depend on the learned weights, so the trained
    # model and its loss history are pinned as well.
    RUN_CONFIG = (
        "scenario = embb\nsweep_values = 8\nseeds = 2\nn_devices = 128\n"
        "request_count = 128\nuse_learner = true\nmax_epochs = 20\n"
    )
    RUN_SHA256 = {
        "report.csv": "30f733cde5d614446a955ccd253fcbdb56d553c03b147d3baa639ea2a0cc8e49",
        "model": "6cedb16b0254c2a2591a56a4c5452a7b99bd649c872cfbf304da65cffd7b6949",
        "loss_history": "9645202d492ecdc8a6ef2720c77c9024fd9afe423f6b19573d433ac6ed67fc1f",
    }

    def test_learner_run_matches_golden_hashes(self, tmp_path, monkeypatch):
        trained = []
        original = congruity.train

        def recording(dp, dg, h, arch, *args, **kwargs):
            result = original(dp, dg, h, arch, *args, **kwargs)
            trained.append((result, h))
            return result

        monkeypatch.setattr(congruity, "train", recording)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        [(result, h)] = trained
        digests = {
            "report.csv": hashlib.sha256((out / "report.csv").read_bytes()).hexdigest(),
            "model": hashlib.sha256(
                congruity.model_to_text(result.theta_star, h).encode()
            ).hexdigest(),
            "loss_history": hashlib.sha256(repr(result.loss_history).encode()).hexdigest(),
        }
        assert digests == self.RUN_SHA256

    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 5), max_size=2),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        frozen_share=st.sampled_from([0.0, 0.3, 1.0]),
        dead_share=st.sampled_from([0.0, 0.5]),
        lambda_g=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        lambda_p=st.sampled_from([0.0, 0.25, 2.0]),
        lambda_q=st.sampled_from([0.0, 0.3]),
        lambda_k=st.sampled_from([0.0, 0.3]),
        q=st.sampled_from([1, 2, 7]),
    )
    def test_skipped_terms_equal_the_full_formula(
        self, hidden, n, seed, frozen_share, dead_share, lambda_g, lambda_p,
        lambda_q, lambda_k, q,
    ):
        rng = np.random.default_rng(seed)
        ps = init_parameters((N_FEATURES, *hidden, 1), rng=rng)
        # prune a share of the coordinates, and every coordinate of a share
        # of the neurons, so that some neurons die
        for layer in range(ps.L):
            dead = {j for j in range(ps.widths[layer]) if rng.random() < dead_share}
            for coord in ps.layer_coords(layer):
                if coord[2] in dead or rng.random() < frozen_share:
                    ps.set_param(coord, 0.0)
                    ps.freeze(coord)
        X = rng.random((n, N_FEATURES))
        vals = rng.random(n)
        mask = (rng.random(n) < 0.7).astype(np.float64)

        full = {}
        for w in (lambda_g, lambda_p):
            skipped = congruity._backprop(ps, X, vals, mask, w, None)
            full[w] = congruity._backprop(ps, X, vals, mask, w, np.zeros(n))
            assert skipped[2] is None
            for a, b in zip(skipped[0] + skipped[1], full[w][0] + full[w][1]):
                assert np.array_equal(a, b)

        rows = [(X[i], {"distance": vals[i]} if mask[i] else {}) for i in range(n)]
        dg, dp = dataset("general", rows), dataset("personal", rows)
        h = Hyperparams(lambda_g=lambda_g, lambda_p=lambda_p, lambda_q=lambda_q,
                        lambda_k=lambda_k, q=q, k=3)
        pred_sum, recon_sq = congruity._loss_parts(ps, X, vals, mask)
        reg = regularizer(ps, q)
        assert general_error(ps, dg, h) == (
            lambda_g * pred_sum + lambda_q * reg * float(recon_sq.sum())
        )
        filters = dp.topk_filters(dp.centroid(), h.k)
        assert personal_error(ps, dp, h) == (
            lambda_p * pred_sum + lambda_k * float((filters * recon_sq).sum())
        )

        if lambda_q == 0.0:
            rW, rb, _ = congruity._regularizer_grads(ps, q)
            gW, gb = congruity.grad_general(ps, dg, h)
            for g, f, r in zip(gW + gb, full[lambda_g][0] + full[lambda_g][1], rW + rb):
                assert np.array_equal(g, f + 0.0 * r)
        if lambda_k == 0.0:
            pW, pb = grad_personal(ps, dp, h)
            for p, f in zip(pW + pb, full[lambda_p][0] + full[lambda_p][1]):
                assert np.array_equal(p, f)

    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 500.0, -500.0, 745.2, -745.2, 1e-320]),
        ),
        min_size=1, max_size=12,
    ))
    def test_in_place_sigmoid_is_the_clipped_formula(self, values):
        z = np.array(values)
        want = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
        got = congruity._sigmoid(z.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_q_norm_gradient_overflow_raises_non_finite_loss(self):
        ps = zero_net((N_FEATURES, 3, 1))
        ps.weights[0][1, 2] = 0.7  # the norm is about 0.7, and 0.7 ** -1999 overflows
        with pytest.raises(NonFiniteLoss, match="q-norm gradient"):
            congruity._regularizer_grads(ps, 2000)

    @pytest.mark.parametrize("q_norm", [300, 2000])
    def test_large_q_norm_exits_with_a_sim_error(self, q_norm, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"seeds = 3\nmax_epochs = 50\nlambda_q = 0.3\nq_norm = {q_norm}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "q-norm gradient overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Both used to fail although the term at fault had weight zero: the q-norm
    # gradient overflowed, and 0.0 * inf made the objective nan.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("extra", ["q_norm = 2000", "learning_rate = 1e300"])
    def test_zero_weighted_overflow_does_not_stop_training(self, extra, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(f"seeds = 3\nmax_epochs = 50\n{extra}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        losses = [float(ln.split(",")[1]) for ln in (out / "loss.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(x) for x in losses)


class TestPredictDistance:
    def test_untrained_zero_net_is_half(self):
        ps = zero_net((N_FEATURES, 1))
        assert predict_distance(ps, feature_vec(0.1)) == 0.5
        assert predict_distance(ps, feature_vec(0.9), scale=2000.0) == 1000.0

    def test_heldout_relative_error_under_20_percent(self):
        rng = np.random.default_rng(23)
        feats = rng.random((260, N_FEATURES))
        truth = feats.mean(axis=1)  # synthetic ground-truth generator
        rows = [(f, {"distance": float(t)}) for f, t in zip(feats[:200], truth)]
        dp = dataset("personal", rows[:100])
        dg = dataset("general", rows[100:])
        h = Hyperparams(alpha=0.5, learning_rate=0.1, max_epochs=300,
                        batch_size=32, rng_seed=2, tolerance=1e-15)
        result = train(dp, dg, h, (N_FEATURES, 8, 1), d_max=500)
        held_x, held_y = feats[200:], truth[200:]
        errors = [
            abs(predict_distance(result.theta_star, x) - t) / t
            for x, t in zip(held_x, held_y)
        ]
        assert float(np.mean(errors)) <= 0.20


class TestSynthesizeDataset:
    def test_fully_labeled_when_coverage_is_one(self):
        spec = DatasetSpec(n_personal=10, n_general=1000, label_coverage=1.0)
        _, dg = synthesize_dataset(spec, 1)
        assert all("distance" in s.labels for s in dg.samples)

    def test_class_proportions_within_half_percent(self):
        spec = DatasetSpec(
            n_personal=10, n_general=4000,
            class_proportions=(0.947, 0.0343, 0.0183),
        )
        _, dg = synthesize_dataset(spec, 3)
        values = [s.labels["classification"] for s in dg.samples]
        total = len(values)
        shares = [values.count(v) / total for v in (0.0, 0.5, 1.0)]
        for share, want in zip(shares, (0.947, 0.0343, 0.0183)):
            assert abs(share - want / sum((0.947, 0.0343, 0.0183))) <= 0.005

    def test_determinism(self):
        spec = DatasetSpec(n_personal=50, n_general=80, conflict_fraction=0.1)
        a = synthesize_dataset(spec, 9)
        b = synthesize_dataset(spec, 9)
        for ds_a, ds_b in zip(a, b):
            for sa, sb in zip(ds_a.samples, ds_b.samples):
                assert np.array_equal(sa.features, sb.features)
                assert sa.labels == sb.labels

    def test_conflicts_duplicate_features_with_different_labels(self):
        spec = DatasetSpec(n_personal=40, n_general=40, conflict_fraction=0.3)
        dp, _ = synthesize_dataset(spec, 5)
        feats = [tuple(s.features) for s in dp.samples]
        dupes = [f for f in set(feats) if feats.count(f) > 1]
        assert dupes
        conflicting = 0
        for f in dupes:
            labels = {s.labels.get("distance") for s in dp.samples if tuple(s.features) == f}
            if len(labels) > 1:
                conflicting += 1
        assert conflicting > 0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            DatasetSpec(n_personal=0, n_general=5).validate()
        with pytest.raises(InvalidSpec):
            DatasetSpec(n_personal=5, n_general=5, label_coverage=1.5).validate()
        with pytest.raises(InvalidSpec):
            DatasetSpec(n_personal=5, n_general=5, conflict_fraction=1.0).validate()


class TestModelAndDatasetFiles:
    def test_model_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(77)
        ps = init_parameters((N_FEATURES, 6, 1), rng=rng)
        ps.alive[1][2] = 0.0
        h = Hyperparams(alpha=0.37, lambda_q=0.125, rng_seed=99)
        path = tmp_path / "model.txt"
        save_model(ps, h, path)
        ps2, h2 = load_model(path)
        assert ps2.widths == ps.widths
        assert h2 == h
        for a, b in zip(ps.weights, ps2.weights):
            assert np.array_equal(a, b)
        for a, b in zip(ps.biases, ps2.biases):
            assert np.array_equal(a, b)
        for a, b in zip(ps.alive, ps2.alive):
            assert np.array_equal(a, b)
        save_model(ps2, h2, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == path.read_text()

    def test_dataset_round_trip(self, tmp_path):
        spec = DatasetSpec(n_personal=20, n_general=30, label_coverage=0.5)
        dp, dg = synthesize_dataset(spec, 2)
        for ds, name in ((dp, "p.csv"), (dg, "g.csv")):
            path = tmp_path / name
            save_dataset(ds, path)
            again = load_dataset(path, ds.kind)
            assert len(again) == len(ds)
            for a, b in zip(ds.samples, again.samples):
                assert np.array_equal(a.features, b.features)
                assert a.labels == b.labels
