import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icnsim.congruity as congruity
from icnsim import cli
from icnsim.cli import main
from icnsim.congruity import (
    Dataset,
    DatasetSpec,
    Hyperparams,
    N_FEATURES,
    ParameterSet,
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
    model_to_text,
    personal_error,
    predict_distance,
    regularizer,
    save_dataset,
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
from regen_goldens import GOLDENS


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
    kinds = {name for _, lab in rows for name in lab}
    labels = {name: ([lab.get(name, 0.0) for _, lab in rows], [name in lab for _, lab in rows])
              for name in kinds}
    return Dataset(kind, [f for f, _ in rows], labels)


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
        ds = dataset("personal", [(feats, {})])
        assert filter_topk(feats, ds.centroid(), 5) == pytest.approx(1.0)

    def test_personal_prediction_residual(self):
        # bias chosen so the output is exactly 0.9; label 0.4; weight 2
        ps = zero_net((N_FEATURES, 1))
        ps.biases[1][0] = math.log(0.9 / 0.1)
        ds = dataset("personal", [(feature_vec(0.0), {"distance": 0.4})])
        h = Hyperparams(lambda_p=2.0, lambda_k=0.0)
        assert personal_error(ps, ds, h) == pytest.approx(2 * 0.25)

    @pytest.mark.parametrize("name, kind", [
        ("general_error", "general"), ("grad_general", "general"),
        ("personal_error", "personal"), ("grad_personal", "personal"),
    ])
    def test_each_public_side_checks_its_dataset_kind(self, name, kind):
        other = "personal" if kind == "general" else "general"
        ps = zero_net((N_FEATURES, 1))
        with pytest.raises(InvalidParams, match=f"^{name} needs a {kind} dataset$"):
            getattr(congruity, name)(ps, dataset(other, [(feature_vec(0.5), {})]), Hyperparams())

    @pytest.mark.parametrize("name, first", [
        ("congruity_objective", "personal_error"), ("grad_congruity", "grad_personal"),
    ])
    def test_blends_reject_swapped_datasets(self, name, first):
        ps = zero_net((N_FEATURES, 1))
        dp = dataset("personal", [(feature_vec(0.5), {})])
        dg = dataset("general", [(feature_vec(0.5), {})])
        with pytest.raises(InvalidParams, match=f"^{first} needs a personal dataset$"):
            getattr(congruity, name)(ps, dg, dp, Hyperparams())

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
        dW, db = ps.views(grad_congruity(ps, dp, dg, h, centroid=centroid))
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

    def test_empty_dataset_rejected(self):
        dp, dg = self.toy_data()
        h = Hyperparams()
        with pytest.raises(EmptyDataset):
            train(Dataset("personal", []), dg, h, (N_FEATURES, 4, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_raises(self):
        # a finite label whose squared error overflows
        dp, dg = self.toy_data(n=8)
        vals, mask = dg.label_arrays("distance")
        dg = Dataset("general", dg.features, {"distance": (np.r_[1e300, vals[1:]], mask)})
        h = Hyperparams(max_epochs=3, learning_rate=0.05, batch_size=8)
        with pytest.raises(NonFiniteLoss):
            train(dp, dg, h, (N_FEATURES, 4, 1), d_max=200)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_label_is_rejected_naming_the_sample(self, value):
        dp, dg = self.toy_data(n=8)
        vals, mask = dg.label_arrays("distance")
        with pytest.raises(InvalidParams, match="^sample 2: label 'distance' must be finite$"):
            Dataset("general", dg.features, {"distance": (np.r_[vals[:2], value, vals[3:]], mask)})

    def test_non_finite_value_of_an_unlabeled_sample_is_ignored(self):
        dp, dg = self.toy_data(n=8)
        vals, mask = dg.label_arrays("distance")
        ds = Dataset("general", dg.features,
                     {"distance": (np.r_[np.inf, vals[1:]], np.r_[0.0, mask[1:]])})
        assert ds.label_arrays("distance")[0][0] == 0.0

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

    @pytest.mark.parametrize("name", ["alpha", "lambda_g", "lambda_q", "lambda_p", "lambda_k",
                                      "learning_rate", "prune_probability", "tolerance"])
    def test_non_finite_hyperparams_are_invalid(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams, match=f"^{name} must be finite$"):
                Hyperparams(**{name: value}).validate()


class TestLoopInvariantWork:
    """Training computes the labels and top-k filters once per dataset and
    reuses known errors; none of that may change a single output bit (the
    train-recon lines of tests/goldens/manifest.txt pin them)."""

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
        # fill the memos under another centroid and k first
        warm = Hyperparams(lambda_k=0.6, k=2)
        personal_error(ps, dp, warm, centroid=np.full(N_FEATURES, 0.3))
        grad_personal(ps, dp, warm)
        for k in (2, 4):
            h = Hyperparams(lambda_k=0.6, k=k)
            fresh = lambda: Dataset("personal", dp.features, dp.labels)
            assert (personal_error(ps, dp, h, centroid)
                    == personal_error(ps, fresh(), h, centroid))
            used = grad_personal(ps, dp, h, centroid)
            new = grad_personal(ps, fresh(), h, centroid)
            assert np.array_equal(used, new)


class TestZeroWeightTerms:
    """A reconstruction term whose weight is zero is not computed; skipping
    it must give what the full formula gives (the train-default and
    learner-128 lines of tests/goldens/manifest.txt pin the outputs)."""

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
        ps = pruned_net(rng, hidden, frozen_share, dead_share)
        X = rng.random((n, N_FEATURES))
        vals = rng.random(n)
        mask = (rng.random(n) < 0.7).astype(np.float64)

        full = {}
        for w in (lambda_g, lambda_p):
            skipped = congruity._backprop(ps, X, vals, mask, 2.0 * w, None)
            full[w] = congruity._backprop(ps, X, vals, mask, 2.0 * w, np.zeros(n))[0]
            assert skipped[1] is None
            assert np.array_equal(skipped[0], full[w])

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
            reg_grad, _ = congruity._regularizer_grads(ps, q)
            assert np.array_equal(congruity.grad_general(ps, dg, h),
                                  full[lambda_g] + 0.0 * reg_grad)
        if lambda_k == 0.0:
            assert np.array_equal(grad_personal(ps, dp, h), full[lambda_p])

    @given(st.lists(
        st.tuples(*[st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 500.0, -500.0, 745.2, -745.2, 1e-320]),
        )] * 2),
        min_size=1, max_size=12,
    ))
    def test_in_place_sigmoid_is_the_clipped_formula(self, values):
        z, b = np.array(values).T
        want = 1.0 / (1.0 + np.exp(-np.clip(z + b, -500.0, 500.0)))
        got = congruity._sigmoid(z.copy(), b)
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


def pruned_net(rng, hidden, frozen_share, dead_share):
    """A net with a share of its coordinates pruned and every coordinate of
    a share of its neurons pruned, so that some neurons die."""
    ps = init_parameters((N_FEATURES, *hidden, 1), rng=rng)
    for layer in range(ps.L):
        dead = {j for j in range(ps.widths[layer]) if rng.random() < dead_share}
        for i in ps.layer_coords(layer):
            if ps.neuron(i)[1] in dead or rng.random() < frozen_share:
                ps.prune(i)
    return ps


class TestTrainingPassesOnce:
    """Training reuses each prune step's forward pass, skips prune steps that
    cannot move a parameter, and skips the masks that mask nothing; none of
    that may change a single output bit (the train-lambda-*, train-prune-*,
    train-single-*, train-two-*, learner and learner-smallest lines of
    tests/goldens/manifest.txt pin them)."""

    def test_pruning_everything_leaves_one_hidden_neuron_dead(self):
        """The manifest's "prune everything" training (tests/goldens) ends
        with one hidden neuron dead, so descent keeps masks."""
        config = os.path.join(GOLDENS, "train-prune-everything.cfg")
        model = cli.outputs(["train", "--config", config])[1]["model.txt"]
        alive = [line.split()[3] for line in model.splitlines() if line.startswith("w 1 ")]
        assert alive.count("0") == 1

    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 5), max_size=2),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        frozen_share=st.sampled_from([0.0, 0.3, 1.0]),
        dead_share=st.sampled_from([0.0, 0.5]),
        reconstruct=st.booleans(),
    )
    def test_passed_in_passes_give_the_same_gradients(
        self, hidden, n, seed, frozen_share, dead_share, reconstruct,
    ):
        rng = np.random.default_rng(seed)
        ps = pruned_net(rng, hidden, frozen_share, dead_share)
        X = rng.random((n, N_FEATURES))
        vals = rng.random(n)
        mask = (rng.random(n) < 0.7).astype(np.float64)
        coeff = rng.random(n) if reconstruct else None
        alive, _ = congruity._live_masks(ps)

        plain = congruity._backprop(ps, X, vals, mask, 1.5, coeff)
        for kwargs in ({"acts": congruity._forward_batch(ps, X)}, {"alive": alive},
                       {"acts": congruity._forward_batch(ps, X, alive)}):
            got = congruity._backprop(ps, X, vals, mask, 1.5, coeff, **kwargs)
            assert got[0].tobytes() == plain[0].tobytes()
            assert (got[1] is None) == (plain[1] is None)
            if plain[1] is not None:
                assert got[1].tobytes() == plain[1].tobytes()

    @pytest.mark.parametrize("lambda_k", [0.0, 0.4])
    def test_layer_zero_is_swept_only_with_a_reconstruction_term(self, lambda_k,
                                                                  monkeypatch):
        """With lambda_k == 0 every layer-0 gradient is zero, so no prune step
        is evaluated there."""
        dp, dg = synthesize_dataset(DatasetSpec(n_personal=24, n_general=24), 6)
        h = Hyperparams(lambda_k=lambda_k, batch_size=8, rng_seed=1)
        ps = init_parameters((N_FEATURES, 3, 1), rng=1)
        swept = []
        layer_coords = ps.layer_coords

        def recording_coords(layer):
            swept.append(layer)
            return layer_coords(layer)

        ps.layer_coords = recording_coords
        graded = []
        original = congruity._stack_grads

        def recording(*args, **kwargs):
            graded.append(swept[-1])
            return original(*args, **kwargs)

        monkeypatch.setattr(congruity, "_stack_grads", recording)
        pairs = congruity._batches(dp, dg, h)
        congruity._prune_phase(ps, pairs, h, dp.centroid(), np.random.default_rng(1))
        assert 1 in graded
        assert (0 in graded) == (lambda_k != 0.0)


def labeled_side(kind, rng, n):
    """A dataset of n random samples, about 70% of them with a distance."""
    mask = rng.random(n) < 0.7
    return Dataset(kind, rng.random((n, N_FEATURES)), {"distance": (rng.random(n), mask)})


class TestStackedPass:
    """Training runs a personal and a general batch of the same rows as one
    stack; each stacked side must give the bytes of a pass over it alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), max_size=1),
        rows=st.integers(1, 40),
        extra=st.sampled_from([0, 0, 1, 9]),
        seed=st.integers(0, 2**16),
        frozen_share=st.sampled_from([0.0, 0.3, 1.0]),
        dead_share=st.sampled_from([0.0, 0.5]),
        lambda_q=st.sampled_from([0.0, 0.3]),
        lambda_k=st.sampled_from([0.0, 0.7]),
        masked=st.booleans(),
    )
    def test_stacked_pass_matches_single_side_passes(
        self, hidden, rows, extra, seed, frozen_share, dead_share, lambda_q, lambda_k, masked,
    ):
        rng = np.random.default_rng(seed)
        ps = pruned_net(rng, hidden, frozen_share, dead_share)
        dp, dg = labeled_side("personal", rng, rows), labeled_side("general", rng, rows + extra)
        h = Hyperparams(lambda_p=1.5, lambda_g=0.75, lambda_q=lambda_q, lambda_k=lambda_k, k=3,
                        batch_size=rows + extra)
        centroid = dp.centroid()
        alive = congruity._live_masks(ps)[0] if masked else None

        # the kernel: both sides stacked against each side alone
        if extra == 0:
            sides = [(dp.features, *dp.label_arrays("distance")),
                     (dg.features, *dg.label_arrays("distance"))]
            X, vals, mask = (np.stack(parts) for parts in zip(*sides))
            two_w = np.array([[3.0], [1.5]])
            coeff = rng.random((2, rows)) if lambda_k else None
            grad, recon_sq = congruity._backprop(ps, X, vals, mask, two_w, coeff, alive=alive)
            pred_sum, recon = congruity._loss_parts(ps, X, vals, mask, lambda_k != 0.0)
            for k, (Xk, vk, mk) in enumerate(sides):
                one = congruity._backprop(ps, Xk, vk, mk, float(two_w[k, 0]),
                                          None if coeff is None else coeff[k], alive=alive)
                assert grad[k].tobytes() == one[0].tobytes()
                parts = congruity._loss_parts(ps, Xk, vk, mk, lambda_k != 0.0)
                assert pred_sum[k].tobytes() == parts[0].tobytes()
                if coeff is None:
                    assert recon_sq is None and recon is None
                else:
                    assert recon_sq[k].tobytes() == one[1].tobytes()
                    assert recon[k].tobytes() == parts[1].tobytes()

        # what training runs: one stack when rows and chains match, else one per side
        together = (lambda_k != 0.0) == (lambda_q != 0.0)
        [pair] = congruity._batches(dp, dg, h)
        assert len(pair) == (1 if together and extra == 0 else 2)
        # the epoch objective over the whole sides, stacked the same way
        whole = congruity._pair((dp, dg), h)
        want = [(dp, dg)] if len(pair) == 1 else [(dp,), (dg,)]
        assert [stack.batches for stack in whole] == want
        assert (congruity_objective(ps, dp, dg, h, centroid, whole).hex()
                == congruity_objective(ps, dp, dg, h, centroid).hex())
        p, g = (side for stack in pair
                for side in congruity._stack_grads(ps, stack, h, centroid, alive))
        for side, d in ((p, dp), (g, dg)):
            one = congruity._stack_grads(ps, congruity._Stack((d,), h), h, centroid, alive)
            assert one.shape == (1, ps.theta.size)
            assert side.tobytes() == one.tobytes()
        # masks that stand in for ps.alive change no byte of the public gradients
        assert p.tobytes() == grad_personal(ps, dp, h, centroid).tobytes()
        assert g.tobytes() == congruity.grad_general(ps, dg, h).tobytes()
        ep, eg, acts = congruity._pair_errors(ps, pair, h, centroid)
        assert ep.hex() == personal_error(ps, dp, h, centroid).hex()
        assert eg.hex() == general_error(ps, dg, h).hex()
        for got, want in zip(acts, congruity._forward_batch(ps, dp.features), strict=True):
            assert got.shape == (1, *want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_personal, n_general, lambda_q, lambda_k, stacks", [
        (40, 60, 0.0, 0.0, [1, 2]),   # 32 + 8 rows against 32 + 28
        (48, 48, 0.3, 0.7, [1, 1]),
        (48, 48, 0.0, 0.7, [2, 2]),   # the chains differ
        (20, 70, 0.3, 0.0, [2, 2, 2]),
    ])
    def test_training_matches_single_side_passes(self, n_personal, n_general, lambda_q,
                                                 lambda_k, stacks, monkeypatch):
        """Stacked training gives the bytes of training on one stack per
        side of every pair."""
        dp, dg = synthesize_dataset(DatasetSpec(n_personal=n_personal, n_general=n_general), 3)
        h = Hyperparams(alpha=0.3, lambda_p=1.25, lambda_g=0.5, lambda_q=lambda_q,
                        lambda_k=lambda_k, max_epochs=8, rng_seed=3)
        assert [len(pair) for pair in congruity._batches(dp, dg, h)] == stacks
        stacked = train(dp, dg, h, (N_FEATURES, 5, 1))

        joint = congruity._batches

        def split(dp, dg, h):
            return [[congruity._Stack((b,), h) for stack in pair for b in stack.batches]
                    for pair in joint(dp, dg, h)]

        monkeypatch.setattr(congruity, "_batches", split)
        assert [len(pair) for pair in congruity._batches(dp, dg, h)] == [2] * len(stacks)
        single = train(dp, dg, h, (N_FEATURES, 5, 1))
        assert model_to_text(stacked.theta_star, h) == model_to_text(single.theta_star, h)
        assert repr(stacked.loss_history) == repr(single.loss_history)
        assert stacked.pruned_count == single.pruned_count

    @pytest.mark.parametrize("config, rows, stacks", [
        ("learner-smallest.cfg", (2, 3), [1, 1]),  # 5 edges: the general half has the odd one
        ("learner.cfg", (278, 278), [2]),
    ])
    def test_learned_graph_stacks_the_objective_only_for_equal_halves(
        self, config, rows, stacks, monkeypatch,
    ):
        """`_learned_graph` splits the edges into a personal and a general
        half; train's every objective gets its whole sides as one stack when
        the edge count is even and as two stacks of one when it is odd."""
        seen = []
        real = congruity.congruity_objective

        def recording(ps, dp, dg, h, centroid=None, pair=None):
            seen.append(((len(dp), len(dg)), [len(stack.batches) for stack in pair]))
            return real(ps, dp, dg, h, centroid, pair)

        monkeypatch.setattr(congruity, "congruity_objective", recording)
        cli.outputs(["gen-topo", "--config", os.path.join(GOLDENS, config)])
        assert len(seen) > 2 and set(map(repr, seen)) == {repr((rows, stacks))}

    @pytest.mark.parametrize("alpha, n_general", [(0.2, 48), (0.5, 48), (0.9, 60)])
    def test_descent_steps_down_grad_congruity(self, alpha, n_general, monkeypatch):
        """With the prune phase taken out, each descent step is a step down
        the public grad_congruity of its batch pair, stacked (48 + 48) or
        not (the second pair of 48 + 60 is 16 + 28 rows)."""
        dp, dg = synthesize_dataset(DatasetSpec(n_personal=48, n_general=n_general), 5)
        h = Hyperparams(alpha=alpha, lambda_q=0.3, lambda_k=0.7, max_epochs=3,
                        tolerance=1e-300, rng_seed=5)
        monkeypatch.setattr(congruity, "_prune_phase", lambda *args: 0)
        trained = train(dp, dg, h, (N_FEATURES, 4, 1)).theta_star
        ps = init_parameters((N_FEATURES, 4, 1), rng=np.random.default_rng(5))
        centroid = dp.centroid()
        for _ in range(h.max_epochs):
            for lo in (0, 32):
                step = grad_congruity(ps, dp.slice(lo, lo + 32), dg.slice(lo, lo + 32), h, centroid)
                ps.theta -= h.learning_rate * step
        assert ps.theta.tobytes() == trained.theta.tobytes()


class TestSignOfZero:
    """No parameter is ever -0.0, so the gradients may carry either sign of
    an exact zero (the argument in `_backprop`'s docstring)."""

    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        n_personal=st.sampled_from([8, 12]),
        n_general=st.sampled_from([8, 12, 16]),
        seed=st.integers(0, 2**16),
        alpha=st.sampled_from([0.5, 1.0]),
        prune_probability=st.sampled_from([0.5, 1.0]),
        lambda_q=st.sampled_from([0.0, 0.3]),
        lambda_k=st.sampled_from([0.0, 0.7]),
    )
    def test_training_leaves_no_negative_zero(
        self, hidden, n_personal, n_general, seed, alpha, prune_probability, lambda_q,
        lambda_k,
    ):
        """Small nets, pruned and with dead neurons, with the reconstruction
        terms on and off; batches of 8 rows make stacked pairs and, against a
        last batch of 4, pairs of two stacks."""
        rng = np.random.default_rng(seed)
        dp, dg = labeled_side("personal", rng, n_personal), labeled_side("general", rng, n_general)
        h = Hyperparams(alpha=alpha, prune_probability=prune_probability, lambda_q=lambda_q,
                        lambda_k=lambda_k, batch_size=8, max_epochs=4, rng_seed=seed)
        ps = train(dp, dg, h, (N_FEATURES, *hidden, 1)).theta_star
        assert not np.signbit(ps.theta[ps.theta == 0.0]).any()
        assert "-0.0" not in model_to_text(ps, h).split()


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
        assert dg.label_arrays("distance")[1].all()

    def test_class_proportions_within_half_percent(self):
        spec = DatasetSpec(n_personal=10, n_general=4000)
        _, dg = synthesize_dataset(spec, 3)
        values = dg.label_arrays("classification")[0].tolist()
        total = len(values)
        shares = [values.count(v) / total for v in (0.0, 0.5, 1.0)]
        for share, want in zip(shares, (0.947, 0.0343, 0.0183)):
            assert abs(share - want / sum((0.947, 0.0343, 0.0183))) <= 0.005

    def test_determinism(self):
        spec = DatasetSpec(n_personal=50, n_general=80, conflict_fraction=0.1)
        a = synthesize_dataset(spec, 9)
        b = synthesize_dataset(spec, 9)
        for ds_a, ds_b in zip(a, b):
            assert np.array_equal(ds_a.features, ds_b.features)
            for kind in congruity.LABEL_KINDS:
                for x, y in zip(ds_a.label_arrays(kind), ds_b.label_arrays(kind)):
                    assert np.array_equal(x, y)

    def test_conflicts_duplicate_features_with_different_labels(self):
        spec = DatasetSpec(n_personal=40, n_general=40, conflict_fraction=0.3)
        dp, _ = synthesize_dataset(spec, 5)
        feats = [tuple(f) for f in dp.features.tolist()]
        dist = dp.label_arrays("distance")[0].tolist()
        dupes = [f for f in set(feats) if feats.count(f) > 1]
        assert dupes
        conflicting = 0
        for f in dupes:
            labels = {d for g, d in zip(feats, dist) if g == f}
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

    def test_sample_counts_are_capped(self):
        DatasetSpec(n_personal=congruity.MAX_SAMPLES, n_general=congruity.MAX_SAMPLES).validate()
        for key in ("n_personal", "n_general"):
            with pytest.raises(InvalidSpec, match=key):
                DatasetSpec(**{key: congruity.MAX_SAMPLES + 1}).validate()


class TestModelAndDatasetFiles:
    def test_model_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(77)
        ps = init_parameters((N_FEATURES, 6, 1), rng=rng)
        ps.alive[1][2] = 0.0
        h = Hyperparams(alpha=0.37, lambda_q=0.125, rng_seed=99)
        path = tmp_path / "model.txt"
        path.write_text(model_to_text(ps, h))
        ps2, h2 = load_model(path)
        assert ps2.widths == ps.widths
        assert h2 == h
        for a, b in zip(ps.weights, ps2.weights):
            assert np.array_equal(a, b)
        for a, b in zip(ps.biases, ps2.biases):
            assert np.array_equal(a, b)
        for a, b in zip(ps.alive, ps2.alive):
            assert np.array_equal(a, b)
        assert model_to_text(ps2, h2) == path.read_text()

    @pytest.mark.parametrize("bad,message", [
        ("dmax", "line 2: too few fields in dmax line"),
        ("widths 17 x", "line 1: invalid literal"),
        ("widths 17 0", "line 1: need at least input and output layers"),
        ("widths 17 1000000000000 1", "line 1: hidden_widths (1000000000000,) give"),
        ("hyper bogus=1", "line 4: unknown hyperparameter 'bogus'"),
        ("hyper alpha=0.5 k=3 alpha=0.5", "line 4: hyperparameter 'alpha' given twice"),
        ("hyper alpha=2.0", "line 4: alpha must lie in [0, 1]"),
        ("hyper batch_size=0", "line 4: batch_size must be >= 1"),
        ("hyper tolerance=nan", "line 4: hyperparameter 'tolerance' must be finite"),
        ("dmax -5", "line 2: layer in-degree 17 exceeds d_max -5"),
        ("w 1 0 1 nan " + " ".join(["0.5"] * N_FEATURES),
         "line 5: neuron 1/0 has a bias or weight that is not finite"),
        ("w 1 0 1 x", "line 5: could not convert"),
        ("w 9 0 1 0.0", "line 5: neuron 9/0 is outside widths"),
        ("w 1 0 1 0.0 1.0", "line 5: neuron 1/0 has 1 connections"),
        ("w 1 0 3 0.0", "line 5: neuron 1/0 has alive flag '3', not 0 or 1"),
        # inserted at line 5, so the file's own w 0 3 line moves to line 9
        ("w 0 3 1 9.0", "line 9: neuron 0/3 has a second w line"),
    ])
    def test_malformed_model_raises_invalid_params_with_its_line(self, bad, message, tmp_path):
        ps = init_parameters((N_FEATURES, 1), rng=np.random.default_rng(3))
        lines = model_to_text(ps, Hyperparams()).splitlines()
        head = bad.split()[0]
        if head == "w":
            lines.insert(4, bad)
        else:
            lines = [bad if ln.split()[0] == head else ln for ln in lines]
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParams) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}, {message}")

    @pytest.mark.parametrize("head", ["widths", "dmax", "seed", "hyper"])
    def test_repeated_model_header_raises_invalid_params_with_its_line(self, head, tmp_path):
        lines = model_to_text(zero_net((N_FEATURES, 1)), Hyperparams()).splitlines()
        lines.insert(4, next(ln for ln in lines if ln.split()[0] == head))
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParams) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}, line 5: a second {head} line"

    def test_dmax_before_widths_raises_invalid_params(self, tmp_path):
        lines = model_to_text(zero_net((N_FEATURES, 1)), Hyperparams()).splitlines()
        path = tmp_path / "model.txt"
        path.write_text("\n".join([lines[1], lines[0], *lines[2:]]) + "\n")
        with pytest.raises(InvalidParams) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}, line 1: dmax line before the widths line"

    def test_model_missing_a_neuron_raises_invalid_params_naming_it(self, tmp_path):
        ps = init_parameters((N_FEATURES, 2, 1), rng=np.random.default_rng(3))
        lines = [ln for ln in model_to_text(ps, Hyperparams()).splitlines()
                 if not ln.startswith("w 1 1 ")]
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParams) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: neuron 1/1 has no w line"

    @pytest.mark.parametrize("features,labels,error", [
        (np.r_[1.5, np.full(N_FEATURES - 1, 0.5)], {}, InvalidParams),
        (np.r_[np.full(N_FEATURES - 1, 0.5), np.nan], {}, InvalidParams),
        (np.full(N_FEATURES - 1, 0.5), {}, DimensionMismatch),
        (np.full(N_FEATURES, 0.5), {"bogus": 0.5}, InvalidParams),
    ], ids=["out-of-range", "non-finite", "wrong-width", "unknown-label-kind"])
    def test_bad_sample_is_rejected(self, features, labels, error):
        with pytest.raises(error):
            dataset("general", [(features, labels)])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_dataset_with_a_non_finite_label_names_its_line(self, cell, tmp_path):
        dp, _ = synthesize_dataset(DatasetSpec(n_personal=4, n_general=1), 2)
        path = tmp_path / "p.csv"
        save_dataset(dp, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[N_FEATURES + congruity.LABEL_KINDS.index("distance")] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParams) as exc:
            load_dataset(path, "personal")
        assert str(exc.value) == f"{path}, line 4: label_distance must be finite"

    def test_dataset_round_trip(self, tmp_path):
        spec = DatasetSpec(n_personal=20, n_general=30, label_coverage=0.5)
        dp, dg = synthesize_dataset(spec, 2)
        for ds, name in ((dp, "p.csv"), (dg, "g.csv")):
            path = tmp_path / name
            save_dataset(ds, path)
            again = load_dataset(path, ds.kind)
            assert len(again) == len(ds)
            assert np.array_equal(ds.features, again.features)
            for kind in congruity.LABEL_KINDS:
                for a, b in zip(ds.label_arrays(kind), again.label_arrays(kind)):
                    assert np.array_equal(a, b)
