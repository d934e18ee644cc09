# Train the congruity learner: a blended objective over general (memory)
# and personal (response) errors, with layer-wise pruning before descent.
import numpy as np

from icnsim import (
    DatasetSpec, Hyperparams,
    congruity_objective, filter_topk, general_error, personal_error,
    predict_distance, regularizer, synthesize_dataset, train,
)
from icnsim.congruity import N_FEATURES, init_parameters

# Synthesized corpus: imbalanced classes, partial labels, a few conflicts.
spec = DatasetSpec(
    n_personal=150, n_general=350, label_coverage=0.8,
    conflict_fraction=0.02,
)
dp, dg = synthesize_dataset(spec, seed=3)
labeled = int(dg.label_arrays("distance")[1].sum())
print(f"general data: {len(dg)} samples, {labeled} carry a distance label")

h = Hyperparams(
    alpha=0.5, lambda_g=1.0, lambda_p=1.0, lambda_q=0.01, lambda_k=0.01,
    learning_rate=0.1, batch_size=32, max_epochs=300, rng_seed=5,
    prune_probability=0.5, tolerance=1e-12,
)

ps0 = init_parameters((N_FEATURES, 8, 1), d_max=40, rng=h.rng_seed)
print("objective before training:", round(congruity_objective(ps0, dp, dg, h), 3))
print("  general part:", round(general_error(ps0, dg, h), 3),
      " personal part:", round(personal_error(ps0, dp, h), 3),
      " q-norm:", round(regularizer(ps0, h.q), 3))

result = train(dp, dg, h, arch=(N_FEATURES, 8, 1), d_max=40)
print(f"\ntrained: E {result.e_initial:.3f} -> {result.e_star:.4f} "
      f"in {len(result.loss_history) - 1} epochs, {result.pruned_count} parameters pruned")

# The filter gates personal reconstruction by top-k cosine against the centroid.
centroid = dp.centroid()
print("filter for one personal sample:", round(filter_topk(dp.features[0], centroid, h.k), 4))

# Distance prediction for fresh feature vectors, de-normalized to microseconds.
rng = np.random.default_rng(0)
feats = rng.random(N_FEATURES)
truth = feats.mean()
pred = predict_distance(result.theta_star, feats, scale=1.0)
print(f"\npredicted {pred:.3f} vs synthetic truth {truth:.3f} (normalized units)")
print(f"scaled to a 500 ms ceiling: {predict_distance(result.theta_star, feats, scale=500_000):,.0f} us")
