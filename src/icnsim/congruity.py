"""Congruity learning: a pair of tied-weight layered networks trained on a
blend of a general (memory) error and a personal (response) error.

The positive pass maps normalized feature vectors to a bounded output through
logistic layers; the negative pass runs the same connections transposed to
reconstruct the features from the output (a tied-weight autoencoder). The
general error couples prediction loss with a q-norm-scaled reconstruction
term; the personal error gates the reconstruction term per sample by a top-k
cosine filter against the dataset centroid. Training first prunes parameters
layer by layer, then runs plain gradient descent on the blended objective.

Everything is seeded and deterministic; repeated runs are bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParams,
    InvalidSpec,
    NonFiniteLoss,
)

FEATURE_NAMES = (
    "timestamp", "scenario_type", "uplink_traffic", "downlink_traffic",
    "capability", "utilization", "object_density", "latency",
    "storage_space", "bandwidth_state", "computational_state",
    "neighbor_list_size", "source", "destination", "protocol", "port",
    "payload",
)
N_FEATURES = len(FEATURE_NAMES)

LABEL_KINDS = (
    "personal", "general", "distance", "scalability", "mobility", "security",
    "object_state", "prediction", "classification", "prefetch_replacement",
    "service_quality", "cost",
)

DEFAULT_LABEL_KIND = "distance"


# -- data model ----------------------------------------------------------------


@dataclass
class Sample:
    features: np.ndarray
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (N_FEATURES,):
            raise DimensionMismatch(
                f"feature vector must have {N_FEATURES} entries, "
                f"got {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise InvalidParams("features must be finite")
        if self.features.min() < 0.0 or self.features.max() > 1.0:
            raise InvalidParams("features must be normalized to [0, 1]")
        for kind in self.labels:
            if kind not in LABEL_KINDS:
                raise InvalidParams(f"unknown label kind {kind!r}")


@dataclass
class Dataset:
    """A personal or general sample set.

    The feature matrix, the label arrays and the top-k filters are computed on
    first use and memoised, so `samples` must not be mutated after the dataset
    has been used; build a new Dataset (or a `slice`) instead.
    """

    kind: str
    samples: list

    def __post_init__(self):
        if self.kind not in ("personal", "general"):
            raise InvalidParams(f"dataset kind must be personal or general, got {self.kind!r}")
        self._matrix = None
        self._labels = {}
        self._filters = {}

    def __len__(self):
        return len(self.samples)

    def feature_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.array([s.features for s in self.samples], dtype=np.float64)
        return self._matrix

    def label_arrays(self, kind: str = DEFAULT_LABEL_KIND):
        """(values, mask) of one label kind; unlabeled samples read 0 in both."""
        if kind not in self._labels:
            vals = np.zeros(len(self.samples))
            mask = np.zeros(len(self.samples))
            for i, s in enumerate(self.samples):
                if kind in s.labels:
                    vals[i] = s.labels[kind]
                    mask[i] = 1.0
            vals.flags.writeable = False
            mask.flags.writeable = False
            self._labels[kind] = (vals, mask)
        return self._labels[kind]

    def topk_filters(self, centroid, k: int) -> np.ndarray:
        """`filter_topk` of every sample against the centroid."""
        centroid = np.asarray(centroid, dtype=np.float64)
        key = (k, centroid.tobytes())
        if key not in self._filters:
            X = self.feature_matrix()
            filters = np.array([filter_topk(X[i], centroid, k) for i in range(len(self))])
            filters.flags.writeable = False
            self._filters[key] = filters
        return self._filters[key]

    def centroid(self) -> np.ndarray:
        if not self.samples:
            raise EmptyDataset("cannot take the centroid of an empty dataset")
        return self.feature_matrix().mean(axis=0)

    def slice(self, lo: int, hi: int) -> "Dataset":
        return Dataset(self.kind, self.samples[lo:hi])


@dataclass
class Hyperparams:
    alpha: float = 0.5
    lambda_g: float = 1.0
    lambda_q: float = 0.0
    lambda_p: float = 1.0
    lambda_k: float = 0.0
    q: int = 2
    k: int = 5
    learning_rate: float = 0.1
    prune_probability: float = 0.5
    batch_size: int = 32
    max_epochs: int = 200
    tolerance: float = 1e-9
    rng_seed: int = 0

    def validate(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidParams("alpha must lie in [0, 1]")
        if min(self.lambda_g, self.lambda_q, self.lambda_p, self.lambda_k) < 0:
            raise InvalidParams("lambda weights must be non-negative")
        if self.q < 1 or int(self.q) != self.q:
            raise InvalidParams("q must be a positive integer")
        if self.k < 1 or int(self.k) != self.k:
            raise InvalidParams("k must be a positive integer")
        if self.learning_rate <= 0:
            raise InvalidParams("learning_rate must be positive")
        if not (0.0 <= self.prune_probability <= 1.0):
            raise InvalidParams("prune_probability must lie in [0, 1]")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise InvalidParams("batch_size and max_epochs must be >= 1")
        if self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive")
        return self


class ParameterSet:
    """Layered parameters with alive flags and a frozen (pruned) mask.

    Layer 0 is the input layer: its neurons carry no connections, only a bias
    that the negative pass uses when reconstructing the features. Layer L-1 is
    the output layer. weights[l] connects layer l to layer l+1 with shape
    (widths[l+1], widths[l]); row j is the connection vector of neuron j.
    """

    def __init__(self, widths, weights, biases, alive, d_max):
        self.widths = tuple(int(w) for w in widths)
        self.weights = weights
        self.biases = biases
        self.alive = alive
        self.d_max = int(d_max)

    @property
    def L(self) -> int:
        return len(self.widths)

    def copy(self) -> "ParameterSet":
        ps = ParameterSet(
            self.widths,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [a.copy() for a in self.alive],
            self.d_max,
        )
        ps.w_frozen = [m.copy() for m in self.w_frozen]
        ps.b_frozen = [m.copy() for m in self.b_frozen]
        return ps

    def layer_coords(self, layer: int):
        """Deterministic coordinate order for one layer: connection weights
        row-major, then biases (layer 0 has biases only)."""
        coords = []
        if layer >= 1:
            rows, cols = self.weights[layer - 1].shape
            coords.extend(("w", layer - 1, r, c) for r in range(rows) for c in range(cols))
        coords.extend(("b", layer, j, -1) for j in range(self.widths[layer]))
        return coords

    def get_param(self, coord):
        kind, a, b, c = coord
        return self.weights[a][b, c] if kind == "w" else self.biases[a][b]

    def set_param(self, coord, value):
        kind, a, b, c = coord
        if kind == "w":
            self.weights[a][b, c] = value
        else:
            self.biases[a][b] = value

    def is_frozen(self, coord) -> bool:
        kind, a, b, c = coord
        return bool(self.w_frozen[a][b, c] if kind == "w" else self.b_frozen[a][b])

    def freeze(self, coord):
        kind, a, b, c = coord
        if kind == "w":
            self.w_frozen[a][b, c] = True
        else:
            self.b_frozen[a][b] = True
        self._refresh_alive(a + 1 if kind == "w" else a)

    def _refresh_alive(self, layer):
        """A neuron dies once every parameter it owns has been pruned."""
        j_range = range(self.widths[layer])
        for j in j_range:
            dead = self.b_frozen[layer][j]
            if layer >= 1:
                dead = dead and bool(self.w_frozen[layer - 1][j, :].all())
            if dead:
                self.alive[layer][j] = 0.0

    def live_count(self, layer: int) -> int:
        count = int((~self.b_frozen[layer]).sum())
        if layer >= 1:
            count += int((~self.w_frozen[layer - 1]).sum())
        return count


def init_parameters(widths, d_max=None, rng=None) -> ParameterSet:
    """Fresh parameters drawn uniformly from [-0.5, 0.5)."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or min(widths) < 1:
        raise InvalidParams("need at least input and output layers, widths >= 1")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    max_indegree = max(widths[:-1])
    if d_max is None:
        d_max = max_indegree
    if max_indegree > d_max:
        raise InvalidParams(
            f"layer in-degree {max_indegree} exceeds d_max {d_max}"
        )
    weights = [
        rng.uniform(-0.5, 0.5, size=(widths[l + 1], widths[l]))
        for l in range(len(widths) - 1)
    ]
    biases = [rng.uniform(-0.5, 0.5, size=w) for w in widths]
    alive = [np.ones(w) for w in widths]
    ps = ParameterSet(widths, weights, biases, alive, d_max)
    ps.w_frozen = [np.zeros(w.shape, dtype=bool) for w in ps.weights]
    ps.b_frozen = [np.zeros(len(b), dtype=bool) for b in ps.biases]
    return ps


# -- forward passes ------------------------------------------------------------


def _sigmoid(z):
    """Logistic function of a fresh pre-activation array, computed in place:
    the same operations, in the same order, as
    1 / (1 + exp(-clip(z, -500, 500)))."""
    np.maximum(z, -500.0, out=z)
    np.minimum(z, 500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _forward_batch(ps: ParameterSet, X: np.ndarray):
    acts = [X * ps.alive[0]]
    for l in range(1, ps.L):
        z = acts[-1] @ ps.weights[l - 1].T + ps.biases[l]
        acts.append(_sigmoid(z) * ps.alive[l])
    return acts

def _reconstruct_batch(ps: ParameterSet, Y: np.ndarray):
    recs = [None] * ps.L
    recs[ps.L - 1] = Y * ps.alive[ps.L - 1]
    for l in range(ps.L - 2, -1, -1):
        s = recs[l + 1] @ ps.weights[l] + ps.biases[l]
        recs[l] = _sigmoid(s) * ps.alive[l]
    return recs


def forward_positive(ps: ParameterSet, x):
    """Feature vector -> (per-layer activations, output vector)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ps.widths[0],):
        raise DimensionMismatch(f"expected {ps.widths[0]} inputs, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParams("inputs must be finite")
    acts = _forward_batch(ps, x[None, :])
    acts = [a[0] for a in acts]
    return acts, acts[-1]


def forward_negative(ps: ParameterSet, y):
    """Output-side vector -> feature reconstruction via transposed connections."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (ps.widths[-1],):
        raise DimensionMismatch(f"expected {ps.widths[-1]} outputs, got {y.shape}")
    recs = _reconstruct_batch(ps, y[None, :])
    return recs[0][0]


# -- objective building blocks ---------------------------------------------------


def regularizer(ps: ParameterSet, q: int) -> float:
    """q-norm over connection weights and biases of alive neurons."""
    if q < 1 or int(q) != q:
        raise InvalidParams("q must be a positive integer")
    total = 0.0
    for l in range(ps.L):
        m = ps.alive[l]
        total += float((np.abs(ps.biases[l]) ** q * m).sum())
        if l >= 1:
            total += float(((np.abs(ps.weights[l - 1]) ** q) * m[:, None]).sum())
    return total ** (1.0 / q)


def filter_topk(xp, x, k: int) -> float:
    """Cosine similarity of two vectors restricted to the k largest-magnitude
    coordinates of the first; 0 when either restriction has zero norm."""
    xp = np.asarray(xp, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if xp.shape != x.shape or xp.ndim != 1:
        raise DimensionMismatch(f"vector shapes differ: {xp.shape} vs {x.shape}")
    if k < 1 or int(k) != k:
        raise InvalidParams("k must be a positive integer")
    idx = np.argsort(-np.abs(xp), kind="stable")[: min(k, len(xp))]
    u, v = xp[idx], x[idx]
    # cosine is scale-invariant; normalizing by the max magnitude first keeps
    # tiny (denormal) coordinates from underflowing to a zero norm
    mu = float(np.abs(u).max())
    mv = float(np.abs(v).max())
    if mu == 0.0 or mv == 0.0:
        return 0.0
    u = u / mu
    v = v / mv
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip((u @ v) / (nu * nv), -1.0, 1.0))


def _check_output_width(ps):
    if ps.widths[-1] != 1:
        raise DimensionMismatch("error functions require a single output neuron")


def _loss_parts(ps, X, vals, mask, reconstruct=True):
    """Summed prediction loss and per-sample squared reconstruction errors;
    the reconstruction is None when `reconstruct` is false."""
    acts = _forward_batch(ps, X)
    y = acts[-1][:, 0]
    pred_sum = float((((y - vals) ** 2) * mask).sum())
    if not reconstruct:
        return pred_sum, None
    recs = _reconstruct_batch(ps, acts[-1])
    recon_sq = ((recs[0] - X) ** 2).sum(axis=1)
    return pred_sum, recon_sq


def general_error(ps: ParameterSet, dg: Dataset, h: Hyperparams,
                  label_kind: str = DEFAULT_LABEL_KIND) -> float:
    """Prediction loss on labeled general samples plus the q-norm-scaled
    reconstruction (memory) loss over all general samples."""
    if dg.kind != "general":
        raise InvalidParams("general_error needs a general dataset")
    if len(dg) == 0:
        raise EmptyDataset("general dataset is empty")
    _check_output_width(ps)
    vals, mask = dg.label_arrays(label_kind)
    # a zero-weighted reconstruction term is not computed (see _backprop)
    pred_sum, recon_sq = _loss_parts(ps, dg.feature_matrix(), vals, mask,
                                     reconstruct=h.lambda_q != 0.0)
    if recon_sq is None:
        return h.lambda_g * pred_sum
    return h.lambda_g * pred_sum + h.lambda_q * regularizer(ps, h.q) * float(recon_sq.sum())


def personal_error(ps: ParameterSet, dp: Dataset, h: Hyperparams,
                   label_kind: str = DEFAULT_LABEL_KIND, centroid=None) -> float:
    """Prediction loss on labeled personal samples plus the per-sample
    filter-gated reconstruction (response) loss."""
    if dp.kind != "personal":
        raise InvalidParams("personal_error needs a personal dataset")
    if len(dp) == 0:
        raise EmptyDataset("personal dataset is empty")
    _check_output_width(ps)
    vals, mask = dp.label_arrays(label_kind)
    pred_sum, recon_sq = _loss_parts(ps, dp.feature_matrix(), vals, mask,
                                     reconstruct=h.lambda_k != 0.0)
    if recon_sq is None:
        return h.lambda_p * pred_sum
    if centroid is None:
        centroid = dp.centroid()
    filters = dp.topk_filters(centroid, h.k)
    return h.lambda_p * pred_sum + h.lambda_k * float((filters * recon_sq).sum())


def congruity_objective(ps: ParameterSet, dp: Dataset, dg: Dataset, h: Hyperparams,
                        label_kind: str = DEFAULT_LABEL_KIND,
                        centroid=None) -> float:
    eg = general_error(ps, dg, h, label_kind)
    ep = personal_error(ps, dp, h, label_kind, centroid)
    return (1.0 - h.alpha) * eg + h.alpha * ep


# -- analytic gradients ----------------------------------------------------------


def _zero_grads(ps):
    return ([np.zeros(w.shape) for w in ps.weights],
            [np.zeros(b.shape) for b in ps.biases])


def _backprop(ps, X, vals, mask, pred_w, recon_coeff):
    """Gradient of pred_w * sum_labeled (y - t)^2 + sum_n c_n * ||x_n - X_n||^2,
    plus the per-sample squared reconstruction errors ||x_n - X_n||^2.

    The reconstruction chain reuses the forward connections transposed, so
    each weight (and each hidden bias) collects gradient from both passes.

    `recon_coeff` None means a zero-weighted reconstruction term: the
    negative chain is skipped and the errors come back as None. The result
    is the one the chain would give with all-zero coefficients, bit for bit
    up to the sign of exact zeros. With finite parameters the skipped terms
    are finite (sigmoid outputs and features lie in [0, 1], filters in
    [-1, 1]), so 0.0 times each is +-0.0, and adding +-0.0 to a sum can
    change only the sign of an exact zero. That sign never reaches a
    parameter: no weight or bias is ever -0.0 (uniform(-0.5, 0.5) cannot
    return it, pruning writes +0.0, and w - d is -0.0 only when w is), so
    every loss, parameter and prediction is unchanged. Where a skipped term
    is not finite, the full formula made 0.0 * inf = nan of it instead.
    """
    dW, db = _zero_grads(ps)
    acts = _forward_batch(ps, X)
    L = ps.L

    if recon_coeff is None:
        recon_sq = None
        ga = np.zeros(acts[-1].shape)
    else:
        # negative (reconstruction) chain
        recs = _reconstruct_batch(ps, acts[-1])
        diff = recs[0] - X
        recon_sq = (diff ** 2).sum(axis=1)
        gr = 2.0 * recon_coeff[:, None] * diff
        for l in range(L - 1):
            gs = gr * recs[l] * (1.0 - recs[l])
            dW[l] += recs[l + 1].T @ gs
            db[l] += gs.sum(axis=0)
            gr = gs @ ps.weights[l].T
        ga = gr * ps.alive[L - 1]

    # positive chain, seeded by the reconstruction flow plus prediction error
    y = acts[-1][:, 0]
    ga[:, 0] += 2.0 * pred_w * (y - vals) * mask
    for l in range(L - 1, 0, -1):
        gz = ga * acts[l] * (1.0 - acts[l])
        dW[l - 1] += gz.T @ acts[l - 1]
        db[l] += gz.sum(axis=0)
        ga = gz @ ps.weights[l - 1]
    return dW, db, recon_sq


def _regularizer_grads(ps, q):
    """Gradient of the q-norm over alive parameters (zero at the origin)."""
    r = regularizer(ps, q)
    dW, db = _zero_grads(ps)
    if r == 0.0:
        return dW, db, r
    try:
        scale = r ** (1.0 - q)
    except OverflowError:
        raise NonFiniteLoss(f"q-norm gradient overflows: {r!r} ** {1 - q}") from None
    for l in range(ps.L):
        m = ps.alive[l]
        b = ps.biases[l]
        db[l] += scale * (np.abs(b) ** (q - 1)) * np.sign(b) * m
        if l >= 1:
            w = ps.weights[l - 1]
            dW[l - 1] += scale * (np.abs(w) ** (q - 1)) * np.sign(w) * m[:, None]
    return dW, db, r


def grad_general(ps: ParameterSet, dg: Dataset, h: Hyperparams,
                 label_kind: str = DEFAULT_LABEL_KIND):
    if len(dg) == 0:
        raise EmptyDataset("general dataset is empty")
    _check_output_width(ps)
    X = dg.feature_matrix()
    vals, mask = dg.label_arrays(label_kind)
    if h.lambda_q == 0.0:
        dW, db, _ = _backprop(ps, X, vals, mask, h.lambda_g, None)
        return dW, db
    rW, rb, r = _regularizer_grads(ps, h.q)
    coeff = np.full(len(dg), h.lambda_q * r)
    dW, db, recon_sq = _backprop(ps, X, vals, mask, h.lambda_g, coeff)
    # the q-norm multiplies the summed reconstruction loss, so its own
    # gradient enters scaled by that sum
    s = h.lambda_q * float(recon_sq.sum())
    for l in range(len(dW)):
        dW[l] += s * rW[l]
    for l in range(len(db)):
        db[l] += s * rb[l]
    return dW, db


def grad_personal(ps: ParameterSet, dp: Dataset, h: Hyperparams,
                  label_kind: str = DEFAULT_LABEL_KIND, centroid=None):
    if len(dp) == 0:
        raise EmptyDataset("personal dataset is empty")
    _check_output_width(ps)
    X = dp.feature_matrix()
    vals, mask = dp.label_arrays(label_kind)
    if h.lambda_k == 0.0:
        coeff = None
    else:
        if centroid is None:
            centroid = dp.centroid()
        coeff = h.lambda_k * dp.topk_filters(centroid, h.k)
    dW, db, _ = _backprop(ps, X, vals, mask, h.lambda_p, coeff)
    return dW, db


def grad_congruity(ps: ParameterSet, dp: Dataset, dg: Dataset, h: Hyperparams,
                   label_kind: str = DEFAULT_LABEL_KIND, centroid=None):
    gW, gb = grad_general(ps, dg, h, label_kind)
    pW, pb = grad_personal(ps, dp, h, label_kind, centroid)
    a = h.alpha
    dW = [(1.0 - a) * g + a * p for g, p in zip(gW, pW)]
    db = [(1.0 - a) * g + a * p for g, p in zip(gb, pb)]
    return dW, db


# -- training --------------------------------------------------------------------


@dataclass
class TrainResult:
    theta_star: ParameterSet
    e_star: float
    predictions: np.ndarray
    e_initial: float
    loss_history: list
    pruned_count: int
    trajectory: list = field(default_factory=list)


def _batches(dp, dg, batch_size):
    """(personal, general) batch pairs; the shorter side wraps around and
    reuses its batch objects, so each batch's memos are filled once."""
    bps = [dp.slice(lo, lo + batch_size) for lo in range(0, len(dp), batch_size)]
    bgs = [dg.slice(lo, lo + batch_size) for lo in range(0, len(dg), batch_size)]
    return [(bps[i % len(bps)], bgs[i % len(bgs)]) for i in range(max(len(bps), len(bgs)))]


def _apply_step(ps, dW, db, lr):
    for l in range(len(ps.weights)):
        ps.weights[l] -= lr * np.where(ps.w_frozen[l], 0.0, dW[l])
    for l in range(len(ps.biases)):
        ps.biases[l] -= lr * np.where(ps.b_frozen[l], 0.0, db[l])


def _prune_phase(ps, pairs, h, centroid, rng, label_kind):
    """Layer-wise pruning sweep.

    Per layer: take per-parameter response-gradient steps; a parameter whose
    step moves the personal error less than alpha times the general error is
    zeroed (and frozen) with the configured probability. The layer is left as
    soon as its live parameter count drops under d_max.

    A kept step leaves the parameters where the next coordinate starts, so
    the errors after it are the next coordinate's errors before its step on
    the same batch; only a prune (zeroing, freezing, maybe killing a neuron)
    or a batch change forces a fresh evaluation.
    """
    pruned = 0
    known = None  # (batch index, personal error, general error) at the current parameters
    for layer in range(ps.L):
        d = ps.live_count(layer)
        if d < ps.d_max:
            continue
        advance = False
        for b, (bp, bg) in enumerate(pairs):
            for coord in ps.layer_coords(layer):
                if ps.is_frozen(coord):
                    continue
                gW, gb = grad_personal(ps, bp, h, label_kind, centroid)
                kind, a, bidx, cidx = coord
                g = gW[a][bidx, cidx] if kind == "w" else gb[a][bidx]
                if known is not None and known[0] == b:
                    _, ev_p, ev_g = known
                else:
                    ev_p = personal_error(ps, bp, h, label_kind, centroid)
                    ev_g = general_error(ps, bg, h, label_kind)
                ps.set_param(coord, ps.get_param(coord) - h.learning_rate * g)
                en_p = personal_error(ps, bp, h, label_kind, centroid)
                en_g = general_error(ps, bg, h, label_kind)
                known = (b, en_p, en_g)
                if abs(en_p - ev_p) < h.alpha * abs(en_g - ev_g):
                    if rng.random() < h.prune_probability:
                        ps.set_param(coord, 0.0)
                        ps.freeze(coord)
                        known = None
                        d -= 1
                        pruned += 1
                    if d < ps.d_max:
                        advance = True
                        break
            if advance:
                break
    return pruned


def train(dp: Dataset, dg: Dataset, h: Hyperparams, arch,
          d_max=None, label_kind: str = DEFAULT_LABEL_KIND,
          record_trajectory: bool = False) -> TrainResult:
    """Two-phase optimization: layer-wise pruning, then gradient descent on
    the blended objective until max_epochs or the relative improvement drops
    under the tolerance. Deterministic for a fixed seed."""
    h.validate()
    if len(dp) == 0 or len(dg) == 0:
        raise EmptyDataset("training needs non-empty personal and general data")
    arch = tuple(int(w) for w in arch)
    if arch[0] != N_FEATURES:
        raise DimensionMismatch(f"input width must be {N_FEATURES}")
    if arch[-1] != 1:
        raise DimensionMismatch("output width must be 1")
    rng = np.random.default_rng(h.rng_seed)
    ps = init_parameters(arch, d_max, rng)
    centroid = dp.centroid()

    e_initial = congruity_objective(ps, dp, dg, h, label_kind, centroid)
    pairs = _batches(dp, dg, h.batch_size)
    pruned = _prune_phase(ps, pairs, h, centroid, rng, label_kind)

    e_prev = congruity_objective(ps, dp, dg, h, label_kind, centroid)
    history = [e_prev]
    trajectory = []
    if record_trajectory:
        trajectory.append(ps.copy())
    for _ in range(h.max_epochs):
        for bp, bg in pairs:
            dW, db = grad_congruity(ps, bp, bg, h, label_kind, centroid)
            _apply_step(ps, dW, db, h.learning_rate)
        e_now = congruity_objective(ps, dp, dg, h, label_kind, centroid)
        if not math.isfinite(e_now):
            raise NonFiniteLoss(f"objective diverged to {e_now}")
        history.append(e_now)
        if record_trajectory:
            trajectory.append(ps.copy())
        if abs(e_prev - e_now) / max(abs(e_prev), 1e-30) < h.tolerance:
            e_prev = e_now
            break
        e_prev = e_now

    X_all = np.vstack([dp.feature_matrix(), dg.feature_matrix()])
    predictions = _forward_batch(ps, X_all)[-1][:, 0]
    return TrainResult(
        theta_star=ps,
        e_star=history[-1],
        predictions=predictions,
        e_initial=e_initial,
        loss_history=history,
        pruned_count=pruned,
        trajectory=trajectory,
    )


def predict_distance(ps: ParameterSet, features, scale: float = 1.0) -> float:
    """Positive-pass output de-normalized by the caller's distance scale."""
    _, y = forward_positive(ps, features)
    return float(y[0]) * scale


# -- synthetic datasets ------------------------------------------------------------


@dataclass
class DatasetSpec:
    n_personal: int
    n_general: int
    label_coverage: float = 1.0
    class_proportions: tuple = (0.947, 0.0343, 0.0183)
    conflict_fraction: float = 0.0
    noise_std: float = 0.02

    def validate(self):
        if self.n_personal < 1 or self.n_general < 1:
            raise InvalidSpec("sample counts must be >= 1")
        if not (0.0 <= self.label_coverage <= 1.0):
            raise InvalidSpec("label_coverage must lie in [0, 1]")
        if not (0.0 <= self.conflict_fraction < 1.0):
            raise InvalidSpec("conflict_fraction must lie in [0, 1)")
        if self.noise_std < 0:
            raise InvalidSpec("noise_std must be non-negative")
        props = np.asarray(self.class_proportions, dtype=np.float64)
        if len(props) < 1 or props.min() < 0 or props.sum() <= 0:
            raise InvalidSpec("class_proportions must be non-negative with positive sum")
        return self


def _class_counts(n, proportions):
    """Exact largest-remainder allocation so observed shares track the
    requested proportions."""
    props = np.asarray(proportions, dtype=np.float64)
    props = props / props.sum()
    raw = props * n
    counts = np.floor(raw).astype(int)
    rem = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(rem):
        counts[order[i]] += 1
    return counts


def _make_samples(n, rng, spec, coverage):
    feats = rng.random((n, N_FEATURES))
    dist = np.clip(
        feats.mean(axis=1) + spec.noise_std * rng.standard_normal(n), 0.0, 1.0
    )
    counts = _class_counts(n, spec.class_proportions)
    k = len(counts)
    class_of = np.repeat(np.arange(k), counts)
    class_of = class_of[rng.permutation(n)]
    labeled = np.zeros(n, dtype=bool)
    labeled[rng.permutation(n)[: int(round(coverage * n))]] = True

    n_conf = int(round(spec.conflict_fraction * n))
    conflict_idx = rng.permutation(n)[:n_conf] if n_conf else np.array([], dtype=int)
    for i in conflict_idx.tolist():
        partner = (i + 1) % n
        if partner == i:
            continue
        feats[i] = feats[partner]
        dist[i] = float(np.clip(1.0 - dist[partner], 0.0, 1.0))
        class_of[i] = (class_of[partner] + 1) % k

    samples = []
    for i in range(n):
        labels = {"classification": (class_of[i] / (k - 1)) if k > 1 else 0.0}
        if labeled[i]:
            labels["distance"] = float(dist[i])
        samples.append(Sample(feats[i], labels))
    return samples


def synthesize_dataset(spec: DatasetSpec, seed: int):
    """Seeded stand-in corpus with a controlled class imbalance, partial
    distance labels on the general side, and optional conflicting duplicates."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    dp = Dataset("personal", _make_samples(spec.n_personal, rng, spec, 1.0))
    dg = Dataset("general", _make_samples(spec.n_general, rng, spec, spec.label_coverage))
    return dp, dg


# -- model and dataset files ---------------------------------------------------------


def model_to_text(ps: ParameterSet, h: Hyperparams) -> str:
    lines = [
        "widths " + " ".join(str(w) for w in ps.widths),
        f"dmax {ps.d_max}",
        f"seed {h.rng_seed}",
        "hyper "
        + " ".join(
            f"{name}={getattr(h, name)!r}"
            for name in (
                "alpha", "lambda_g", "lambda_q", "lambda_p", "lambda_k",
                "q", "k", "learning_rate", "prune_probability",
                "batch_size", "max_epochs", "tolerance",
            )
        ),
    ]
    for l in range(ps.L):
        for j in range(ps.widths[l]):
            conn = ps.weights[l - 1][j] if l >= 1 else np.array([])
            parts = [
                "w", str(l), str(j),
                str(int(ps.alive[l][j])), repr(float(ps.biases[l][j])),
            ]
            parts.extend(repr(float(c)) for c in conn)
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_model(ps: ParameterSet, h: Hyperparams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(ps, h))


def load_model(path):
    """Read a model written by `save_model`.

    The file keeps weights, biases and alive flags but not the frozen
    (pruned) masks, so the loaded model is for inference: every parameter
    comes back unfrozen, and training it further would let pruned
    parameters move again.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    widths = None
    d_max = None
    seed = 0
    hyper = {}
    rows = []
    for ln in lines:
        parts = ln.split()
        if parts[0] == "widths":
            widths = tuple(int(x) for x in parts[1:])
        elif parts[0] == "dmax":
            d_max = int(parts[1])
        elif parts[0] == "seed":
            seed = int(parts[1])
        elif parts[0] == "hyper":
            for kv in parts[1:]:
                key, val = kv.split("=", 1)
                hyper[key] = val
        elif parts[0] == "w":
            rows.append(parts[1:])
        else:
            raise InvalidParams(f"unknown model line {parts[0]!r}")
    if widths is None or d_max is None:
        raise InvalidParams("model file missing widths/dmax header")
    weights = [np.zeros((widths[l + 1], widths[l])) for l in range(len(widths) - 1)]
    biases = [np.zeros(w) for w in widths]
    alive = [np.ones(w) for w in widths]
    for row in rows:
        l, j = int(row[0]), int(row[1])
        alive[l][j] = float(int(row[2]))
        biases[l][j] = float(row[3])
        conn = [float(x) for x in row[4:]]
        if l >= 1:
            if len(conn) != widths[l - 1]:
                raise DimensionMismatch(f"neuron {l}/{j} has {len(conn)} connections")
            weights[l - 1][j, :] = conn
    ps = ParameterSet(widths, weights, biases, alive, d_max)
    ps.w_frozen = [np.zeros(w.shape, dtype=bool) for w in ps.weights]
    ps.b_frozen = [np.zeros(len(b), dtype=bool) for b in ps.biases]
    ints = {"q", "k", "batch_size", "max_epochs"}
    kwargs = {
        key: (int(val) if key in ints else float(val)) for key, val in hyper.items()
    }
    h = Hyperparams(rng_seed=seed, **kwargs)
    return ps, h


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(FEATURE_NAMES) + [f"label_{k}" for k in LABEL_KINDS])
        for s in ds.samples:
            row = [repr(float(v)) for v in s.features]
            row.extend(
                repr(float(s.labels[k])) if k in s.labels else "" for k in LABEL_KINDS
            )
            writer.writerow(row)


def load_dataset(path, kind: str) -> Dataset:
    """Read a dataset CSV; a missing header or a malformed row raises
    InvalidParams naming the file and line."""
    expected = list(FEATURE_NAMES) + [f"label_{k}" for k in LABEL_KINDS]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != expected:
            raise InvalidParams(f"{path}, line 1: unexpected dataset columns")
        samples = []
        for row in reader:
            try:
                feats = np.array([float(v) for v in row[:N_FEATURES]])
                labels = {
                    kind_name: float(cell)
                    for kind_name, cell in zip(LABEL_KINDS, row[N_FEATURES:])
                    if cell != ""
                }
                samples.append(Sample(feats, labels))
            except (ValueError, DimensionMismatch, InvalidParams) as exc:
                raise InvalidParams(f"{path}, line {reader.line_num}: {exc}") from None
    return Dataset(kind, samples)
