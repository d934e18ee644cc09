"""Congruity learning: a pair of tied-weight layered networks trained on a
blend of a general (memory) error and a personal (response) error.

The positive pass maps normalized feature vectors to a bounded output through
logistic layers; the negative pass runs the same connections transposed to
reconstruct the features from the output (a tied-weight autoencoder). The
general error couples prediction loss with a q-norm-scaled reconstruction
term; the personal error gates the reconstruction term per sample by a top-k
cosine filter against the dataset centroid. Training first prunes parameters
layer by layer, then runs plain gradient descent on the blended objective.

Everything is seeded; runs are bit-identical on one numpy SIMD and BLAS path.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass, fields

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

# Learner size caps. At the default 200 + 400 samples (2-vCPU VM, numpy
# 2.4, one BLAS thread) pruning took 0.05 s for 170 weights and biases,
# 1.4 s for 2,450 and 14 s for 9,746 (peak 0.4, 0.2 and 0.13 KiB each)
# and an unpruned epoch 0.5, 1.6 and 5.3 ms: a quarter of a minute of
# pruning at MAX_PARAMETERS, under one of descent at MAX_EPOCHS.
MAX_PARAMETERS = 10_000
MAX_EPOCHS = 10_000

# Most samples `synthesize_dataset` draws per side. A sample holds about
# 170 bytes, peaks at about 330 while it is built, and takes about 0.5 us
# (tracemalloc at 40,000, 2-vCPU VM), so either side at the cap peaks at
# about a third of a GiB and takes about a second.
MAX_SAMPLES = 1_000_000


# -- data model ----------------------------------------------------------------


def _bad_row(X):
    """(index, reason) of the first row of X that is not finite and within
    [0, 1], or None when every row is."""
    ok = ((X >= 0.0) & (X <= 1.0)).all(axis=1)  # nan compares False
    if ok.all():
        return None
    i = int(ok.argmin())
    if not np.isfinite(X[i]).all():
        return i, "features must be finite"
    return i, "features must be normalized to [0, 1]"


class Dataset:
    """A personal or general sample set: one feature row per sample, plus a
    `(values, mask)` column pair per label kind, where mask is 1.0 for a
    labeled sample and values read 0 elsewhere. The arrays are read-only, so
    the top-k filters are memoised per (k, centroid).
    """

    def __init__(self, kind: str, features, labels=None):
        """`features` is an (n, N_FEATURES) array-like in [0, 1]; `labels`
        maps a label kind to a (values, mask) pair of length n, finite
        where the mask is set."""
        X = np.array(features, dtype=np.float64)
        if X.size == 0:
            X = X.reshape(0, N_FEATURES)
        if X.ndim != 2 or X.shape[1] != N_FEATURES:
            raise DimensionMismatch(
                f"feature rows must have {N_FEATURES} entries, got shape {X.shape}"
            )
        bad = _bad_row(X)
        if bad is not None:
            raise InvalidParams(f"sample {bad[0]}: {bad[1]}")
        columns = {}
        for name, (values, mask) in (labels or {}).items():
            if name not in LABEL_KINDS:
                raise InvalidParams(f"unknown label kind {name!r}")
            given = np.asarray(mask, dtype=bool)
            values = np.where(given, np.asarray(values, dtype=np.float64), 0.0)
            if given.shape != values.shape or values.shape != (len(X),):
                raise DimensionMismatch(f"label {name!r} must have {len(X)} entries")
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise InvalidParams(f"sample {bad[0]}: label {name!r} must be finite")
            columns[name] = (values, given.astype(np.float64))
        self._fill(kind, X, columns)

    def _fill(self, kind, X, columns):
        if kind not in ("personal", "general"):
            raise InvalidParams(f"dataset kind must be personal or general, got {kind!r}")
        self.kind = kind
        self.features = X
        self.labels = columns
        for a in (X, *(a for pair in columns.values() for a in pair)):
            a.flags.writeable = False
        self._filters = {}

    def __len__(self):
        return len(self.features)

    def label_arrays(self, kind: str):
        """(values, mask) of one label kind; unlabeled samples read 0 in both."""
        if kind in self.labels:
            return self.labels[kind]
        zeros = np.zeros(len(self))
        zeros.flags.writeable = False
        return zeros, zeros

    def topk_filters(self, centroid, k: int) -> np.ndarray:
        """`filter_topk` of every sample against the centroid."""
        centroid = np.asarray(centroid, dtype=np.float64)
        key = (k, centroid.tobytes())
        if key not in self._filters:
            X = self.features
            filters = np.array([filter_topk(X[i], centroid, k) for i in range(len(self))])
            filters.flags.writeable = False
            self._filters[key] = filters
        return self._filters[key]

    def centroid(self) -> np.ndarray:
        if len(self) == 0:
            raise EmptyDataset("cannot take the centroid of an empty dataset")
        return self.features.mean(axis=0)

    def slice(self, lo: int, hi: int) -> "Dataset":
        """Samples lo..hi-1, as views of this dataset's arrays."""
        part = Dataset.__new__(Dataset)
        part._fill(self.kind, self.features[lo:hi],
                   {name: (v[lo:hi], m[lo:hi]) for name, (v, m) in self.labels.items()})
        return part


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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidParams(f"{f.name} must be finite")
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
        if self.batch_size < 1 or not 1 <= self.max_epochs <= MAX_EPOCHS:
            raise InvalidParams(f"batch_size must be >= 1, max_epochs in [1, {MAX_EPOCHS}]")
        if self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive")
        return self


class ParameterSet:
    """Layered parameters in one flat vector `theta`, with alive flags and a
    frozen (pruned) mask laid out like theta.

    Layer 0 is the input layer: its neurons carry no connections, only a bias
    that the negative pass uses when reconstructing the features. Layer L-1 is
    the output layer. weights[l] connects layer l to layer l+1 with shape
    (widths[l+1], widths[l]); row j is the connection vector of neuron j.
    Layer l's block of theta is weights[l-1] row-major, then biases[l];
    `weights`, `biases`, `w_frozen` and `b_frozen` are views of theta and
    frozen. A new set is all zeros, alive and unfrozen.
    """

    def __init__(self, widths, d_max):
        self.widths = tuple(int(w) for w in widths)
        self.d_max = int(d_max)
        sizes = [self.widths[0]] + [(a + 1) * b for a, b in zip(self.widths, self.widths[1:])]
        self._starts = (0, *itertools.accumulate(sizes))
        self.theta = np.zeros(self._starts[-1])
        self.frozen = np.zeros(self._starts[-1], dtype=bool)
        self.weights, self.biases = self.views(self.theta)
        self.w_frozen, self.b_frozen = self.views(self.frozen)
        self.alive = [np.ones(w) for w in self.widths]

    @property
    def L(self) -> int:
        return len(self.widths)

    def views(self, vec):
        """(weights, biases) of a vector laid out like theta, as views."""
        weights, biases = [], []
        for l, w in enumerate(self.widths):
            hi = self._starts[l + 1]
            if l >= 1:
                weights.append(vec[self._starts[l]:hi - w].reshape(w, self.widths[l - 1]))
            biases.append(vec[hi - w:hi])
        return weights, biases

    def layer_coords(self, layer: int) -> range:
        """Indices of one layer's block of theta: connection weights
        row-major, then biases (layer 0 has biases only)."""
        return range(self._starts[layer], self._starts[layer + 1])

    def neuron(self, i: int):
        """(layer, index) of the neuron that owns parameter i."""
        l = bisect.bisect_right(self._starts, i) - 1
        offset = i - self._starts[l]
        n_weights = self._starts[l + 1] - self._starts[l] - self.widths[l]
        if offset >= n_weights:
            return l, offset - n_weights
        return l, offset // self.widths[l - 1]

    def prune(self, i: int):
        """Zero and freeze parameter i; its neuron dies once every parameter
        it owns is frozen."""
        self.theta[i] = 0.0
        self.frozen[i] = True
        l, j = self.neuron(i)
        if self.b_frozen[l][j] and (l == 0 or self.w_frozen[l - 1][j].all()):
            self.alive[l][j] = 0.0

    def live_count(self, layer: int) -> int:
        block = self.frozen[self._starts[layer]:self._starts[layer + 1]]
        return len(block) - int(block.sum())


def check_widths(widths) -> tuple:
    """Layer widths as ints: two or more, each >= 1, with at most
    MAX_PARAMETERS weights and biases in all; InvalidParams otherwise."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or min(widths) < 1:
        raise InvalidParams("need at least input and output layers, widths >= 1")
    count = sum(a * b for a, b in zip(widths, widths[1:])) + sum(widths)
    if count > MAX_PARAMETERS:
        raise InvalidParams(f"hidden_widths {widths[1:-1]} give {count} parameters, "
                            f"more than {MAX_PARAMETERS}")
    return widths


def init_parameters(widths, d_max=None, rng=None) -> ParameterSet:
    """Fresh parameters drawn uniformly from [-0.5, 0.5)."""
    widths = check_widths(widths)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    max_indegree = max(widths[:-1])
    if d_max is None:
        d_max = max_indegree
    if max_indegree > d_max:
        raise InvalidParams(
            f"layer in-degree {max_indegree} exceeds d_max {d_max}"
        )
    ps = ParameterSet(widths, d_max)
    for p in ps.weights + ps.biases:
        p[...] = rng.uniform(-0.5, 0.5, size=p.shape)
    return ps


# -- forward passes ------------------------------------------------------------


def _sigmoid(z, b):
    """Logistic function of z + b, computed in place in the fresh array z,
    bit for bit 1 / (1 + exp(-clip(z + b, -500, 500))). The upper clip is
    left out: for x >= 500, exp(-x) <= exp(-500) < 1e-217, so 1 + exp(-x)
    is 1.0 either way. Adding b in place keeps wide stacks off fresh pages."""
    z += b
    np.maximum(z, -500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _forward_batch(ps: ParameterSet, X: np.ndarray, alive=None):
    """Every layer's activations of a batch of rows, or of batches stacked
    along a leading axis (see _backprop). `alive` stands in for ps.alive,
    with None for a layer whose neurons all live: x * 1.0 is x, bit for bit."""
    if alive is None:
        alive = ps.alive
    acts = [X if alive[0] is None else X * alive[0]]
    for l in range(1, ps.L):
        a = _sigmoid(acts[-1] @ ps.weights[l - 1].T, ps.biases[l])
        if alive[l] is not None:
            a *= alive[l]
        acts.append(a)
    return acts

def _reconstruct_batch(ps: ParameterSet, Y: np.ndarray):
    recs = [None] * ps.L
    recs[-1] = Y * ps.alive[-1]
    for l in range(ps.L - 2, -1, -1):
        recs[l] = _sigmoid(recs[l + 1] @ ps.weights[l], ps.biases[l]) * ps.alive[l]
    return recs


def forward_positive(ps: ParameterSet, x):
    """Feature vector -> (per-layer activations, output vector)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ps.widths[0],):
        raise DimensionMismatch(f"expected {ps.widths[0]} inputs, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParams("inputs must be finite")
    acts = [a[0] for a in _forward_batch(ps, x[None, :])]
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


def _loss_parts(ps, X, vals, mask, reconstruct=True, acts=None):
    """Summed prediction loss and per-sample squared reconstruction errors,
    per stacked batch if X has a leading stack axis; the reconstruction is
    None when `reconstruct` is false. `acts` is X's forward pass at the
    current parameters, if the caller has it."""
    if acts is None:
        acts = _forward_batch(ps, X)
    sq = (acts[-1][..., 0] - vals) ** 2
    pred_sum = (sq if mask is None else sq * mask).sum(axis=-1)
    if not reconstruct:
        return pred_sum, None
    recs = _reconstruct_batch(ps, acts[-1])
    return pred_sum, ((recs[0] - X) ** 2).sum(axis=-1)


def _stacked(arrays):
    """`arrays` stacked along a new leading axis; a lone array comes back
    as a view of itself under that axis, never a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _Stack:
    """Batches of the same rows stacked along a leading axis, personal
    before general, for one pass through `_forward_batch`, `_loss_parts`
    and `_backprop`: features (S, rows, N_FEATURES), distance values and
    masks (S, rows; None if all are labeled: x * 1.0 is x), twice each
    side's prediction weight (S, 1), and whether its
    sides, which all run the same chain, reconstruct: a zero-weighted
    reconstruction term is not computed (see _backprop). Every error and
    gradient is computed on a stack; a stack of one dataset holds views of
    its arrays."""

    def __init__(self, batches, h):
        self.batches = batches
        self.X = _stacked([b.features for b in batches])
        self.vals, mask = (_stacked(a) for a in zip(*(b.label_arrays("distance") for b in batches)))
        self.mask = None if mask.all() else mask
        self.two_w = 2.0 * np.array([[h.lambda_p if b.kind == "personal" else h.lambda_g]
                                     for b in batches])
        self.reconstruct = (h.lambda_k if batches[0].kind == "personal" else h.lambda_q) != 0.0


def _stack_of_one(ps, d, h, kind, name):
    """d as a stack of one for the public function `name`, which takes a
    non-empty `kind` dataset and a net with a single output neuron."""
    if d.kind != kind:
        raise InvalidParams(f"{name} needs a {kind} dataset")
    if len(d) == 0:
        raise EmptyDataset(f"{kind} dataset is empty")
    if ps.widths[-1] != 1:
        raise DimensionMismatch("error functions require a single output neuron")
    return _Stack((d,), h)


def _stack_errors(ps, st, h, centroid, acts=None):
    """Each stacked side's error, `general_error` or `personal_error` of its
    batch by its kind. `acts` is st's forward pass at the current
    parameters, if the caller has it."""
    pred_sum, recon_sq = _loss_parts(ps, st.X, st.vals, st.mask, st.reconstruct, acts)
    errors = []
    for k, b in enumerate(st.batches):
        e = (h.lambda_p if b.kind == "personal" else h.lambda_g) * float(pred_sum[k])
        if recon_sq is not None:
            e += (h.lambda_q * regularizer(ps, h.q) * float(recon_sq[k].sum()) if b.kind == "general"
                  else h.lambda_k * float((b.topk_filters(centroid, h.k) * recon_sq[k]).sum()))
        errors.append(e)
    return errors


def general_error(ps: ParameterSet, dg: Dataset, h: Hyperparams) -> float:
    """Prediction loss on labeled general samples plus the q-norm-scaled
    reconstruction (memory) loss over all general samples."""
    return _stack_errors(ps, _stack_of_one(ps, dg, h, "general", "general_error"), h, None)[0]


def personal_error(ps: ParameterSet, dp: Dataset, h: Hyperparams, centroid=None) -> float:
    """Prediction loss on labeled personal samples plus the per-sample
    filter-gated reconstruction (response) loss."""
    st = _stack_of_one(ps, dp, h, "personal", "personal_error")
    return _stack_errors(ps, st, h, dp.centroid() if centroid is None else centroid)[0]


def _blend(h, p, g):
    """The blended objective, or its gradient, from its personal and general
    parts."""
    return (1.0 - h.alpha) * g + h.alpha * p


def congruity_objective(ps: ParameterSet, dp: Dataset, dg: Dataset, h: Hyperparams,
                        centroid=None, pair=None) -> float:
    """`pair` is `_pair((dp, dg), h)`, if the caller has it."""
    if pair is None:
        return _blend(h, personal_error(ps, dp, h, centroid), general_error(ps, dg, h))
    return _blend(h, *_pair_errors(ps, pair, h, centroid)[:2])


# -- analytic gradients ----------------------------------------------------------


def _backprop(ps, X, vals, mask, two_w, recon_coeff, acts=None, alive=None):
    """Gradient, laid out like theta, of two_w / 2 * sum_labeled (y - t)^2 +
    sum_n c_n * ||x_n - X_n||^2, plus the per-sample squared reconstruction
    errors ||x_n - X_n||^2; a mask of None labels every sample.

    The reconstruction chain reuses the forward connections transposed, so
    each weight and hidden bias is the negative chain's term plus the
    positive chain's, joined in theta's layout (b0, W0, b1, W1, ...).

    `recon_coeff` None means a zero-weighted reconstruction term: the
    negative chain is skipped, the input biases get zeros and the errors
    come back as None. That is what all-zero coefficients give up to the
    sign of exact zeros: with finite parameters the skipped terms are finite
    (sigmoid outputs and features lie in [0, 1], filters in [-1, 1]), so 0.0
    times each is +-0.0, and leaving out a +-0.0 term, or the 0.0 + of a
    zeroed sum, changes only the sign of an exact zero. No parameter sees
    it: none is ever -0.0 (uniform(-0.5, 0.5) cannot return it, pruning and
    frozen descent steps write +0.0, w - d is -0.0 only when w is, and a
    prune step skips a zero gradient), so every loss, parameter and
    prediction is unchanged (TestSignOfZero). A skipped term that is not
    finite made 0.0 * inf = nan in the full formula. The output is one
    neuron wide (the error functions check it). `acts` is X's forward pass
    if the caller has it; `alive` goes to `_forward_batch` otherwise.

    X may stack S batches of the same rows along a leading axis, with vals,
    mask and recon_coeff (S, rows) and two_w (S, 1); the gradients come back
    (S, theta.size) and the errors (S, rows). Each slice's bytes are those
    of a pass over its batch alone on one condition: each stacked slice gets
    the same BLAS call and the same elementwise and reduction loops as a
    single-side pass. numpy meets it by running matmul slice by slice, with
    the 2-D pass's shapes and strides, and by reducing each slice's
    contiguous rows as it reduces a 2-D array's (TestStackedPass checks it).
    """
    if acts is None:
        acts = _forward_batch(ps, X, alive)
    err = two_w * (acts[-1][..., 0] - vals)
    if mask is not None:
        err *= mask
    lead = X.shape[:-2]

    if recon_coeff is None:
        recon_sq = None
        ga = err[..., None]
        neg = [np.zeros((*lead, ps.widths[0]))]
    else:
        # negative (reconstruction) chain: b0, W0, ... W[L-2]
        neg = []
        recs = _reconstruct_batch(ps, acts[-1])
        diff = recs[0] - X
        recon_sq = (diff ** 2).sum(axis=-1)
        gr = 2.0 * recon_coeff[..., None] * diff
        for l in range(ps.L - 1):
            gs = gr * recs[l] * (1.0 - recs[l])
            neg += gs.sum(axis=-2), (recs[l + 1].swapaxes(-1, -2) @ gs).reshape(*lead, -1)
            gr = gs @ ps.weights[l].T
        ga = gr * ps.alive[-1]
        ga[..., 0] += err

    # positive chain (W0, b1, ... b[L-1]), seeded by the error and any reconstruction flow
    pos = []
    for l in range(ps.L - 1, 0, -1):
        gz = ga * acts[l] * (1.0 - acts[l])
        pos[:0] = (gz.swapaxes(-1, -2) @ acts[l - 1]).reshape(*lead, -1), np.add.reduce(gz, axis=-2)
        if l > 1:
            ga = gz @ ps.weights[l - 1]
    parts = neg[:1] + list(map(np.add, neg[1:], pos)) + pos[len(neg) - 1:]
    return np.concatenate(parts, axis=-1), recon_sq


def _regularizer_grads(ps, q):
    """Gradient of the q-norm over alive parameters (zero at the origin),
    laid out like theta, and the norm (signs of zero as in _backprop)."""
    r = regularizer(ps, q)
    if r == 0.0:
        return np.zeros(ps.theta.size), r
    try:
        scale = r ** (1.0 - q)
    except OverflowError:
        raise NonFiniteLoss(f"q-norm gradient overflows: {r!r} ** {1 - q}") from None
    grad = scale * (np.abs(ps.theta) ** (q - 1)) * np.sign(ps.theta)
    gW, gb = ps.views(grad)
    for l, a in enumerate(ps.alive):
        gb[l] *= a
        if l:
            gW[l - 1] *= a[:, None]
    return grad, r


def _stack_grads(ps, st, h, centroid, alive=None, acts=None):
    """Each stacked side's gradient, (S, theta.size): `grad_general` or
    `grad_personal` of its batch by its kind. The reconstruction weighs a
    personal sample by lambda_k times its top-k filter and a general one by
    lambda_q times the q-norm, whose own gradient enters scaled by the
    summed reconstruction loss. `acts` is st's forward pass at the current
    parameters, if the caller has it; `alive` stands in for ps.alive
    otherwise (see _forward_batch)."""
    coeff = reg = None
    if st.reconstruct:
        if st.batches[-1].kind == "general":  # the general side is the last
            reg = _regularizer_grads(ps, h.q)
        coeff = _stacked([h.lambda_k * b.topk_filters(centroid, h.k) if b.kind == "personal"
                          else np.full(len(b), h.lambda_q * reg[1]) for b in st.batches])
    grad, recon_sq = _backprop(ps, st.X, st.vals, st.mask, st.two_w, coeff, acts, alive)
    if reg is not None:
        grad[-1] += h.lambda_q * float(recon_sq[-1].sum()) * reg[0]
    return grad


def grad_general(ps: ParameterSet, dg: Dataset, h: Hyperparams):
    return _stack_grads(ps, _stack_of_one(ps, dg, h, "general", "grad_general"), h, None)[0]


def grad_personal(ps: ParameterSet, dp: Dataset, h: Hyperparams, centroid=None):
    st = _stack_of_one(ps, dp, h, "personal", "grad_personal")
    return _stack_grads(ps, st, h, dp.centroid() if centroid is None else centroid)[0]


def grad_congruity(ps: ParameterSet, dp: Dataset, dg: Dataset, h: Hyperparams, centroid=None):
    return _blend(h, grad_personal(ps, dp, h, centroid), grad_general(ps, dg, h))


# -- training --------------------------------------------------------------------


@dataclass
class TrainResult:
    theta_star: ParameterSet
    e_star: float
    e_initial: float
    loss_history: list
    pruned_count: int


def _pair(sides, h):
    """(personal, general) sides as stacks: one of both where rows match
    and both or neither reconstruction term is weighted, else two."""
    if (h.lambda_k != 0.0) == (h.lambda_q != 0.0) and len(sides[0]) == len(sides[1]):
        return [_Stack(sides, h)]
    return [_Stack((b,), h) for b in sides]


def _batches(dp, dg, h):
    """Each (personal, general) batch pair as a `_pair`. The shorter side
    wraps around and reuses its batch objects, so each batch's memos are
    filled once."""
    size = h.batch_size
    bps, bgs = ([d.slice(lo, lo + size) for lo in range(0, len(d), size)] for d in (dp, dg))
    return [_pair((bps[i % len(bps)], bgs[i % len(bgs)]), h)
            for i in range(max(len(bps), len(bgs)))]


def _live_masks(ps):
    """The alive flags (0.0 or 1.0), with None for a layer with no dead
    neuron (x * 1.0 is x, bit for bit), and the frozen parameters' indices.
    Neither changes after the prune phase."""
    return [None if a.all() else a for a in ps.alive], np.flatnonzero(ps.frozen)


def _pair_errors(ps, pair, h, centroid):
    """(personal error, general error, the personal batch's forward pass as
    a stack of one) of one batch pair."""
    passes = [_forward_batch(ps, st.X) for st in pair]
    errors = [e for st, acts in zip(pair, passes) for e in _stack_errors(ps, st, h, centroid, acts)]
    return (*errors, [a[:1] for a in passes[0]])


def _prune_phase(ps, pairs, h, centroid, rng):
    """Layer-wise pruning sweep over `_batches` pairs.

    Per layer: take per-parameter response-gradient steps; a parameter whose
    step moves the personal error less than alpha times the general error is
    zeroed (and frozen) with the configured probability. The layer is left as
    soon as its live parameter count drops under d_max.

    A kept step leaves the parameters where the next coordinate starts, so
    the errors after it, and the personal forward pass behind them, are the
    next coordinate's before its step on the same batch; only a prune
    (zeroing, freezing, maybe killing a neuron) or a batch change forces a
    fresh evaluation. A zero gradient makes the step a no-op: both errors
    would come back unchanged, 0 < alpha * 0 fails and no rng value is
    drawn, so the step is skipped. With lambda_k == 0 every layer-0
    gradient is zero (layer 0 has only biases, which only the skipped
    reconstruction chain reaches), so that layer is not swept at all.
    """
    pruned = 0
    known = None  # (batch, personal error, general error, personal stack's forward pass)
    personal = [_Stack(pair[0].batches[:1], h) for pair in pairs]  # personal sides alone, as views
    for layer in range(0 if h.lambda_k != 0.0 else 1, ps.L):
        d = ps.live_count(layer)
        if d < ps.d_max:
            continue
        for b, i in itertools.product(range(len(pairs)), ps.layer_coords(layer)):
            if ps.frozen[i]:
                continue
            if known is None or known[0] != b:
                known = (b, *_pair_errors(ps, pairs[b], h, centroid))
            _, ev_p, ev_g, acts = known
            g = _stack_grads(ps, personal[b], h, centroid, acts=acts)[0, i]
            if g == 0.0:
                continue
            ps.theta[i] -= h.learning_rate * g
            known = (b, *_pair_errors(ps, pairs[b], h, centroid))
            _, en_p, en_g, _ = known
            if abs(en_p - ev_p) < h.alpha * abs(en_g - ev_g):
                if rng.random() < h.prune_probability:
                    ps.prune(i)
                    known = None
                    d -= 1
                    pruned += 1
                if d < ps.d_max:
                    break
    return pruned


def train(dp: Dataset, dg: Dataset, h: Hyperparams, arch, d_max=None) -> TrainResult:
    """Two-phase optimization: layer-wise pruning, then gradient descent on
    the blended objective until max_epochs or the relative improvement drops
    under the tolerance. Deterministic for a fixed seed.

    Each batch pair, and the whole sides for the epoch objective, run as a
    `_pair`, so one pass serves both sides where their shapes allow."""
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

    whole = _pair((dp, dg), h)
    e_initial = congruity_objective(ps, dp, dg, h, centroid, whole)
    pairs = _batches(dp, dg, h)
    pruned = _prune_phase(ps, pairs, h, centroid, rng)

    e_prev = congruity_objective(ps, dp, dg, h, centroid, whole)
    history = [e_prev]
    alive, frozen = _live_masks(ps)
    for _ in range(h.max_epochs):
        for pair in pairs:
            p, g = (side for st in pair for side in _stack_grads(ps, st, h, centroid, alive))
            step = _blend(h, p, g)
            step[frozen] = 0.0
            step *= h.learning_rate
            ps.theta -= step
        e_now = congruity_objective(ps, dp, dg, h, centroid, whole)
        if not math.isfinite(e_now):
            raise NonFiniteLoss(f"objective diverged to {e_now}")
        history.append(e_now)
        if abs(e_prev - e_now) / max(abs(e_prev), 1e-30) < h.tolerance:
            break
        e_prev = e_now

    return TrainResult(ps, history[-1], e_initial, history, pruned)


def predict_distance(ps: ParameterSet, features, scale: float = 1.0) -> float:
    """Positive-pass output de-normalized by the caller's distance scale."""
    _, y = forward_positive(ps, features)
    return float(y[0]) * scale


# -- synthetic datasets ------------------------------------------------------------

# The class mix of synthesized samples. Training reads only the distance
# label, so the mix changes no trained model and is fixed here.
CLASS_PROPORTIONS = (0.947, 0.0343, 0.0183)


@dataclass
class DatasetSpec:
    n_personal: int = 200
    n_general: int = 400
    label_coverage: float = 1.0
    conflict_fraction: float = 0.0
    noise_std: float = 0.02

    def validate(self):
        for key in ("n_personal", "n_general"):
            if not 1 <= getattr(self, key) <= MAX_SAMPLES:
                raise InvalidSpec(f"{key} must lie in [1, {MAX_SAMPLES}]")
        if not (0.0 <= self.label_coverage <= 1.0):
            raise InvalidSpec("label_coverage must lie in [0, 1]")
        if not (0.0 <= self.conflict_fraction < 1.0):
            raise InvalidSpec("conflict_fraction must lie in [0, 1)")
        if self.noise_std < 0:
            raise InvalidSpec("noise_std must be non-negative")
        return self


def _class_counts(n):
    """Exact largest-remainder allocation of `n` samples, so observed
    shares track CLASS_PROPORTIONS."""
    props = np.asarray(CLASS_PROPORTIONS, dtype=np.float64)
    props = props / props.sum()
    raw = props * n
    counts = np.floor(raw).astype(int)
    rem = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(rem):
        counts[order[i]] += 1
    return counts


def _make_side(n, rng, spec, coverage):
    """(features, labels) of one side: every sample carries its class, a
    `coverage` share its distance."""
    feats = rng.random((n, N_FEATURES))
    dist = np.clip(
        feats.mean(axis=1) + spec.noise_std * rng.standard_normal(n), 0.0, 1.0
    )
    counts = _class_counts(n)
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

    return feats, {"classification": (class_of / max(k - 1, 1), np.ones(n)),
                   "distance": (dist, labeled)}


def synthesize_dataset(spec: DatasetSpec, seed: int):
    """Seeded stand-in corpus with a fixed class imbalance, partial
    distance labels on the general side, and optional conflicting duplicates."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    dp = Dataset("personal", *_make_side(spec.n_personal, rng, spec, 1.0))
    dg = Dataset("general", *_make_side(spec.n_general, rng, spec, spec.label_coverage))
    return dp, dg


# -- model and dataset files ---------------------------------------------------------


# The hyperparameters a model file records, in field order, each with the
# type that reads it back; rng_seed has a line of its own.
_HYPER_TYPES = {
    f.name: int if f.type == "int" else float
    for f in fields(Hyperparams) if f.name != "rng_seed"
}


def model_to_text(ps: ParameterSet, h: Hyperparams) -> str:
    lines = [
        "widths " + " ".join(str(w) for w in ps.widths),
        f"dmax {ps.d_max}",
        f"seed {h.rng_seed}",
        "hyper "
        + " ".join(
            f"{name}={getattr(h, name)!r}"
            for name in _HYPER_TYPES
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


def load_model(path):
    """Read a model file as `model_to_text` writes it; anything it cannot have written
    raises InvalidParams naming the file and the line or neuron.

    The file keeps weights, biases and alive flags but not the frozen
    (pruned) masks, so the loaded model is for inference: every parameter
    comes back unfrozen, and training it further would let pruned
    parameters move again.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    widths = None
    d_max = None
    seed = 0
    hyper = {}
    headers = set()
    neurons = {}  # (layer, index): (alive, bias, connections)
    for lineno, ln in enumerate(lines, start=1):
        parts = ln.split()
        if not parts:
            continue
        where = f"{path}, line {lineno}"
        try:
            if parts[0] in headers:
                raise ValueError(f"a second {parts[0]} line")
            if parts[0] != "w":
                headers.add(parts[0])
            if parts[0] == "widths":
                widths = check_widths(int(x) for x in parts[1:])
            elif parts[0] == "dmax":
                d_max = int(parts[1])
                if widths is None:
                    raise ValueError("dmax line before the widths line")
                if max(widths[:-1]) > d_max:
                    raise ValueError(f"layer in-degree {max(widths[:-1])} exceeds d_max {d_max}")
            elif parts[0] == "seed":
                seed = int(parts[1])
            elif parts[0] == "hyper":
                for kv in parts[1:]:
                    key, val = kv.split("=", 1)
                    if key not in _HYPER_TYPES:
                        raise ValueError(f"unknown hyperparameter {key!r}")
                    if key in hyper:
                        raise ValueError(f"hyperparameter {key!r} given twice")
                    hyper[key] = _HYPER_TYPES[key](val)
                    if not math.isfinite(hyper[key]):
                        raise ValueError(f"hyperparameter {key!r} must be finite")
                Hyperparams(**hyper).validate()
            elif parts[0] == "w":
                l, j = int(parts[1]), int(parts[2])
                if widths is None or not (0 <= l < len(widths) and 0 <= j < widths[l]):
                    raise ValueError(f"neuron {l}/{j} is outside widths {widths}")
                if (l, j) in neurons:
                    raise ValueError(f"neuron {l}/{j} has a second w line")
                if parts[3] not in ("0", "1"):
                    raise ValueError(f"neuron {l}/{j} has alive flag {parts[3]!r}, not 0 or 1")
                bias = float(parts[4])
                conn = [float(x) for x in parts[5:]]
                if len(conn) != (widths[l - 1] if l >= 1 else 0):
                    raise ValueError(f"neuron {l}/{j} has {len(conn)} connections")
                if not all(math.isfinite(v) for v in (bias, *conn)):
                    raise ValueError(f"neuron {l}/{j} has a bias or weight that is not finite")
                neurons[l, j] = (float(parts[3]), bias, conn)
            else:
                raise ValueError(f"unknown model line {parts[0]!r}")
        except IndexError:
            raise InvalidParams(f"{where}: too few fields in {parts[0]} line") from None
        except (ValueError, InvalidParams) as exc:
            raise InvalidParams(f"{where}: {exc}") from None
    if widths is None or d_max is None:
        raise InvalidParams(f"{path}: model file missing widths/dmax header")
    ps = ParameterSet(widths, d_max)
    for l, width in enumerate(widths):
        for j in range(width):
            if (l, j) not in neurons:
                raise InvalidParams(f"{path}: neuron {l}/{j} has no w line")
            ps.alive[l][j], ps.biases[l][j], conn = neurons[l, j]
            if l >= 1:
                ps.weights[l - 1][j] = conn
    return ps, Hyperparams(rng_seed=seed, **hyper)


_COLUMNS = [*FEATURE_NAMES, *(f"label_{k}" for k in LABEL_KINDS)]


def save_dataset(ds: Dataset, path) -> None:
    columns = [ds.label_arrays(k) for k in LABEL_KINDS]
    values = np.column_stack([v for v, _ in columns]).tolist()
    given = np.column_stack([m for _, m in columns]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for feats, vals, mask in zip(ds.features.tolist(), values, given):
            writer.writerow([repr(v) for v in feats]
                            + [repr(v) if m else "" for v, m in zip(vals, mask)])


def load_dataset(path, kind: str) -> Dataset:
    """Read a dataset CSV; a missing header or a malformed row (a feature
    outside [0, 1], a label that is not finite) raises InvalidParams naming
    the file and line. Every row has all the header's
    cells, features first, then one label cell per kind, empty where the
    sample has no such label."""
    feats, values, given, lines = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _COLUMNS:
            raise InvalidParams(f"{path}, line 1: unexpected dataset columns")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(_COLUMNS):
                raise InvalidParams(f"{where}: {len(row)} cells, the header has {len(_COLUMNS)}")
            try:
                feats.append([float(v) for v in row[:N_FEATURES]])
                values.append([float(c) if c != "" else 0.0 for c in row[N_FEATURES:]])
            except ValueError as exc:
                raise InvalidParams(f"{where}: {exc}") from None
            given.append([c != "" for c in row[N_FEATURES:]])
            lines.append(reader.line_num)
    X = np.array(feats, dtype=np.float64).reshape(len(feats), N_FEATURES)
    bad = _bad_row(X)
    if bad is not None:
        raise InvalidParams(f"{path}, line {lines[bad[0]]}: {bad[1]}")
    values = np.array(values, dtype=np.float64).reshape(len(feats), len(LABEL_KINDS))
    finite = np.isfinite(values)
    if not finite.all():
        i, c = (int(x[0]) for x in np.nonzero(~finite))
        raise InvalidParams(f"{path}, line {lines[i]}: label_{LABEL_KINDS[c]} must be finite")
    given = np.array(given, dtype=bool).reshape(len(feats), len(LABEL_KINDS))
    return Dataset(kind, X, {name: (values[:, c], given[:, c])
                             for c, name in enumerate(LABEL_KINDS) if given[:, c].any()})
