"""Two-output multilayer perceptron for boundary posteriors.

Architecture is fixed at two sigmoid hidden layers (40/20 nodes in the
default ``TrainConfig``) and two sigmoid output nodes, one for S3+ and
one for S3-. Training is plain stochastic gradient descent on squared
error against one-hot targets (1 for the node matching the reference
label, 0 for the other), with per-epoch class balancing: the minority
class is topped up to the majority count by random draws from it (a
vector may be drawn more than once), so each epoch presents an equal
number of vectors from each class.

The six parameters (weights and bias of each layer, in layer order) are
reshaped views of one flat float64 vector, ``theta``; the gradient that
``gradients`` writes has the same layout in a second flat vector,
allocated once per classifier. So an SGD step is one scaling and one
subtraction over all parameters, ``grad *= lr; theta -= grad``, in place
of one ``p -= lr * g`` per parameter. Each element still goes through
the same two roundings, ``lr * g`` and then ``p - (lr * g)``, so the
weights a seed trains are bit for bit those of the per-parameter loop.

Each weight gradient is one BLAS product of a column by a row
(``np.dot``, inner dimension 1), so each element is the one rounded
product a * delta, as ``np.outer`` gives it; only the sign of a zero
may differ (BLAS writes +0.0 where the product is -0.0). That moves no
weight, because no parameter is ever -0.0: weights start as -s + 2s*u
and biases as +0.0, theta - g is -0.0 only where theta is -0.0, and
theta - (+/-0.0) is theta for every other theta.

``classify`` normalizes the two outputs to a proper posterior (sum 1)
in log space, so it is defined even where both sigmoids underflow to 0.
A gap's input vector is that of its word's final syllable
(``gap_vectors``), in training and in scoring alike.
A classifier's JSON names the one prosodic feature layout its weights
were trained on (``LAYOUT_ID``); loading rejects any other, and any
input size but that layout's ``FEATURE_DIM`` values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import load_file
from .prosody import FEATURE_DIM, extract_features

LAYOUT_ID = "default-242"  # the prosody module's fixed 242-value layout
OUTPUT_NODES = 2  # S3+ at index 0, S3- at index 1
LABEL_INDEX = {"S3+": 0, "S3-": 1}


def _holds_bool(value):
    """Whether a JSON value is a boolean or a list that nests one."""
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _views(flat, shapes):
    """Consecutive reshaped views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return tuple(views)


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.2
    hidden1: int = 40
    hidden2: int = 20

    def __post_init__(self):
        if min(self.hidden1, self.hidden2) < 1:
            raise ValueError("hidden layer sizes must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning rate must be a finite number above 0")


class MlpClassifier:
    def __init__(self, input_dim, hidden1, hidden2, seed=0, weights=None):
        self.dims = (input_dim, hidden1, hidden2, OUTPUT_NODES)
        self.seed = seed
        self.train_log = []
        layers = list(zip(self.dims, self.dims[1:]))  # (fan_in, fan_out)
        if weights is None:
            rng = np.random.default_rng(seed)
            weights = []
            for fan_in, fan_out in layers:
                scale = 1.0 / np.sqrt(fan_in)
                weights += [rng.uniform(-scale, scale, size=(fan_in, fan_out)),
                            np.zeros(fan_out)]
        shapes = [p.shape for p in weights]
        declared = [s for i, o in layers for s in ((i, o), (o,))]
        if shapes != declared:
            raise ValueError(f"classifier weight shapes {shapes} != "
                             f"declared {declared}")
        if not all(np.isfinite(p).all() for p in weights):
            raise ValueError("classifier weights must be finite numbers")
        self.theta = np.empty(sum(int(np.prod(s)) for s in declared))
        self._grad = np.empty_like(self.theta)
        # tuples, so no parameter can be rebound off the flat vectors
        self.params = _views(self.theta, declared)
        self._grads = _views(self._grad, declared)
        for view, p in zip(self.params, weights):
            view[...] = p

    def _forward(self, x, layers=3):
        """Returns the activation of the input and of the first
        ``layers`` layers (all three by default).

        Each layer's sigmoid 1 / (1 + e^-z) is computed in place in the
        one array its ``x @ W`` allocates, in the same steps and so to
        the same bits as the out-of-place expression.
        """
        acts = [np.asarray(x, dtype=np.float64)]
        for i in range(0, 2 * layers, 2):
            z = acts[-1] @ self.params[i]
            z += self.params[i + 1]
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            acts.append(np.divide(1.0, z, out=z))
        return acts

    def classify(self, x):
        """(p_S3+, p_S3-): the two sigmoid outputs s normalized to sum 1,
        as exp(log s - log(s_0 + s_1)) with log s = -log(1 + e^-z)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dims[0]:
            raise ValueError(
                f"vector length {x.shape[-1]} != input dimension {self.dims[0]}")
        with np.errstate(over="ignore"):  # exp(-z) = inf is sigmoid 0
            hidden = self._forward(x, layers=2)[-1]
        log_s = -np.logaddexp(0.0, -(hidden @ self.params[-2] + self.params[-1]))
        p = np.exp(log_s - np.logaddexp.reduce(log_s, axis=-1, keepdims=True))
        return float(p[..., 0]), float(p[..., 1])

    def loss(self, x, target):
        out = self._forward(x)[-1]
        return 0.5 * float(np.sum((out - target) ** 2))

    def gradients(self, x, target):
        """Analytic squared-error gradients, aligned with self.params.

        They are views of one flat vector laid out as ``theta``, written
        in place: the next call overwrites them.
        """
        acts = self._forward(x)
        grads = self._grads
        out = acts[-1]
        delta = np.multiply((out - target) * out, 1.0 - out, out=grads[-1])
        for i in range(len(grads) - 2, -1, -2):
            layer = i // 2
            np.dot(acts[layer][:, None], delta[None, :], out=grads[i])
            if layer > 0:
                a = acts[layer]
                delta = np.multiply((delta @ self.params[i].T) * a, 1.0 - a,
                                    out=grads[i - 1])
        return grads

    def to_json(self):
        return json.dumps({
            "dims": list(self.dims),
            "seed": self.seed,
            "layout_id": LAYOUT_ID,
            "weights": [p.tolist() for p in self.params],
        })

    @classmethod
    def from_json(cls, text):
        """Rebuild a classifier from ``to_json`` text; ValueError if not."""
        try:
            d = json.loads(text)
            layout, dims, seed = d["layout_id"], d["dims"], d["seed"]
            weights = [np.array(w, dtype=np.float64) for w in d["weights"]]
        except (ValueError, OverflowError, KeyError, TypeError,
                RecursionError) as exc:
            raise ValueError(f"malformed classifier: {exc!r}") from exc
        if layout != LAYOUT_ID:
            raise ValueError(f"classifier layout {layout!r} is not "
                             f"{LAYOUT_ID!r}")
        if not (type(dims) is list and len(dims) == 4
                and all(type(n) is int and n > 0 for n in dims)
                and dims[0] == FEATURE_DIM and dims[-1] == OUTPUT_NODES):
            raise ValueError(f"malformed classifier: dims {dims!r} are not "
                             f"four positive ints, {FEATURE_DIM} first and "
                             f"{OUTPUT_NODES} last")
        if type(seed) is not int:
            raise ValueError(f"malformed classifier: seed {seed!r} is not an "
                             f"int")
        if _holds_bool(d["weights"]):
            raise ValueError("malformed classifier: weights hold a boolean")
        return cls(*dims[:3], seed=seed, weights=weights)

    @classmethod
    def load(cls, path):
        return load_file(path, cls.from_json)


def train(data, config=None, seed=0):
    """Train a classifier on (vector, s3 label) pairs.

    S3? items are excluded (they are held out for evaluation, never
    trained on). Deterministic given the seed, which drives both weight
    initialization and the per-epoch balancing resample. The per-epoch
    presented class counts are recorded on clf.train_log.
    """
    if config is None:
        config = TrainConfig()
    vectors, labels = [], []
    for vec, label in data:
        if label == "S3?":
            continue
        if label not in LABEL_INDEX:
            raise ValueError(f"bad training label {label!r}")
        vectors.append(np.asarray(vec, dtype=np.float64))
        labels.append(LABEL_INDEX[label])
    if not vectors:
        raise ValueError("no trainable vectors (after S3? exclusion)")
    labels = np.array(labels)
    dims = {v.shape for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    X = np.stack(vectors)
    idx_plus = np.flatnonzero(labels == 0)
    idx_minus = np.flatnonzero(labels == 1)
    if len(idx_plus) == 0 or len(idx_minus) == 0:
        raise ValueError("training data must contain both S3+ and S3-")

    clf = MlpClassifier(X.shape[1], config.hidden1, config.hidden2, seed=seed)
    rows, row_targets = list(X), list(np.eye(OUTPUT_NODES)[labels])
    theta, grad = clf.theta, clf._grad  # grad: what gradients writes
    rng = np.random.default_rng(seed + 1)
    majority = max(len(idx_plus), len(idx_minus))

    for epoch in range(config.epochs):
        epoch_idx = []
        for cls_idx in (idx_plus, idx_minus):
            take = cls_idx
            if len(cls_idx) < majority:
                extra = rng.choice(cls_idx, size=majority - len(cls_idx),
                                   replace=True)
                take = np.concatenate([cls_idx, extra])
            epoch_idx.append(take)
        order = np.concatenate(epoch_idx)
        rng.shuffle(order)
        for i in order.tolist():
            clf.gradients(rows[i], row_targets[i])
            grad *= config.learning_rate
            theta -= grad
        plus, minus = np.bincount(labels[order], minlength=2).tolist()
        clf.train_log.append({"epoch": epoch,
                              "presented": {"S3+": plus, "S3-": minus}})
    return clf


def gap_vectors(turn):
    """The feature vector of each gap, in order: that of the final
    syllable of the word before it. A word with no final-flagged
    syllable raises CorpusError from the turn itself."""
    records = [s.features for s in turn.syllables or []]
    return [extract_features(records, i) for i in turn.word_final_syllables()]


def score_turn(clf, turn):
    """Write boundary scores into a turn from its syllable records.

    The score of a gap is the normalized p(S3+) of its vector (see
    ``gap_vectors``). Returns the score list (also stored on the turn).
    """
    turn.gap_scores = [clf.classify(v)[0] for v in gap_vectors(turn)]
    return turn.gap_scores
