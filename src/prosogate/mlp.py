"""Two-output multilayer perceptron for boundary posteriors.

Architecture is fixed at two sigmoid hidden layers (40/20 nodes in the
default ``TrainConfig``) and two sigmoid output nodes, one for S3+ and
one for S3-. Training is plain stochastic gradient descent on squared
error against one-hot targets (1 for the node matching the reference
label, 0 for the other), with per-epoch class balancing: the minority
class is resampled with replacement up to the majority count, so each
epoch presents an equal number of vectors from each class.

``classify`` normalizes the two outputs to a proper posterior (sum 1)
in log space, so it is defined even where both sigmoids underflow to 0.
A gap's input vector is that of its word's final syllable
(``gap_vectors``), in training and in scoring alike.
A classifier's JSON names the one prosodic feature layout its weights
were trained on (``LAYOUT_ID``); loading rejects any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .prosody import extract_features

LAYOUT_ID = "default-242"  # the prosody module's fixed 242-value layout
OUTPUT_NODES = 2  # S3+ at index 0, S3- at index 1
LABEL_INDEX = {"S3+": 0, "S3-": 1}


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


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
        self.params = weights

    def _forward(self, x):
        """Returns the activation of every layer, input included."""
        acts = [np.asarray(x, dtype=np.float64)]
        a = acts[0]
        for i in range(0, len(self.params), 2):
            a = _sigmoid(a @ self.params[i] + self.params[i + 1])
            acts.append(a)
        return acts

    def classify(self, x):
        """(p_S3+, p_S3-): the two sigmoid outputs s normalized to sum 1,
        as exp(log s - log(s_0 + s_1)) with log s = -log(1 + e^-z)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dims[0]:
            raise ValueError(
                f"vector length {x.shape[-1]} != input dimension {self.dims[0]}")
        with np.errstate(over="ignore"):  # exp(-z) = inf is sigmoid 0
            hidden = self._forward(x)[-2]
        log_s = -np.logaddexp(0.0, -(hidden @ self.params[-2] + self.params[-1]))
        p = np.exp(log_s - np.logaddexp.reduce(log_s, axis=-1, keepdims=True))
        return float(p[..., 0]), float(p[..., 1])

    def loss(self, x, target):
        out = self._forward(x)[-1]
        return 0.5 * float(np.sum((out - target) ** 2))

    def gradients(self, x, target):
        """Analytic squared-error gradients, aligned with self.params."""
        acts = self._forward(x)
        delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
        grads = [None] * len(self.params)
        for i in range(len(self.params) - 2, -1, -2):
            layer = i // 2
            grads[i] = np.outer(acts[layer], delta)
            grads[i + 1] = delta
            if layer > 0:
                delta = (delta @ self.params[i].T) * acts[layer] * (1.0 - acts[layer])
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
            if d["layout_id"] != LAYOUT_ID:
                raise ValueError(f"classifier layout {d['layout_id']!r} is "
                                 f"not {LAYOUT_ID!r}")
            dims = d["dims"]
            weights = [np.array(w, dtype=np.float64) for w in d["weights"]]
            return cls(dims[0], dims[1], dims[2], seed=d["seed"],
                       weights=weights)
        except (json.JSONDecodeError, KeyError, IndexError, TypeError,
                RecursionError) as exc:
            raise ValueError(f"malformed classifier: {exc!r}") from exc

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())


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
    targets = np.eye(OUTPUT_NODES)
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
        for i in order:
            grads = clf.gradients(X[i], targets[labels[i]])
            for p, g in zip(clf.params, grads):
                p -= config.learning_rate * g
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
