"""Two-output multilayer perceptron for boundary posteriors.

Architecture is fixed at two sigmoid hidden layers and two sigmoid
output nodes, one for S3+ and one for S3-. ``train`` has one recipe:
``HIDDEN`` = 40 and 20 hidden nodes, ``EPOCHS`` = 20 epochs and
``LEARNING_RATE`` = 0.2. Training is plain stochastic gradient descent
on squared error against one-hot targets (1 for the node matching the
reference label, 0 for the other), with per-epoch class balancing: the
minority class is topped up to the majority count by random draws from
it (a vector may be drawn more than once), so each epoch presents an
equal number of vectors from each class.

The six parameters (weights and bias of each layer, in layer order) are
reshaped views of one flat float64 vector, ``theta``; the gradient that
``gradients`` writes has the same layout in a second flat vector. Each
classifier allocates its buffers once, so each ``_forward`` or
``gradients`` call overwrites the arrays the previous call returned.
For a seed, ``train`` gives bit for bit the weights of plain
per-parameter SGD over out-of-place numpy expressions; each step states
beside its code the condition that keeps it so.

``classify`` normalizes the two outputs to a proper posterior (sum 1)
in log space, so it is defined even where both sigmoids underflow to 0.
A gap's input vector is that of its word's final syllable
(``gap_vectors``), in training and in scoring alike.
A classifier's JSON names the one prosodic feature layout its weights
were trained on (``LAYOUT_ID``); loading rejects any other, and any
input size but that layout's ``FEATURE_DIM`` values.

Inputs are checked where they enter: by the corpus loader (S3 labels,
and syllables in ``word_final_syllables``), ``cli._training_pairs`` (an
S3+ and an S3- pair) and the model loader; code here assumes them.
"""

from __future__ import annotations

import json

import numpy as np

from . import check_seed, loads_json
from .prosody import FEATURE_DIM, extract_features

LAYOUT_ID = "default-242"  # the prosody module's fixed 242-value layout
OUTPUT_NODES = 2  # S3+ at index 0, S3- at index 1
LABEL_INDEX = {"S3+": 0, "S3-": 1}
HIDDEN = (40, 20)  # nodes of the two hidden layers that train builds
EPOCHS = 20
LEARNING_RATE = 0.2


def _all_numbers(value):
    """Whether a JSON value is an int or a float, or lists that nest
    only those: no boolean, string, null or object. A loop, not a
    recursion, so no nesting depth can overflow the stack."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is list:
            stack.extend(value)
        elif type(value) not in (int, float):
            return False
    return True


def _views(flat, shapes):
    """Consecutive reshaped views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return tuple(views)


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
        # per-classifier buffers, which each _forward or gradients call
        # overwrites: one activation per layer and one backward scratch
        # per hidden layer; and per hidden layer an array of ones, the
        # 1 of its sigmoid and of its derivative's 1 - a
        self._acts = tuple(np.empty(n) for n in self.dims[1:])
        self._hidden = self._acts[:2]
        ones = tuple(np.ones(n) for n in self.dims[1:3])
        self._layers = tuple(zip(self.params[0:4:2], self.params[1:4:2],
                                 self._hidden, ones))
        a1, a2, out = self._acts
        w2, w3, b3 = self.params[2], self.params[4], self.params[5]
        gw1, gb1, gw2, gb2, gw3, gb3 = self._grads
        self._back = (a1, a2, out, w3, b3, a1[:, None], a2[:, None],
                      w2.T, w3.T, *(np.empty(n) for n in self.dims[1:3]),
                      *ones, gw1, gb1, gb1[None, :], gw2, gb2, gb2[None, :],
                      gw3, gb3, gb3[None, :])

    def _forward(self, x):
        """The two hidden layers' activations, in this classifier's
        activation buffers: the next ``_forward`` or ``gradients`` call
        overwrites them.

        Each layer is ``a.dot(W, z)`` into its buffer, then the sigmoid
        1 / (1 + e^-z) in place in the five steps of the out-of-place
        expression, in its order, so to the same bits. ``a.dot(W, z)``
        is ``np.dot(a, W, z)`` without numpy's Python-level dispatch:
        both run the one C matrix product, which hands BLAS the operands
        ``a @ W`` hands it; the output array only says where the result
        goes. The 1 is the layer's array of ones: 1.0 as an array
        element is the same double as the scalar 1.0, under the same
        ufunc, so the same IEEE-754 addition and division; numpy only
        skips converting a Python float on each call.
        """
        add, negative, exp, divide = np.add, np.negative, np.exp, np.divide
        a = x
        for W, b, z, one in self._layers:
            a.dot(W, z)
            add(z, b, z)
            negative(z, z)
            exp(z, z)
            add(z, one, z)
            divide(one, z, z)
            a = z
        return self._hidden

    def classify(self, x):
        """(p_S3+, p_S3-): the two sigmoid outputs s normalized to sum 1,
        as exp(log s - log(s_0 + s_1)) with log s = -log(1 + e^-z)."""
        with np.errstate(over="ignore"):  # exp(-z) = inf is sigmoid 0
            hidden = self._forward(x)[-1]
        log_s = -np.logaddexp(0.0, -(hidden @ self.params[-2] + self.params[-1]))
        p = np.exp(log_s - np.logaddexp.reduce(log_s))
        return float(p[0]), float(p[1])

    def gradients(self, x, target, pairs=None):
        """Analytic squared-error gradients of a float64 vector ``x``
        against a ``target`` pair, aligned with self.params.

        They are views of one flat vector laid out as ``theta``, written
        in place: the next call overwrites them, and the forward pass it
        runs overwrites the activation buffers (see ``_forward``). Both
        outputs are written to the output activation buffer.

        ``pairs`` are (input column, weight-gradient rows) views of the
        first layer's rows whose weight gradient is written, ``x[r,
        None]`` and that gradient's rows ``r`` (by default every row):
        the other rows of that gradient keep whatever they held, and
        every other gradient and activation is written in full.

        Each delta is (d @ W.T) * a * (1 - a), d the next layer's delta
        (at the output, out - target), formed left to right in the
        layer's scratch array and the bias gradient's view, with
        ``.dot`` into a buffer as in ``_forward``, so each element
        goes through the roundings of the expression written out. Each
        weight gradient is one BLAS product of a column by
        that row, so each element is the one rounded product a * delta
        that ``np.outer`` gives, but BLAS writes +0.0 where the product
        is -0.0; that moves no weight, because no parameter is -0.0
        (see ``train``). The 1 of 1 - a is the layer's array of ones, as
        in ``_forward``.
        """
        (a1, a2, out, w3, b3, col1, col2, w2t, w3t, u1, u2, one1, one2,
         gw1, gb1, row1, gw2, gb2, row2, gw3, gb3, row3) = self._back
        multiply, subtract = np.multiply, np.subtract
        self._forward(x)
        # output layer: out as 1 / (1 + e^-z), d = ((out - target) * out)
        # * (1 - out), node by node in Python floats, which are the
        # IEEE-754 double operations of the array expression in its
        # order, so give its bits; the buffer holds -z for np.exp
        a2.dot(w3, out)
        (z0, z1), (c0, c1) = out.tolist(), b3.tolist()
        out[0] = -(z0 + c0)
        out[1] = -(z1 + c1)
        np.exp(out, out)
        e0, e1 = out.tolist()
        out[0] = o0 = 1.0 / (e0 + 1.0)
        out[1] = o1 = 1.0 / (e1 + 1.0)
        t0, t1 = target
        gb3[0] = (o0 - t0) * o0 * (1.0 - o0)
        gb3[1] = (o1 - t1) * o1 * (1.0 - o1)
        col2.dot(row3, gw3)
        # second hidden layer
        gb3.dot(w3t, u2)
        multiply(u2, a2, u2)
        subtract(one2, a2, gb2)
        multiply(u2, gb2, gb2)
        col1.dot(row2, gw2)
        # first hidden layer
        gb2.dot(w2t, u1)
        multiply(u1, a1, u1)
        subtract(one1, a1, gb1)
        multiply(u1, gb1, gb1)
        if pairs is None:
            pairs = ((x[:, None], gw1),)
        for col, rows in pairs:
            col.dot(row1, rows)
        return self._grads

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
            d = loads_json(text)
            layout, dims, seed = d["layout_id"], d["dims"], d["seed"]
            numbers = _all_numbers(d["weights"])
            if numbers:  # np.array would read "0.5" and True as numbers
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
        check_seed(seed)
        if not numbers:
            raise ValueError("malformed classifier: every weight must be a "
                             "JSON number")
        return cls(*dims[:3], seed=seed, weights=weights)


def train(data, seed=0):
    """Train a classifier on (vector, s3 label) pairs, ``HIDDEN`` hidden
    nodes for ``EPOCHS`` epochs at ``LEARNING_RATE``.

    S3? items are excluded (they are held out for evaluation, never
    trained on). Deterministic given the seed, which drives both weight
    initialization and the per-epoch balancing resample. The per-epoch
    presented class counts are recorded on clf.train_log.

    A step is ``g *= lr; theta -= g`` over slices of the flat gradient
    and parameter vectors: each element goes through the two roundings
    of ``p -= lr * g``, lr * g and then p - (lr * g), in that order. The
    step leaves out the first-layer rows of an input's leading and
    longest other zero run (``_zero_runs``): ``gradients`` writes no
    gradient there and no weight there moves. That is exact: a zero
    input gives a gradient row of +/-0.0 (every delta is finite), lr
    times it is +/-0.0, and theta - (+/-0.0) is theta for every theta
    but -0.0. No parameter is ever -0.0: weights start as -s + 2s*u and
    biases as +0.0, and theta - g is -0.0 only where theta is -0.0.
    """
    check_seed(seed)
    vectors, labels = [], []
    for vec, label in data:
        if label == "S3?":
            continue
        vectors.append(np.asarray(vec, dtype=np.float64))
        labels.append(LABEL_INDEX[label])
    labels = np.array(labels)
    X = np.stack(vectors)
    idx_plus = np.flatnonzero(labels == 0)
    idx_minus = np.flatnonzero(labels == 1)

    clf = MlpClassifier(X.shape[1], *HIDDEN, seed=seed)
    theta, grad = clf.theta, clf._grad  # grad: what gradients writes
    gw1 = clf._grads[0]
    lr, width = LEARNING_RATE, HIDDEN[0]
    targets = np.eye(OUTPUT_NODES).tolist()
    # per vector: its input, its target, the (input column, gradient
    # rows) pairs of the first-layer rows outside its zero runs, and the
    # (gradient, theta) slices a step on it moves: rows [lo, hi), then
    # rows [start, n) and every later parameter
    steps = []
    for x, label in zip(X, labels.tolist()):
        lo, hi, start = _zero_runs(x)
        rows = ((lo, hi), (start, len(x)))
        cuts = ((lo * width, hi * width), (start * width, theta.size))
        steps.append((x, targets[label],
                      tuple((x[a:b, None], gw1[a:b]) for a, b in rows
                            if a < b),
                      tuple((grad[a:b], theta[a:b]) for a, b in cuts
                            if a < b)))
    gradients = clf.gradients
    rng = np.random.default_rng(seed + 1)
    majority = max(len(idx_plus), len(idx_minus))

    with np.errstate(over="ignore"):  # once, not per step: see classify
        for epoch in range(EPOCHS):
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
                x, target, pairs, spans = steps[i]
                gradients(x, target, pairs)
                for g, p in spans:
                    g *= lr
                    p -= g
            plus, minus = np.bincount(labels[order], minlength=2).tolist()
            clf.train_log.append({"epoch": epoch,
                                  "presented": {"S3+": plus, "S3-": minus}})
    return clf


def _zero_runs(x):
    """(lo, hi, start): the nonzero values of ``x`` lie in [lo, hi) and
    [start, len(x)), which leave out its leading zero run [0, lo) and its
    longest other zero run [hi, start): the last of equal ones, so the
    trailing run (start = len(x), maybe empty) wins a tie. All three are
    len(x) if every value of ``x`` is zero."""
    nonzero = np.flatnonzero(x)
    if not nonzero.size:
        return (len(x),) * 3
    ends = np.append(nonzero[1:], len(x))  # where each following run ends
    k = len(nonzero) - 1 - int(np.argmax((ends - nonzero)[::-1]))
    return int(nonzero[0]), int(nonzero[k]) + 1, int(ends[k])


def gap_vectors(turn):
    """The feature vector of each gap, in order, as the rows of one
    matrix: that of the final syllable of the word before it. A turn
    with no syllables, or a word with no final-flagged syllable, raises
    CorpusError from ``TurnRecord.word_final_syllables``."""
    finals = turn.word_final_syllables()
    return extract_features([s.features for s in turn.syllables], finals)


def score_turn(clf, turn):
    """Write boundary scores into a turn from its syllable records.

    The score of a gap is the normalized p(S3+) of its vector (see
    ``gap_vectors``). Returns the score list (also stored on the turn).
    """
    turn.gap_scores = [clf.classify(v)[0] for v in gap_vectors(turn)]
    return turn.gap_scores
