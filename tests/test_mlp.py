import re

import numpy as np
import pytest

from prosogate import load_file
from prosogate.cli import _training_pairs
from prosogate.mlp import EPOCHS, HIDDEN, LABEL_INDEX, LEARNING_RATE, \
    OUTPUT_NODES, MlpClassifier, _zero_runs, train, score_turn
from prosogate.corpus import CorpusError, Syllable, TurnRecord
from prosogate.prosody import FEATURE_DIM, SyllableRecord
from references import sigmoid_outputs, squared_error


def _gaussian_set(rng, n_per_class, dim=8, separation=3.0):
    data = []
    for label, center in (("S3+", separation / 2), ("S3-", -separation / 2)):
        for _ in range(n_per_class):
            data.append((rng.normal(center, 1.0, size=dim), label))
    rng.shuffle(data)
    return data


def _nearest_centroid(train_data, x):
    """Independent oracle classifier: closest class mean wins."""
    sums = {}
    for vec, label in train_data:
        s, c = sums.get(label, (0.0, 0))
        sums[label] = (s + np.asarray(vec), c + 1)
    centroids = {lab: s / c for lab, (s, c) in sums.items()}
    return min(centroids, key=lambda lab: np.linalg.norm(x - centroids[lab]))


def test_gradient_check_small_nets():
    rng = np.random.default_rng(0)
    for seed in range(3):
        clf = MlpClassifier(5, 3, 3, seed=seed)
        x = rng.normal(size=5)
        target = np.array([1.0, 0.0])
        analytic = clf.gradients(x, target)
        eps = 1e-6
        for p, g in zip(clf.params, analytic):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for k in range(flat_p.size):
                orig = flat_p[k]
                flat_p[k] = orig + eps
                up = squared_error(clf, x, target)
                flat_p[k] = orig - eps
                down = squared_error(clf, x, target)
                flat_p[k] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flat_g[k]), 1e-8)
                assert abs(numeric - flat_g[k]) / denom <= 1e-4


def test_posteriors_sum_to_one():
    clf = MlpClassifier(10, 4, 3, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=10)
        p_plus, p_minus = clf.classify(x)
        assert 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
        assert abs(p_plus + p_minus - 1.0) <= 1e-9
        # where the outputs do not underflow, the log-space posterior is
        # the plain sum-normalization of the two sigmoid outputs
        out = sigmoid_outputs(clf, x)
        assert abs(p_plus - out[0] / out.sum()) <= 1e-12


def test_underflowing_outputs_still_give_a_posterior():
    # output biases of -1000 drive both sigmoids to 0.0 exactly
    clf = MlpClassifier(10, 4, 3, seed=1)
    clf.params[-1][:] = [-1000.0, -1001.0]
    x = np.random.default_rng(2).normal(size=10)
    with np.errstate(over="ignore"):
        assert not sigmoid_outputs(clf, x).any()
    p_plus, p_minus = clf.classify(x)
    assert np.isfinite([p_plus, p_minus]).all()
    assert p_plus > 0.5 > p_minus
    assert abs(p_plus + p_minus - 1.0) <= 1e-9


def test_saturating_hidden_sigmoids_train_without_warning():
    # inputs of +-1e4 overflow e^-z in the hidden layers: sigmoid 0
    data = [(np.full(4, 1e4), "S3+"), (np.full(4, -1e4), "S3-")] * 3
    clf = train(data)
    assert all(np.isfinite(p).all() for p in clf.params)


def test_classify_is_pure():
    clf = MlpClassifier(6, 3, 3, seed=4)
    x = np.linspace(-1, 1, 6)
    assert clf.classify(x) == clf.classify(x)


def test_dimension_mismatch_rejected():
    clf = MlpClassifier(6, 3, 3, seed=1)
    with pytest.raises(ValueError):
        clf.classify(np.zeros(5))


def test_epoch_balancing_counts():
    rng = np.random.default_rng(5)
    data = [(rng.normal(size=4), "S3-") for _ in range(900)]
    data += [(rng.normal(1.0, 1.0, size=4), "S3+") for _ in range(100)]
    clf = train(data, seed=0)
    for entry in clf.train_log:
        assert entry["presented"] == {"S3+": 900, "S3-": 900}


def test_train_log_counts_the_presented_targets(monkeypatch):
    presented = []
    gradients = MlpClassifier.gradients

    def recording(self, x, target, *args, **kwargs):
        presented.append("S3+" if target[0] == 1.0 else "S3-")
        return gradients(self, x, target, *args, **kwargs)

    monkeypatch.setattr(MlpClassifier, "gradients", recording)
    rng = np.random.default_rng(8)
    data = [(rng.normal(size=4), "S3-") for _ in range(30)]
    data += [(rng.normal(1.0, 1.0, size=4), "S3+") for _ in range(7)]
    clf = train(data, seed=2)
    assert len(clf.train_log) == EPOCHS
    for entry in clf.train_log:
        n = sum(entry["presented"].values())
        epoch, presented = presented[:n], presented[n:]
        assert entry["presented"] == {"S3+": epoch.count("S3+"),
                                      "S3-": epoch.count("S3-")}
    assert presented == []


def test_balancing_invariance_under_duplication():
    rng = np.random.default_rng(6)
    base = _gaussian_set(rng, 120, dim=4)
    dup = base + [(v, l) for v, l in base if l == "S3-"] * 2
    clf_a = train(base, seed=1)
    clf_b = train(dup, seed=1)
    majority_b = sum(1 for _, l in dup if l == "S3-")
    assert clf_b.train_log[0]["presented"] == {"S3+": majority_b,
                                               "S3-": majority_b}
    test_set = _gaussian_set(np.random.default_rng(7), 100, dim=4)

    def acc(clf):
        return np.mean([(clf.classify(v)[0] >= 0.5) == (l == "S3+")
                        for v, l in test_set])

    assert abs(acc(clf_a) - acc(clf_b)) <= 0.02


def test_separable_gaussians_beat_95_percent():
    rng = np.random.default_rng(8)
    train_set = _gaussian_set(rng, 1000)
    test_set = _gaussian_set(rng, 300)
    clf = train(train_set, seed=0)
    mlp_hits = centroid_hits = 0
    for vec, label in test_set:
        if (clf.classify(vec)[0] >= 0.5) == (label == "S3+"):
            mlp_hits += 1
        if _nearest_centroid(train_set, vec) == label:
            centroid_hits += 1
    assert centroid_hits / len(test_set) >= 0.95  # oracle sanity
    assert mlp_hits / len(test_set) >= 0.95


def test_deep_cluster_vector_scores_high():
    rng = np.random.default_rng(9)
    train_set = _gaussian_set(rng, 400, separation=4.0)
    clf = train(train_set, seed=0)
    deep_plus = np.full(8, 2.0)
    assert clf.classify(deep_plus)[0] > 0.5


def test_s3_question_items_excluded():
    rng = np.random.default_rng(10)
    data = _gaussian_set(rng, 50, dim=3)
    poison = [(np.full(3, 1e6), "S3?")] * 50  # would wreck training if used
    clf = train(data + poison, seed=0)
    n_minus = sum(1 for _, l in data if l == "S3-")
    assert clf.train_log[0]["presented"]["S3-"] == max(
        n_minus, len(data) - n_minus)


def test_inconsistent_dimensions_rejected():
    data = [(np.zeros(3), "S3+"), (np.zeros(4), "S3-")]
    with pytest.raises(ValueError):
        train(data)


def test_training_is_deterministic():
    rng = np.random.default_rng(11)
    data = _gaussian_set(rng, 60, dim=4)
    a = train(list(data), seed=3)
    b = train(list(data), seed=3)
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa, pb)


def _reference_train(data, seed):
    """The per-parameter SGD loop: one ``np.outer`` per weight gradient
    and one ``p -= lr * g`` per parameter. Returns (params, train_log)."""
    pairs = [(np.asarray(v, dtype=np.float64), LABEL_INDEX[label])
             for v, label in data if label != "S3?"]
    X = np.stack([v for v, _ in pairs])
    labels = np.array([label for _, label in pairs])
    idx_plus = np.flatnonzero(labels == 0)
    idx_minus = np.flatnonzero(labels == 1)
    init = MlpClassifier(X.shape[1], *HIDDEN, seed=seed)
    params = [p.copy() for p in init.params]

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def gradients(x, target):
        acts = [x]
        for i in range(0, len(params), 2):
            acts.append(sigmoid(acts[-1] @ params[i] + params[i + 1]))
        delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
        grads = [None] * len(params)
        for i in range(len(params) - 2, -1, -2):
            layer = i // 2
            grads[i] = np.outer(acts[layer], delta)
            grads[i + 1] = delta
            if layer > 0:
                delta = ((delta @ params[i].T) * acts[layer]
                         * (1.0 - acts[layer]))
        return grads

    targets = np.eye(OUTPUT_NODES)
    rng = np.random.default_rng(seed + 1)
    majority = max(len(idx_plus), len(idx_minus))
    log = []
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
        for i in order:
            for p, g in zip(params, gradients(X[i], targets[labels[i]])):
                p -= LEARNING_RATE * g
        plus, minus = np.bincount(labels[order], minlength=2).tolist()
        log.append({"epoch": epoch, "presented": {"S3+": plus, "S3-": minus}})
    return params, log


def _imbalanced_set(rng, n_plus, n_minus, dim=6, padded=False):
    """Gaussian vectors per class, plus five S3? ones. ``padded`` adds an
    all-zero vector to each class and zeroes two blocks in each vector,
    as the 242-value layout pads the context window at a turn's start
    and end: a leading one of 0 to dim/2 values and a later one of 0 to
    dim/3 values, inside the vector or at its end. It then writes -0.0
    over one of the zeros. So the outer products meet exact zeros and
    form signed ones, and training skips rows of every kind of run."""
    data = [(rng.normal(1.0, 1.0, size=dim), "S3+") for _ in range(n_plus)]
    data += [(rng.normal(-1.0, 1.0, size=dim), "S3-") for _ in range(n_minus)]
    data += [(rng.normal(size=dim), "S3?") for _ in range(5)]
    if padded:
        data += [(np.zeros(dim), "S3+"), (np.zeros(dim), "S3-")]
        for vec, _ in data:
            vec[:rng.integers(0, dim // 2 + 1)] = 0.0
            start = rng.integers(dim // 2, dim)
            vec[start:start + rng.integers(0, dim // 3 + 1)] = 0.0
            zeros = np.flatnonzero(vec == 0.0)
            if zeros.size:
                vec[rng.choice(zeros)] = -0.0
    rng.shuffle(data)
    return data


# the seed drives both the weight initialization and the per-epoch
# balancing resample and shuffle; 2**32 + 5 is past 32 bits
@pytest.mark.parametrize("train_seed", [0, 1, 7, 42, 2**32 + 5])
@pytest.mark.parametrize("seed, n_plus, n_minus, padded, dim", [
    pytest.param(0, 9, 40, False, 6, id="0-9-40"),
    pytest.param(3, 31, 6, False, 6, id="3-31-6"),
    pytest.param(11, 17, 17, False, 6, id="11-17-17"),
    pytest.param(5, 20, 13, True, 6, id="5-20-13-zero-padded"),
    # the benchmark's shape: 242 inputs, zero-padded, one S3+ in four
    pytest.param(42, 24, 72, True, FEATURE_DIM,
                 id="42-24-72-zero-padded-242"),
])
def test_train_matches_the_per_parameter_loop(train_seed, seed, n_plus,
                                              n_minus, padded, dim):
    data = _imbalanced_set(np.random.default_rng(100 + seed), n_plus,
                           n_minus, dim=dim, padded=padded)
    ref_params, ref_log = _reference_train(data, train_seed)
    clf = train(data, seed=train_seed)
    assert clf.train_log == ref_log
    assert len(clf.params) == len(ref_params)
    for p, ref in zip(clf.params, ref_params):
        assert p.shape == ref.shape
        assert np.array_equal(p.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 5, 7, 42])
def test_no_trained_parameter_is_negative_zero(seed):
    # the invariant that lets a BLAS outer product, which writes +0.0
    # where np.outer writes -0.0, leave every weight unchanged
    data = _imbalanced_set(np.random.default_rng(105), 20, 13, padded=True)
    for p in train(data, seed=seed).params:
        assert not (np.signbit(p) & (p == 0)).any()


@pytest.mark.parametrize("x, runs", [
    # runs after the leading one: [3, 5), [7, 10) and a trailing [11, 12)
    ([0, 0, 1.5, -0.0, 0, -2, 0.5, 0, 0, 0, 3, 0], (2, 7, 10)),
    ([0, 1, 0, 0, 1, 0, 0], (1, 5, 7)),  # the last of equal runs
    ([1, 0, 2, 0, 0, 0], (0, 3, 6)),  # the trailing run is the longest
    ([1, 2, 3], (0, 3, 3)),  # no zero run at all
    ([0, -0.0, 0, 0], (4, 4, 4)),  # all zeros
])
def test_zero_runs_leave_out_the_leading_and_longest_other_run(x, runs):
    assert _zero_runs(np.array(x, dtype=np.float64)) == runs


def test_ranged_gradients_write_the_rows_they_cover():
    x = np.array([0, 0, 1.5, -0.0, 0, -2, 0.5, 0, 0, 0, 3, 0], dtype=float)
    target, rows = (0.0, 1.0), (slice(2, 7), slice(10, 12))
    clf, twin = (MlpClassifier(12, 4, 3, seed=0) for _ in range(2))
    full = [g.copy() for g in twin.gradients(x, np.array(target))]
    clf._grad[:] = np.nan
    grads = clf.gradients(x, target,
                          tuple((x[r, None], clf._grads[0][r]) for r in rows))
    covered = np.zeros(12, dtype=bool)
    for r in rows:
        covered[r] = True
    # the rows it covers get the full gradient's values; no other row of
    # the first layer's weight gradient is written
    assert np.array_equal(grads[0][covered].view(np.uint64),
                          full[0][covered].view(np.uint64))
    assert np.isnan(grads[0][~covered]).all()
    for g, f in zip(grads[1:], full[1:]):
        assert np.array_equal(g.view(np.uint64), f.view(np.uint64))
    for a, b in zip(clf._acts, twin._acts):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_gradients_write_one_preallocated_flat_vector():
    clf = MlpClassifier(5, 3, 2, seed=0)
    x, target = np.linspace(-1.0, 1.0, 5), np.array([0.0, 1.0])
    grads = clf.gradients(x, target)
    assert sum(g.size for g in grads) == clf._grad.size == clf.theta.size
    for p, g in zip(clf.params, grads):
        assert g.shape == p.shape
        assert np.shares_memory(p, clf.theta)
        assert np.shares_memory(g, clf._grad)
    again = clf.gradients(-x, target)
    assert all(np.shares_memory(a, b) for a, b in zip(grads, again))


def _held_arrays(clf):
    """Every array a classifier holds in an attribute, directly or in a
    tuple (nested tuples included)."""
    found, stack = [], list(vars(clf).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, tuple):
            stack.extend(value)
    return found


def test_reused_buffers_are_safe():
    x, y = np.linspace(-1.0, 1.0, 5), np.linspace(2.0, -3.0, 5)
    other, target = np.linspace(3.0, 0.5, 5), np.array([1.0, 0.0])
    clf, twin = MlpClassifier(5, 3, 2, seed=0), MlpClassifier(5, 3, 2, seed=0)
    expected = [g.copy() for g in twin.gradients(y, target)]
    # a classify or loss call between two gradients calls changes neither
    # the first call's gradients nor the second's
    first = clf.gradients(x, target)
    kept = [g.copy() for g in first]
    clf.classify(other)
    squared_error(clf, other, target)
    assert all(np.array_equal(g, k) for g, k in zip(first, kept))
    for g, e in zip(clf.gradients(y, target), expected):
        assert np.array_equal(g.view(np.uint64), e.view(np.uint64))
    # two classifiers share no buffer
    for a in _held_arrays(clf):
        assert not any(np.shares_memory(a, b) for b in _held_arrays(twin))
    # _forward returns the same two hidden arrays on each call, and
    # gradients' pass writes them too
    acts = clf._forward(x)
    assert len(acts) == 2
    assert all(a is b for a, b in zip(clf._forward(other), acts))
    clf.gradients(y, target)
    assert np.array_equal(acts[-1], twin._forward(y)[-1])
    # gradients' float output layer gives the numpy sigmoid's bits
    assert np.array_equal(clf._acts[-1].view(np.uint64),
                          sigmoid_outputs(twin, y).view(np.uint64))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    clf = train(_gaussian_set(rng, 40, dim=FEATURE_DIM), seed=2)
    path = tmp_path / "clf.json"
    path.write_text(clf.to_json())
    loaded = load_file(path, MlpClassifier.from_json)
    assert loaded.dims == clf.dims
    x = rng.normal(size=FEATURE_DIM)
    assert loaded.classify(x) == clf.classify(x)


def test_zero_separation_is_chance_level():
    # with zero class separation the acoustic measurements carry no
    # information; balanced accuracy must sit at chance. Position is
    # masked out (boundaries are clause-final by construction, so the
    # context window's validity flags would reveal the label) and the
    # test is balanced per class (the net may collapse to one class).
    from prosogate.prosody import extract_features
    from prosogate.synth import synth_corpus

    mask = list(range(90, 105)) + [208, 209] + list(range(210, 242))
    corpus = synth_corpus(seed=0, turns=120, separation=0.0)
    pairs = {"train": [], "test": []}
    for i, turn in enumerate(corpus):
        records = [s.features for s in turn.syllables]
        part = "train" if i < 80 else "test"
        for w, syl in enumerate(turn.word_final_syllables(), start=1):
            if turn.s3_labels[w - 1] == "S3?":
                continue
            pairs[part].append((extract_features(records, [syl])[0][mask],
                                turn.s3_labels[w - 1]))
    clf = train(pairs["train"], seed=0)
    per_class = []
    for label in ("S3+", "S3-"):
        vecs = [v for v, l in pairs["test"] if l == label]
        per_class.append(np.mean([(clf.classify(v)[0] >= 0.5) ==
                                  (label == "S3+") for v in vecs]))
    assert abs(np.mean(per_class) - 0.5) <= 0.05


def _mini_turn():
    def rec(final, mean):
        rng = np.random.default_rng(int(mean * 100) % 97)
        return SyllableRecord(nucleus_dur=mean, word_final=final,
                              f0_regression=list(rng.normal(size=16)),
                              energy_regression=list(rng.normal(size=16)))

    return TurnRecord(
        turn_id="m1", words=["a", "b"],
        syllables=[Syllable(1, rec(False, 0.1)), Syllable(1, rec(True, 0.2)),
                   Syllable(2, rec(True, 0.9))])


def test_single_class_rejected():
    # ``train`` assumes both classes; the training pairs are checked
    turn = _mini_turn()
    for labels, absent in ((["S3+", "S3+"], "S3-"), (["S3-", "S3?"], "S3+")):
        turn.s3_labels = labels
        with pytest.raises(CorpusError,
                           match=re.escape(f"there is no {absent} gap")):
            _training_pairs([turn])
    turn.s3_labels = ["S3+", "S3-"]
    assert [label for _, label in _training_pairs([turn])] == ["S3+", "S3-"]


def test_score_turn_writes_one_score_per_word():
    clf = MlpClassifier(242, 4, 3, seed=0)
    turn = _mini_turn()
    scores = score_turn(clf, turn)
    assert len(scores) == 2
    assert turn.gap_scores == scores
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_score_turn_rejects_a_turn_without_syllables():
    clf = MlpClassifier(242, 4, 3, seed=0)
    for syllables in (None, []):
        turn = _mini_turn()
        turn.syllables = syllables
        with pytest.raises(CorpusError, match="turn 'm1' has no syllables"):
            score_turn(clf, turn)


def test_score_turn_rejects_missing_final_syllable():
    clf = MlpClassifier(242, 4, 3, seed=0)
    turn = _mini_turn()
    turn.syllables[2].features.word_final = False
    with pytest.raises(CorpusError):
        score_turn(clf, turn)
