import numpy as np
import pytest

from prosogate.mlp import MlpClassifier, TrainConfig, train, score_turn
from prosogate.corpus import CorpusError, Syllable, TurnRecord
from prosogate.prosody import SyllableRecord


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
                up = clf.loss(x, target)
                flat_p[k] = orig - eps
                down = clf.loss(x, target)
                flat_p[k] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flat_g[k]), 1e-8)
                assert abs(numeric - flat_g[k]) / denom <= 1e-4


def test_posteriors_sum_to_one():
    clf = MlpClassifier(10, 4, 3, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_plus, p_minus = clf.classify(rng.normal(size=10))
        assert 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
        assert abs(p_plus + p_minus - 1.0) <= 1e-9


def test_underflowing_outputs_still_give_a_posterior():
    # output biases of -1000 drive both sigmoids to 0.0 exactly
    clf = MlpClassifier(10, 4, 3, seed=1)
    clf.params[-1] = np.array([-1000.0, -1001.0])
    x = np.random.default_rng(2).normal(size=10)
    with np.errstate(over="ignore"):
        assert not clf._forward(x)[-1].any()
    p_plus, p_minus = clf.classify(x)
    assert np.isfinite([p_plus, p_minus]).all()
    assert p_plus > 0.5 > p_minus
    assert abs(p_plus + p_minus - 1.0) <= 1e-9


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
    clf = train(data, TrainConfig(epochs=2, hidden1=3, hidden2=3), seed=0)
    for entry in clf.train_log:
        assert entry["presented"] == {"S3+": 900, "S3-": 900}


def test_balancing_invariance_under_duplication():
    rng = np.random.default_rng(6)
    base = _gaussian_set(rng, 120, dim=4)
    dup = base + [(v, l) for v, l in base if l == "S3-"] * 2
    cfg = TrainConfig(epochs=4, hidden1=4, hidden2=3)
    clf_a = train(base, cfg, seed=1)
    clf_b = train(dup, cfg, seed=1)
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
    clf = train(train_set, TrainConfig(epochs=3, hidden1=8, hidden2=4), seed=0)
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
    clf = train(train_set, TrainConfig(epochs=3, hidden1=6, hidden2=4), seed=0)
    deep_plus = np.full(8, 2.0)
    assert clf.classify(deep_plus)[0] > 0.5


def test_s3_question_items_excluded():
    rng = np.random.default_rng(10)
    data = _gaussian_set(rng, 50, dim=3)
    poison = [(np.full(3, 1e6), "S3?")] * 50  # would wreck training if used
    clf = train(data + poison, TrainConfig(epochs=1, hidden1=3, hidden2=3),
                seed=0)
    n_minus = sum(1 for _, l in data if l == "S3-")
    assert clf.train_log[0]["presented"]["S3-"] == max(
        n_minus, len(data) - n_minus)


def test_single_class_rejected():
    data = [(np.zeros(3), "S3+")] * 10
    with pytest.raises(ValueError):
        train(data, TrainConfig(epochs=1, hidden1=2, hidden2=2))


def test_inconsistent_dimensions_rejected():
    data = [(np.zeros(3), "S3+"), (np.zeros(4), "S3-")]
    with pytest.raises(ValueError):
        train(data, TrainConfig(epochs=1, hidden1=2, hidden2=2))


def test_bad_label_rejected():
    data = [(np.zeros(3), "S3+"), (np.zeros(3), "B3")]
    with pytest.raises(ValueError):
        train(data, TrainConfig(epochs=1, hidden1=2, hidden2=2))


def test_training_is_deterministic():
    rng = np.random.default_rng(11)
    data = _gaussian_set(rng, 60, dim=4)
    cfg = TrainConfig(epochs=2, hidden1=4, hidden2=3)
    a = train(list(data), cfg, seed=3)
    b = train(list(data), cfg, seed=3)
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa, pb)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    clf = train(_gaussian_set(rng, 40, dim=4),
                TrainConfig(epochs=1, hidden1=4, hidden2=3), seed=2)
    path = tmp_path / "clf.json"
    path.write_text(clf.to_json())
    loaded = MlpClassifier.load(path)
    assert loaded.dims == clf.dims
    x = rng.normal(size=4)
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
            pairs[part].append((extract_features(records, syl)[mask],
                                turn.s3_labels[w - 1]))
    clf = train(pairs["train"], TrainConfig(epochs=3, hidden1=8, hidden2=4),
                seed=0)
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


def test_score_turn_writes_one_score_per_word():
    clf = MlpClassifier(242, 4, 3, seed=0)
    turn = _mini_turn()
    scores = score_turn(clf, turn)
    assert len(scores) == 2
    assert turn.gap_scores == scores
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_score_turn_rejects_missing_final_syllable():
    clf = MlpClassifier(242, 4, 3, seed=0)
    turn = _mini_turn()
    turn.syllables[2].features.word_final = False
    with pytest.raises(CorpusError):
        score_turn(clf, turn)
