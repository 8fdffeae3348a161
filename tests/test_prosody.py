from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosogate.prosody import (FEATURE_DIM, MEASUREMENTS, PER_SYLLABLE_VALUES,
                               REGRESSION_LEN, SyllableRecord,
                               extract_features)
from references import syllable_features, syllable_record_from_dict


def _rec(seed, **kw):
    rng = np.random.default_rng(seed)
    kw.setdefault("f0_regression", list(rng.normal(size=16)))
    kw.setdefault("energy_regression", list(rng.normal(size=16)))
    kw.setdefault("nucleus_dur", float(rng.normal()))
    kw.setdefault("f0_mean", float(rng.normal()))
    return SyllableRecord(**kw)


def test_default_layout_dimension_is_242():
    assert FEATURE_DIM == 242
    assert (PER_SYLLABLE_VALUES * 13) + 13 + 2 + 16 + 16 == 242


def test_vector_length_matches_layout():
    syllables = [_rec(i) for i in range(13)]
    vec = extract_features(syllables, [6])[0]
    assert vec.shape == (242,)
    assert vec.dtype == np.float64


def test_full_context_has_all_flags_set():
    syllables = [_rec(i) for i in range(13)]
    vec = extract_features(syllables, [6])[0]
    flags = vec[PER_SYLLABLE_VALUES * 13: PER_SYLLABLE_VALUES * 13 + 13]
    assert list(flags) == [1.0] * 13


def test_single_syllable_pads_everything_but_center():
    vec = extract_features([_rec(0)], [0])[0]
    flags = vec[PER_SYLLABLE_VALUES * 13: PER_SYLLABLE_VALUES * 13 + 13]
    assert list(flags) == [0.0] * 6 + [1.0] + [0.0] * 6
    # context blocks are zero where the flag is zero
    for pos in range(13):
        if flags[pos] == 0.0:
            block = vec[pos * PER_SYLLABLE_VALUES: (pos + 1) * PER_SYLLABLE_VALUES]
            assert not block.any()


def test_translation_consistency():
    tail = [_rec(100 + i) for i in range(13)]
    prefix = [_rec(200 + i) for i in range(7)]
    base = extract_features(tail, [6])[0]
    shifted = extract_features(prefix + tail, [6 + 7])[0]
    # index 6 of the tail already sees a full window, so prepending
    # syllables beyond the context radius changes nothing
    assert np.array_equal(base, shifted)
    # an index whose window straddles the old start gains real context
    edge = extract_features(tail, [2])[0]
    edge_shifted = extract_features(prefix + tail, [2 + 7])[0]
    flags = slice(PER_SYLLABLE_VALUES * 13, PER_SYLLABLE_VALUES * 13 + 13)
    assert list(edge[flags]) != list(edge_shifted[flags])
    assert list(edge_shifted[flags]) == [1.0] * 13


def test_index_out_of_range():
    with pytest.raises(IndexError):
        extract_features([_rec(0)], [1])
    with pytest.raises(IndexError):
        extract_features([_rec(0)], [-1])


def _values(rng, size):
    """Normal values over a wide range of magnitudes, with signed zeros."""
    values = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
    values[rng.random(size) < 0.1] = 0.0
    values[rng.random(size) < 0.1] = -0.0
    return values.tolist()


@st.composite
def _turn(draw):
    """1-20 syllable records, so turns shorter than the context radius
    too, and row indices into them in any order and with repeats."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for _ in range(n):
        flags = rng.random(2) < 0.5
        records.append(SyllableRecord(
            **dict(zip(MEASUREMENTS, _values(rng, len(MEASUREMENTS)))),
            accent=bool(flags[0]), word_final=bool(flags[1]),
            pause_before=abs(_values(rng, 1)[0]),
            pause_after=abs(_values(rng, 1)[0]),
            f0_regression=_values(rng, REGRESSION_LEN),
            energy_regression=_values(rng, REGRESSION_LEN)))
    return records, draw(st.lists(st.integers(0, n - 1), max_size=30))


@settings(max_examples=200)
@given(turn=_turn(), data=st.data())
def test_turn_matrix_rows_equal_the_per_syllable_reference(turn, data):
    records, indices = turn
    rows = extract_features(records, indices)
    assert rows.shape == (len(indices), FEATURE_DIM)
    assert rows.dtype == np.float64
    for row, i in zip(rows, indices):
        assert row.tobytes() == syllable_features(records, i).tobytes()
    n = len(records)
    bad = data.draw(st.one_of(st.integers(max_value=-1),
                              st.integers(min_value=n)))
    at = data.draw(st.integers(0, len(indices)))
    with pytest.raises(IndexError):
        extract_features(records, indices[:at] + [bad] + indices[at:])
    with pytest.raises(IndexError):
        syllable_features(records, bad)


def test_record_round_trip():
    rec = _rec(3, accent=True, word_final=True, pause_after=0.2)
    assert syllable_record_from_dict(asdict(rec)) == rec
