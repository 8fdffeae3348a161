import numpy as np
import pytest

from prosogate.prosody import (FEATURE_DIM, PER_SYLLABLE_VALUES,
                               SyllableRecord, extract_features)


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
    vec = extract_features(syllables, 6)
    assert vec.shape == (242,)
    assert vec.dtype == np.float64


def test_full_context_has_all_flags_set():
    syllables = [_rec(i) for i in range(13)]
    vec = extract_features(syllables, 6)
    flags = vec[PER_SYLLABLE_VALUES * 13: PER_SYLLABLE_VALUES * 13 + 13]
    assert list(flags) == [1.0] * 13


def test_single_syllable_pads_everything_but_center():
    vec = extract_features([_rec(0)], 0)
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
    base = extract_features(tail, 6)
    shifted = extract_features(prefix + tail, 6 + 7)
    # index 6 of the tail already sees a full window, so prepending
    # syllables beyond the context radius changes nothing
    assert np.array_equal(base, shifted)
    # an index whose window straddles the old start gains real context
    edge = extract_features(tail, 2)
    edge_shifted = extract_features(prefix + tail, 2 + 7)
    flags = slice(PER_SYLLABLE_VALUES * 13, PER_SYLLABLE_VALUES * 13 + 13)
    assert list(edge[flags]) != list(edge_shifted[flags])
    assert list(edge_shifted[flags]) == [1.0] * 13


def test_index_out_of_range():
    with pytest.raises(IndexError):
        extract_features([_rec(0)], 1)
    with pytest.raises(IndexError):
        extract_features([_rec(0)], -1)


def test_record_round_trip():
    rec = _rec(3, accent=True, word_final=True, pause_after=0.2)
    assert SyllableRecord.from_dict(rec.to_dict()) == rec
