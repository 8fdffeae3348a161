"""Per-syllable acoustic measurement records and feature-vector assembly.

No signal processing happens here: records arrive already measured
(synthetic, in this repository). A feature vector for syllable *i*
concatenates the per-syllable block for positions i-6 .. i+6, one
validity flag per position (0 where the context runs off the turn and
the block is zero-padded), the current syllable's pause lengths, and its
F0 / energy regression-coefficient blocks.

The layout is fixed and totals FEATURE_DIM = 242 values:

    15 values x 13 positions   195
    validity flags              13
    pause before / after         2
    F0 regression               16
    energy regression           16
                               ---
                               242

A trained classifier's weights are tied to this layout, which its JSON
names as ``"layout_id": "default-242"``. A record is checked where it
enters, by the corpus loader (finite measurements, pauses >= 0, true/false
flags, two blocks of REGRESSION_LEN numbers); code here assumes it fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

CONTEXT_RADIUS = 6  # syllables of context on each side
REGRESSION_LEN = 16  # coefficients in each of the F0 and energy blocks


@dataclass
class SyllableRecord:
    nucleus_dur: float = 0.0  # normalized, dimensionless
    f0_min: float = 0.0  # semitone-scaled
    f0_max: float = 0.0
    f0_onset: float = 0.0
    f0_offset: float = 0.0
    f0_min_pos: float = 0.0  # seconds, relative to the syllable anchor
    f0_max_pos: float = 0.0
    f0_onset_pos: float = 0.0
    f0_offset_pos: float = 0.0
    energy_max: float = 0.0
    energy_max_pos: float = 0.0
    energy_mean: float = 0.0
    f0_mean: float = 0.0
    accent: bool = False  # carries the lexical word accent
    word_final: bool = False
    pause_before: float = 0.0  # seconds, 0 if none
    pause_after: float = 0.0
    f0_regression: list = field(default_factory=list)
    energy_regression: list = field(default_factory=list)

    def block(self):
        """The measurements, then the accent and word-final flags."""
        return [*_measured(self), 1.0 if self.accent else 0.0,
                1.0 if self.word_final else 0.0]


# The measured fields of a record: those declared before its accent flag.
_FIELDS = [f.name for f in fields(SyllableRecord)]
MEASUREMENTS = tuple(_FIELDS[:_FIELDS.index("accent")])
_measured = attrgetter(*MEASUREMENTS)

PER_SYLLABLE_VALUES = len(MEASUREMENTS) + 2  # and the two flags
FEATURE_DIM = ((PER_SYLLABLE_VALUES + 1) * (2 * CONTEXT_RADIUS + 1)
               + 2 + 2 * REGRESSION_LEN)


def extract_features(syllables, indices):
    """The feature vectors of the syllables at ``indices`` in a turn.

    Builds the turn's per-syllable blocks once, in a matrix zero-padded
    by CONTEXT_RADIUS rows at each end, with one validity flag per row
    (0 on the padding), and returns a float64 matrix with one
    FEATURE_DIM-value row per index, in the order given (an index may
    repeat). IndexError if an index is outside the turn.
    """
    n = len(syllables)
    bad = [i for i in indices if not 0 <= i < n]
    if bad:
        raise IndexError(f"syllable index {bad[0]} out of range")
    width, tail = 2 * CONTEXT_RADIUS + 1, 2 + 2 * REGRESSION_LEN
    blocks = np.zeros((n + width - 1, PER_SYLLABLE_VALUES))
    flags = np.zeros(n + width - 1)
    if n:
        turn = slice(CONTEXT_RADIUS, CONTEXT_RADIUS + n)
        blocks[turn] = [s.block() for s in syllables]
        flags[turn] = 1.0
    # row k's window: padded rows indices[k] .. indices[k] + width - 1
    window = np.add.outer(np.asarray(indices, dtype=np.intp),
                          np.arange(width))
    rows = len(window)
    tails = [(s.pause_before, s.pause_after, *s.f0_regression,
              *s.energy_regression) for s in (syllables[i] for i in indices)]
    return np.concatenate(
        (blocks[window].reshape(rows, width * PER_SYLLABLE_VALUES),
         flags[window], np.array(tails, dtype=np.float64).reshape(rows, tail)),
        axis=1)
