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

from dataclasses import dataclass, field, fields, asdict
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

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


# The measured fields of a record: those declared before its accent flag.
_FIELDS = [f.name for f in fields(SyllableRecord)]
MEASUREMENTS = tuple(_FIELDS[:_FIELDS.index("accent")])
_measured = attrgetter(*MEASUREMENTS)

PER_SYLLABLE_VALUES = len(MEASUREMENTS) + 2  # and the two flags
FEATURE_DIM = ((PER_SYLLABLE_VALUES + 1) * (2 * CONTEXT_RADIUS + 1)
               + 2 + 2 * REGRESSION_LEN)


def extract_features(syllables, index):
    """Assemble the feature vector for one syllable of a turn.

    Out-of-range context positions contribute a zero block and a 0
    validity flag. Returns a float64 numpy vector of length FEATURE_DIM.
    """
    if not 0 <= index < len(syllables):
        raise IndexError(f"syllable index {index} out of range")
    values = []
    flags = []
    for off in range(-CONTEXT_RADIUS, CONTEXT_RADIUS + 1):
        j = index + off
        if 0 <= j < len(syllables):
            values.extend(syllables[j].block())
            flags.append(1.0)
        else:
            values.extend([0.0] * PER_SYLLABLE_VALUES)
            flags.append(0.0)
    cur = syllables[index]
    return np.array(
        values + flags + [cur.pause_before, cur.pause_after]
        + list(cur.f0_regression) + list(cur.energy_regression),
        dtype=np.float64)
