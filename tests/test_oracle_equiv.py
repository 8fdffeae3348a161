"""Chart parser vs the brute-force bracketing enumerator.

The oracle tries every item sequence and every binary bracketing; the
reading sets must coincide exactly on every demo sentence short enough
to enumerate.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import enumerate_readings, item_sequences
from prosogate import demo_corpus_text, demo_grammar_text
from prosogate.chart import ParseConfig, parse
from prosogate.corpus import TurnRecord, loads_corpus
from prosogate.grammar import load_grammar

SHORT_TURNS = [t for t in loads_corpus(demo_corpus_text())
               if len(t.words) <= 6]
DEMO_LEXICON = load_grammar(demo_grammar_text()).lexicon
DEMO_WORDS = sorted(DEMO_LEXICON)
V2_WORDS = [w for w in DEMO_WORDS if any(e.is_v2 for e in DEMO_LEXICON[w])]


@pytest.mark.parametrize("turn", SHORT_TURNS, ids=lambda t: t.turn_id)
def test_gated_readings_match_oracle(grammar, turn):
    config = ParseConfig(threshold=0.01)
    assert set(parse(turn, grammar, config).readings) == \
        enumerate_readings(turn, grammar, config)


@pytest.mark.parametrize("turn", SHORT_TURNS, ids=lambda t: t.turn_id)
def test_ungated_readings_match_oracle(grammar, turn):
    config = ParseConfig(mode="off")
    assert set(parse(turn, grammar, config).readings) == \
        enumerate_readings(turn, grammar, config)


def test_oracle_covers_both_scope_readings(grammar):
    # sanity check that the oracle itself finds the known ambiguity
    turn = next(t for t in SHORT_TURNS if t.turn_id == "d04")
    assert len(enumerate_readings(turn, grammar, ParseConfig())) == 2


@st.composite
def _random_turns(draw):
    words = draw(st.lists(st.sampled_from(DEMO_WORDS), min_size=1,
                          max_size=5))
    if len(words) > 1 and draw(st.booleans()):
        # one V2 verb twice, whose empty edges are placed once per gap
        i, j = draw(st.lists(st.integers(0, len(words) - 1), min_size=2,
                             max_size=2, unique=True))
        words[i] = words[j] = draw(st.sampled_from(V2_WORDS))
    scores = draw(st.lists(st.sampled_from([0.0, 0.005, 0.5]),
                           min_size=len(words), max_size=len(words)))
    return TurnRecord(turn_id="h", words=words, gap_scores=scores)


@settings(max_examples=40)
@given(_random_turns())
# both tokens of one verb leave a trace at gap 4, through one empty edge
@example(TurnRecord(turn_id="h", words=["sollst", "er", "schlief", "sollst"],
                    gap_scores=[0.5] * 4))
def test_random_turns_match_oracle(grammar, turn):
    for config in (ParseConfig(mode="off"), ParseConfig(threshold=0.01),
                   ParseConfig(mode="rank")):
        assert set(parse(turn, grammar, config).readings) == \
            enumerate_readings(turn, grammar, config)


def _sequence_key(seq):
    """An item sequence with each empty item's entry named by its id."""
    return tuple(item if item[0] == "word" else item[:2] + (item[2].entry_id,)
                 for item in seq)


@settings(max_examples=40)
@given(_random_turns())
@example(TurnRecord(turn_id="h", words=["sollst", "er", "schlief", "sollst"],
                    gap_scores=[0.5] * 4))
def test_oracle_derives_each_item_sequence_once(grammar, turn):
    for config in (ParseConfig(mode="off"), ParseConfig(threshold=0.01),
                   ParseConfig(mode="rank")):
        keys = [_sequence_key(seq)
                for seq in item_sequences(turn, grammar, config)]
        assert len(set(keys)) == len(keys)


def test_two_tokens_trace_at_one_gap_once(grammar):
    turn = TurnRecord(turn_id="h", words=["sollst", "er", "schlief", "sollst"],
                      gap_scores=[0.5] * 4)
    keys = [_sequence_key(seq)
            for seq in item_sequences(turn, grammar, ParseConfig(mode="off"))]
    both = (("word", "sollst"), ("word", "er"), ("word", "schlief"),
            ("word", "sollst"), ("empty", 4, "sollst_f_v2"),
            ("empty", 4, "sollst_f_v2"))
    assert keys.count(both) == 1
