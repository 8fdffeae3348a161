"""Chart parser vs the brute-force bracketing enumerator.

The oracle tries every item sequence and every binary bracketing; the
reading sets must coincide exactly on every demo sentence short enough
to enumerate.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import enumerate_readings
from prosogate import load_demo_corpus, load_demo_grammar
from prosogate.chart import ParseConfig, parse
from prosogate.corpus import TurnRecord

SHORT_TURNS = [t for t in load_demo_corpus() if len(t.words) <= 6]
DEMO_LEXICON = load_demo_grammar().lexicon
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
        # one V2 verb twice, whose empty edges pack into one per gap
        i, j = draw(st.lists(st.integers(0, len(words) - 1), min_size=2,
                             max_size=2, unique=True))
        words[i] = words[j] = draw(st.sampled_from(V2_WORDS))
    scores = draw(st.lists(st.sampled_from([0.0, 0.005, 0.5]),
                           min_size=len(words), max_size=len(words)))
    return TurnRecord(turn_id="h", words=words, gap_scores=scores)


@settings(max_examples=40)
@given(_random_turns())
# both tokens of one verb leave a trace at gap 4, through one packed edge
@example(TurnRecord(turn_id="h", words=["sollst", "er", "schlief", "sollst"],
                    gap_scores=[0.5] * 4))
def test_random_turns_match_oracle(grammar, turn):
    for config in (ParseConfig(mode="off"), ParseConfig(threshold=0.01),
                   ParseConfig(mode="rank")):
        assert set(parse(turn, grammar, config).readings) == \
            enumerate_readings(turn, grammar, config)
