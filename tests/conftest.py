import pytest
from hypothesis import settings

from prosogate import demo_corpus_text, demo_grammar_text
from prosogate.corpus import loads_corpus
from prosogate.grammar import load_grammar

# Fixed examples on every run, so a newly drawn example cannot flake the
# suite; no deadline, since parse and load times vary with the host.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grammar():
    return load_grammar(demo_grammar_text())


@pytest.fixture(scope="session")
def demo_corpus():
    return loads_corpus(demo_corpus_text())
