import pytest
from hypothesis import settings

from prosogate import load_demo_corpus, load_demo_grammar

# Fixed examples on every run, so a newly drawn example cannot flake the
# suite; no deadline, since parse and load times vary with the host.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grammar():
    return load_demo_grammar()


@pytest.fixture(scope="session")
def demo_corpus():
    return load_demo_corpus()
