import pytest

from prosogate import load_demo_corpus, load_demo_grammar


@pytest.fixture(scope="session")
def grammar():
    return load_demo_grammar()


@pytest.fixture(scope="session")
def demo_corpus():
    return load_demo_corpus()
