"""Prosody-gated head-trace hypothesization for a German V2 chart parser."""

from importlib import resources

__version__ = "0.1.0"


def read_text(path):
    """A UTF-8 file's text; a ValueError naming the file if it is not
    UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def demo_grammar_text():
    return resources.files("prosogate.data").joinpath(
        "demo_grammar.json").read_text(encoding="utf-8")


def demo_corpus_text():
    return resources.files("prosogate.data").joinpath(
        "demo_corpus.jsonl").read_text(encoding="utf-8")


def load_demo_grammar():
    from .grammar import load_grammar
    return load_grammar(demo_grammar_text())


def load_demo_corpus():
    from .corpus import loads_corpus
    return loads_corpus(demo_corpus_text())
