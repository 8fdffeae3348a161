"""Prosody-gated head-trace hypothesization for a German V2 chart parser."""

import json
import sys
from importlib import resources

import orjson

__version__ = "0.1.0"

# orjson 3.8 reads some texts to other values than json.loads does, and
# the guard in ``loads_json`` sends each of them to json.loads:
# - It reads an integer outside the 64-bit range as a float, and 2**63
#   has 19 digits. The guard reads a text once, through ``_NUMBER_MAP``:
#   each digit maps to "0", "." to itself, "[" and "{" to "[", and every
#   other byte to " ". It searches the map for ``_LONG_RUN``, each search
#   starting at the text's start or just after the last match. So a match
#   after a "0" goes on the last match's run, and any other match is
#   where a run of 19 or more digits begins. A run that follows a "." is
#   a fraction's digits and is passed over; any other is a danger.
# - It decodes any depth, where json.loads raises RecursionError near the
#   interpreter's recursion limit (1000 by default). The limit is read at
#   each call, and a text with fewer "[" and "{" than half of it (500 by
#   default) is nested less deeply than json.loads can go, as long as
#   the caller's own stack is less than half the limit deep.
# - It rejects a lone surrogate, which json.loads keeps in the string:
#   encoded with "surrogatepass", one is not UTF-8, so orjson raises.
# NaN, Infinity, a float beyond the double range and every syntax error
# also make orjson raise.
_NUMBER_MAP = bytes(ord("0") if chr(c) in "0123456789" else
                    ord("[") if chr(c) in "[{" else
                    c if chr(c) == "." else ord(" ")
                    for c in range(256))
_LONG_RUN = b"0" * 19


def _orjson_reads_alike(data):
    """Whether the guard above lets orjson decode the UTF-8 ``data``."""
    mapped = data.translate(_NUMBER_MAP)
    if mapped.count(b"[") >= sys.getrecursionlimit() // 2:
        return False
    at = mapped.find(_LONG_RUN)
    while at > 0 and mapped[at - 1] in b"0.":
        at = mapped.find(_LONG_RUN, at + len(_LONG_RUN))
    return at < 0


def loads_json(text):
    """What ``json.loads(text)`` returns, or the exception it raises.

    orjson decodes the text when the guard above shows that it reads the
    text as json.loads does; any other text, and any text orjson rejects,
    goes to json.loads, so every error is json.loads's own.
    """
    data = text.encode("utf-8", "surrogatepass")
    if _orjson_reads_alike(data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def load_file(path, loads):
    """``loads`` of a UTF-8 file's text. A ValueError it raises comes
    back as the same class naming the file; a file that is not UTF-8 is
    a plain ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return loads(f.read())
    except ValueError as exc:
        cls = ValueError if isinstance(exc, UnicodeDecodeError) else type(exc)
        raise cls(f"{path}: {exc}") from exc


def check_seed(seed):
    """ValueError naming ``seed`` if it is negative: ``random.Random``
    seeds from its absolute value, so -1 would give the output of 1, and
    numpy's generators reject it."""
    if seed < 0:
        raise ValueError(f"seed {seed} is negative: a seed must be a "
                         f"non-negative integer")


def demo_grammar_text():
    return resources.files("prosogate.data").joinpath(
        "demo_grammar.json").read_text(encoding="utf-8")


def demo_corpus_text():
    return resources.files("prosogate.data").joinpath(
        "demo_corpus.jsonl").read_text(encoding="utf-8")
