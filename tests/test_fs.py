import pytest
from hypothesis import given, settings, strategies as st

from prosogate.fs import (AvmFormatError, atom, avm, canonical, fs_list,
                          parse_avm, top)
from references import subsumes, unify
from test_unify_in_place import tagged_avms


def test_top_is_identity():
    x = parse_avm({"HEAD": {"POS": "verb"}, "SUBCAT": []})
    assert canonical(unify(top(), x)) == canonical(x)
    assert canonical(unify(x, top())) == canonical(x)


def test_atom_clash_fails():
    a = parse_avm({"HEAD": {"POS": "verb"}})
    b = parse_avm({"HEAD": {"POS": "noun"}})
    assert unify(a, b) is None


def test_atoms_unify_with_themselves():
    assert canonical(unify(atom("x"), atom("x"))) == canonical(atom("x"))
    assert unify(atom("x"), atom("y")) is None


def test_list_length_mismatch_fails():
    assert unify(fs_list(atom("a")), fs_list(atom("a"), atom("b"))) is None
    assert unify(fs_list(), fs_list(atom("a"))) is None


def test_elist_unifies_with_top_only():
    assert canonical(unify(fs_list(), top())) == canonical(fs_list())
    assert unify(fs_list(), parse_avm({"HEAD": "verb"})) is None


def test_subcat_variable_binding():
    # [SUBCAT <NP[nom], NP[acc]>] against [SUBCAT <NP[nom], X>]
    a = parse_avm({"SUBCAT": [{"HEAD": {"POS": "noun", "CASE": "nom"}},
                              {"HEAD": {"POS": "noun", "CASE": "acc"}}]})
    b = parse_avm({"SUBCAT": [{"HEAD": {"POS": "noun", "CASE": "nom"}}, "#x"]})
    got = unify(a, b)
    assert got is not None
    x = got.get("SUBCAT").attrs[1]
    assert x.get("HEAD", "CASE").atom == "acc"


def test_trace_description_shares_loc_and_dsl():
    # unifying the generic head-trace skeleton with a concrete LOC must
    # leave LOC and the single DSL element as the same node
    loc = top()
    skeleton = avm(PHON=fs_list(), LOC=loc, DSL=fs_list(loc))
    concrete = parse_avm({"LOC": {"#1": {"HEAD": {"POS": "verb"}}},
                          "DSL": ["#1"]})
    got = unify(skeleton, concrete)
    assert got is not None
    assert got.get("LOC") is got.get("DSL").attrs[0]
    assert got.get("LOC", "HEAD", "POS").atom == "verb"


def test_reentrancy_propagates_information():
    a = parse_avm({"A": "#1", "B": "#1"})
    b = parse_avm({"A": {"F": "x"}})
    got = unify(a, b)
    assert got.get("B", "F").atom == "x"
    assert got.get("A") is got.get("B")


def test_inputs_not_mutated():
    a = parse_avm({"A": {"F": "x"}})
    b = parse_avm({"A": {"G": "y"}})
    before_a, before_b = canonical(a), canonical(b)
    unify(a, b)
    assert canonical(a) == before_a
    assert canonical(b) == before_b


def test_cyclic_unification_fails():
    # unifying [F: X] with X itself would make the result cyclic
    x = top()
    cyc = avm(F=x)
    assert unify(cyc, x) is None


def test_subsumption():
    general = parse_avm({"HEAD": {"POS": "verb"}})
    specific = parse_avm({"HEAD": {"POS": "verb", "FIN": "+"}})
    assert subsumes(general, specific)
    assert not subsumes(specific, general)
    assert subsumes(top(), specific)
    # sharing in the general structure must hold in the specific one
    shared = parse_avm({"A": "#1", "B": "#1"})
    unshared = parse_avm({"A": {"F": "x"}, "B": {"F": "x"}})
    assert not subsumes(shared, unshared)
    assert subsumes(unshared, parse_avm({"A": {"#1": {"F": "x"}}, "B": "#1"}))


def test_canonical_is_tag_name_independent():
    a = parse_avm({"A": "#foo", "B": "#foo"})
    b = parse_avm({"A": "#9", "B": "#9"})
    assert canonical(a) == canonical(b)


@pytest.mark.parametrize("xa, xb", [
    ({"F": "a G:'b"}, {"F": "a", "G": "b"}),
    ({"F": ["a 'b"]}, {"F": ["a", "b"]}),
])
def test_atoms_cannot_imitate_structure(xa, xb):
    assert canonical(parse_avm(xa)) != canonical(parse_avm(xb))


# Atoms and feature names written with the characters canonical forms
# are made of; none starts with "#", which would make it a tag.
_odd_avms = tagged_avms(
    ["a", "b", "a G:'b", "a 'b", "'", '"', "<", "]", "x#1"],
    ["F", "G", "F G", "G:'a", "]", "<", "'", "H#1"])


def _parse_or_none(obj):
    try:
        return parse_avm(obj)
    except AvmFormatError:
        return None


@settings(max_examples=200)
@given(st.lists(_odd_avms, min_size=2, max_size=6))
def test_canonical_iff_mutual_subsumption(objs):
    nodes = [n for n in map(_parse_or_none, objs) if n is not None]
    for a in nodes:
        for b in nodes:
            assert (canonical(a) == canonical(b)) == (
                subsumes(a, b) and subsumes(b, a))


def test_parse_avm_rejects_bad_values():
    with pytest.raises(AvmFormatError):
        parse_avm(42)
    with pytest.raises(AvmFormatError):
        parse_avm({"#1": "a", "X": "b"})
    with pytest.raises(AvmFormatError):
        parse_avm({"A": {"#1": "x"}, "B": {"#1": "y"}})


# A small strategy over JSON-encodable AVMs without tags (tags would
# need care to stay well-formed under arbitrary nesting).
_atoms = st.sampled_from(["a", "b", "verb", "+", "-"])
_avms = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["F", "G", "H"]), kids, max_size=3)),
    max_leaves=8)


@settings(max_examples=60)
@given(_avms, _avms)
def test_unify_commutative(xa, xb):
    a, b = parse_avm(xa), parse_avm(xb)
    ab, ba = unify(a, b), unify(b, a)
    if ab is None:
        assert ba is None
    else:
        assert canonical(ab) == canonical(ba)


@settings(max_examples=60)
@given(_avms)
def test_unify_idempotent(xa):
    a = parse_avm(xa)
    assert canonical(unify(a, a)) == canonical(a)


@settings(max_examples=60)
@given(_avms, _avms)
def test_result_subsumed_by_both_inputs(xa, xb):
    a, b = parse_avm(xa), parse_avm(xb)
    got = unify(a, b)
    if got is not None:
        assert subsumes(a, got)
        assert subsumes(b, got)


@settings(max_examples=40)
@given(_avms, _avms, _avms)
def test_unify_associative(xa, xb, xc):
    # failure acts as an absorbing element, so both groupings must agree
    def meet(p, q):
        if p is None or q is None:
            return None
        return unify(p, q)

    a, b, c = parse_avm(xa), parse_avm(xb), parse_avm(xc)
    left = meet(meet(a, b), c)
    right = meet(a, meet(b, c))
    if left is None:
        assert right is None
    else:
        assert right is not None and canonical(left) == canonical(right)
