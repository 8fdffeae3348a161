"""Attribute-value matrices with reentrancy, and unification over them.

A feature structure is one of three kinds of node:

- an *atom* carrying a string value (its ``attrs`` is None),
- an *avm* whose ``attrs`` maps feature names to child structures (an
  avm with no attributes is "top" and unifies with anything),
- a *list* whose ``attrs`` maps the positions ``0..n-1``, in order, to
  child structures (a zero-length list is the empty list, which only
  unifies with another empty list or with top).

So every walk has one loop over a node's children, and two lists of one
length have the same keys.

Reentrancy (structure sharing) is plain Python object identity: two
paths lead to the same node iff they reference the same ``FS`` object.
The JSON surface syntax encodes sharing with ``"#n"`` string tags; see
:func:`parse_avm`. :func:`canonical` writes a structure as a string
that two structures share iff they are equivalent (equal up to the
naming of shared nodes); the chart packs edges by it. Any feature name
is accepted here: the grammar checks names against its declared set.

Unification is quasi-destructive (Tomabechi 1991): it never writes the
``attrs`` of a node, only two scratch slots, a forwarding pointer and
the complement arcs (attributes a node gains from the nodes merged into
it). Both slots are valid only while the node's stamp equals
the current generation, so starting a new generation (see
:func:`new_generation`) discards every scratch write at once. The
result is read out of the current generation's view by :func:`resolve`
as a forward-free graph; a failing unification copies nothing.
``resolve`` copies the nodes of a given set it must not share, and
otherwise only what the unification changed (a node that gained
complement arcs or has a child forwarded to another node, and every
node above one); it reuses every other input node as it is, since no
built node is ever written (structure sharing, Tomabechi 1992).
Atoms, the commonest nodes, and other childless nodes take no call of
their own where that is safe: :func:`unify_mut` unifies an arc pair of
two unforwarded atoms in its arc loop, and :func:`resolve` takes an
unforwarded childless child (an atom, a top or an empty list) outside
``keep`` as itself, since only an AVM with attributes ever gains
complement arcs.
"""

from __future__ import annotations

ATOM = "atom"
AVM = "avm"
LIST = "list"


class UnificationFailure(Exception):
    """Internal signal: the two structures carry incompatible information."""


class AvmFormatError(ValueError):
    """Raised for malformed JSON-encoded AVMs (bad tags, bad value types)."""


# The current generation; scratch slots stamped with another one are void.
_generation = 0


def new_generation():
    """Void every scratch slot written so far. A unification must be
    resolved before the next generation starts, so two may not
    interleave (the parser is single-threaded)."""
    global _generation
    _generation += 1


class FS:
    """A single feature-structure node. Its kind, atom and attrs (its
    children, keyed by feature or by list position) are treated as
    immutable once built; ``stamp``, ``forward`` and ``comp`` are
    unification scratch, valid in generation ``stamp`` only. Nodes
    compare and hash by identity (``resolve`` keys nodes so)."""

    __slots__ = ("kind", "atom", "attrs", "stamp", "forward", "comp")

    def __init__(self, kind, atom=None, attrs=None):
        self.kind = kind
        self.atom = atom
        self.attrs = attrs if attrs is not None else (None if kind == ATOM else {})
        self.stamp = -1
        self.forward = None
        self.comp = None  # complement arcs: feature -> node

    def __repr__(self):
        return f"FS({canonical(self)})"

    def get(self, *path):
        """Follow a feature path, returning None where it is undefined."""
        node = self
        for feat in path:
            if node.kind != AVM or feat not in node.attrs:
                return None
            node = node.attrs[feat]
        return node


def atom(value):
    return FS(ATOM, atom=value)


def avm(**attrs):
    return FS(AVM, attrs=dict(attrs))


def fs_list(*items):
    return FS(LIST, attrs=dict(enumerate(items)))


def top():
    return FS(AVM)


def is_elist(node):
    return node.kind == LIST and not node.attrs


def copy_fs(node, memo=None):
    """Deep copy of the built structure, preserving reentrancy (shared
    nodes stay shared); scratch slots are ignored."""
    if memo is None:
        memo = {}
    key = id(node)
    if key in memo:
        return memo[key]
    if node.kind == ATOM:
        new = FS(ATOM, node.atom)
    else:  # a built structure is acyclic, so no child reaches this node
        new = FS(node.kind, None,
                 {k: copy_fs(v, memo) for k, v in node.attrs.items()})
    memo[key] = new
    return new


def unify_mut(x, y):
    """Merge y into x (or vice versa) in the current generation.

    Writes scratch slots only, so no input changes. Raises
    UnificationFailure on clash. Returns the representative node, which
    is x unless x is top.

    A node is stamped (its scratch slots made current, voiding older
    writes) before its slots are written; an arc pair of two unforwarded
    atoms is unified here without a call.
    """
    gen = _generation
    while x.stamp == gen and x.forward is not None:
        x = x.forward
    while y.stamp == gen and y.forward is not None:
        y = y.forward
    if x is y:
        return x
    # Only an AVM with attributes gains complement arcs, so its built
    # attributes tell whether a node is top; only such a node's comp is
    # ever set, so forwarding any other node needs no comp reset.
    kind = x.kind
    if kind == AVM and not x.attrs:
        x.stamp, x.forward = gen, y
        return y
    if y.kind == AVM and not y.attrs:
        y.stamp, y.forward = gen, x
        return x
    if kind != y.kind:
        raise UnificationFailure
    if kind == ATOM:
        if x.atom != y.atom:
            raise UnificationFailure
        y.stamp, y.forward = gen, x
        return x
    if kind == LIST and len(x.attrs) != len(y.attrs):
        raise UnificationFailure
    # y's arcs, built then complement, go into x; two lists of one
    # length have the same positions, so a list gains no complement arcs
    if x.stamp != gen:
        x.stamp, x.forward, x.comp = gen, None, None
    if y.stamp != gen:
        y.stamp, y.comp = gen, None
    arcs = y.attrs.items()
    if y.comp:
        arcs = [*arcs, *y.comp.items()]
    y.forward = x
    for feat, val in arcs:
        mine = x.attrs.get(feat)
        if mine is None and x.comp:
            mine = x.comp.get(feat)
        if mine is None:
            if x.comp is None:
                x.comp = {feat: val}
            else:
                x.comp[feat] = val
        elif (mine.kind == ATOM and val.kind == ATOM
              and (mine.stamp != gen or mine.forward is None)
              and (val.stamp != gen or val.forward is None)):
            if mine is not val:
                if mine.atom != val.atom:
                    raise UnificationFailure
                val.stamp, val.forward = gen, mine
        else:
            unify_mut(mine, val)
    return x


def resolve(node, keep, memo=None):
    """Read the current generation's view of a graph out as a forward-free FS.

    Every node in ``keep`` (a set of nodes the result must not share)
    is copied. A node outside it that has no complement arcs in this
    generation and whose children all resolve to themselves is returned
    as it is: the result shares what the unification left unchanged,
    which is safe because built nodes are never written.

    Detects cycles introduced by unification (the grammar layer treats a
    cyclic result as failure).
    """
    if memo is None:
        memo = {}
    gen = _generation
    while node.stamp == gen and node.forward is not None:
        node = node.forward
    if node in memo:  # keyed by the node itself, hashed by identity
        if memo[node] is None:
            raise UnificationFailure  # cycle through attribute edges
        return memo[node]
    memo[node] = None
    kind = node.kind
    comp = node.comp if node.stamp == gen else None
    if node in keep or comp:
        if kind == ATOM:
            new = FS(ATOM, node.atom)
        else:
            attrs = {k: resolve(v, keep, memo) for k, v in node.attrs.items()}
            if comp:
                attrs.update((k, resolve(v, keep, memo)) for k, v in comp.items())
            new = FS(kind, None, attrs)
    else:  # share the node, or copy it once a child resolves to another
        new = node
        if kind != ATOM:
            for k, v in node.attrs.items():
                if (not v.attrs and v not in keep
                        and (v.stamp != gen or v.forward is None)):
                    continue  # an unforwarded childless node is itself
                got = resolve(v, keep, memo)
                if got is not v:
                    if new is node:
                        new = FS(kind, None, dict(node.attrs))
                    new.attrs[k] = got
    memo[node] = new
    return new


def canonical(node):
    """Canonical string form; equal strings iff equivalent structures.

    One depth-first walk, features in sorted order, numbers each node in
    first-visit order and writes ``#k`` when it reaches node ``k`` again,
    so the form is independent of the tag names used when the structure
    was written. Atoms and feature names are written by ``repr``, which
    delimits them, so no value can imitate the surrounding syntax.
    """
    numbers = {}
    out = []

    def emit(n):
        k = id(n)
        if k in numbers:
            out.append(f"#{numbers[k]}")
            return
        numbers[k] = len(numbers)
        if n.kind == ATOM:
            out.append(repr(n.atom))
            return
        is_avm = n.kind == AVM  # a list writes its items in order, no keys
        out.append("[" if is_avm else "<")
        for f in sorted(n.attrs) if is_avm else n.attrs:
            if is_avm:
                out.append(f"{f!r}:")
            emit(n.attrs[f])
            out.append(" ")
        out.append("]" if is_avm else ">")

    emit(node)
    return "".join(out)


def parse_avm(obj):
    """Build an FS from its JSON encoding.

    Encoding rules:

    - a string not starting with ``#`` is an atom;
    - an array is a list;
    - an object is an AVM, except an object with the single key ``"#n"``
      which *defines* tag ``n`` as its value;
    - the string ``"#n"`` *references* tag ``n`` (forward references are
      allowed; an unconstrained reference resolves to top).
    """
    tags = {}
    new_generation()

    def build(o):
        if isinstance(o, str):
            if o.startswith("#"):
                return tags.setdefault(o, top())
            return atom(o)
        if isinstance(o, list):
            return fs_list(*[build(v) for v in o])
        if isinstance(o, dict):
            tag_keys = [k for k in o if k.startswith("#")]
            if tag_keys:
                if len(o) != 1:
                    raise AvmFormatError(
                        f"tag definition {tag_keys[0]!r} must be the only key"
                    )
                name = tag_keys[0]
                node = tags.setdefault(name, top())
                body = build(o[name])
                merged = unify_mut(node, body)
                tags[name] = merged
                return merged
            node = FS(AVM)
            for f, v in o.items():
                node.attrs[f] = build(v)
            return node
        raise AvmFormatError(f"bad AVM value of type {type(o).__name__}")

    try:  # every node is new, so the result may share them all
        return resolve(build(obj), frozenset())
    except UnificationFailure as exc:
        raise AvmFormatError("inconsistent tag definitions in AVM") from exc
