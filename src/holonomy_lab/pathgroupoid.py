"""Reduced edge words on a finite graph.

A finite directed multigraph with a marked basepoint carries a groupoid of
paths: words of oriented edges in which consecutive letters match head to
tail and no letter is immediately followed by its own inverse.  Words are
stored in traversal order (``letters[0]`` is walked first).  Composition is
written like operator application: ``compose(p, q)`` walks ``q`` first and
``p`` second, so holonomy maps defined later satisfy
``hol(compose(p, q)) == hol(p) @ hol(q)``.

Edges may be traversed against their direction; a letter is a pair
``(edge_id, orientation)`` with orientation ``+1`` (src to dst) or ``-1``.
Free cancellation of ``e . e^-1`` is confluent, so every word has a unique
reduced normal form regardless of cancellation order.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class CompositionError(ValueError):
    """Raised when adjacent letters or words do not match head to tail."""


class ConnectivityError(ValueError):
    """Raised by operations that need a connected graph."""


class UnknownEdgeError(KeyError):
    """Raised when a word refers to an edge id the graph does not have."""


def _id_key(i):
    # deterministic order for possibly mixed int/str ids
    return (0, i, "") if isinstance(i, int) else (1, 0, str(i))


@dataclass(frozen=True)
class Edge:
    id: object
    src: object
    dst: object
    curve: tuple | None = None  # optional chart polyline from src to dst


class Graph:
    """Finite directed multigraph with basepoint and optional chart geometry.

    Parameters
    ----------
    vertices : iterable of vertex ids
    edges : iterable of Edge (or (id, src, dst) tuples)
    basepoint : vertex id
    positions : optional mapping vertex id -> chart point (tuple of floats)

    Self-loops and parallel edges are allowed.  Ids must be hashable and unequal
    (``1``, ``1.0`` and ``True`` are equal); tokens name an edge by its id's ``str``
    (``names``): one per edge, none read reversed (``-e``, ``e^-1``).  Every chart
    point has ``chart_dim`` coordinates and a norm below 2^128.
    """

    def __init__(self, vertices, edges, basepoint, positions=None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(self.vertices)
        self.edges, self.names = {}, {}  # names: str of each edge id -> the id
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            name = str(e.id)
            if name in self.names:
                raise ValueError(f"edge id {e.id!r} repeats the name of edge {self.names[name]!r}")
            if e.id in self.edges:  # 1, 1.0 and True are one dict key
                raise ValueError(f"edge id {e.id!r} equals the id of edge {self.edges[e.id].id!r}")
            if name.startswith("-") or name.endswith("^-1"):
                raise ValueError(f"edge id {e.id!r} reads as a reversed letter")
            self.names[name] = e.id
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e.id!r} has endpoint outside the vertex set")
            if e.curve is not None:
                e = Edge(e.id, e.src, e.dst, tuple(tuple(float(c) for c in pt) for pt in e.curve))
                if len(e.curve) < 2:
                    raise ValueError(f"curve of edge {e.id!r} needs two or more points")
            self.edges[e.id] = e
        if basepoint not in vset:
            raise ValueError("basepoint is not a vertex")
        self.basepoint = basepoint
        self.positions = {v: tuple(float(c) for c in p) for v, p in (positions or {}).items()}
        pts = [*self.positions.values(), *(p for e in self.edges.values() for p in e.curve or ())]
        dims = {len(p) for p in pts}
        if len(dims) > 1:
            raise ValueError(f"positions and curve points mix chart dimensions {sorted(dims)}")
        for p in pts:
            # bump geometry multiplies squared lengths: below 2^128 their products stay finite
            if not math.hypot(*p) < 2.0 ** 128:
                raise ValueError(f"chart point {list(p)} lies 2^128 or farther from the origin")
        self.chart_dim = dims.pop() if dims else None  # None: the graph has no geometry
        # a word's curve is its edges' curves laid end to end, so every
        # curve must end where the other curves at that vertex end
        ends = {}
        for e in self.edges.values():
            if e.curve is None:
                continue
            for v, pt in ((e.src, e.curve[0]), (e.dst, e.curve[-1])):
                ref = ends.setdefault(v, self.positions.get(v, pt))
                if math.dist(ref, pt) > 1e-9:
                    raise ValueError(f"curve of edge {e.id!r} does not end at vertex {v!r}")
        incident = collections.defaultdict(list)
        for e in self.edges.values():
            incident[e.src].append(e.id)
            if e.dst != e.src:
                incident[e.dst].append(e.id)
        self._incident = {v: tuple(sorted(ids, key=_id_key)) for v, ids in incident.items()}
        # letter (edge id, +-1) -> (source, range): the endpoint table of reduce_word
        self._letter_ends = {(e.id, o): (e.src, e.dst)[::o]
                             for e in self.edges.values() for o in (1, -1)}

    def edge(self, eid) -> Edge:
        try:
            return self.edges[eid]
        except KeyError:
            raise UnknownEdgeError(f"no edge with id {eid!r}") from None

    def incident_edges(self, v) -> tuple:
        return self._incident.get(v, ())

    def is_connected(self) -> bool:
        return not self.vertices or len(_tree_walk(self, self.vertices[0])) + 1 == len(self.vertices)

    def __repr__(self):
        return (f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, "
                f"basepoint={self.basepoint!r})")


def letter_endpoints(graph: Graph, letter) -> tuple:
    """Source and range of a single oriented letter ``(edge_id, orientation)``."""
    eid, o = letter
    e = graph.edge(eid)
    if o == 1:
        return e.src, e.dst
    if o == -1:
        return e.dst, e.src
    raise ValueError(f"orientation must be +1 or -1, got {o!r}")


@dataclass(frozen=True)
class PathWord:
    """Reduced word of oriented edges with source/range bookkeeping.

    The unit at a vertex is the empty word with source == range.  Instances
    are immutable; build them with :func:`reduce_word`, :func:`edge_word`,
    :func:`unit`, :func:`compose` and :func:`inverse`.
    """

    letters: tuple
    source: object
    range: object

    def is_unit(self) -> bool:
        return not self.letters

    def is_loop(self) -> bool:
        return self.source == self.range

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self):
        body = " ".join(f"{eid}" if o == 1 else f"{eid}^-1" for eid, o in self.letters)
        return f"<{self.source!r} --[{body}]--> {self.range!r}>"


def unit(graph: Graph, vertex) -> PathWord:
    if vertex not in set(graph.vertices):
        raise ValueError(f"{vertex!r} is not a vertex")
    return PathWord((), vertex, vertex)


def edge_word(graph: Graph, eid, orientation: int = 1) -> PathWord:
    s, r = letter_endpoints(graph, (eid, orientation))
    return PathWord(((eid, orientation),), s, r)


def _letter_spans(graph: Graph, letters: list):
    """(source, range) of each letter up to the first one that has none, and the
    error that letter raises (None when every letter has endpoints)."""
    table = graph._letter_ends
    try:
        return [table[letter] for letter in letters], None
    except (KeyError, TypeError):  # a bad letter, or a valid one given as a list
        spans = []
        for letter in letters:
            try:
                spans.append(letter_endpoints(graph, letter))
            except (ValueError, KeyError, TypeError) as exc:
                return spans, exc
        return spans, None


def reduce_word(graph: Graph, letters: Sequence, source=None) -> PathWord:
    """Reduce a raw letter sequence to its normal form.

    Checks that consecutive letters compose (range of letter k equals source
    of letter k+1) in one pass: every letter's endpoints come from the graph's
    letter table, and the sources of letters 1.. are compared with the ranges
    of letters ..-2 as whole tuples.  Errors come in letter order, as a
    letter-by-letter walk would meet them.  Free cancellation of every
    adjacent ``e . e^-1`` pair is confluent, so a single left-to-right stack
    pass gives the unique normal form.  ``source`` is required only for the
    empty word.
    """
    letters = list(letters)
    if not letters:
        if source is None:
            raise ValueError("empty word needs an explicit source vertex")
        return unit(graph, source)
    spans, error = _letter_spans(graph, letters)
    if spans:
        sources, ranges = zip(*spans)
        if source is not None and source != sources[0]:
            raise CompositionError(f"word starts at {sources[0]!r}, expected {source!r}")
        if sources[1:] != ranges[:-1]:
            k = next(k for k in range(1, len(spans)) if sources[k] != ranges[k - 1])
            raise CompositionError(f"letters {k-1} and {k} do not compose: "
                                   f"range {ranges[k - 1]!r} != source {sources[k]!r}")
    if error is not None:
        raise error
    # cancellation keeps the ends, so an empty normal form is a unit at sources[0]
    return PathWord(_free_reduce(letters), sources[0], ranges[-1])


def compose(p: PathWord, q: PathWord) -> PathWord:
    """Compose two paths, walking ``q`` first; requires range(q) == source(p)."""
    if q.range != p.source:
        raise CompositionError(
            f"cannot compose: range {q.range!r} of the right word "
            f"!= source {p.source!r} of the left word")
    # an empty normal form means p undoes q, so p.range == q.source
    return PathWord(_free_reduce(q.letters + p.letters), q.source, p.range)


def inverse(p: PathWord) -> PathWord:
    return PathWord(tuple((eid, -o) for eid, o in reversed(p.letters)), p.range, p.source)


def abelianize(p: PathWord) -> dict:
    """Net signed traversal count per edge; zero entries are dropped."""
    counts = collections.Counter()
    for eid, o in p.letters:
        counts[eid] += o
    return {eid: c for eid, c in counts.items() if c != 0}


def _tree_walk(graph: Graph, root) -> list:
    """Breadth-first tree edges from ``root``, ties broken by edge id: ``(v, eid, o, w)``
    reaches the new vertex w from v along edge eid walked with orientation o."""
    seen, queue, tree = {root}, collections.deque([root]), []
    while queue:
        v = queue.popleft()
        for eid in graph.incident_edges(v):
            e = graph.edges[eid]
            w, o = (e.dst, 1) if e.src == v else (e.src, -1)
            if w not in seen:
                seen.add(w)
                queue.append(w)
                tree.append((v, eid, o, w))
    return tree


def spanning_tree(graph: Graph) -> dict:
    """Breadth-first spanning tree rooted at the basepoint.

    Returns a map vertex -> PathWord from the basepoint to that vertex along
    tree edges.  Ties are broken by edge id, so the result is deterministic.
    Raises ConnectivityError if some vertex is unreachable.
    """
    root = graph.basepoint
    paths = {root: unit(graph, root)}
    for v, eid, o, w in _tree_walk(graph, root):
        paths[w] = compose(edge_word(graph, eid, o), paths[v])
    if len(paths) != len(graph.vertices):
        missing = [v for v in graph.vertices if v not in paths]
        raise ConnectivityError(f"vertices unreachable from basepoint: {missing!r}")
    return paths


def tree_edge_ids(graph: Graph, tree: Mapping) -> set:
    return {eid for p in tree.values() for eid, _ in p.letters}


def _free_reduce(letters) -> tuple:
    """Cancel adjacent ``x . x^-1`` pairs in one left-to-right stack pass."""
    stack = []
    for eid, o in letters:
        if stack and stack[-1][0] == eid and stack[-1][1] == -o:
            stack.pop()
        else:
            stack.append((eid, o))
    return tuple(stack)


def loop_relations(graph: Graph, loops: Sequence[PathWord]):
    """Every relation among a family of loops, by Stallings folding.

    Loop i becomes a chain of its edge letters, the last edge labelled
    ``(i, +1)``.  Edges leaving a node with one letter fold: distinct far
    ends merge once the one that is no vertex node is gauged to make the
    labels agree; parallel ones give the relation label1 . label2^-1.  The
    folded graph immerses in ``graph`` (Stallings, Invent. Math. 71, 1983),
    so these normally generate every relation, and ``rank`` = E - V +
    (vertex nodes) = ``len(loops)`` - (relations) is the rank the loops
    generate.  A relation is ``(index, +-1)`` pairs in walk order.
    """
    ends = {v: n for n, v in enumerate(dict.fromkeys(v for w in loops for v in (w.source, w.range)))}
    adj = [{} for _ in ends]    # node -> {letter: (far node, family word)}
    fwd = {}                    # merged node -> (node it went into, its gauge)
    relations, pending = [], []  # pending: edges (x, letter, y, label) to attach

    def inv(word):
        return tuple((i, -o) for i, o in reversed(word))

    def find(n, gauge=()):
        while n in fwd:
            n, g = fwd[n]
            gauge += g
        return n, gauge

    def identify(p, q, word):  # merge q into p, where a walk from p to q reads word
        if p == q:
            relations.append(word)
            return
        if q < len(ends):  # gauge no vertex node; two lie over distinct vertices, never merge
            p, q, word = q, p, inv(word)
        fwd[q] = (p, inv(word))
        for letter, (z, label) in adj[q].items():
            if z != q:
                del adj[z][(letter[0], -letter[1])]
            if z != q or letter[1] > 0:  # a loop at q is listed twice
                pending.append((q, letter, z, label))
        adj[q] = None

    for i, w in enumerate(loops):
        if not w.letters:
            relations.append(((i, 1),))
        chain = [ends[w.source], *range(len(adj), len(adj) + len(w) - 1), ends[w.range]]
        adj.extend({} for _ in range(len(w) - 1))
        pending.extend(zip(chain, w.letters, chain[1:], [()] * (len(w) - 1) + [((i, 1),)]))
        while pending:
            x, letter, y, label = pending.pop()
            (x, gx), (y, gy) = find(x), find(y)
            label = _free_reduce(inv(gx) + label + gy)
            back = (letter[0], -letter[1])
            for a, l, b, lab in ((x, letter, y, label), (y, back, x, inv(label))):
                if l in adj[a]:  # fold onto the edge already there
                    z, old = adj[a][l]
                    identify(z, b, _free_reduce(inv(old) + lab))
                    break
            else:
                adj[x][letter], adj[y][back] = (y, label), (x, inv(label))
    live = [d for d in adj if d is not None]
    return relations, sum(map(len, live)) // 2 - len(live) + len(ends)


# perfbench's tracer times the relation finder under the bounded search's old name
depends_on = loop_relations


# ---------------------------------------------------------------------------
# serialization

def graph_from_dict(data: Mapping) -> Graph:
    """Build a Graph from the JSON document layout.

    Expected shape::

        {"vertices": [{"id": .., "pos": [..]?}, ...],
         "edges": [{"id": .., "src": .., "dst": .., "curve": [[..], ...]?}, ...],
         "basepoint": ..}

    The loaded graph must be connected.
    """
    try:
        vertices = [v["id"] for v in data["vertices"]]
        positions = {v["id"]: tuple(v["pos"]) for v in data["vertices"] if "pos" in v}
        edges = [Edge(e["id"], e["src"], e["dst"],
                      tuple(tuple(pt) for pt in e["curve"]) if "curve" in e else None)
                 for e in data["edges"]]
        basepoint = data["basepoint"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    g = Graph(vertices, edges, basepoint, positions)
    if not g.is_connected():
        raise ConnectivityError("graph document describes a disconnected graph")
    return g


def graph_to_dict(graph: Graph) -> dict:
    verts = []
    for v in graph.vertices:
        item = {"id": v}
        if v in graph.positions:
            item["pos"] = list(graph.positions[v])
        verts.append(item)
    edges = []
    for e in graph.edges.values():
        item = {"id": e.id, "src": e.src, "dst": e.dst}
        if e.curve is not None:
            item["curve"] = [list(pt) for pt in e.curve]
        edges.append(item)
    return {"vertices": verts, "edges": edges, "basepoint": graph.basepoint}


def word_to_tokens(p: PathWord) -> list:
    """Serialize a word as signed edge ids: a nonzero int id as ``±id``, any other id
    (0 too, which has no sign) as its ``str``, with a '-' when reversed."""
    out = []
    for eid, o in p.letters:
        if isinstance(eid, int) and eid != 0:
            out.append(eid * o)
        else:
            out.append(str(eid) if o == 1 else "-" + str(eid))
    return out


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; booleans and fractions are errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _token_letter(names: Mapping, t) -> tuple:
    """Letter of one signed token: a nonzero int, or ``e``, ``-e`` or ``e^-1`` where ``e``
    names the edge whose ``str`` it is (``Graph.names``); an unknown ``e`` reads as it is."""
    if isinstance(t, int) and json_int(t, "a signed edge id") == 0:
        raise ValueError("0 is not a valid signed edge id")
    t = str(t).strip()
    o = 1
    if t.endswith("^-1"):
        o, t = -1, t[:-3]
    elif t.startswith("-"):
        o, t = -1, t[1:]
    return names.get(t, int(t) if t.lstrip("-").isdigit() else t), o


def word_from_tokens(graph: Graph, tokens: Iterable, source=None) -> PathWord:
    """:func:`reduce_word` of signed tokens (see :func:`word_to_tokens`).

    A long word repeats few distinct tokens, so each distinct str or int token
    parses once; those are the only types kept, since an equal bool or float
    (``True == 1``) must not read the int's letter.
    """
    parsed, letters = {}, []
    for t in tokens:
        if type(t) is str or type(t) is int:
            letter = parsed.get(t)
            if letter is None:
                letter = parsed[t] = _token_letter(graph.names, t)
        else:
            letter = _token_letter(graph.names, t)
        letters.append(letter)
    return reduce_word(graph, letters, source=source)
