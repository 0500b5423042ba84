from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    _word_products,
    holonomy_general,
    random_generalized_connection,
)
from holonomy_lab.pathgroupoid import (
    CompositionError,
    ConnectivityError,
    Edge,
    Graph,
    UnknownEdgeError,
    abelianize,
    compose,
    edge_word,
    graph_from_dict,
    graph_to_dict,
    inverse,
    loop_relations,
    reduce_word,
    spanning_tree,
    tree_edge_ids,
    unit,
    word_from_tokens,
    word_to_tokens,
)
from holonomy_lab.spectra import commutator_word
from graphs import bouquet_graph, pentagon_chord_graph, square_graph
from instruments import compose_all, power
from oracles import (
    all_order_normal_forms,
    compose_seam,
    dependencies,
    depends_on,
    enumerate_composable_words,
    leftmost_innermost_reduce,
    reduce_word_letterwise,
    word_from_tokens_letterwise,
)

SQUARE = square_graph()
PENT = pentagon_chord_graph()


# --- random composable words -------------------------------------------------

@st.composite
def walks(draw, graph=SQUARE, max_len=30, start=None):
    rngedges = graph.edges
    v = start if start is not None else draw(st.sampled_from(graph.vertices))
    length = draw(st.integers(min_value=0, max_value=max_len))
    letters = []
    for _ in range(length):
        options = []
        for eid in graph.incident_edges(v):
            e = rngedges[eid]
            if e.src == v:
                options.append((eid, 1))
            if e.dst == v:
                options.append((eid, -1))
        letter = draw(st.sampled_from(options))
        letters.append(letter)
        e = rngedges[letter[0]]
        v = e.dst if letter[1] == 1 else e.src
    return letters, (start if start is not None else letters and None), v


def walk_word(draw_result, graph=SQUARE):
    letters, _, _ = draw_result
    if not letters:
        return unit(graph, graph.basepoint)
    return reduce_word(graph, letters)


# --- reduction ---------------------------------------------------------------

def test_reduce_empty_needs_source():
    with pytest.raises(ValueError):
        reduce_word(SQUARE, [])
    u = reduce_word(SQUARE, [], source="a")
    assert u.is_unit() and u.source == "a" and u.range == "a"


def test_reduce_cancels_simple_pair():
    w = reduce_word(SQUARE, [(1, 1), (1, -1)])
    assert w.is_unit() and w.source == "a"


def test_reduce_rejects_noncomposable_with_index():
    with pytest.raises(CompositionError) as err:
        reduce_word(SQUARE, [(1, 1), (3, 1)])  # b then c->d
    assert "0" in str(err.value) and "1" in str(err.value)


def test_reduce_rejects_unknown_edge():
    with pytest.raises(UnknownEdgeError):
        reduce_word(SQUARE, [(99, 1)])


# int and string edge ids (one of them digits), a self-loop, and parallel edges between a and b
MIXED = Graph(["a", "b", "c"], [(1, "a", "b"), ("x", "b", "c"), (2, "c", "a"),
                                ("y", "a", "a"), (3, "b", "a"), ("4", "c", "b")], "a")
JUNK = [0, "0", 99, "-99", "z", "z^-1", True, 1.0, "-", "^-1", "--1", "1^-1^-1", " "]


def spellings(eid, o):
    """Every token that names the letter (eid, o)."""
    if isinstance(eid, int):
        return [eid, str(eid), f" {eid} "] if o == 1 else [-eid, f"-{eid}", f"{eid}^-1"]
    return [eid, f" {eid}"] if o == 1 else [f"-{eid}", f"{eid}^-1"]


@st.composite
def broken_walks(draw, graph=MIXED, max_len=12):
    """Letters of a walk, each step with a 1 in 8 chance of a jump to any letter."""
    v, letters = draw(st.sampled_from(graph.vertices)), []
    for _ in range(draw(st.integers(0, max_len))):
        options = [(eid, o) for eid, e in graph.edges.items() for o in (1, -1)
                   if (e.src, e.dst)[::o][0] == v or draw(st.integers(0, 7)) == 0]
        eid, o = draw(st.sampled_from(options))
        letters.append((eid, o))
        v = (graph.edges[eid].src, graph.edges[eid].dst)[::o][1]
    return letters


@st.composite
def token_lists(draw):
    """A broken walk spelled out, now and then with a junk token in between."""
    tokens = []
    for eid, o in draw(broken_walks()):
        if draw(st.integers(0, 9)) == 0:
            tokens.append(draw(st.sampled_from(JUNK)))
        tokens.append(draw(st.sampled_from(spellings(eid, o))))
    return tokens


@st.composite
def raw_letters(draw):
    """A broken walk's letters, some as lists, now and then with a bad orientation."""
    out = []
    for eid, o in draw(broken_walks()):
        if draw(st.integers(0, 9)) == 0:
            o = draw(st.sampled_from([0, 2, True, -1.0]))
        out.append([eid, o] if draw(st.booleans()) else (eid, o))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), exc.args


@settings(max_examples=300, deadline=None)
@given(token_lists(), st.sampled_from([None, "a", "b", "c", "d"]))
@example([1, -1, True], None)  # True == 1 must not read the parsed 1
def test_word_from_tokens_matches_letterwise_oracle(tokens, source):
    got = outcome(word_from_tokens, MIXED, tokens, source)
    assert got == outcome(word_from_tokens_letterwise, MIXED, tokens, source)


@settings(max_examples=300, deadline=None)
@given(raw_letters(), st.sampled_from([None, "a", "b"]))
def test_reduce_word_matches_letterwise_oracle(letters, source):
    got = outcome(reduce_word, MIXED, letters, source)
    assert got == outcome(reduce_word_letterwise, MIXED, letters, source)


@settings(max_examples=200, deadline=None)
@given(walks())
def test_reduce_matches_all_order_oracle(w):
    letters, _, _ = w
    if not letters:
        return
    forms = all_order_normal_forms(letters)
    assert len(forms) == 1
    got = reduce_word(SQUARE, letters)
    assert got.letters == next(iter(forms))
    assert got.letters == leftmost_innermost_reduce(letters)


def test_reduce_exhaustive_small_words():
    # every composable raw word of length <= 5 on the square graph
    for letters in enumerate_composable_words(SQUARE, 5):
        forms = all_order_normal_forms(letters)
        assert len(forms) == 1
        assert reduce_word(SQUARE, letters).letters == next(iter(forms))


@settings(max_examples=100, deadline=None)
@given(walks())
def test_reduced_words_have_no_cancellable_pair(w):
    letters, _, _ = w
    if not letters:
        return
    word = reduce_word(SQUARE, letters)
    for a, b in zip(word.letters, word.letters[1:]):
        assert not (a[0] == b[0] and a[1] == -b[1])


# --- groupoid laws -----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(walks())
def test_unit_laws(w):
    p = walk_word(w)
    assert compose(p, unit(SQUARE, p.source)) == p
    assert compose(unit(SQUARE, p.range), p) == p


@settings(max_examples=150, deadline=None)
@given(walks())
def test_inverse_laws(w):
    p = walk_word(w)
    assert inverse(inverse(p)) == p
    assert compose(inverse(p), p) == unit(SQUARE, p.source)
    assert compose(p, inverse(p)) == unit(SQUARE, p.range)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_associativity(data):
    c_letters, _, c_end = data.draw(walks(max_len=12))
    c = walk_word((c_letters, None, None)) if c_letters else unit(SQUARE, "a")
    b_letters, _, _ = data.draw(walks(max_len=12, start=c.range))
    b = reduce_word(SQUARE, b_letters, source=c.range) if b_letters else unit(SQUARE, c.range)
    a_letters, _, _ = data.draw(walks(max_len=12, start=b.range))
    a = reduce_word(SQUARE, a_letters, source=b.range) if a_letters else unit(SQUARE, b.range)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_rejects_mismatched_endpoints():
    p = edge_word(SQUARE, 1)   # a -> b
    q = edge_word(SQUARE, 3)   # c -> d
    with pytest.raises(CompositionError):
        compose(p, q)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([SQUARE, PENT, bouquet_graph()]), st.data())
def test_compose_matches_seam_cancel_oracle(graph, data):
    # p starts by undoing a drawn share of q's tail, so seams cancel partly or wholly
    q_letters, _, _ = data.draw(walks(graph, max_len=12))
    q = walk_word((q_letters, None, None), graph)
    undo = inverse(q).letters[:data.draw(st.integers(0, len(q)))]
    more, _, _ = data.draw(walks(graph, max_len=8,
                                 start=reduce_word(graph, undo, source=q.range).range))
    p = reduce_word(graph, [*undo, *more], source=q.range)
    assert compose(p, q) == compose_seam(p, q)


def test_compose_seams_cancel():
    p = edge_word(SQUARE, 1)                 # a -> b
    q = compose(inverse(p), edge_word(SQUARE, 2, -1))  # c -> b -> a
    w = compose(compose(edge_word(SQUARE, 2), p), q)
    assert w == unit(SQUARE, "c")


@settings(max_examples=100, deadline=None)
@given(walks())
def test_abelianize_inverse_negates(w):
    p = walk_word(w)
    neg = abelianize(inverse(p))
    assert neg == {e: -c for e, c in abelianize(p).items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_abelianize_compose_adds(data):
    q_letters, _, _ = data.draw(walks(max_len=10))
    q = walk_word((q_letters, None, None)) if q_letters else unit(SQUARE, "a")
    p_letters, _, _ = data.draw(walks(max_len=10, start=q.range))
    p = reduce_word(SQUARE, p_letters, source=q.range) if p_letters else unit(SQUARE, q.range)
    lhs = abelianize(compose(p, q))
    ref = dict(abelianize(p))
    for e, c in abelianize(q).items():
        ref[e] = ref.get(e, 0) + c
    ref = {e: c for e, c in ref.items() if c != 0}
    assert lhs == ref


def test_power_on_loop():
    loop = compose_all([edge_word(SQUARE, 4), edge_word(SQUARE, 3),
                        edge_word(SQUARE, 2), edge_word(SQUARE, 1)])
    assert loop.is_loop()
    assert power(loop, 0).is_unit()
    assert power(loop, 2) == compose(loop, loop)
    assert power(loop, -1) == inverse(loop)
    assert abelianize(power(loop, 3)) == {1: 3, 2: 3, 3: 3, 4: 3}


# --- spanning tree -----------------------------------------------------------

def test_spanning_tree_square():
    tree = spanning_tree(SQUARE)
    assert set(tree) == set(SQUARE.vertices)
    assert tree["a"].is_unit()
    for v, path in tree.items():
        assert path.source == "a" and path.range == v
    assert len(tree_edge_ids(SQUARE, tree)) == len(SQUARE.vertices) - 1


def test_spanning_tree_prefers_small_edge_ids():
    tree = spanning_tree(SQUARE)
    # BFS from 'a' reaches b through edge 1 and d through edge 4
    assert tree["b"].letters == ((1, 1),)
    assert tree["d"].letters == ((4, -1),)


def test_spanning_tree_deterministic():
    t1 = spanning_tree(PENT)
    t2 = spanning_tree(PENT)
    assert t1 == t2


def test_spanning_tree_disconnected_raises():
    g = Graph(["x", "y", "z"], [Edge(1, "x", "y")], "x")
    with pytest.raises(ConnectivityError) as err:
        spanning_tree(g)
    assert "z" in str(err.value)


def test_self_loops_never_tree_edges():
    g = bouquet_graph()
    tree = spanning_tree(g)
    assert tree_edge_ids(g, tree) == set()


# --- bounded dependence search (oracle) and the exact relation finder ----------

def test_depends_on_direct_product():
    f0 = edge_word(SQUARE, 1)                  # a -> b
    f1 = edge_word(SQUARE, 2)                  # b -> c
    p = compose(f1, f0)
    assert depends_on(SQUARE, p, [f0, f1], bound=2) == [(1, 1), (0, 1)]


def test_depends_on_unit_and_inverse():
    f0 = edge_word(SQUARE, 1)
    assert depends_on(SQUARE, unit(SQUARE, "a"), [f0], bound=3) == []
    assert depends_on(SQUARE, inverse(f0), [f0], bound=2) == [(0, -1)]


def test_depends_on_respects_bound():
    f0 = edge_word(SQUARE, 1)
    loop = compose_all([edge_word(SQUARE, 4), edge_word(SQUARE, 3),
                        edge_word(SQUARE, 2), f0])
    family = [edge_word(SQUARE, k) for k in (1, 2, 3, 4)]
    assert depends_on(SQUARE, loop, family, bound=3) is None
    got = depends_on(SQUARE, loop, family, bound=4)
    assert got == [(3, 1), (2, 1), (1, 1), (0, 1)]


def test_depends_on_factorization_recomposes():
    f0 = edge_word(PENT, 1)
    f1 = edge_word(PENT, 2)
    f2 = edge_word(PENT, 6)
    target = compose(inverse(f2), compose(f1, f0))
    fact = depends_on(PENT, target, [f0, f1, f2], bound=4)
    assert fact is not None
    factors = [[f0, f1, f2][i] if o == 1 else inverse([f0, f1, f2][i]) for i, o in fact]
    assert compose_all(factors) == target


def test_independent_family_detection():
    f0 = edge_word(SQUARE, 1)
    f1 = edge_word(SQUARE, 2)
    assert not loop_relations(SQUARE, [f0, f1])[0]
    assert loop_relations(SQUARE, [f0, f1, compose(f1, f0)])[0]


def test_dependencies_count_indices_in_whole_family():
    f0 = edge_word(SQUARE, 1)
    f1 = edge_word(SQUARE, 2)
    family = [f0, f1, compose(f1, f0)]
    assert list(dependencies(SQUARE, family, bound=4)) == [
        [(1, -1), (2, 1)], [(2, 1), (0, -1)], [(1, 1), (0, 1)]]
    assert list(dependencies(SQUARE, [f0, f1], bound=4)) == [None, None]


def family_word(family, relation):
    """The path a family word in walk order composes to."""
    return compose_all([family[i] if o == 1 else inverse(family[i])
                        for i, o in reversed(relation)])


def bouquet(petals):
    return Graph(["o"], [Edge(i, "o", "o") for i in range(1, petals + 1)], "o")


def test_loop_relations_of_small_families():
    g = bouquet_graph()
    a, b = edge_word(g, 1), edge_word(g, 2)
    assert loop_relations(g, [a, b]) == ([], 2)
    assert loop_relations(g, [commutator_word(a, b)]) == ([], 1)
    rels, rank = loop_relations(g, [power(a, 2), power(a, 3)])
    assert rank == 1 and len(rels) == 1
    # a^2 and a^3 generate <a>, so the one relation has zero total exponent
    assert sum(o * (2, 3)[i] for i, o in rels[0]) == 0
    assert loop_relations(g, [unit(g, g.basepoint), a]) == ([((0, 1),)], 1)


def test_loop_relations_of_paths_compose_to_units():
    f0, f1 = edge_word(SQUARE, 1), edge_word(SQUARE, 2)
    family = [f0, f1, compose(f1, f0)]
    rels, _ = loop_relations(SQUARE, family)
    assert len(rels) == 1 and family_word(family, rels[0]).is_unit()


@st.composite
def loop_families(draw):
    """A bouquet of 2-4 petals or the pentagon with a chord, and 1-7 loops at
    its basepoint, each a product of generators or, sometimes, of earlier loops."""
    petals = draw(st.integers(2, 4))
    if draw(st.booleans()):
        graph = bouquet(petals)
        gens = [edge_word(graph, i) for i in range(1, petals + 1)]
    else:
        graph = PENT
        gens = [word_from_tokens(PENT, [1, 2, 3, 4, 5]), word_from_tokens(PENT, [6, 3, 4, 5])]
    loops = []
    for _ in range(draw(st.integers(1, 7))):
        pool = loops if loops and draw(st.integers(0, 2)) == 0 else gens
        word = unit(graph, graph.basepoint)
        for _ in range(draw(st.integers(1, 4))):
            f = pool[draw(st.integers(0, len(pool) - 1))]
            word = compose(f if draw(st.booleans()) else inverse(f), word)
        loops.append(word)
    return graph, loops, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(loop_families())
def test_loop_relations_match_the_bounded_search(case):
    graph, loops, seed = case
    rels, rank = loop_relations(graph, loops)
    for rel in rels:
        assert rel and family_word(loops, rel).is_unit()
    assert rank == len(loops) - len(rels)
    exps = [abelianize(w) for w in loops]
    A = np.array([[x.get(e, 0) for e in graph.edges] for x in exps], dtype=float)
    assert np.linalg.matrix_rank(A) <= rank
    # the oracle's bounded search only ever finds relations that exist
    bound = 4 if len(loops) <= 4 else 2
    if any(dep is not None for dep in dependencies(graph, loops, bound)):
        assert rels
    su2 = mg.SpecialUnitary(2)
    conn = random_generalized_connection(graph, su2, seed)
    hom = np.array([holonomy_general(conn, w).matrix for w in loops])
    haar = mg.haar_batch(su2, len(loops), np.random.default_rng(seed))
    for h, g in zip(_word_products(hom, rels), _word_products(haar, rels)):
        assert np.linalg.norm(h - np.eye(2)) <= 1e-9
        # SU(2) obeys no law, so a nontrivial word moves generic values
        assert np.linalg.norm(g - np.eye(2)) > 1e-6


# --- serialization -----------------------------------------------------------

def test_graph_document_roundtrip():
    doc = graph_to_dict(PENT)
    g = graph_from_dict(doc)
    assert graph_to_dict(g) == doc


def test_graph_document_rejects_disconnected():
    doc = {
        "vertices": [{"id": "x"}, {"id": "y"}, {"id": "z"}],
        "edges": [{"id": 1, "src": "x", "dst": "y"}],
        "basepoint": "x",
    }
    with pytest.raises(ConnectivityError):
        graph_from_dict(doc)


def test_graph_document_rejects_bad_edge():
    doc = {
        "vertices": [{"id": "x"}],
        "edges": [{"id": 1, "src": "x", "dst": "nope"}],
        "basepoint": "x",
    }
    with pytest.raises(ValueError):
        graph_from_dict(doc)


def test_graph_rejects_repeated_vertices_and_a_foreign_basepoint():
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        Graph(["a", "b", "a"], [Edge(1, "a", "b", None)], "a")
    with pytest.raises(ValueError, match="basepoint is not a vertex"):
        Graph("ab", [Edge(1, "a", "b", None)], "c")


def test_graph_rejects_curves_that_do_not_meet():
    # against the vertex position, and against another curve at that vertex
    with pytest.raises(ValueError, match="edge 2 does not end at vertex 'a'"):
        Graph("ab", [Edge(1, "a", "b", ((0, 0), (1, 0))), Edge(2, "b", "a", ((1, 0), (0, 1)))],
              "a", {"a": (0, 0), "b": (1, 0)})
    with pytest.raises(ValueError, match="edge 2 does not end at vertex 'b'"):
        Graph("ab", [Edge(1, "a", "b", ((0, 0), (1, 0))), Edge(2, "b", "a", ((5, 5), (0, 0)))], "a")


@pytest.mark.parametrize("curve", [(), ((0, 0),)])
def test_graph_rejects_curves_with_fewer_than_two_points(curve):
    # an empty curve used to pass the end check and fail later inside path_polyline
    with pytest.raises(ValueError, match="edge 1 needs two or more points"):
        Graph("ab", [Edge(1, "a", "b", curve)], "a", {"a": (0, 0), "b": (1, 0)})


def test_word_tokens_roundtrip_int_ids():
    p = reduce_word(SQUARE, [(1, 1), (2, 1), (2, -1), (2, 1)])
    tokens = word_to_tokens(p)
    assert tokens == [1, 2]
    assert word_from_tokens(SQUARE, tokens) == p
    assert word_from_tokens(SQUARE, [1, -1], source="a").is_unit()


def test_word_tokens_roundtrip_edge_id_zero():
    # the int 0 has no sign and is not a token, so id 0 is written as its str
    g = Graph(["a"], [(0, "a", "a"), (1, "a", "a")], "a")
    w = reduce_word(g, [(0, 1), (1, 1), (0, -1)])
    tokens = word_to_tokens(w)
    assert tokens == ["0", 1, "-0"]
    assert word_from_tokens(g, json.loads(json.dumps(tokens))) == w


def test_word_tokens_string_ids():
    g = Graph(["p", "q"], [Edge("e1", "p", "q")], "p")
    w = edge_word(g, "e1", -1)
    assert word_to_tokens(w) == ["-e1"]
    assert word_from_tokens(g, ["-e1"]) == w
    assert word_from_tokens(g, ["e1^-1"]) == w
