"""Tests for connections, transport, gauge actions and interpolation."""

import functools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag, expm

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    BumpTerm,
    DiscreteGauge,
    GaugeBump,
    GeneralizedConnection,
    GeometryError,
    IndependenceError,
    InterpolationTarget,
    SmoothConnection,
    SmoothGauge,
    _chain,
    _segment_transport,
    bump_value,
    edge_polyline,
    gauge_act_general,
    gauge_act_smooth,
    gauge_from_dict,
    gauge_to_dict,
    generalized_from_dict,
    generalized_to_dict,
    holonomy_general,
    holonomy_smooth,
    interpolate_connection,
    path_polyline,
    pushforward_hom,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    random_smooth_gauge,
    restrict,
    smooth_from_dict,
    smooth_to_dict,
    smoothstep,
    split_holonomy,
    transport,
)
from holonomy_lab.pathgroupoid import PathWord, compose, edge_word, inverse

from graphs import pentagon_chord_graph, spider_graph, square_graph
from oracles import transport_field

SU2 = mg.SpecialUnitary(2)
T2 = mg.Torus(2)
PROD = mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2)))
U2_AS_QUOTIENT = mg.central_quotient(PROD, [np.eye(3), -np.eye(3)])


def frob(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


# ---------------------------------------------------------------------------
# bump profile

def test_smoothstep_boundaries():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    assert abs(smoothstep(0.5) - 0.5) < 1e-14


def test_smoothstep_symmetry_and_monotone():
    ts = np.linspace(0.0, 1.0, 201)
    vals = smoothstep(ts)
    assert np.all(np.diff(vals) >= 0.0)
    np.testing.assert_allclose(vals + smoothstep(1.0 - ts), 1.0, atol=1e-14)


def test_bump_plateau_and_support():
    c, rho = (0.5, -0.25), 0.8
    inside = [(0.5, -0.25), (0.5 + 0.39, -0.25), (0.5, -0.25 + 0.39)]
    np.testing.assert_allclose(bump_value(inside, c, rho), 1.0, atol=0.0)
    outside = [(0.5 + 0.81, -0.25), (0.5, -0.25 - 2.0)]
    np.testing.assert_allclose(bump_value(outside, c, rho), 0.0, atol=0.0)
    betw = bump_value([(0.5 + 0.6, -0.25)], c, rho)[0]
    assert 0.0 < betw < 1.0


def test_bump_flat_at_boundaries():
    # the profile is C-infinity, so one-sided slopes at the plateau edge and
    # at the support edge are numerically negligible
    c, rho = (0.0, 0.0), 1.0
    for r in (0.5 + 1e-3, 1.0 - 1e-3):
        h = 1e-5
        slope = (bump_value([(r + h, 0.0)], c, rho)[0]
                 - bump_value([(r - h, 0.0)], c, rho)[0]) / (2 * h)
        assert abs(slope) < 1e-12


# ---------------------------------------------------------------------------
# integrator building blocks

def test_chain_matches_sequential():
    rng = np.random.default_rng(5)
    for count in (1, 2, 3, 5, 8, 9):
        mats = mg.haar_batch(mg.Unitary(3), count, rng)
        want = functools.reduce(lambda acc, m: m @ acc, mats, np.eye(3, dtype=complex))
        assert frob(_chain(mats.copy()), want) < 1e-13


def test_exp_batch_matches_scipy():
    rng = np.random.default_rng(6)
    M = np.array([mg.random_algebra(SU2, rng, scale=1.5).matrix for _ in range(7)])
    got = mg.exp_antihermitian(M)
    for k in range(7):
        assert frob(got[k], expm(M[k])) < 1e-12


def test_transport_without_terms_is_identity():
    conn = SmoothConnection(SU2, [])
    pts = [(0.0, 0.0), (1.0, 2.0), (3.0, -1.0)]
    assert frob(transport(conn, pts), np.eye(2)) == 0.0


# ---------------------------------------------------------------------------
# transport against independent integrals

def test_straight_crossing_matches_exponential():
    rng = np.random.default_rng(7)
    X = mg.random_algebra(SU2, rng, scale=1.3).matrix
    rho = 0.8
    conn = SmoothConnection(SU2, [BumpTerm(X, (0.0, 0.0), rho, (1.0, 0.0))])
    # all values of A along the line are multiples of X, so the holonomy is
    # exactly exp(-c X) with c the profile line integral
    c, err = quad(lambda x: bump_value([(x, 0.0)], (0.0, 0.0), rho)[0], -2.0, 2.0, limit=200)
    assert err < 1e-8
    got = transport(conn, [(-2.0, 0.0), (2.0, 0.0)], tol=1e-11)
    assert frob(got, expm(-c * X)) < 1e-9


def test_torus_holonomy_is_line_integral():
    graph = pentagon_chord_graph()
    word = compose(edge_word(graph, 2), edge_word(graph, 1))
    pts = path_polyline(graph, word)
    rng = np.random.default_rng(8)
    terms = [
        BumpTerm(mg.random_algebra(T2, rng, scale=1.1).matrix, (0.8, 0.5), 0.7, (1.0, 0.3)),
        BumpTerm(mg.random_algebra(T2, rng, scale=0.9).matrix, (0.2, 0.9), 0.6, (-0.4, 1.0)),
    ]
    conn = SmoothConnection(T2, terms)
    total = np.zeros((2, 2), dtype=complex)
    for t in terms:
        u = np.asarray(t.direction)
        c = 0.0
        for p, q in zip(pts[:-1], pts[1:]):
            d = q - p
            val, _ = quad(lambda s: bump_value([p + s * d], t.center, t.radius)[0],
                          0.0, 1.0, limit=200)
            c += val * float(u @ d)
        total = total + c * t.X
    got = holonomy_smooth(conn, pts, tol=1e-11)
    assert frob(got.matrix, expm(-total)) < 1e-8


def test_transport_fourth_order_convergence():
    rng = np.random.default_rng(9)
    terms = [
        BumpTerm(mg.random_algebra(SU2, rng, scale=1.0).matrix, (-0.2, 0.0), 0.9, (1.0, 0.0)),
        BumpTerm(mg.random_algebra(SU2, rng, scale=1.0).matrix, (0.3, 0.1), 0.8, (0.8, 0.6)),
    ]
    conn = SmoothConnection(SU2, terms)
    p, q = np.array([-1.4, -0.1]), np.array([1.3, 0.2])
    ref = _segment_transport(conn, p, q, 4096)
    # the two-node Magnus step is fourth order: halving the step size should
    # divide the error by about sixteen (the flat profile later does better)
    errs = [np.linalg.norm(_segment_transport(conn, p, q, s) - ref) for s in (8, 16, 32)]
    assert errs[0] > 1e-4  # the test has signal
    for a, b in zip(errs, errs[1:]):
        assert 10.0 < a / b < 26.0


def test_transport_field_agrees_with_bump_transport():
    rng = np.random.default_rng(10)
    conn = random_smooth_connection(SU2, pentagon_chord_graph(), 3, seed=11)
    graph = pentagon_chord_graph()
    pts = path_polyline(graph, edge_word(graph, 1))
    fast = transport(conn, pts, tol=1e-11)
    slow = transport_field(conn.apply, pts, n=2, steps=256)
    assert frob(fast, slow) < 1e-5


# ---------------------------------------------------------------------------
# path calculus of smooth holonomy

def test_smooth_functoriality_inverse_and_retracing():
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(SU2, graph, 4, seed=12)
    p = compose(edge_word(graph, 2), edge_word(graph, 1))
    q = compose(edge_word(graph, 4), edge_word(graph, 3))
    edges = restrict(conn, graph, tol=1e-11)
    hp = holonomy_general(edges, p)
    hq = holonomy_general(edges, q)
    hqp = holonomy_general(edges, compose(q, p))
    assert frob(hqp.matrix, hq.matrix @ hp.matrix) < 1e-9
    assert frob(hqp.matrix, transport(conn, path_polyline(graph, compose(q, p)), tol=1e-11)) < 1e-9
    hp_inv = holonomy_general(edges, inverse(p))
    assert frob(hp_inv.matrix, hp.matrix.conj().T) < 1e-9
    # walking out and straight back along the raw polyline cancels
    pts = path_polyline(graph, p)
    loop = np.concatenate([pts, pts[::-1][1:]], axis=0)
    assert frob(transport(conn, loop, tol=1e-11), np.eye(2)) < 1e-10


def test_unit_word_has_identity_holonomy():
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(SU2, graph, 3, seed=13)
    unit_word = PathWord((), "v0", "v0")
    got = holonomy_general(restrict(conn, graph), unit_word)
    assert frob(got.matrix, np.eye(2)) == 0.0


def test_smooth_holonomy_lands_in_group():
    graph = pentagon_chord_graph()
    loop = compose(inverse(edge_word(graph, 6)),
                   compose(edge_word(graph, 2), edge_word(graph, 1)))
    for desc, seed in ((SU2, 21), (T2, 22), (PROD, 23), (U2_AS_QUOTIENT, 24)):
        conn = random_smooth_connection(desc, graph, 3, seed=seed)
        got = holonomy_general(restrict(conn, graph, tol=1e-10), loop)
        mg.validate_matrix(desc, got.matrix)
        # edge by edge or along the whole curve: the same segments, only
        # the order of the matrix products differs
        whole = holonomy_smooth(conn, path_polyline(graph, loop), tol=1e-10)
        assert got.descriptor == desc and mg.distance(got, whole) < 1e-12


def test_split_holonomy_blocks():
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(PROD, graph, 4, seed=14)
    loop = compose(inverse(edge_word(graph, 6)),
                   compose(edge_word(graph, 2), edge_word(graph, 1)))
    pts = path_polyline(graph, loop)
    parts = split_holonomy(conn, pts, tol=1e-11)
    assert [p.descriptor for p in parts] == [mg.Torus(1), SU2]
    full = holonomy_smooth(conn, pts, tol=1e-11)
    assert frob(full.matrix, block_diag(parts[0].matrix, parts[1].matrix)) < 1e-9


def test_split_holonomy_needs_product():
    conn = random_smooth_connection(SU2, pentagon_chord_graph(), 2, seed=15)
    with pytest.raises(TypeError):
        split_holonomy(conn, [(0.0, 0.0), (1.0, 0.0)])


def test_restrict_transports_walked_edges_once(transport_calls):
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(SU2, graph, 4, seed=16)
    edges = restrict(conn, graph)
    assert isinstance(edges, GeneralizedConnection) and transport_calls == []
    word = compose(inverse(edge_word(graph, 6)), compose(edge_word(graph, 2), edge_word(graph, 1)))
    first = holonomy_general(edges, word)
    twice = holonomy_general(edges, compose(word, word))
    assert frob(twice.matrix, first.matrix @ first.matrix) < 1e-13
    walked = [eid for pts in transport_calls for eid in graph.edges
              if np.array_equal(pts, edge_polyline(graph, eid))]
    assert sorted(walked) == [1, 2, 6]
    back = holonomy_general(edges, inverse(word))
    assert frob(back.matrix, first.matrix.conj().T) < 1e-13
    # reading the values as a whole fills the remaining edges exactly once
    doc = generalized_to_dict(edges)
    assert sorted(doc["values"]) == [str(e) for e in range(1, 7)]
    assert len(transport_calls) == 6


# ---------------------------------------------------------------------------
# generalized connections and discrete gauges

def test_generalized_holonomy_multiplies_in_walk_order():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=16)
    w = compose(edge_word(graph, 2), edge_word(graph, 1))
    want = conn.value(2).matrix @ conn.value(1).matrix
    assert frob(holonomy_general(conn, w).matrix, want) < 1e-13
    w_back = inverse(w)
    assert frob(holonomy_general(conn, w_back).matrix, want.conj().T) < 1e-13


def test_generalized_connection_validates_edges():
    graph = square_graph()
    vals = {eid: np.eye(2, dtype=complex) for eid in (1, 2, 3)}
    with pytest.raises(ValueError):
        GeneralizedConnection(graph, SU2, vals)
    conn = random_generalized_connection(graph, SU2, seed=17)
    with pytest.raises(KeyError):
        conn.value(99)


def test_discrete_gauge_covariance_exact():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=18)
    gauge = random_discrete_gauge(graph, SU2, seed=19)
    acted = gauge_act_general(conn, gauge)
    words = [
        edge_word(graph, 3),
        compose(edge_word(graph, 2), edge_word(graph, 1)),
        compose(inverse(edge_word(graph, 6)), compose(edge_word(graph, 2), edge_word(graph, 1))),
    ]
    for w in words:
        lhs = holonomy_general(acted, w).matrix
        rhs = (gauge.value(w.range).matrix.conj().T
               @ holonomy_general(conn, w).matrix
               @ gauge.value(w.source).matrix)
        assert frob(lhs, rhs) < 1e-12


def test_discrete_gauge_actions_compose_pointwise():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=20)
    g = random_discrete_gauge(graph, SU2, seed=21)
    h = random_discrete_gauge(graph, SU2, seed=22)
    twice = gauge_act_general(gauge_act_general(conn, g), h)
    prod = DiscreteGauge(graph, SU2,
                         {v: g.values[v] @ h.values[v] for v in graph.vertices})
    once = gauge_act_general(conn, prod)
    for eid in graph.edges:
        assert frob(twice.values[eid], once.values[eid]) < 1e-12


def test_gauge_needs_matching_descriptor():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=23)
    gauge = random_discrete_gauge(graph, T2, seed=24)
    with pytest.raises(mg.DescriptorMismatchError):
        gauge_act_general(conn, gauge)


# ---------------------------------------------------------------------------
# smooth gauge action

def test_smooth_gauge_constant_on_plateau():
    rng = np.random.default_rng(25)
    Y = mg.random_algebra(SU2, rng, scale=0.8).matrix
    gauge = SmoothGauge(SU2, [GaugeBump(Y, (0.0, 0.0), 1.0)])
    inner = gauge.at((0.1, 0.2))
    assert frob(inner, expm(Y)) < 1e-12
    assert frob(gauge.at((0.3, -0.3)), inner) < 1e-12
    assert frob(gauge.at((5.0, 5.0)), np.eye(2)) == 0.0


def test_smooth_gauge_covariance_formula():
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(SU2, graph, 3, seed=26)
    gauge = random_smooth_gauge(SU2, graph, 3, seed=27)
    acted = gauge_act_smooth(conn, gauge)
    word = compose(edge_word(graph, 2), edge_word(graph, 1))
    pts = path_polyline(graph, word)
    lhs = acted.holonomy(pts, tol=1e-11).matrix
    rhs = (gauge.at(pts[-1]).conj().T
           @ transport(conn, pts, tol=1e-11)
           @ gauge.at(pts[0]))
    assert frob(lhs, rhs) < 1e-12
    disc = gauge.as_discrete(graph)
    rhs2 = (disc.value(word.range).matrix.conj().T
            @ transport(conn, pts, tol=1e-11)
            @ disc.value(word.source).matrix)
    assert frob(lhs, rhs2) < 1e-9


def test_transformed_one_form_matches_covariance():
    # the acid test: transport the finite-difference transformed one-form
    # g^-1 A g + g^-1 dg directly and compare with g(end)^-1 H g(start)
    rng = np.random.default_rng(28)
    X = mg.random_algebra(SU2, rng, scale=1.0).matrix
    Y = mg.random_algebra(SU2, rng, scale=0.9).matrix
    conn = SmoothConnection(SU2, [BumpTerm(X, (0.3, 0.05), 0.5, (1.0, 0.2))])
    gauge = SmoothGauge(SU2, [GaugeBump(Y, (0.45, 0.0), 0.6)])
    fd = 1e-5

    def field(x, v):
        g = gauge.at(x)
        gi = g.conj().T
        a = conn.apply(x, v)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return gi @ a @ g
        vhat = np.asarray(v) / nv
        dg = (gauge.at(x + fd * vhat) - gauge.at(x - fd * vhat)) / (2.0 * fd) * nv
        return gi @ a @ g + gi @ dg

    pts = np.array([[-0.5, -0.1], [1.2, 0.15]])
    direct = transport_field(field, pts, n=2, steps=1024)
    via_covariance = gauge_act_smooth(conn, gauge).holonomy(pts, tol=1e-11).matrix
    assert frob(direct, via_covariance) < 5e-5


# ---------------------------------------------------------------------------
# interpolation

def leg_word(graph, r, k):
    return compose(edge_word(graph, r + k + 1), edge_word(graph, k + 1))


def test_interpolation_hits_targets():
    r = 3
    graph = spider_graph(r)
    values = [mg.haar_sample(SU2, seed=30 + k) for k in range(r)]
    targets = [InterpolationTarget(leg_word(graph, r, k), values[k], (5, 8))
               for k in range(r)]
    conn = interpolate_connection(graph, targets)
    assert isinstance(conn, SmoothConnection)
    assert len(conn.terms) == r
    edges = restrict(conn, graph, tol=1e-11)
    for k in range(r):
        got = holonomy_general(edges, leg_word(graph, r, k))
        assert mg.distance(got, values[k]) < 1e-8


def test_interpolation_respects_extra_paths():
    r = 3
    graph = spider_graph(r)
    values = [mg.haar_sample(SU2, seed=40 + k) for k in range(2)]
    targets = [InterpolationTarget(leg_word(graph, r, k), values[k], (5, 8))
               for k in range(2)]
    spectator = leg_word(graph, r, 2)
    conn = interpolate_connection(graph, targets, extra_paths=[spectator])
    # the spectator path misses every bump, so its transport is skipped
    # segment by segment and comes out exactly the identity
    got = holonomy_general(restrict(conn, graph), spectator)
    assert frob(got.matrix, np.eye(2)) == 0.0


def test_interpolation_torus_and_quotient_values():
    r = 2
    graph = spider_graph(r)
    for desc, seeds in ((T2, (50, 51)), (U2_AS_QUOTIENT, (52, 53))):
        values = [mg.haar_sample(desc, seed=s) for s in seeds]
        targets = [InterpolationTarget(leg_word(graph, r, k), values[k], (5, 8))
                   for k in range(r)]
        conn = interpolate_connection(graph, targets)
        edges = restrict(conn, graph, tol=1e-11)
        for k in range(r):
            got = holonomy_general(edges, leg_word(graph, r, k))
            assert mg.distance(got, values[k]) < 1e-8


def test_interpolation_rejects_shared_window():
    r = 2
    graph = spider_graph(r)
    w = leg_word(graph, r, 0)
    targets = [
        InterpolationTarget(w, mg.haar_sample(SU2, seed=60), (5, 8)),
        InterpolationTarget(w, mg.haar_sample(SU2, seed=61), (5, 8)),
    ]
    with pytest.raises(IndependenceError):
        interpolate_connection(graph, targets)


def test_interpolation_rejects_bad_window():
    r = 2
    graph = spider_graph(r)
    w = leg_word(graph, r, 0)
    v = mg.haar_sample(SU2, seed=62)
    with pytest.raises(ValueError):
        interpolate_connection(graph, [InterpolationTarget(w, v, (8, 5))])
    with pytest.raises(ValueError):
        interpolate_connection(graph, [InterpolationTarget(w, v, (0, 99))])


# ---------------------------------------------------------------------------
# pushforward and serialization

def test_pushforward_commutes_with_holonomy():
    graph = square_graph()
    base = random_generalized_connection(graph, PROD, seed=70)
    pushed = pushforward_hom(U2_AS_QUOTIENT, base)
    w = compose(edge_word(graph, 2), edge_word(graph, 1))
    lhs = holonomy_general(pushed, w)
    rhs = mg.quotient_project(U2_AS_QUOTIENT, holonomy_general(base, w).matrix)
    assert mg.distance(lhs, rhs) < 1e-12


def test_pushforward_checks_base():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=71)
    with pytest.raises(mg.DescriptorMismatchError):
        pushforward_hom(U2_AS_QUOTIENT, conn)


def test_generalized_serialization_roundtrip():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, PROD, seed=72)
    data = generalized_to_dict(conn)
    back = generalized_from_dict(graph, data)
    for eid in graph.edges:
        assert frob(back.values[eid], conn.values[eid]) < 1e-15


def test_generalized_from_seed():
    graph = square_graph()
    data = {"group": mg.descriptor_to_dict(SU2), "haar_seed": 9, "values": {}}
    a = generalized_from_dict(graph, data)
    b = random_generalized_connection(graph, SU2, seed=9)
    for eid in graph.edges:
        assert frob(a.values[eid], b.values[eid]) == 0.0


def test_smooth_serialization_roundtrip():
    conn = random_smooth_connection(SU2, pentagon_chord_graph(), 3, seed=73)
    back = smooth_from_dict(smooth_to_dict(conn))
    assert back.descriptor == conn.descriptor
    for t1, t2 in zip(back.terms, conn.terms):
        assert frob(t1.X, t2.X) < 1e-15
        assert t1.center == t2.center
        assert t1.radius == t2.radius
        assert t1.direction == t2.direction


def test_gauge_serialization_roundtrip():
    graph = square_graph()
    gauge = random_discrete_gauge(graph, SU2, seed=74)
    back = gauge_from_dict(graph, gauge_to_dict(gauge))
    for v in graph.vertices:
        assert frob(back.values[v], gauge.values[v]) < 1e-15


def test_edge_polyline_orientation_and_geometry_errors():
    graph = square_graph()
    fwd = edge_polyline(graph, 1, 1)
    bwd = edge_polyline(graph, 1, -1)
    assert np.array_equal(fwd, bwd[::-1])
    from holonomy_lab.pathgroupoid import Edge, Graph
    bare = Graph("ab", [Edge(1, "a", "b", None)], "a")
    with pytest.raises(GeometryError):
        edge_polyline(bare, 1)
