"""Tests for connections, transport, gauge actions and interpolation."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

import holonomy_lab.connections as connections
import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    DEFAULT_TOL,
    MAX_DOUBLINGS,
    BumpTerm,
    DiscreteGauge,
    GeneralizedConnection,
    GeometryError,
    IndependenceError,
    InterpolationTarget,
    SmoothConnection,
    _EdgeTransports,
    _chain,
    _word_products,
    _segment_distances,
    _segment_transport,
    bump_value,
    edge_polyline,
    gauge_act_general,
    gauge_transform,
    generalized_from_dict,
    generalized_to_dict,
    holonomies,
    holonomy_general,
    holonomy_smooth,
    interpolate_connection,
    path_polyline,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    restrict,
    smooth_from_dict,
    smooth_to_dict,
    smoothstep,
    transport,
)
from holonomy_lab.pathgroupoid import (
    Edge,
    Graph,
    PathWord,
    UnknownEdgeError,
    compose,
    edge_word,
    inverse,
    reduce_word,
    unit,
)
from holonomy_lab.spectra import approximation_experiment, default_windows, tree_basis

from graphs import pentagon_chord_graph, spider_graph, square_graph, theta_graph
from instruments import GaugeBump, SmoothGauge, haar_sample, one_form, random_smooth_gauge
from oracles import (
    chain_matmul,
    gauge_act_edgewise,
    gauge_transform_matmul,
    holonomies_per_word,
    holonomy_letterwise,
    point_polyline_distance,
    scalar_line_integral,
    scalar_line_integral_midpoint,
    split_holonomy_per_factor,
    transport_field,
    transport_all_magnus,
    transport_per_interval,
    transport_whole_segments,
    word_product_per_word,
)

SU2 = mg.SpecialUnitary(2)
T2 = mg.Torus(2)
PROD = mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2)))
U2_AS_QUOTIENT = mg.central_quotient(PROD, [np.eye(3), -np.eye(3)])
U1_SU2_MOD_Z2 = mg.central_quotient(mg.ProductGroup((mg.Unitary(1), SU2)),
                                    [np.eye(3), -np.eye(3)])
ALL_KINDS = [SU2, mg.SpecialUnitary(3), mg.Unitary(2), T2, PROD, U2_AS_QUOTIENT, U1_SU2_MOD_Z2]
KIND_IDS = ["su2", "su3", "u2", "t2", "t1xsu2", "t1xsu2-mod-z2", "u1xsu2-mod-z2"]


def frob(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def bump_coefficient(center, radius, direction, polyline):
    """The interpolation coefficient of one bump on one polyline."""
    return connections._bump_coefficients([center], [radius], [direction], [polyline])[0]


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
# point-to-segment distances

# coarse values make repeated points, hence zero-length segments, common
coordinates = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                        st.floats(-2.0, 2.0, allow_nan=False))
points_2d = st.tuples(coordinates, coordinates)
polylines = st.lists(points_2d, min_size=1, max_size=8).map(np.array)


@settings(max_examples=300, deadline=None)
@given(line=polylines, points=st.lists(points_2d, min_size=1, max_size=5).map(np.array))
def test_segment_distances_match_oracle(line, points):
    # a one-point polyline is one zero-length segment
    starts, ends = (line[:-1], line[1:]) if len(line) > 1 else (line, line)
    dist = _segment_distances(points, starts, ends)
    assert dist.shape == (len(points), max(len(line) - 1, 1))
    # the kernel sums the two squares itself where the oracle's norm calls a
    # BLAS dot, which may fuse them: the two can differ in the last bits
    atol = 8 * np.finfo(float).eps * (1.0 + np.abs(line).max() + np.abs(points).max())
    for x, row in zip(points, dist):
        assert abs(row.min() - point_polyline_distance(x, line)) <= atol


def covered_pieces(p, q, terms):
    """The pieces of [p, q] inside some bump's disk, as [a, b, disks] in segment
    parameters, with the indices of the disks that hold each.

    Each chord runs from the foot of the perpendicular from the center by
    Pythagoras; the pieces between successive chord ends are kept where
    their midpoint lies in a disk.
    """
    d = q - p
    L2 = float(d @ d)
    if L2 == 0.0:
        return []  # a zero-length segment has no chord
    ends = {0.0, 1.0}
    for t in terms:
        c = np.array(t.center)
        foot = float((c - p) @ d) / L2
        gap = t.radius ** 2 - float(np.sum((p + foot * d - c) ** 2))
        assume(abs(gap) > 1e-9)  # no tangent chords
        if gap > 0.0:
            ends |= {foot - np.sqrt(gap / L2), foot + np.sqrt(gap / L2)}
    ends = sorted(e for e in ends if 0.0 <= e <= 1.0)
    assume(all(b - a > 1e-7 for a, b in zip(ends, ends[1:])))  # no last-bit ties
    out = []
    for a, b in zip(ends, ends[1:]):
        mid = p + 0.5 * (a + b) * d
        disks = [k for k, t in enumerate(terms) if np.linalg.norm(mid - np.array(t.center)) < t.radius]
        if disks:
            out.append([a, b, disks])
    return out


@settings(max_examples=150, deadline=None)
@given(line=polylines, centers=st.lists(points_2d, min_size=1, max_size=4),
       radii=st.lists(st.floats(0.1, 1.5), min_size=4, max_size=4))
# the segment ends on the circle: the disk cuts a roundoff sliver, where the bump is 0
@example(line=np.array([(-1.0, -0.0963536), (0.0, 0.0)]), centers=[(0.0, 0.25)],
         radii=[0.25, 0.25, 0.25, 0.25])
# two circles meet on the segment: their chord ends differ in the last bits
@example(line=np.array([(-1.0, -1.0), (1.0, -1.0)]),
         centers=[(-1.0, -1.0), (0.0, -1.0), (0.5, -1.0)], radii=[1.0, 0.6, 0.1, 1.0])
def test_transport_integrates_exactly_the_union_of_chords(line, centers, radii):
    # one generator, so every piece commutes: each is integrated on its own, and the
    # pieces tile the union of the chords, cut at every chord end
    X = np.array([[0.5j, 0.3], [-0.3, -0.5j]])
    conn = SmoothConnection(SU2, [BumpTerm(X, c, r, (0.6, 0.8))
                                  for c, r in zip(centers, radii)])
    want = [(p + a * (q - p), p + b * (q - p), disks) for p, q in zip(line[:-1], line[1:])
            for a, b, disks in covered_pieces(p, q, conn.terms)]
    with mock.patch.object(connections, "_node_weights",
                           wraps=connections._node_weights) as spy, \
            mock.patch.object(connections, "_segment_transport",
                              wraps=connections._segment_transport) as kernel:
        transport(conn, line)
    assert kernel.call_count == 0
    if not want:
        assert spy.call_count == 0
        return
    # the first call stacks one row per (piece, covering disk) at DEFAULT_STEPS, in walk order
    p, q, steps, centers_arg = spy.call_args_list[0].args[:4]
    assert steps == connections.DEFAULT_STEPS
    assert len(p) == len(q) == sum(len(disks) for _, _, disks in want)
    row = 0
    for a, b, disks in want:
        for k in disks:
            assert frob(p[row], a) <= 1e-9 and frob(q[row], b) <= 1e-9
            assert np.array_equal(centers_arg[row], conn._centers[k])
            row += 1


@st.composite
def bumps_across_polylines(draw):
    """A polyline and one to three SU(2) bumps, each missing every segment or
    crossing it deep enough that whole-segment Gauss nodes cannot skip it."""
    coord = st.floats(-2.0, 2.0)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(pts) - 2))
        center = pts[k] + draw(st.floats(0.0, 1.0)) * (pts[k + 1] - pts[k]) \
            + rng.normal(scale=0.3, size=2)
        X = mg.random_algebra(SU2, rng, scale=draw(st.floats(0.2, 3.0))).matrix
        terms.append(BumpTerm(X, tuple(center), draw(st.floats(0.3, 1.0)),
                              tuple(rng.normal(size=2))))
    for p, q in zip(pts[:-1], pts[1:]):
        length = np.linalg.norm(q - p)
        for t in terms:
            dist = point_polyline_distance(np.array(t.center), np.array([p, q]))
            if dist < t.radius:
                chord = 2.0 * np.sqrt(t.radius ** 2 - dist ** 2)
                assume(dist < 0.5 * t.radius and chord > 0.25 * length)
    return SmoothConnection(SU2, terms), pts


@settings(max_examples=100, deadline=None)
@given(case=bumps_across_polylines())
def test_transport_matches_whole_segment_oracle(case):
    conn, pts = case
    # the oracle at a tighter tol: at the default its stopping rule alone lets
    # it stray a few times 1e-9 on some draws
    assert frob(transport(conn, pts), transport_whole_segments(conn, pts, tol=1e-11)) <= 1e-9


def test_transport_does_not_stop_on_a_chance_agreement():
    # a shrunk draw of the test above: on the one chord this bump cuts, the
    # transports at 16 and 32 sub-steps agree to 9.3e-10 by chance while both
    # are ~1e-8 from the limit, so stopping there strays 6.8e-9
    X = np.array([[0.33833293504933937j, -0.10682535833732429 + 0.7937127952472927j],
                  [0.10682535833732429 + 0.7937127952472927j, -0.33833293504933937j]])
    conn = SmoothConnection(SU2, [BumpTerm(X, (0.05815789880432575, -1.9574317340849405), 0.5,
                                           (1.9386237954089087, -0.1490526834273234))])
    pts = np.array([[0.7265625, 0.0], [0.0, -1.900390625]])
    _, levels, _ = connections._transport_batch(conn, [pts], DEFAULT_TOL)
    assert levels.tolist() == [4]
    assert frob(transport(conn, pts), transport_whole_segments(conn, pts, tol=1e-11)) <= 1e-9


def grazing_connection(Xs, centers_x):
    """SU(2) bumps of radius 0.036 whose disks cut 0.026-long chords from the x axis."""
    radius, height = 0.036, 0.93 * 0.036
    return SmoothConnection(SU2, [BumpTerm(X, (x, height), radius, (0.6, 0.8))
                                  for X, x in zip(Xs, centers_x)])


def test_transport_finds_grazing_bump():
    # nodes spread over the whole segment miss the chord at 8 and at 16
    # sub-steps, so the whole-segment integrator returns exactly I
    conn = grazing_connection([1000.0 * np.array([[0.5j, 0.3], [-0.3, -0.5j]])], [0.49])
    whole = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert frob(transport_whole_segments(conn, whole), np.eye(2)) == 0.0
    term = conn.terms[0]
    c = bump_coefficient(term.center, term.radius, term.direction, whole)
    assert frob(transport(conn, whole), expm(-c * term.X)) <= 1e-12
    cut = np.array([[-1.0, 0.0], [0.4, 0.0], [0.6, 0.0], [1.0, 0.0]])
    assert frob(transport(conn, whole), transport_whole_segments(conn, cut)) <= 1e-11


def test_transport_finds_separated_grazing_bumps():
    # the hull of the two chords spans 3.05 with a chord at each end, where
    # its Gauss nodes miss both at 8 and at 16 sub-steps; the union
    # integrates each chord on its own
    whole = np.array([[-2.0, 0.0], [2.0, 0.0]])
    cut = np.array([[-2.0, 0.0], [-1.6, 0.0], [-1.4, 0.0], [1.4, 0.0], [1.6, 0.0], [2.0, 0.0]])
    rng = np.random.default_rng(17)
    for _ in range(20):
        Xs = [mg.random_algebra(SU2, rng, scale=600.0).matrix for _ in range(2)]
        conn = grazing_connection(Xs, [-1.5, 1.5])
        got = transport(conn, whole)
        assert frob(got, np.eye(2)) > 1e-3  # both bumps move it
        assert frob(got, transport_whole_segments(conn, cut)) <= 1e-11


@st.composite
def bump_polyline_families(draw):
    """One to four polylines and one to four SU(2), U(3), T2 or T1 x SU(2) bumps
    anchored near their points, so that most polylines cross some bump and many
    bumps overlap."""
    coord = st.floats(-2.0, 2.0)
    lines = [np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5)))
             for _ in range(draw(st.integers(1, 4)))]
    desc = draw(st.sampled_from([SU2, mg.Unitary(3), T2, PROD]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    pool = np.concatenate(lines)
    terms = [BumpTerm(mg.random_algebra(desc, rng, scale=draw(st.floats(0.2, 3.0))).matrix,
                      tuple(pool[rng.integers(len(pool))] + rng.normal(scale=0.3, size=2)),
                      draw(st.floats(0.1, 1.2)), tuple(rng.normal(size=2)))
             for _ in range(draw(st.integers(1, 4)))]
    return SmoothConnection(desc, terms), lines


def per_interval_oracle(conn, lines, tol):
    """transport_per_interval on each polyline: matrices and concatenated levels, one
    per commuting piece or Magnus run."""
    outs = [transport_per_interval(conn, line, tol) for line in lines]
    return [m for m, _, _ in outs], [lv for _, levels, _ in outs for lv in levels]


@settings(max_examples=120, deadline=None)
@given(case=bump_polyline_families())
def test_batched_transport_matches_per_interval_oracle(case):
    conn, lines = case
    got, levels, diffs = connections._transport_batch(conn, lines, DEFAULT_TOL)
    want, want_levels = per_interval_oracle(conn, lines, DEFAULT_TOL)
    assert len(got) == len(lines)
    for g, w in zip(got, want):
        assert frob(g, w) <= 1e-12
    assert levels.tolist() == want_levels
    assert np.all(levels >= 1) and len(diffs) == len(levels)


@settings(max_examples=120, deadline=None)
@given(case=bump_polyline_families())
def test_transport_matches_all_magnus_oracle(case):
    # exact exponentials on commuting pieces against Magnus on every chord union, the
    # oracle at a tighter tol: each side alone may stray up to ~7e-10 at the default
    conn, lines = case
    got = connections._transport_batch(conn, lines, DEFAULT_TOL)[0]
    want = transport_all_magnus(conn, lines, 1e-11)[0]
    for g, w in zip(got, want):
        assert frob(g, w) <= 1e-9


def test_commutation_table():
    rng = np.random.default_rng(31)
    X, Y = (mg.random_algebra(SU2, rng).matrix for _ in range(2))
    conn = SmoothConnection(SU2, [BumpTerm(m, (0.0, 0.0), 1.0, (1.0, 0.0))
                                  for m in (X, 2.5 * X, Y, np.zeros((2, 2)))])
    want = np.array([[1, 1, 0, 1], [1, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=bool)
    assert np.array_equal(conn._commutes, want)
    # abelian groups: the general rule finds every diagonal pair commuting
    for desc in (T2, mg.ProductGroup((mg.Unitary(1), T2))):
        abelian = random_smooth_connection(desc, pentagon_chord_graph(), 5, seed=5)
        assert abelian._commutes.shape == (5, 5) and abelian._commutes.all()
    assert SmoothConnection(PROD, [])._commutes.shape == (0, 0)


def test_torus_transport_makes_no_magnus_call():
    graph = pentagon_chord_graph()
    lines = [edge_polyline(graph, eid) for eid in graph.edges]
    conn = random_smooth_connection(T2, graph, 6, seed=37)
    with mock.patch.object(connections, "_segment_transport",
                           wraps=connections._segment_transport) as kernel:
        got = connections._transport_batch(conn, lines, DEFAULT_TOL)[0]
    assert kernel.call_count == 0
    want = transport_all_magnus(conn, lines, DEFAULT_TOL)[0]
    assert max(frob(g, w) for g, w in zip(got, want)) <= 1e-9
    assert max(frob(g, np.eye(2)) for g in got) > 0.1  # the bumps act


def test_overlapping_noncommuting_bumps_send_exactly_their_overlap_to_magnus():
    # two SU(2) bumps whose disks overlap on the x axis, with [X, Y] != 0: the
    # overlap is the one Magnus interval, each bump alone an exact exponential
    terms = [BumpTerm(np.array([[1.5j, 0.0], [0.0, -1.5j]]), (-0.3, 0.1), 0.5, (0.6, 0.8)),
             BumpTerm(np.array([[0.0, 1.2], [-1.2, 0.0]]), (0.25, -0.05), 0.45, (1.0, 0.2))]
    conn = SmoothConnection(SU2, terms)
    line = np.array([[-1.0, 0.0], [1.0, 0.0]])
    chords = [(t.center[0] - np.sqrt(t.radius ** 2 - t.center[1] ** 2),
               t.center[0] + np.sqrt(t.radius ** 2 - t.center[1] ** 2)) for t in terms]
    (lo0, hi0), (lo1, hi1) = chords
    assert lo0 < lo1 < hi0 < hi1
    with mock.patch.object(connections, "_segment_transport",
                           wraps=connections._segment_transport) as kernel, \
            mock.patch.object(connections, "_piece_exponents",
                              wraps=connections._piece_exponents) as exponents:
        got = transport(conn, line)
    p, q, steps, cover = kernel.call_args_list[0].args[1:]
    assert steps == connections.DEFAULT_STEPS and cover.tolist() == [[True, True]]
    assert frob(p, [[lo1, 0.0]]) <= 1e-12 and frob(q, [[hi0, 0.0]]) <= 1e-12
    assert all(len(call.args[1]) == 1 for call in kernel.call_args_list)
    p, q, _, cover = exponents.call_args_list[0].args[1:]
    assert frob(p, [[lo0, 0.0], [hi0, 0.0]]) <= 1e-12
    assert frob(q, [[lo1, 0.0], [hi1, 0.0]]) <= 1e-12
    assert cover.tolist() == [[True, False], [False, True]]
    assert frob(got, transport_all_magnus(conn, [line], DEFAULT_TOL)[0][0]) <= 1e-9


@pytest.mark.parametrize("desc", [SU2, PROD], ids=["su2", "t1xsu2"])
def test_every_refined_piece_has_one_convergence_record(desc):
    # below roundoff, every commuting piece and every Magnus run stops on the stall
    # guard before MAX_DOUBLINGS, and each has its level and last difference
    graph = pentagon_chord_graph()
    lines = [edge_polyline(graph, eid) for eid in graph.edges]
    conn = random_smooth_connection(desc, graph, 6, seed=41)
    with mock.patch.object(connections, "_segment_transport",
                           wraps=connections._segment_transport) as kernel, \
            mock.patch.object(connections, "_piece_exponents",
                              wraps=connections._piece_exponents) as exponents:
        _, levels, diffs = connections._transport_batch(conn, lines, 1e-18)
    runs, pieces = (len(spy.call_args_list[0].args[1]) for spy in (kernel, exponents))
    assert runs > 0 and pieces > 0
    assert len(levels) == len(diffs) == runs + pieces
    assert np.all((1 <= levels) & (levels < MAX_DOUBLINGS)) and np.all(diffs < 1e-10)


def test_batched_transport_stalls_like_the_oracle_below_roundoff():
    # no refinement reaches 1e-18: every piece and run must stop on the stall
    # guard at the level the one-piece loop stops at, never run to the cap
    rng = np.random.default_rng(23)
    graph = pentagon_chord_graph()
    lines = [edge_polyline(graph, eid) for eid in graph.edges]
    for desc in (SU2, mg.Unitary(3), T2, PROD):
        conn = random_smooth_connection(desc, graph, 5, seed=int(rng.integers(2 ** 16)))
        got, levels, diffs = connections._transport_batch(conn, lines, 1e-18)
        want, want_levels = per_interval_oracle(conn, lines, 1e-18)
        assert len(levels) >= 5 and levels.tolist() == want_levels
        assert np.all(levels < MAX_DOUBLINGS) and np.all(diffs < 1e-10)
        for g, w in zip(got, want):
            assert frob(g, w) <= 1e-12


@pytest.mark.parametrize("steps", [8, 16, 64])
@pytest.mark.parametrize("desc", [SU2, mg.Unitary(3)])
def test_segment_transport_of_a_batch_is_each_interval_bitwise(desc, steps):
    # every kernel of a Magnus step is the same arithmetic at every stack size, so a
    # batch of intervals is bit for bit each interval alone, and so are its stall levels
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(desc, graph, 5, seed=29)
    lines = [edge_polyline(graph, eid) for eid in graph.edges]
    p, q = np.concatenate([ln[:-1] for ln in lines]), np.concatenate([ln[1:] for ln in lines])
    cover = np.ones((len(p), len(conn.terms)), dtype=bool)
    got = _segment_transport(conn, p, q, steps, cover)
    assert np.max(np.abs(got - np.eye(desc.n))) > 0.1  # the bumps act
    for g, a, b, c in zip(got, p, q, cover):
        assert np.array_equal(g, _segment_transport(conn, a[None], b[None], steps, c[None])[0])


def test_approx_fills_all_edges_in_one_batched_pass():
    # spider-8: 16 edges, each crossing bumps in several chord intervals, each of them
    # inside one bump's disk alone: every piece is exp(-c X), and none goes to Magnus
    graph = spider_graph(8)
    words = [compose(edge_word(graph, 9 + k), edge_word(graph, k + 1)) for k in range(8)]
    with mock.patch.object(connections, "_transport_batch",
                           wraps=connections._transport_batch) as batch, \
            mock.patch.object(connections, "_segment_transport",
                              wraps=connections._segment_transport) as kernel:
        errors = approximation_experiment(graph, words, SU2, seed=1)
    assert max(errors) <= 1e-6
    assert batch.call_count == 1 and len(batch.call_args.args[1]) == 16
    assert kernel.call_count == 0


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
    both = np.ones((1, 2), dtype=bool)
    ref = _segment_transport(conn, p[None], q[None], 4096, both)[0]
    # the two-node Magnus step is fourth order: halving the step size should
    # divide the error by about sixteen (the flat profile later does better)
    errs = [np.linalg.norm(_segment_transport(conn, p[None], q[None], s, both)[0] - ref)
            for s in (8, 16, 32)]
    assert errs[0] > 1e-4  # the test has signal
    for a, b in zip(errs, errs[1:]):
        assert 10.0 < a / b < 26.0


def test_transport_field_agrees_with_bump_transport():
    rng = np.random.default_rng(10)
    conn = random_smooth_connection(SU2, pentagon_chord_graph(), 3, seed=11)
    graph = pentagon_chord_graph()
    pts = path_polyline(graph, edge_word(graph, 1))
    fast = transport(conn, pts, tol=1e-11)
    slow = transport_field(functools.partial(one_form, conn), pts, n=2, steps=256)
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
    # the factors commute inside the block-diagonal embedding, so each factor's
    # holonomy is a diagonal block of the full transport
    graph = pentagon_chord_graph()
    loop = compose(inverse(edge_word(graph, 6)),
                   compose(edge_word(graph, 2), edge_word(graph, 1)))
    pts = path_polyline(graph, loop)
    for desc in (PROD, mg.ProductGroup((T2, mg.Unitary(2)))):
        conn = random_smooth_connection(desc, graph, 4, seed=14)
        m = transport(conn, pts, tol=1e-11)
        want = split_holonomy_per_factor(conn, pts, 1e-11)
        assert [ref.descriptor for ref in want] == list(desc.factors)
        for (sl, _), ref in zip(mg.leaf_blocks(desc), want):
            assert frob(m[sl, sl], ref.matrix) < 1e-9


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
    want = conn.values[2] @ conn.values[1]
    assert frob(holonomy_general(conn, w).matrix, want) < 1e-13
    w_back = inverse(w)
    assert frob(holonomy_general(conn, w_back).matrix, want.conj().T) < 1e-13


def reduced_walk(graph, choices):
    """Non-backtracking walk from the basepoint: a reduced word of len(choices) letters."""
    letters, at = [], graph.basepoint
    for c in choices:
        options = [(eid, o) for eid, e in graph.edges.items() for o in (1, -1)
                   if (e.src if o == 1 else e.dst) == at
                   and not (letters and letters[-1] == (eid, -o))]
        eid, o = options[c % len(options)]
        letters.append((eid, o))
        e = graph.edges[eid]
        at = e.dst if o == 1 else e.src
    return reduce_word(graph, letters, source=graph.basepoint)


@settings(max_examples=60, deadline=None)
@given(graph=st.sampled_from([pentagon_chord_graph(), theta_graph()]),
       desc=st.sampled_from([SU2, mg.Unitary(3), T2, PROD, U1_SU2_MOD_Z2]),
       seed=st.integers(0, 2**16),
       choices=st.lists(st.integers(0, 5), max_size=300))
def test_holonomy_matches_letterwise_fold(graph, desc, seed, choices):
    conn = random_generalized_connection(graph, desc, seed)
    word = reduced_walk(graph, choices)
    assert len(word) == len(choices)
    got = holonomy_general(conn, word)
    want = holonomy_letterwise(conn, word)
    assert got.descriptor == desc
    a, b = got.matrix, want.matrix
    if isinstance(desc, mg.CentralQuotient):
        assert np.array_equal(a, mg.canonicalize_batch(desc, a[None])[0])
        a, b = mg.canonicalize_batch(desc, np.stack([a, b]))
    assert frob(a, b) < 1e-12


@settings(max_examples=60, deadline=None)
@given(graph=st.sampled_from([pentagon_chord_graph(), theta_graph()]),
       desc=st.sampled_from([SU2, mg.Unitary(3), T2, PROD, U1_SU2_MOD_Z2]),
       seed=st.integers(0, 2**16),
       walks=st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=12),
                                st.sampled_from(["once", "repeat", "inverse"])), max_size=6),
       vertex=st.integers(0, 4))
def test_holonomies_match_letterwise_oracle(graph, desc, seed, walks, vertex):
    conn = random_generalized_connection(graph, desc, seed)
    words = [unit(graph, sorted(graph.vertices)[vertex % len(graph.vertices)])]
    for choices, how in walks:
        w = reduced_walk(graph, choices)  # no choices: the unit at the basepoint
        words += {"once": [w], "repeat": [w, w], "inverse": [w, inverse(w)]}[how]
    n = mg.dim(desc)
    got = holonomies(conn, words)
    assert got.shape == (len(words), n, n) and holonomies(conn, []).shape == (0, n, n)
    assert got.tobytes() == holonomies_per_word(conn, words).tobytes()
    for g, w in zip(got, words):
        want = holonomy_letterwise(conn, w).matrix
        if isinstance(desc, mg.CentralQuotient):
            assert np.array_equal(g, mg.canonicalize_batch(desc, g[None])[0])
            g, want = mg.canonicalize_batch(desc, np.stack([g, want]))
        assert frob(g, want) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 4), batch=st.booleans(), seed=st.integers(0, 2**16),
       words=st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=9),
                      max_size=12))
def test_word_products_match_the_per_word_oracle_bitwise(n, k, batch, seed, words):
    # mixed lengths, empty words among them, with and without a batch axis after the letters'
    words = [[(i % k, o) for i, o in w] for w in words]
    mats = mg.haar_batch(mg.Unitary(n), 2 * k, np.random.default_rng(seed))
    mats = mats.reshape(k, 2, n, n) if batch else mats[:k]
    got = _word_products(mats, words)
    assert got.shape == (len(words),) + mats.shape[1:]
    for g, w in zip(got, words):
        assert g.tobytes() == word_product_per_word(mats, w).tobytes()


def test_holonomies_fold_each_word_length_once(monkeypatch):
    # theta's tree words have lengths 0, 1, 2, 2: the unit takes no fold, the two loops one
    graph = theta_graph()
    basis = tree_basis(graph)
    words = [*basis.vertex_words.values(), *basis.loops.values()]
    conn = random_generalized_connection(graph, SU2, seed=3)
    folds = []

    def spy(mats):
        folds.append(mats.shape)
        return _chain(mats)

    monkeypatch.setattr(connections, "_chain", spy)
    got = holonomies(conn, words)
    assert sorted(len(w) for w in words) == [0, 1, 2, 2]
    assert sorted(shape[:2] for shape in folds) == [(1, 1), (2, 2)]
    assert got.tobytes() == holonomies_per_word(conn, words).tobytes()


def test_word_folds_gather_a_bounded_letter_count(monkeypatch):
    # 3,000 words of 6 letters fold in chunks of at most FOLD_LETTERS letters; a word longer
    # than that, as discrete-algebra's 1,500-letter ones, is never split
    rng = np.random.default_rng(4)
    mats = mg.haar_batch(SU2, 3, rng)
    words = [[(int(x), 1) for x in rng.integers(0, 3, size=6)] for _ in range(3000)]
    long_word = [(int(x), -1) for x in rng.integers(0, 3, size=connections.FOLD_LETTERS + 1500)]
    folds = []

    def spy(m):
        folds.append(m.shape[:2])
        return _chain(m)

    monkeypatch.setattr(connections, "_chain", spy)
    got = _word_products(mats, words)
    assert len(folds) > 1 and all(length * count <= connections.FOLD_LETTERS for length, count in folds)
    assert sum(count for _, count in folds) == len(words)
    assert all(g.tobytes() == word_product_per_word(mats, w).tobytes() for g, w in zip(got, words))
    folds.clear()
    _word_products(mats, [long_word[:1500]])
    _word_products(mats, [long_word])
    assert folds == [(1500, 1), (len(long_word), 1)]


ORACLE_KINDS = [SU2, mg.Unitary(3), T2, U1_SU2_MOD_Z2]
ORACLE_IDS = ["SU2", "U3", "T2", "quotient"]


@pytest.mark.parametrize("desc", ORACLE_KINDS, ids=ORACLE_IDS)
def test_holonomies_match_the_matmul_fold(desc, monkeypatch):
    # words of 1 to 600 letters: every fold level on both sides of stack_mul's crossover
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, desc, seed=21)
    rng = np.random.default_rng(21)
    words = [reduced_walk(graph, rng.integers(0, 6, size=m).tolist()) for m in (1, 15, 33, 600)]
    got = holonomies(conn, words)
    monkeypatch.setattr(connections, "_chain", chain_matmul)
    assert np.max(np.abs(got - holonomies(conn, words))) <= 1e-12


@pytest.mark.parametrize("desc", ORACLE_KINDS, ids=ORACLE_IDS)
@pytest.mark.parametrize("count", [1, 40])
def test_gauge_transform_matches_the_matmul_form(desc, count):
    rng = np.random.default_rng(count)
    stack = mg.haar_batch(desc, 3, rng)
    g_src, g_dst = (mg.haar_batch(desc, 3 * count, rng).reshape(count, 3, *stack.shape[1:])
                    for _ in range(2))
    got = gauge_transform(stack, g_src, g_dst)
    assert np.max(np.abs(got - gauge_transform_matmul(stack, g_src, g_dst))) <= 1e-12


@pytest.mark.parametrize("desc", [SU2, PROD, U1_SU2_MOD_Z2], ids=["SU2", "T1xSU2", "quotient"])
def test_restricted_holonomies_read_each_edge_once(desc, transport_batches, monkeypatch):
    graph = pentagon_chord_graph()
    conn = restrict(random_smooth_connection(desc, graph, 4, seed=6), graph)
    fills, fill = [], _EdgeTransports.fill

    def counting_fill(self, eids):
        fills.append(list(eids))
        return fill(self, eids)

    monkeypatch.setattr(_EdgeTransports, "fill", counting_fill)
    rng = np.random.default_rng(6)
    words = [reduced_walk(graph, rng.integers(0, 6, size=400).tolist()) for _ in range(3)]
    words.append(unit(graph, "v1"))
    got = holonomies(conn, words)
    # one batched transport of every walked edge, and no fill per letter
    assert len(transport_batches) == 1 and len(fills) == 1
    assert sorted(fills[0]) == sorted(graph.edges)
    filled = GeneralizedConnection(graph, desc, dict(conn.values))
    assert got.tobytes() == holonomies(filled, words).tobytes()
    assert len(fills) == 1  # reading the filled edges integrates nothing more


def test_whole_reads_of_a_restricted_connection_integrate_every_edge_in_one_batch(transport_batches):
    graph = pentagon_chord_graph()
    smooth = random_smooth_connection(SU2, graph, 4, seed=8)
    gauge = random_discrete_gauge(graph, SU2, seed=9)
    acted = gauge_act_general(restrict(smooth, graph), gauge)
    doc = generalized_to_dict(restrict(smooth, graph))
    dict(restrict(smooth, graph).values)
    list(restrict(smooth, graph).values.values())
    fresh = restrict(smooth, graph)
    [fresh.values[e] for e in graph.edges]
    # each fresh restriction integrates all 6 edges on its first read, in one batch
    assert [len(lines) for lines in transport_batches] == [len(graph.edges)] * 5
    # a batch transports each edge bit for bit as the edge alone
    alone = {eid: transport(smooth, edge_polyline(graph, eid)) for eid in graph.edges}
    assert doc == generalized_to_dict(GeneralizedConnection(graph, SU2, alone))
    want = gauge_act_edgewise(GeneralizedConnection(graph, SU2, alone), gauge)
    assert max(frob(acted.values[e], want.values[e]) for e in graph.edges) <= 1e-12


def test_unknown_edge_raises_before_any_matrix_work(transport_calls):
    # the theta graph with its third arc renamed: pentagon-chord has no edge 9
    theta = theta_graph()
    edges = [Edge(9 if e.id == 3 else e.id, e.src, e.dst, e.curve) for e in theta.edges.values()]
    word = reduce_word(Graph("LR", edges, "L", theta.positions), [(9, 1), (1, -1)])
    graph = pentagon_chord_graph()
    with pytest.raises(UnknownEdgeError):
        holonomy_general(random_generalized_connection(graph, SU2, seed=3), word)
    restricted = restrict(random_smooth_connection(SU2, graph, 4, seed=3), graph)
    with pytest.raises(UnknownEdgeError):
        holonomy_general(restricted, word)
    with pytest.raises(UnknownEdgeError):
        restricted.values[9]
    assert transport_calls == []


@pytest.mark.parametrize("desc", [SU2, mg.Unitary(3), T2, PROD, U1_SU2_MOD_Z2],
                         ids=["SU2", "U3", "T2", "T1xSU2", "quotient"])
def test_empty_word_is_identity(desc):
    graph = pentagon_chord_graph()
    got = holonomy_general(random_generalized_connection(graph, desc, seed=4), unit(graph, "v2"))
    assert got.descriptor == desc
    assert np.array_equal(got.matrix, mg.identity(desc).matrix)
    if isinstance(desc, mg.CentralQuotient):
        assert np.array_equal(got.matrix, mg.canonicalize_batch(desc, np.eye(3)[None])[0])


def test_long_word_holonomy_stays_unitary():
    graph = pentagon_chord_graph()
    U3 = mg.Unitary(3)
    conn = random_generalized_connection(graph, U3, seed=5)
    choices = np.random.default_rng(5).integers(0, 6, size=20_000)
    word = reduced_walk(graph, choices.tolist())
    assert len(word) == 20_000
    # each Haar edge is unitary to ~1e-15 and those defects add up along the
    # word (3.5e-12 here, 3.9e-12 for the letterwise fold), below the repair
    # threshold, so the product is returned as folded
    m = holonomy_general(conn, word).matrix
    assert frob(m.conj().T @ m, np.eye(3)) < 1e-11
    # edges scaled by 1 + 1e-11 pass as members without repair; their
    # product drifts by ~1e-7 and is polar-repaired once at the end
    drifted = GeneralizedConnection(graph, U3, {e: (1 + 1e-11) * v for e, v in conn.values.items()})
    assert all(frob(v.conj().T @ v, np.eye(3)) > 3e-11 for v in drifted.values.values())
    m = holonomy_general(drifted, word).matrix
    assert frob(m.conj().T @ m, np.eye(3)) < 1e-12


def test_generalized_connection_validates_edges():
    graph = square_graph()
    vals = {eid: np.eye(2, dtype=complex) for eid in (1, 2, 3)}
    with pytest.raises(ValueError):
        GeneralizedConnection(graph, SU2, vals)
    conn = random_generalized_connection(graph, SU2, seed=17)
    with pytest.raises(KeyError):
        conn.values[99]


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
        rhs = (gauge.values[w.range].conj().T
               @ holonomy_general(conn, w).matrix
               @ gauge.values[w.source])
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


@pytest.mark.parametrize("desc", ALL_KINDS, ids=KIND_IDS)
def test_gauge_act_general_matches_edgewise_oracle(desc):
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, desc, seed=25)
    gauge = random_discrete_gauge(graph, desc, seed=26)
    got = gauge_act_general(conn, gauge)
    want = gauge_act_edgewise(conn, gauge)
    for eid in graph.edges:
        assert frob(got.values[eid], want.values[eid]) < 1e-12
    if isinstance(desc, mg.CentralQuotient):
        stack = np.stack([got.values[eid] for eid in graph.edges])
        assert np.array_equal(mg.canonicalize_batch(desc, stack), stack)


def test_gauge_act_general_on_edgeless_graph():
    graph = Graph("a", [], "a")
    conn = GeneralizedConnection(graph, SU2, {})
    assert gauge_act_general(conn, random_discrete_gauge(graph, SU2, seed=27)).values == {}


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
    word = compose(edge_word(graph, 2), edge_word(graph, 1))
    pts = path_polyline(graph, word)
    lhs = gauge_transform(transport(conn, pts, tol=1e-11), gauge.at(pts[0]), gauge.at(pts[-1]))
    disc = gauge.as_discrete(graph)
    rhs = (disc.values[word.range].conj().T
           @ transport(conn, pts, tol=1e-11)
           @ disc.values[word.source])
    assert frob(lhs, rhs) < 1e-9


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
        g = gauge.at(x)  # x: a segment's midpoints, g: their stack
        gi = np.conj(g).swapaxes(-1, -2)
        a = one_form(conn, x, v)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return gi @ a @ g
        vhat = np.asarray(v) / nv
        dg = (gauge.at(x + fd * vhat) - gauge.at(x - fd * vhat)) / (2.0 * fd) * nv
        return gi @ a @ g + gi @ dg

    pts = np.array([[-0.5, -0.1], [1.2, 0.15]])
    direct = transport_field(field, pts, n=2, steps=1024)
    via_covariance = gauge_transform(transport(conn, pts, tol=1e-11),
                                     gauge.at(pts[0]), gauge.at(pts[-1]))
    assert frob(direct, via_covariance) < 5e-5


# ---------------------------------------------------------------------------
# interpolation

def leg_word(graph, r, k):
    return compose(edge_word(graph, r + k + 1), edge_word(graph, k + 1))


def test_interpolation_hits_targets():
    r = 3
    graph = spider_graph(r)
    values = [haar_sample(SU2, seed=30 + k) for k in range(r)]
    targets = [InterpolationTarget(leg_word(graph, r, k), values[k], (5, 8))
               for k in range(r)]
    conn = interpolate_connection(graph, targets)
    assert isinstance(conn, SmoothConnection)
    assert len(conn.terms) == r
    edges = restrict(conn, graph, tol=1e-11)
    for k in range(r):
        got = holonomy_general(edges, leg_word(graph, r, k))
        assert mg.distance(got, values[k]) < 1e-8


def assert_no_bump_leaks(graph, targets, extra_paths, conn):
    """Every bump lies farther than its radius from every path but its own."""
    lines = [path_polyline(graph, w) for w in [t.word for t in targets] + list(extra_paths)]
    assert len(conn.terms) == len(targets)
    for k, term in enumerate(conn.terms):
        for j, line in enumerate(lines):
            if j != k:
                assert point_polyline_distance(np.array(term.center), line) > term.radius


@pytest.mark.parametrize("r", range(2, 9))
def test_interpolation_bumps_miss_foreign_paths(r):
    graph = spider_graph(r)
    for seed in range(3):
        rng = np.random.default_rng([r, seed])
        legs = rng.permutation(r)
        n_targets = int(rng.integers(1, r + 1))
        targets = []
        for k in legs[:n_targets]:
            lo = int(rng.integers(0, 8))
            hi = int(rng.integers(lo + 1, 9))
            targets.append(InterpolationTarget(leg_word(graph, r, int(k)),
                                               haar_sample(SU2, seed=seed), (lo, hi)))
        # the legs left over, and the basepoint's one-point unit path
        extra = ([leg_word(graph, r, int(k)) for k in legs[n_targets:]]
                 + [unit(graph, graph.basepoint)])
        conn = interpolate_connection(graph, targets, extra_paths=extra)
        assert_no_bump_leaks(graph, targets, extra, conn)


def test_interpolation_respects_extra_paths():
    r = 3
    graph = spider_graph(r)
    values = [haar_sample(SU2, seed=40 + k) for k in range(2)]
    targets = [InterpolationTarget(leg_word(graph, r, k), values[k], (5, 8))
               for k in range(2)]
    spectator = leg_word(graph, r, 2)
    conn = interpolate_connection(graph, targets, extra_paths=[spectator])
    assert_no_bump_leaks(graph, targets, [spectator], conn)
    # the spectator path misses every bump, so its transport is skipped
    # segment by segment and comes out exactly the identity
    got = holonomy_general(restrict(conn, graph), spectator)
    assert frob(got.matrix, np.eye(2)) == 0.0


def test_interpolation_torus_and_quotient_values():
    r = 2
    graph = spider_graph(r)
    for desc, seeds in ((T2, (50, 51)), (U2_AS_QUOTIENT, (52, 53))):
        values = [haar_sample(desc, seed=s) for s in seeds]
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
        InterpolationTarget(w, haar_sample(SU2, seed=60), (5, 8)),
        InterpolationTarget(w, haar_sample(SU2, seed=61), (5, 8)),
    ]
    with pytest.raises(IndependenceError):
        interpolate_connection(graph, targets)


def test_interpolation_names_the_first_failing_target():
    r = 3
    graph = spider_graph(r)
    v = haar_sample(SU2, seed=63)
    clear, full = InterpolationTarget(leg_word(graph, r, 0), v, (5, 8)), leg_word(graph, r, 1)
    # leg 1's own inner edge is crossed by leg 1's path: no clearance
    crossed = InterpolationTarget(edge_word(graph, 2), v, (0, 4))
    beside = InterpolationTarget(full, v, (5, 8))
    with pytest.raises(IndependenceError, match="target 1: window has no clearance"):
        interpolate_connection(graph, [clear, crossed, beside])
    zero = lambda centers, *rest: np.zeros(len(centers))
    with mock.patch.object(connections, "_bump_coefficients", zero):
        with pytest.raises(IndependenceError, match="target 0: path barely meets"):
            interpolate_connection(graph, [clear, crossed, beside])
        # the clearance check comes first within a target
        with pytest.raises(IndependenceError, match="target 0: window has no clearance"):
            interpolate_connection(graph, [crossed, clear, beside])


def test_interpolation_needs_targets_of_one_group():
    r = 2
    graph = spider_graph(r)
    with pytest.raises(ValueError, match="no targets"):
        interpolate_connection(graph, [])
    mixed = [InterpolationTarget(leg_word(graph, r, 0), haar_sample(SU2, seed=64), (5, 8)),
             InterpolationTarget(leg_word(graph, r, 1), haar_sample(T2, seed=65), (5, 8))]
    with pytest.raises(mg.DescriptorMismatchError, match="targets mix group descriptors"):
        interpolate_connection(graph, mixed)


def test_interpolation_rejects_bad_window():
    r = 2
    graph = spider_graph(r)
    w = leg_word(graph, r, 0)
    v = haar_sample(SU2, seed=62)
    with pytest.raises(ValueError):
        interpolate_connection(graph, [InterpolationTarget(w, v, (8, 5))])
    with pytest.raises(ValueError):
        interpolate_connection(graph, [InterpolationTarget(w, v, (0, 99))])


@st.composite
def bumps_near_polylines(draw):
    """A 2-D polyline with repeated points and a bump centered on or near it.

    The center is a vertex (so the bump straddles it) or a point along a
    segment, moved by up to 0.3.  Radii stay at 0.2 or more, so the midpoint
    oracle, which starts with midpoints at most radius / 64 apart, stays fast.
    """
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=4))
    for i in sorted(draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)), reverse=True):
        pts.insert(i, pts[i])
    pts = np.array(pts)
    k = draw(st.integers(0, len(pts) - 2))
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    offset = np.array(draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    return (pts[k] + t * (pts[k + 1] - pts[k]) + offset, draw(st.floats(0.2, 1.0)),
            np.array([np.cos(angle), np.sin(angle)]), pts)


@settings(max_examples=200, deadline=None)
@given(case=bumps_near_polylines())
def test_scalar_line_integral_matches_midpoint_oracle(case):
    center, radius, direction, pts = case
    got = bump_coefficient(center, radius, direction, pts)
    want = scalar_line_integral_midpoint(center, radius, direction, pts)
    if not np.any(_segment_distances(center[None], pts[:-1], pts[1:]) < radius):
        assert got == 0.0
    # relative on the scale both refinements stop at
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_scalar_line_integral_of_far_bump_is_exactly_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    center, direction = np.array([3.0, 0.5]), np.array([0.6, 0.8])
    assert bump_coefficient(center, 1.9, direction, pts) == 0.0
    assert bump_coefficient(center, 1.9, direction, pts[:1]) == 0.0


def test_scalar_line_integral_finds_grazing_bump():
    # the bump meets the segment along a chord of length 0.026 only: Gauss
    # nodes spread over the whole segment miss it at 8 and at 16 sub-steps
    radius, height = 0.036, 0.93 * 0.036
    center, direction = np.array([0.49, height]), np.array([0.6, 0.8])
    pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
    got = bump_coefficient(center, radius, direction, pts)
    half = np.sqrt(radius ** 2 - height ** 2)
    want, _ = quad(lambda x: bump_value([(x, 0.0)], center, radius)[0] * direction[0],
                   center[0] - half, center[0] + half, epsabs=0.0, epsrel=1e-13)
    assert want > 1e-6 and abs(got - want) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(bumps_near_polylines(), min_size=1, max_size=4))
# the chord's sums agree at 8 and 16 sub-steps by chance, 1.3e-10 from their limit
@example(cases=[(np.array([-1.0, -0.01953125]), 0.8828125, np.array([np.cos(1.0), np.sin(1.0)]),
                 np.array([[-0.953125, -0.484375], [-0.875, 0.24023438]]))])
def test_batched_coefficients_match_the_per_target_oracle(cases):
    centers, radii, directions, lines = zip(*cases)
    got = connections._bump_coefficients(centers, radii, directions, lines)
    assert got.shape == (len(cases),)
    # relative on the scale both refinements stop at: each stops on a change of
    # 1e-12, and neither on the first small change, which can be a chance
    # agreement of two coarse levels
    for c, (center, radius, direction, pts) in zip(got, cases):
        want = scalar_line_integral(center, radius, direction, pts)
        assert abs(c - want) <= 1e-10 * max(1.0, abs(want))


def test_coefficient_chords_refine_past_a_chance_agreement():
    # the last chord ends near the center: its values at 8 and 16 sub-steps
    # differ by 4e-13, then by 1.5e-10 at 64, so stopping on the first doubling
    # left the coefficient 2.6e-10 off
    center, radius = np.array([0.41405172424923425, -0.1327663718085657]), 0.45092961076768046
    direction = np.array([0.8548254204872988, 0.5189156968995182])
    pts = np.array([[0.4813779757220118, -0.4285511819956984],
                    [-0.3328629105850187, 0.7309855497283286],
                    [0.5745872730316923, -0.28136335190594575],
                    [0.5745872730316923, -0.28136335190594575],
                    [0.267327534191909, 0.0584433847952659]])
    t0, t1 = connections._bump_chords(pts[:-1], pts[1:], center[None], np.array([radius]))
    want = 0.0
    for p, q, a, b in zip(pts[:-1], pts[1:], t0[:, 0], t1[:, 0]):
        if b > a:
            phi = lambda t: bump_value([p + t * (q - p)], center, radius)[0]
            want += (q - p) @ direction * quad(phi, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert abs(bump_coefficient(center, radius, direction, pts) - want) <= 1e-12


def spider_targets(r):
    graph = spider_graph(r)
    words = [leg_word(graph, r, k) for k in range(r)]
    values = mg.haar_batch(SU2, r, np.random.default_rng(r))
    return graph, [InterpolationTarget(w, mg.GroupElement(SU2, v), tuple(win))
                   for w, v, win in zip(words, values, default_windows(graph, words))]


# the coefficients of the spider legs' interpolation targets, as the chord-union
# integrator computed them: the piece integrand must reproduce them bit for bit
SPIDER_COEFFICIENTS = {
    4: ["0x1.9333333333333p-2"] * 3 + ["0x1.9333333333330p-2"],
    8: ["0x1.9333333333332p-2", "0x1.9333333333333p-2", "0x1.9333333333333p-2",
        "0x1.9333333333332p-2", "0x1.9333333333332p-2", "0x1.9333333333333p-2",
        "0x1.9333333333332p-2", "0x1.9333333333332p-2"],
}


@pytest.mark.parametrize("r", [4, 8])
@pytest.mark.parametrize("desc", [SU2, mg.SpecialUnitary(3)], ids=["su2", "su3"])
def test_spider_coefficients_are_unchanged_bitwise(monkeypatch, r, desc):
    seen = []
    real = connections._bump_coefficients
    monkeypatch.setattr(connections, "_bump_coefficients",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    graph = spider_graph(r)
    words = [leg_word(graph, r, k) for k in range(r)]
    values = mg.haar_batch(desc, r, np.random.default_rng(r))
    targets = [InterpolationTarget(w, mg.GroupElement(desc, v), tuple(win))
               for w, v, win in zip(words, values, default_windows(graph, words))]
    interpolate_connection(graph, targets)
    assert [float(c).hex() for c in seen[0]] == SPIDER_COEFFICIENTS[r]
def test_interpolation_refines_every_coefficient_in_one_loop():
    # the per-target loop made 5 node evaluations per target, 40 on spider-8
    graph, targets = spider_targets(8)
    with mock.patch.object(connections, "_gauss_nodes",
                           wraps=connections._gauss_nodes) as nodes:
        interpolate_connection(graph, targets)
    assert 1 <= nodes.call_count <= MAX_DOUBLINGS + 1


def test_coefficients_below_roundoff_tolerance_still_return(monkeypatch):
    # no refinement is sure to reach a change of 0: such a chord stops on the
    # stall or at MAX_DOUBLINGS, and the coefficient is still the integral
    monkeypatch.setattr(connections, "COEFFICIENT_TOL", 0.0)
    seen = []
    real = connections._refine

    def refine(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(connections, "_refine", refine)
    rng = np.random.default_rng(23)
    lines = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2)) for _ in range(40)]
    centers = [line[rng.integers(len(line))] + rng.normal(scale=0.2, size=2) for line in lines]
    radii = rng.uniform(0.2, 1.0, size=len(lines))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=len(lines))
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    got = connections._bump_coefficients(centers, radii, directions, lines)
    _, levels, diffs = seen[0]
    assert np.all(levels <= MAX_DOUBLINGS) and np.any(diffs > 0.0)
    for c, args in zip(got, zip(centers, radii, directions, lines)):
        assert abs(c - scalar_line_integral(*args)) <= 1e-10


# ---------------------------------------------------------------------------
# pushforward and serialization

def test_pushforward_commutes_with_holonomy():
    # base-group edge values in a quotient connection are projected to their cosets
    graph = square_graph()
    base = random_generalized_connection(graph, PROD, seed=70)
    pushed = GeneralizedConnection(graph, U2_AS_QUOTIENT, base.values)
    w = compose(edge_word(graph, 2), edge_word(graph, 1))
    lhs = holonomy_general(pushed, w)
    rhs = mg.quotient_project(U2_AS_QUOTIENT, holonomy_general(base, w).matrix)
    assert mg.distance(lhs, rhs) < 1e-12


def test_generalized_serialization_roundtrip():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, PROD, seed=72)
    data = generalized_to_dict(conn)
    back = generalized_from_dict(graph, data)
    for eid in graph.edges:
        assert frob(back.values[eid], conn.values[eid]) < 1e-15
    data["values"]["9"] = data["values"].pop("1")
    with pytest.raises(UnknownEdgeError, match="no edge with id '9'"):
        generalized_from_dict(graph, data)


def test_generalized_from_seed():
    graph = square_graph()
    data = {"group": mg.descriptor_to_dict(SU2), "haar_seed": 9, "values": {}}
    a = generalized_from_dict(graph, data)
    b = random_generalized_connection(graph, SU2, seed=9)
    for eid in graph.edges:
        assert frob(a.values[eid], b.values[eid]) == 0.0


@pytest.mark.parametrize("seed", [True, 9.0, "9"])
def test_seeded_documents_need_an_integer_seed(seed):
    graph = square_graph()
    data = {"group": mg.descriptor_to_dict(SU2), "haar_seed": seed, "values": {}}
    with pytest.raises(ValueError, match="haar_seed must be an integer"):
        generalized_from_dict(graph, data)


def test_smooth_serialization_roundtrip():
    conn = random_smooth_connection(SU2, pentagon_chord_graph(), 3, seed=73)
    back = smooth_from_dict(smooth_to_dict(conn))
    assert back.descriptor == conn.descriptor
    for t1, t2 in zip(back.terms, conn.terms):
        assert frob(t1.X, t2.X) < 1e-15
        assert t1.center == t2.center
        assert t1.radius == t2.radius
        assert t1.direction == t2.direction


def test_edge_polyline_orientation_and_geometry_errors():
    graph = square_graph()
    fwd = edge_polyline(graph, 1, 1)
    bwd = edge_polyline(graph, 1, -1)
    assert np.array_equal(fwd, bwd[::-1])
    bare = Graph("ab", [Edge(1, "a", "b", None)], "a")
    with pytest.raises(GeometryError):
        edge_polyline(bare, 1)
    with pytest.raises(GeometryError, match="vertex 'a' has no position"):
        path_polyline(bare, unit(bare, "a"))
    with pytest.raises(GeometryError, match="no curve data"):
        random_smooth_connection(SU2, bare, 2, seed=0)


def test_path_polyline_joins_every_word_the_graph_accepts():
    # Graph holds each curve end within 1e-9 of b's first end, (1, 0); edges 2 and 3
    # end 1.8e-9 apart, and the word 2 then 3 backwards still has a curve
    ends = {1: (1.0, 0.0), 2: (1.0, 0.9e-9), 3: (1.0, -0.9e-9)}
    graph = Graph("ab", [Edge(k, "a", "b", ((0.0, 0.0), end)) for k, end in ends.items()], "a")
    word = compose(edge_word(graph, 3, -1), edge_word(graph, 2))
    assert path_polyline(graph, word).tolist() == [[0.0, 0.0], [1.0, 0.9e-9], [0.0, 0.0]]
