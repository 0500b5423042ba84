"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

The conftest hook emits ``[acceptance] <name>: PASS/FAIL`` per test.  Every
tolerance below is part of the acceptance contract; where a runtime budget
is part of the contract the test measures and asserts it.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    DiscreteGauge,
    bump_value,
    edge_polyline,
    gauge_act_general,
    gauge_transform,
    generalized_to_dict,
    holonomy_general,
    holonomy_smooth,
    path_polyline,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    restrict,
    transport,
)
from holonomy_lab.cylindrical import (
    HaarMean,
    entry_abs_square,
    entry_function,
    separation_test,
)
from holonomy_lab.pathgroupoid import (
    compose,
    edge_word,
    graph_to_dict,
    inverse,
    reduce_word,
    word_to_tokens,
)
from holonomy_lab.spectra import (
    LoopAssignment,
    abelian_obstruction_witness,
    approximation_experiment,
    closure_membership,
    commutator_word,
    tree_basis,
    tree_decompose,
    tree_reconstruct,
)

from graphs import (
    bouquet_graph,
    pentagon_chord_graph,
    spider_graph,
    square_graph,
)
from instruments import one_form, random_smooth_gauge
from oracles import (
    all_order_normal_forms,
    brute_force_conjugator,
    enumerate_composable_words,
    polyline_line_integral,
    su2_grid,
    transport_field,
)

SU2 = mg.SpecialUnitary(2)
SU3 = mg.SpecialUnitary(3)
U2 = mg.Unitary(2)
T2 = mg.Torus(2)
PROD = mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2)))
QUOT = mg.central_quotient(PROD, [np.eye(3), -np.eye(3)])
ALL_KINDS = [U2, SU2, T2, PROD, QUOT]

QI = np.array([[1j, 0.0], [0.0, -1j]])
QJ = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
QK = np.array([[0.0, 1j], [1j, 0.0]])


def random_walk(graph, rng, start, length):
    """A PathWord following `length` uniformly random incident letters."""
    letters = []
    at = start
    for _ in range(length):
        options = []
        for eid in graph.incident_edges(at):
            e = graph.edges[eid]
            if e.src == at:
                options.append((eid, 1))
            if e.dst == at:
                options.append((eid, -1))
        eid, o = options[rng.integers(len(options))]
        letters.append((eid, o))
        e = graph.edges[eid]
        at = e.dst if o == 1 else e.src
    return reduce_word(graph, letters, source=start)


def test_01_groupoid_reduction_and_laws():
    start = time.monotonic()
    graph = square_graph()

    # exhaustive confluence: every composable raw word of <= 8 letters has a
    # unique normal form regardless of cancellation order, and the library
    # reduction lands exactly on it
    words = enumerate_composable_words(graph, 8)
    assert len(words) > 2000
    for letters in words:
        forms = all_order_normal_forms(letters)
        assert len(forms) == 1
        assert reduce_word(graph, list(letters)).letters == next(iter(forms))

    # algebraic laws on random words, exact equality
    rng = np.random.default_rng(0)
    vertices = list(graph.vertices)
    for _ in range(1000):
        v = vertices[rng.integers(len(vertices))]
        q = random_walk(graph, rng, v, int(rng.integers(0, 7)))
        p = random_walk(graph, rng, q.range, int(rng.integers(0, 7)))
        r = random_walk(graph, rng, p.range, int(rng.integers(0, 7)))

        unit_src = reduce_word(graph, [], source=q.source)
        unit_rng = reduce_word(graph, [], source=q.range)
        assert compose(q, unit_src).letters == q.letters
        assert compose(unit_rng, q).letters == q.letters

        left_inv = compose(inverse(q), q)
        right_inv = compose(q, inverse(q))
        assert left_inv.letters == () and left_inv.source == q.source
        assert right_inv.letters == () and right_inv.source == q.range

        a = compose(r, compose(p, q))
        b = compose(compose(r, p), q)
        assert a.letters == b.letters and a.source == b.source and a.range == b.range

    assert time.monotonic() - start < 10.0


def test_02_smooth_holonomy_functoriality_and_retracing():
    start = time.monotonic()
    graph = pentagon_chord_graph()
    assert len(graph.edges) == 6
    eta = compose(edge_word(graph, 2), edge_word(graph, 1))        # v0 -> v2
    lam = compose(edge_word(graph, 5),
                  compose(edge_word(graph, 4), edge_word(graph, 3)))  # v2 -> v0
    loop = compose(lam, eta)
    gamma_pts = edge_polyline(graph, 6)
    loop_pts = path_polyline(graph, loop)
    retraced = np.vstack([loop_pts, gamma_pts[1:], gamma_pts[::-1][1:]])

    for seed in range(20):
        conn = random_smooth_connection(SU2, graph, n_terms=5, seed=seed)
        edges = restrict(conn, graph)
        h_eta = holonomy_general(edges, eta)
        h_lam = holonomy_general(edges, lam)
        h_loop = holonomy_general(edges, loop)
        assert float(mg.distance(h_loop, mg.mul(h_lam, h_eta))) <= 1e-8
        h_retraced = holonomy_smooth(conn, retraced)
        assert np.linalg.norm(h_retraced.matrix - h_loop.matrix) <= 1e-8

    assert time.monotonic() - start < 60.0


def test_03_gauge_covariance_smooth_and_discrete():
    graph = pentagon_chord_graph()
    fd = 1e-5
    for seed in range(10):
        conn = random_smooth_connection(SU2, graph, n_terms=4, seed=100 + seed)
        gauge = random_smooth_gauge(SU2, graph, n_terms=3, seed=200 + seed)

        def field(x, v, conn=conn, gauge=gauge):
            g = gauge.at(x)  # x: a segment's midpoints, g: their stack
            gi = np.conj(g).swapaxes(-1, -2)
            a = one_form(conn, x, v)
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                return gi @ a @ g
            vhat = np.asarray(v) / nv
            dg = (gauge.at(x + fd * vhat) - gauge.at(x - fd * vhat)) / (2.0 * fd) * nv
            return gi @ a @ g + gi @ dg

        pts = edge_polyline(graph, 1 + (seed % 5))
        direct = transport_field(field, pts, n=2, steps=1024)
        via = gauge_transform(transport(conn, pts, tol=1e-11), gauge.at(pts[0]), gauge.at(pts[-1]))
        assert np.linalg.norm(direct - via) <= 1e-6

    # the discrete action obeys the group law exactly
    for desc, base_seed in ((SU2, 30), (T2, 40), (PROD, 50)):
        conn = random_generalized_connection(graph, desc, seed=base_seed)
        g = random_discrete_gauge(graph, desc, seed=base_seed + 1)
        h = random_discrete_gauge(graph, desc, seed=base_seed + 2)
        twice = gauge_act_general(gauge_act_general(conn, g), h)
        prod = DiscreteGauge(graph, desc,
                             {v: g.values[v] @ h.values[v] for v in graph.vertices})
        once = gauge_act_general(conn, prod)
        for eid in graph.edges:
            assert np.linalg.norm(twice.values[eid] - once.values[eid]) <= 1e-12


def test_04_haar_mean_values_idempotence_invariance():
    start = time.monotonic()
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=7)
    edge = edge_word(graph, 1)
    samples = 10**6

    # first moment of an entry vanishes
    f_entry = entry_function(edge, 1, 1)
    est = HaarMean(f_entry, SU2).estimate(conn, samples, seed=1)
    assert abs(est.value) <= 3.0 * est.stderr

    # second moment |H_11|^2 averages to 1/2
    f_sq = entry_abs_square(edge, 1, 1)
    est_sq = HaarMean(f_sq, SU2).estimate(conn, samples, seed=2)
    assert abs(est_sq.value.imag) <= 1e-12
    assert abs(est_sq.value.real - 0.5) <= 3.0 * est_sq.stderr

    # averaging twice is averaging once, within combined error bars
    est_two = HaarMean(f_sq, SU2, layers=2).estimate(conn, samples, seed=3)
    combined = np.hypot(est_sq.stderr, est_two.stderr)
    assert abs(est_two.value - est_sq.value) <= 3.0 * combined

    # the mean is a gauge-invariant functional of the connection
    gauged = gauge_act_general(conn, random_discrete_gauge(graph, SU2, seed=9))
    est_gauged = HaarMean(f_sq, SU2).estimate(gauged, samples, seed=4)
    combined = np.hypot(est_sq.stderr, est_gauged.stderr)
    assert abs(est_gauged.value - est_sq.value) <= 3.0 * combined

    assert time.monotonic() - start < 300.0


@pytest.mark.parametrize("desc", ALL_KINDS,
                         ids=lambda d: type(d).__name__ + str(mg.dim(d)))
def test_05_tree_factorization_roundtrip(desc):
    graph = pentagon_chord_graph()
    basis = tree_basis(graph)
    others = [v for v in graph.vertices if v != graph.basepoint]

    for seed in range(100):
        # connection -> (frames, loop holonomies) -> connection
        conn = random_generalized_connection(graph, desc, seed=seed)
        dec = tree_decompose(basis, conn)
        assert float(mg.distance(dec.frames[graph.basepoint], mg.identity(desc))) == 0.0
        back = tree_reconstruct(basis, desc, dec.loop_values, frames=dec.frames)
        worst = max(float(np.linalg.norm(back.values[eid] - conn.values[eid]))
                    for eid in graph.edges)
        assert worst <= 1e-12

        # (frames, loop holonomies) -> connection -> (frames, loop holonomies)
        rng = np.random.default_rng(10_000 + seed)
        loops = dict(zip(basis.loop_ids, mg.haar_batch(desc, len(basis.loop_ids), rng)))
        frames = dict(zip(others, mg.haar_batch(desc, len(others), rng)))
        frames[graph.basepoint] = mg.identity(desc).matrix
        conn2 = tree_reconstruct(basis, desc, loops, frames=frames)
        dec2 = tree_decompose(basis, conn2)
        worst = max(
            max(float(mg.distance(dec2.frames[v],
                                  mg.GroupElement(desc, frames[v], check=False)))
                for v in graph.vertices),
            max(float(mg.distance(dec2.loop_values[eid],
                                  mg.GroupElement(desc, loops[eid], check=False)))
                for eid in basis.loop_ids),
        )
        assert worst <= 1e-12


def test_06_interpolation_fills_independent_families():
    start = time.monotonic()
    for desc in (SU2, SU3):
        for r in (1, 3, 6):
            graph = spider_graph(r)
            words = [compose(edge_word(graph, r + k + 1), edge_word(graph, k + 1))
                     for k in range(r)]
            for seed in range(20):
                report = approximation_experiment(graph, words, desc, seed=seed,
                                                  bound=1e-6)
                assert report.verdict, (desc, r, seed, report.errors)
    assert time.monotonic() - start < 300.0


def test_07_abelian_obstruction_on_the_bouquet():
    graph = bouquet_graph()
    conn = random_smooth_connection(T2, graph, n_terms=6, seed=13)

    # per-letter transports, checked against plain quadrature of the bump
    # coefficients (the holonomy of a commuting connection is the
    # exponential of the per-edge line integrals)
    diag = {}
    for eid in (1, 2):
        pts = edge_polyline(graph, eid)
        h = holonomy_smooth(conn, pts, tol=1e-11).matrix
        assert np.max(np.abs(h - np.diag(np.diagonal(h)))) == 0.0
        total = np.zeros((2, 2), dtype=complex)
        for term in conn.terms:
            def f_vec(x, dx, term=term):
                phi = float(bump_value(x, term.center, term.radius)[0])
                return phi * float(np.dot(term.direction, dx))
            total += polyline_line_integral(f_vec, pts, per_segment=1024) * term.X
        assert np.max(np.abs(h - expm(-total))) <= 1e-7
        diag[(eid, 1)] = np.diagonal(h).copy()
        diag[(eid, -1)] = np.conj(np.diagonal(h))

    # every reduced word of length <= 12 with zero edge exponents holds the
    # identity; the sweep walks the prefix tree with a running product
    letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
    worst = 0.0
    checked = 0
    max_len = 12
    stack = [(None, 0, 0, 0, np.ones(2, dtype=complex))]
    while stack:
        prev, n1, n2, depth, prod = stack.pop()
        if depth > 0 and n1 == 0 and n2 == 0:
            checked += 1
            worst = max(worst, float(np.max(np.abs(prod - 1.0))))
        if depth == max_len:
            continue
        rem = max_len - depth
        for l in letters:
            if prev is not None and l[0] == prev[0] and l[1] == -prev[1]:
                continue
            m1 = n1 + (l[1] if l[0] == 1 else 0)
            m2 = n2 + (l[1] if l[0] == 2 else 0)
            if abs(m1) + abs(m2) > rem - 1:
                continue
            stack.append((l, m1, m2, depth + 1, prod * diag[l]))
    assert checked > 10_000
    assert worst <= 1e-8

    # some word with nonzero exponents moves: the obstruction is not vacuous
    assert np.max(np.abs(diag[(1, 1)] - 1.0)) > 1e-3

    # and the commutator witness is obstructed with an explicit certificate
    wit = abelian_obstruction_witness(graph)
    from holonomy_lab.pathgroupoid import abelianize
    assert abelianize(wit.word) == {}
    assert wit.nonabelian_defect == pytest.approx(2.0 * np.sqrt(2.0))
    assert wit.abelian_defect(restrict(conn, graph)) <= 1e-8


def test_08_closure_product_split_and_quotient_lifts():
    graph = pentagon_chord_graph()
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    comm = commutator_word(la, lb)
    loops = (la, lb, comm)

    def prod_elem(theta, s):
        return mg.GroupElement(PROD, block_diag(np.array([[np.exp(1j * theta)]]), s))

    group_comm = QJ.conj().T @ QI.conj().T @ QJ @ QI
    cases = [
        (0.0, group_comm),    # both factors consistent
        (np.pi, group_comm),  # torus factor violated
        (0.0, QI),            # special-unitary factor violated
        (np.pi, QI),          # both violated
    ]
    slices = mg.leaf_blocks(PROD)
    for theta, s in cases:
        values = (prod_elem(0.3, QI), prod_elem(0.9, QJ), prod_elem(theta, s))
        whole = closure_membership(LoopAssignment(graph, loops, values), bound=4)
        partwise = []
        for sl, factor in slices:
            sub = tuple(mg.GroupElement(factor, v.matrix[sl, sl]) for v in values)
            partwise.append(closure_membership(
                LoopAssignment(graph, loops, sub), bound=4).member)
        assert whole.member == all(partwise)
        if not whole.member:
            assert whole.witness[0] == partwise.index(False)

    # every pushforward of attainable product data is accepted by the
    # exhaustive search over center lifts
    for seed in range(10):
        conn = random_generalized_connection(graph, PROD, seed=seed)
        values = tuple(holonomy_general(conn, w) for w in loops)
        assert closure_membership(LoopAssignment(graph, loops, values),
                                  bound=4).member
        projected = tuple(mg.quotient_project(QUOT, v.matrix) for v in values)
        verdict = closure_membership(LoopAssignment(graph, loops, projected), bound=4)
        assert verdict.member, (seed, verdict.detail)

    # the lift search is doing real work: the canonical representative of
    # the class of (1, -1) fails the identity lift but passes a shifted one
    forced = (mg.quotient_project(QUOT, block_diag(np.eye(1), QI)),
              mg.quotient_project(QUOT, block_diag(np.eye(1), QJ)),
              mg.quotient_project(QUOT, block_diag(np.eye(1), -np.eye(2))))
    verdict = closure_membership(LoopAssignment(graph, loops, forced), bound=4)
    assert verdict.member and any(verdict.witness)

    # and unliftable data is rejected
    bad = (forced[0], forced[1],
           mg.quotient_project(QUOT, block_diag(np.exp(0.5j) * np.eye(1), -np.eye(2))))
    assert not closure_membership(LoopAssignment(graph, loops, bad), bound=4).member


def test_09_conjugacy_recovery_and_equal_trace_case():
    rng = np.random.default_rng(51)
    for case in range(50):
        desc = SU2 if case % 2 == 0 else SU3
        n = mg.dim(desc)
        stack = mg.haar_batch(desc, 2, rng)
        u = mg.haar_batch(desc, 1, rng)[0]
        moved = [u.conj().T @ m @ u for m in stack]
        found, residual = mg.find_conjugator(list(stack), moved)
        assert residual <= 1e-10
        assert np.max(np.abs(found.conj().T @ found - np.eye(n))) <= 1e-10

    # the quaternion pair (i, j) vs (j, i): every word trace agrees, and the
    # tuples really are conjugate; the least-squares solver finds the
    # conjugator and the coarse grid search agrees
    a = [QI, QJ]
    b = [QJ, QI]
    verdict = separation_test(a, b, max_len=4)
    assert not verdict.separated and verdict.gap <= 1e-12
    found, residual = mg.find_conjugator(a, b)
    assert residual <= 1e-10
    grid_u, grid_res = brute_force_conjugator(a, b, su2_grid(14, 14))
    assert grid_res <= 0.4
    assert max(np.linalg.norm(grid_u.conj().T @ x @ grid_u - y)
               for x, y in zip(a, b)) <= 0.4


def test_10_reports_are_byte_deterministic(tmp_path):
    graph = spider_graph(2)
    words = [compose(edge_word(graph, 2 + k + 1), edge_word(graph, k + 1))
             for k in range(2)]
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "graph": graph_to_dict(graph),
        "words": [word_to_tokens(w) for w in words],
    }))
    penta = pentagon_chord_graph()
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_dict(penta)))
    cpath = tmp_path / "conn.json"
    cpath.write_text(json.dumps(generalized_to_dict(
        random_generalized_connection(penta, SU2, seed=3))))

    def run(argv, out):
        result = subprocess.run(
            [sys.executable, "-m", "holonomy_lab.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ))
        assert result.returncode == 0, result.stderr
        return result.stdout

    jobs = [
        (["approx", "--group", "su2", "--family", str(family),
          "--seed", "5", "--seeds", "2"],
         ["approx.json", "approx.csv", "approx-errors.dat"]),
        (["gauge-orbit", "--graph", str(gpath), "--connection", str(cpath),
          "--seed", "11"],
         ["gauge-orbit.json"]),
    ]
    for argv, names in jobs:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        stdout_a = run(argv, out_a)
        stdout_b = run(argv, out_b)
        assert stdout_a == stdout_b
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # library-level sampling is bitwise reproducible as well
    x = random_generalized_connection(penta, SU2, seed=12)
    y = random_generalized_connection(penta, SU2, seed=12)
    assert all(np.array_equal(x.values[eid], y.values[eid]) for eid in penta.edges)
