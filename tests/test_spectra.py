"""Tests for tree coordinates, orbit normal forms and closure verdicts."""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import holonomy_lab.matrixgroups as mg
import holonomy_lab.spectra as spectra
from holonomy_lab.connections import (
    DiscreteGauge,
    gauge_act_general,
    holonomies,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    restrict,
)
from holonomy_lab.pathgroupoid import (
    Graph,
    abelianize,
    compose,
    edge_word,
    inverse,
    loop_relations,
    word_from_tokens,
    word_to_tokens,
)
from holonomy_lab.spectra import (
    ClosureVerdict,
    LoopAssignment,
    abelian_obstruction_witness,
    approximation_experiment,
    closure_membership,
    commutator_word,
    default_windows,
    loop_assignment_from_dict,
    loop_assignment_to_dict,
    orbit_representative,
    tree_basis,
    tree_decompose,
    tree_reconstruct,
)

from graphs import bouquet_graph, pentagon_chord_graph, spider_graph, square_graph
from instruments import compose_all, power
from oracles import (
    brute_force_conjugator,
    depends_on,
    first_broken_relation,
    gauge_act_edgewise,
    split_clusters_loop,
    su2_grid,
)

SU2 = mg.SpecialUnitary(2)
SU3 = mg.SpecialUnitary(3)
U2 = mg.Unitary(2)
U3 = mg.Unitary(3)
T2 = mg.Torus(2)
PROD = mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2)))
U2_AS_QUOTIENT = mg.central_quotient(
    PROD, [np.eye(3), -np.eye(3)])
ALL_KINDS = [SU2, SU3, U2, T2, PROD, U2_AS_QUOTIENT]
U1_SU2_MOD_Z2 = mg.central_quotient(
    mg.ProductGroup((mg.Unitary(1), SU2)), [np.eye(3), -np.eye(3)])

QI = np.array([[1j, 0.0], [0.0, -1j]])
QJ = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
QK = np.array([[0.0, 1j], [1j, 0.0]])


def pentagon_generators(graph):
    basis = tree_basis(graph)
    return basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]


# ---------------------------------------------------------------------------
# spanning-tree coordinates

def test_tree_basis_square_structure():
    basis = tree_basis(square_graph())
    assert basis.tree_edges == frozenset({1, 2, 4})
    assert basis.loop_ids == (3,)
    loop = basis.loops[3]
    assert loop.letters == ((1, 1), (2, 1), (3, 1), (4, 1))
    assert loop.is_loop() and loop.source == "a"


def edgeless_graph():
    return Graph("a", [], "a")


@pytest.mark.parametrize("graph_fn", [square_graph, pentagon_chord_graph, edgeless_graph])
@pytest.mark.parametrize("desc", ALL_KINDS, ids=lambda d: type(d).__name__ + str(mg.dim(d)))
def test_tree_roundtrip_exact(graph_fn, desc):
    graph = graph_fn()
    conn = random_generalized_connection(graph, desc, seed=21)
    basis = tree_basis(graph)
    dec = tree_decompose(basis, conn)
    back = tree_reconstruct(basis, desc, dec.loop_values, frames=dec.frames)
    assert back.values.keys() == conn.values.keys()
    worst = max((float(np.linalg.norm(back.values[eid] - conn.values[eid]))
                 for eid in graph.edges), default=0.0)
    assert worst <= 1e-12


def test_tree_reconstruct_canonical_section():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=4)
    basis = tree_basis(graph)
    dec = tree_decompose(basis, conn)
    canon = tree_reconstruct(basis, SU2, dec.loop_values)
    ident = mg.identity(SU2)
    for eid in basis.tree_edges:
        assert float(np.linalg.norm(canon.values[eid] - ident.matrix)) == 0.0
    # the gauged-down connection keeps the same loop holonomies
    redec = tree_decompose(basis, canon)
    for eid in basis.loop_ids:
        assert float(mg.distance(redec.loop_values[eid], dec.loop_values[eid])) <= 1e-13


@pytest.mark.parametrize("desc", ALL_KINDS + [U1_SU2_MOD_Z2],
                         ids=lambda d: type(d).__name__ + str(mg.dim(d)))
def test_tree_reconstruct_matches_edgewise_gauge_oracle(desc):
    # frames f act on the canonical section as the gauge f^-1, edge by edge
    graph = pentagon_chord_graph()
    basis = tree_basis(graph)
    dec = tree_decompose(basis, random_generalized_connection(graph, desc, seed=8))
    section = tree_reconstruct(basis, desc, dec.loop_values)
    inverse_frames = DiscreteGauge(graph, desc, {v: f.matrix.conj().T
                                                 for v, f in dec.frames.items()})
    want = gauge_act_edgewise(section, inverse_frames)
    raw_frames = {v: f.matrix for v, f in dec.frames.items()}
    for frames in (dec.frames, raw_frames):
        with mock.patch.object(mg, "admit", wraps=mg.admit) as admit:
            got = tree_reconstruct(basis, desc, dec.loop_values, frames=frames)
        assert admit.call_count == 3  # the loop values, the frames and the result, once each
        for eid in graph.edges:
            assert float(np.linalg.norm(got.values[eid] - want.values[eid])) <= 1e-12
        if isinstance(desc, mg.CentralQuotient):
            stack = np.stack([got.values[eid] for eid in graph.edges])
            assert np.array_equal(mg.canonicalize_batch(desc, stack), stack)


def test_tree_reconstruct_validates_loop_keys():
    basis = tree_basis(square_graph())
    with pytest.raises(ValueError, match="non-tree"):
        tree_reconstruct(basis, SU2, {})
    with pytest.raises(ValueError, match="non-tree"):
        tree_reconstruct(basis, SU2, {3: mg.identity(SU2), 1: mg.identity(SU2)})


@pytest.mark.parametrize("edit, named", [
    (lambda f: f.pop("v3"), r"missing \['v3'\], extra \[\]"),
    (lambda f: f.update(w9=f["v0"]), r"missing \[\], extra \['w9'\]"),
], ids=["missing", "extra"])
def test_tree_reconstruct_validates_frame_keys(edit, named):
    # frames are checked like loop values: a ValueError names the missing and extra vertices
    graph = pentagon_chord_graph()
    basis = tree_basis(graph)
    dec = tree_decompose(basis, random_generalized_connection(graph, SU2, seed=9))
    frames = dict(dec.frames)
    edit(frames)
    with pytest.raises(ValueError, match=r"frames do not match the vertex set \(" + named):
        tree_reconstruct(basis, SU2, dec.loop_values, frames=frames)


def test_tree_decomposition_equivariance():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=6)
    gauge = random_discrete_gauge(graph, SU2, seed=7)
    basis = tree_basis(graph)
    dec = tree_decompose(basis, conn)
    dec2 = tree_decompose(basis, gauge_act_general(conn, gauge))
    g_star = mg.GroupElement(SU2, gauge.values[graph.basepoint], check=False)
    for eid in basis.loop_ids:
        expect = mg.mul(mg.mul(mg.inv(g_star), dec.loop_values[eid]), g_star)
        assert float(mg.distance(dec2.loop_values[eid], expect)) <= 1e-12
    for v in graph.vertices:
        g_v = mg.GroupElement(SU2, gauge.values[v], check=False)
        expect = mg.mul(mg.mul(mg.inv(g_v), dec.frames[v]), g_star)
        assert float(mg.distance(dec2.frames[v], expect)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tree_roundtrip_property(seed):
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=seed)
    basis = tree_basis(graph)
    dec = tree_decompose(basis, conn)
    back = tree_reconstruct(basis, SU2, dec.loop_values, frames=dec.frames)
    worst = max(float(np.linalg.norm(back.values[eid] - conn.values[eid]))
                for eid in graph.edges)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# orbit representatives

_ATOL = spectra.CLUSTER_ATOL
_ATOL_UP = np.nextafter(_ATOL, 1.0)  # one ulp above the cluster gap
# differences among these anchors are exact: ties, gaps of exactly CLUSTER_ATOL, one ulp above
_ANCHORS = [0.0, _ATOL, _ATOL_UP, -_ATOL, -_ATOL_UP, 2 * _ATOL]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(_ANCHORS) | st.floats(-4 * _ATOL, 4 * _ATOL),
                       min_size=1, max_size=10))
def test_split_clusters_matches_the_loop_oracle(values):
    values = np.array(values)
    got = [g.tolist() for g in spectra._split_clusters(values)]
    assert got == [[int(i) for i in g] for g in split_clusters_loop(values, _ATOL)]


def test_split_clusters_joins_at_the_gap_and_splits_one_ulp_above():
    assert len(spectra._split_clusters(np.array([_ATOL, 0.0, 0.0]))) == 1
    assert [g.tolist() for g in spectra._split_clusters(np.array([_ATOL_UP, 0.0, 0.0]))] == \
        [[1, 2], [0]]


@pytest.mark.parametrize("desc", [SU2, SU3, U2], ids=["su2", "su3", "u2"])
def test_orbit_representative_conjugation_invariant(desc, rng=None):
    rng = np.random.default_rng(17)
    stack = [mg.GroupElement(desc, m) for m in mg.haar_batch(desc, 3, rng)]
    rep = orbit_representative(desc, stack)
    for _ in range(4):
        u = mg.haar_batch(desc, 1, rng)[0]
        moved = [mg.GroupElement(desc, u.conj().T @ s.matrix @ u) for s in stack]
        rep2 = orbit_representative(desc, moved)
        worst = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(rep, rep2))
        assert worst <= 1e-8


def test_orbit_representative_stays_in_orbit():
    rng = np.random.default_rng(23)
    stack = mg.haar_batch(SU3, 3, rng)
    rep = orbit_representative(SU3, [mg.GroupElement(SU3, m) for m in stack])
    u, residual = mg.find_conjugator(list(stack), [r.matrix for r in rep])
    assert residual <= 1e-9
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12


def test_orbit_representative_grid_oracle():
    # coarse grid search should already get close to conjugating the
    # original stack onto its representative
    rng = np.random.default_rng(29)
    stack = mg.haar_batch(SU2, 2, rng)
    rep = orbit_representative(SU2, [mg.GroupElement(SU2, m) for m in stack])
    _, residual = brute_force_conjugator(list(stack), [r.matrix for r in rep],
                                         su2_grid(14, 14))
    assert residual <= 0.35


def test_orbit_representative_quaternion_normal_form():
    rep = orbit_representative(SU2, [mg.GroupElement(SU2, m) for m in (QI, QJ, QK)])
    expect = [np.array([[-1j, 0], [0, 1j]]), QJ, -QK]
    for got, want in zip(rep, expect):
        assert np.max(np.abs(got.matrix - want)) <= 1e-12


def test_orbit_representative_degenerate_spectrum():
    # first generator has a repeated eigenvalue; the second splits the block
    a1 = np.diag([np.exp(0.5j), np.exp(0.5j), np.exp(-1.0j)])
    rng = np.random.default_rng(31)
    a2 = mg.haar_batch(SU3, 1, rng)[0]
    a2 = a2 / np.linalg.det(a2) ** (1 / 3)
    stack = [mg.GroupElement(SU3, a1), mg.GroupElement(SU3, a2)]
    rep = orbit_representative(SU3, stack)
    off = rep[0].matrix - np.diag(np.diagonal(rep[0].matrix))
    assert np.max(np.abs(off)) <= 1e-8
    u = mg.haar_batch(SU3, 1, rng)[0]
    moved = [mg.GroupElement(SU3, u.conj().T @ s.matrix @ u) for s in stack]
    rep2 = orbit_representative(SU3, moved)
    worst = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(rep, rep2))
    assert worst <= 1e-8


def test_orbit_representative_reaches_an_index_from_below_the_diagonal():
    # the diagonal generator orders the frame as given; in the cyclic permutation the
    # first link to index 1 is entry (1, 0), below the diagonal, so phases also spread
    # from a known column to an unknown row
    a1 = np.diag(np.exp(1j * np.array([2.5, 1.2, 0.3])))
    a2 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    stack = [mg.GroupElement(U3, m) for m in (a1, a2)]
    rep = orbit_representative(U3, stack)
    rng = np.random.default_rng(43)
    for u in mg.haar_batch(U3, 4, rng):
        moved = [mg.GroupElement(U3, u.conj().T @ s.matrix @ u) for s in stack]
        rep2 = orbit_representative(U3, moved)
        assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(rep, rep2)) <= 1e-12


def test_orbit_representative_scalar_stack_fixed():
    stack = [mg.GroupElement(SU2, np.eye(2, dtype=complex)),
             mg.GroupElement(SU2, -np.eye(2, dtype=complex))]
    rep = orbit_representative(SU2, stack)
    assert np.array_equal(rep[0].matrix, np.eye(2, dtype=complex))
    assert np.array_equal(rep[1].matrix, -np.eye(2, dtype=complex))


def test_orbit_representative_torus_unchanged():
    rng = np.random.default_rng(37)
    stack = [mg.GroupElement(T2, m) for m in mg.haar_batch(T2, 3, rng)]
    rep = orbit_representative(T2, stack)
    for got, want in zip(rep, stack):
        assert np.array_equal(got.matrix, want.matrix)


def test_orbit_representative_product_blocks():
    rng = np.random.default_rng(41)
    stack = [mg.GroupElement(PROD, m) for m in mg.haar_batch(PROD, 2, rng)]
    rep = orbit_representative(PROD, stack)
    slices = mg.leaf_blocks(PROD)
    for k, s in enumerate(stack):
        parts = []
        for sl, factor in slices:
            sub = orbit_representative(factor, [t.matrix[sl, sl] for t in stack])
            parts.append(sub[k].matrix)
        assert np.max(np.abs(rep[k].matrix - block_diag(*parts))) <= 1e-12


def test_orbit_representative_quotient_invariance():
    rng = np.random.default_rng(43)
    base = [mg.quotient_project(U2_AS_QUOTIENT, block_diag(np.array([[np.exp(0.3j)]]), QI)),
            mg.quotient_project(U2_AS_QUOTIENT, block_diag(np.array([[np.exp(-0.8j)]]), QJ))]
    rep = orbit_representative(U2_AS_QUOTIENT, base)
    center = U2_AS_QUOTIENT.center_matrices()
    u = mg.haar_batch(PROD, 1, rng)[0]
    moved = [mg.quotient_project(U2_AS_QUOTIENT, center[k % 2] @ u.conj().T @ s.matrix @ u)
             for k, s in enumerate(base, start=1)]
    rep2 = orbit_representative(U2_AS_QUOTIENT, moved)
    worst = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(rep, rep2))
    assert worst <= 1e-8


W3 = np.exp(2j * np.pi / 3)
LIFT_QUOTIENTS = {  # each with the largest entrywise difference a lift may show from the matmul
    "[I,-I]": (U1_SU2_MOD_Z2, 0.0),
    "[-I,I]": (mg.central_quotient(U1_SU2_MOD_Z2.base, [-np.eye(3), np.eye(3)]), 0.0),
    "SU(3)/Z3": (mg.central_quotient(mg.ProductGroup((SU3,)), [W3 ** j * np.eye(3) for j in range(3)]),
                 1e-15),
    "T2xSU(2)/Z4": (mg.central_quotient(mg.ProductGroup((T2, SU2)),
                                        [np.linalg.matrix_power(np.diag([1j, -1, -1, -1]), j)
                                         for j in range(4)]), 1e-15),
}


@pytest.mark.parametrize("name", sorted(LIFT_QUOTIENTS))
def test_center_lifts_are_the_center_products_identity_first(name):
    # a lift scales rows by a diagonal of K: exactly center[z] @ m for K = {I, -I}, listed either way
    desc, atol = LIFT_QUOTIENTS[name]
    mats = mg.haar_batch(desc, 3, np.random.default_rng(46))
    ks = desc.center_matrices()
    one = next(j for j, k in enumerate(ks) if np.array_equal(k, np.eye(len(k))))
    lifts = list(spectra._center_lifts(desc, mats))
    assert [choice for choice, _ in lifts] == \
        list(itertools.product([*range(one, len(ks)), *range(one)], repeat=3))
    for choice, stack in lifts:
        want = np.array([ks[z] @ m for z, m in zip(choice, mats)])
        assert np.array_equal(stack, want) if atol == 0.0 else np.max(np.abs(stack - want)) <= atol


def test_orbit_representative_caps_center_lifts():
    # 2^13 lifts exceed the cap that closure's lift search also has
    desc = mg.central_quotient(mg.ProductGroup((mg.Unitary(1), SU2)), [np.eye(3), -np.eye(3)])
    stack = mg.haar_batch(desc, 13, np.random.default_rng(44))
    with pytest.raises(ValueError, match=r"too many center lifts: 2\^13 = 8192 > 4096"):
        orbit_representative(desc, stack)
    assert len(orbit_representative(desc, stack[:3])) == 3


def test_orbit_representative_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        orbit_representative(SU2, [])


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       conj_seed=st.integers(min_value=0, max_value=10**6))
def test_orbit_representative_property(seed, conj_seed):
    stack = mg.haar_batch(SU2, 2, np.random.default_rng(seed))
    u = mg.haar_batch(SU2, 1, np.random.default_rng(conj_seed))[0]
    rep = orbit_representative(SU2, [mg.GroupElement(SU2, m) for m in stack])
    rep2 = orbit_representative(
        SU2, [mg.GroupElement(SU2, u.conj().T @ m @ u) for m in stack])
    worst = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(rep, rep2))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# interpolation experiments

def test_default_windows_spider():
    graph = spider_graph(3)
    legs = [compose(edge_word(graph, 3 + k + 1), edge_word(graph, k + 1))
            for k in range(3)]
    assert default_windows(graph, legs) == [(5, 8), (5, 8), (5, 8)]


def test_default_windows_rejects_unit():
    graph = spider_graph(2)
    unit = compose(edge_word(graph, 1), inverse(edge_word(graph, 1)))
    with pytest.raises(ValueError, match="window"):
        default_windows(graph, [unit])


def test_approximation_experiment_report():
    graph = spider_graph(3)
    legs = [compose(edge_word(graph, 3 + k + 1), edge_word(graph, k + 1))
            for k in range(3)]
    errors = approximation_experiment(graph, legs, SU2, seed=11)
    assert type(errors) is tuple and len(errors) == 3
    assert all(type(e) is float for e in errors) and max(errors) <= 1e-6
    assert approximation_experiment(graph, legs, SU2, seed=11) == errors


def test_approximation_experiment_needs_one_window_per_word():
    graph = spider_graph(3)
    legs = [compose(edge_word(graph, 3 + k + 1), edge_word(graph, k + 1)) for k in range(3)]
    with pytest.raises(ValueError, match="3 words but 2 windows"):
        approximation_experiment(graph, legs, SU2, seed=0, windows=[(5, 8), (5, 8)])


# ---------------------------------------------------------------------------
# the abelian obstruction

def test_commutator_word_shape():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    word = commutator_word(la, lb)
    assert word.is_loop() and word.source == graph.basepoint
    assert not word.is_unit()
    assert abelianize(word) == {}


def test_obstruction_witness_pentagon():
    graph = pentagon_chord_graph()
    wit = abelian_obstruction_witness(graph)
    assert abelianize(wit.word) == {}
    assert abs(wit.nonabelian_defect - 2.0 * np.sqrt(2.0)) <= 1e-12
    # the packaged connection really sends the witness word to minus one
    from holonomy_lab.connections import holonomy_general
    h = holonomy_general(wit.nonabelian_connection, wit.word)
    assert np.max(np.abs(h.matrix + np.eye(2))) <= 1e-12
    # any commuting edge assignment pins the word at the identity
    for seed in (0, 1, 2):
        conn = random_generalized_connection(graph, T2, seed=seed)
        assert wit.abelian_defect(conn) <= 1e-13


def test_obstruction_witness_smooth_abelian():
    graph = pentagon_chord_graph()
    wit = abelian_obstruction_witness(graph)
    conn = random_smooth_connection(T2, graph, n_terms=6, seed=5)
    assert wit.abelian_defect(restrict(conn, graph)) <= 1e-8


def test_obstruction_witness_needs_two_loops():
    with pytest.raises(ValueError, match="two independent loops"):
        abelian_obstruction_witness(square_graph())


def test_obstruction_witness_to_dict():
    # the witness's words and defect survive a JSON round trip as the
    # obstruction report writes them
    graph = pentagon_chord_graph()
    wit = abelian_obstruction_witness(graph)
    words = (wit.word, wit.loop_a, wit.loop_b)
    payload = json.loads(json.dumps(
        {"words": [word_to_tokens(w) for w in words],
         "nonabelian_defect": wit.nonabelian_defect}, sort_keys=True))
    assert payload["words"][0]
    assert [word_from_tokens(graph, t) for t in payload["words"]] == list(words)
    assert abelianize(word_from_tokens(graph, payload["words"][0])) == {}
    assert payload["nonabelian_defect"] == pytest.approx(2.0 * np.sqrt(2.0))


# ---------------------------------------------------------------------------
# closure membership

def torus_phase(theta):
    return mg.GroupElement(mg.Torus(1), np.array([[np.exp(1j * theta)]]))


def test_loop_assignment_validation():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    x, y = torus_phase(0.7), torus_phase(-0.4)
    with pytest.raises(ValueError, match="one value per loop"):
        LoopAssignment(graph, (la, lb), (x,))
    with pytest.raises(ValueError, match="empty loop family"):
        LoopAssignment(graph, (), ())
    with pytest.raises(ValueError, match="not a loop"):
        LoopAssignment(graph, (edge_word(graph, 1),), (x,))
    loop_at_v1 = compose(edge_word(graph, 1),
                         compose(commutator_word(la, lb), inverse(edge_word(graph, 1))))
    with pytest.raises(ValueError, match="basepoint"):
        LoopAssignment(graph, (la, loop_at_v1), (x, y))
    with pytest.raises(mg.DescriptorMismatchError):
        LoopAssignment(graph, (la, lb), (x, mg.identity(SU2)))


def test_closure_torus_commutator_violation():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)
    data = LoopAssignment(graph, (la, lb, comm),
                          (torus_phase(0.7), torus_phase(-0.4), torus_phase(np.pi)))
    verdict = closure_membership(data, bound=4)
    assert not verdict.member
    assert verdict.certified
    m = np.array(verdict.witness)
    # the witness is a genuine relation: zero total edge exponents,
    # nontrivial product of the prescribed values
    total = {}
    for mi, w in zip(m, (la, lb, comm)):
        for eid, c in abelianize(w).items():
            total[eid] = total.get(eid, 0) + mi * c
    assert all(c == 0 for c in total.values())
    assert m[0] == 0 and m[1] == 0 and m[2] % 2 != 0


def test_closure_torus_member_uncertified():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)
    data = LoopAssignment(graph, (la, lb, comm),
                          (torus_phase(0.7), torus_phase(-0.4), torus_phase(0.0)))
    verdict = closure_membership(data, bound=4)
    assert verdict.member and not verdict.certified
    assert "L1 norm" in verdict.detail


def test_closure_torus_free_family_certified():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    data = LoopAssignment(graph, (la, lb), (torus_phase(0.7), torus_phase(-0.4)))
    verdict = closure_membership(data, bound=4)
    assert verdict.member and verdict.certified
    assert verdict.checked == 0  # no zero-exponent vectors at all


def assert_relation_witness(loops, verdict):
    """The witness is a family word in walk order that composes to the unit."""
    factors = [loops[i] if o == 1 else inverse(loops[i]) for i, o in verdict.witness]
    assert factors and compose_all(factors[::-1]).is_unit()
    assert json.loads(json.dumps(verdict.witness)) == [list(x) for x in verdict.witness]


def verdicts_at_bounds(data):
    """The verdict at bounds 0, 6 and 8, which SU(n) mode must not tell apart."""
    first, *rest = (closure_membership(data, bound=b) for b in (0, 6, 8))
    assert all(v == first for v in rest)
    return first


def test_closure_su_functoriality():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    prod_word = compose(lb, la)
    rng = np.random.default_rng(1)
    a, b = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 2, rng))
    ok = closure_membership(
        LoopAssignment(graph, (la, lb, prod_word), (a, b, mg.mul(b, a))), bound=4)
    # exponent rank 2 equals the rank of <la, lb>, so the member is proven
    assert ok.member and ok.certified
    bad = closure_membership(
        LoopAssignment(graph, (la, lb, prod_word), (a, b, mg.mul(a, b))), bound=4)
    assert not bad.member and bad.certified
    assert_relation_witness((la, lb, prod_word), bad)


def test_closure_su_independent_certified():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    rng = np.random.default_rng(2)
    a, b = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 2, rng))
    verdict = closure_membership(LoopAssignment(graph, (la, lb), (a, b)), bound=4)
    assert verdict.member and verdict.certified
    assert "independent" in verdict.detail


def test_closure_su_unsearched_relation_is_not_certified():
    # (ab)^4 factors through a and b only with eight factors, which a bound-6
    # factor search never reached; the fold finds the relation at every bound
    graph = bouquet_graph()
    a, b = edge_word(graph, 1), edge_word(graph, 2)
    values = tuple(mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 3, np.random.default_rng(0)))
    loops = (a, b, power(compose(a, b), 4))
    verdict = verdicts_at_bounds(LoopAssignment(graph, loops, values))
    assert not verdict.member and verdict.certified
    assert_relation_witness(loops, verdict)
    # the old expectation, against the bounded search that now is an oracle
    assert depends_on(graph, loops[2], loops[:2], bound=6) is None
    assert depends_on(graph, loops[2], loops[:2], bound=8) == [(0, 1), (1, 1)] * 4


def test_closure_names_the_first_broken_relation_by_its_number():
    # loops a, a, b, b, a obey three relations; the b's disagree, so only the second breaks
    graph = bouquet_graph()
    a, b = edge_word(graph, 1), edge_word(graph, 2)
    loops = (a, a, b, b, a)
    x, y, z = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 3, np.random.default_rng(8)))
    relations, _ = loop_relations(graph, loops)
    assert len(relations) == 3
    verdict = closure_membership(LoopAssignment(graph, loops, (x, x, y, z, x)))
    assert not verdict.member and verdict.certified
    stack = np.array([v.matrix for v in (x, x, y, z, x)])
    assert (verdict.witness, verdict.checked) == first_broken_relation(stack, relations, 1e-8)
    assert verdict.witness == relations[1] and type(verdict.checked) is int and verdict.checked == 2


def test_closure_unitary_determinant_check():
    # the lone commutator obeys no relation but has exponent rank 0 < 1, so
    # functoriality certifies nothing and only the determinant search can
    # reject: its determinant must be one
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)
    bad_det = mg.GroupElement(U2, np.diag([np.exp(0.5j), 1.0 + 0j]))
    verdict = closure_membership(LoopAssignment(graph, (comm,), (bad_det,)), bound=3)
    assert not verdict.member and verdict.certified
    assert "determinant" in verdict.detail
    assert verdict.witness[0] != 0
    good_det = mg.GroupElement(U2, np.diag([np.exp(0.5j), np.exp(-0.5j)]))
    loose = closure_membership(LoopAssignment(graph, (comm,), (good_det,)), bound=3)
    assert loose.member and not loose.certified


def test_closure_su_family_with_long_relation_is_certified_at_every_bound():
    graph = bouquet_graph()
    a, b = edge_word(graph, 1), edge_word(graph, 2)
    loops = (a, b, power(compose(a, b), 4))
    x, y = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 2, np.random.default_rng(6)))
    bad = verdicts_at_bounds(LoopAssignment(graph, loops, (x, y, x)))
    assert not bad.member and bad.certified
    assert_relation_witness(loops, bad)
    xy = mg.mul(x, y)
    good = verdicts_at_bounds(LoopAssignment(graph, loops, (x, y, mg.mul(mg.mul(xy, xy), mg.mul(xy, xy)))))
    assert good.member and good.certified


def test_closure_su_powers_of_one_loop_must_agree():
    # {a^2, a^3} has no member in the subgroup of the other, yet forces v1^3 = v2^2
    graph = bouquet_graph()
    a = edge_word(graph, 1)
    loops = (power(a, 2), power(a, 3))
    v1, v2 = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 2, np.random.default_rng(7)))
    assert float(mg.distance(mg.mul(v1, mg.mul(v1, v1)), mg.mul(v2, v2))) > 1e-3
    bad = verdicts_at_bounds(LoopAssignment(graph, loops, (v1, v2)))
    assert not bad.member and bad.certified
    assert_relation_witness(loops, bad)
    good = verdicts_at_bounds(LoopAssignment(graph, loops, (mg.mul(v1, v1), mg.mul(v1, mg.mul(v1, v1)))))
    assert good.member and good.certified


def test_closure_su_lone_commutator_is_an_uncertified_member():
    # {[a, b]} obeys no relation, but no relation is no proof: its exponent
    # rank 0 is below the rank 1 of the subgroup it generates
    graph = bouquet_graph()
    a, b = edge_word(graph, 1), edge_word(graph, 2)
    value = mg.GroupElement(SU2, mg.haar_batch(SU2, 1, np.random.default_rng(8))[0])
    verdict = verdicts_at_bounds(LoopAssignment(graph, (commutator_word(a, b),), (value,)))
    assert verdict.member and not verdict.certified
    assert verdict.checked == 0


@pytest.mark.parametrize("desc", ALL_KINDS, ids=lambda d: type(d).__name__ + str(mg.dim(d)))
def test_closure_edge_assignment_always_member(desc):
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, desc, seed=8)
    verdict = closure_membership(conn)
    assert verdict.member and verdict.certified


def test_closure_product_names_failing_factor():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)

    def prod_elem(theta, s):
        return mg.GroupElement(PROD, block_diag(np.array([[np.exp(1j * theta)]]), s))

    data = LoopAssignment(graph, (la, lb, comm),
                          (prod_elem(0.3, QI), prod_elem(0.9, QJ),
                           prod_elem(np.pi, np.eye(2, dtype=complex))))
    verdict = closure_membership(data, bound=4)
    assert not verdict.member
    assert verdict.witness[0] == 0  # torus factor rejects
    assert "factor 0" in verdict.detail


def test_closure_product_unitary_leaf_reaches_determinant_search():
    # the lone commutator leaves every leaf uncertified, so the U(2) leaf's
    # determinant search is the only thing that can reject
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = (commutator_word(la, lb),)
    desc = mg.ProductGroup((mg.Torus(1), U2))

    def value(det_phase):
        return (mg.GroupElement(desc, np.diag([1.0, np.exp(0.5j), np.exp(1j * (det_phase - 0.5))])),)

    bad = closure_membership(LoopAssignment(graph, comm, value(0.5)), bound=3)
    assert not bad.member and bad.certified
    assert bad.witness == (1, -3)
    assert bad.detail == "factor 1: zero-exponent word with nontrivial determinant"
    loose = closure_membership(LoopAssignment(graph, comm, value(0.0)), bound=3)
    assert loose.member and not loose.certified
    assert loose.detail.endswith("factor 1: the loops obey no relation, so they are independent; "
                                 "exponent rank 0 < subgroup rank 1; "
                                 "no violation among exponent vectors with L1 norm <= 3")


def test_closure_quotient_unitary_leaves_reach_determinant_search():
    # (U(1) x U(2)) / {+-I}: the canonical representative has -1 in the U(1)
    # leaf, so the identity lift already fails there on its determinant
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = (commutator_word(la, lb),)
    quo = mg.central_quotient(mg.ProductGroup((mg.Unitary(1), U2)), [np.eye(3), -np.eye(3)])

    def value(det_phase):
        m = np.diag([1.0, np.exp(0.5j), np.exp(1j * (det_phase - 0.5))])
        return (mg.quotient_project(quo, m),)

    assert value(0.0)[0].matrix[0, 0].real < 0
    bad = closure_membership(LoopAssignment(graph, comm, value(0.5)), bound=3)
    assert bad == ClosureVerdict(False, True, (0, -3), "no center lift works; identity lift: "
                                 "factor 0: zero-exponent word with nontrivial determinant", 8)
    loose = closure_membership(LoopAssignment(graph, comm, value(0.0)), bound=3)
    assert loose.member and not loose.certified and loose.witness == (1,)
    assert loose.detail.startswith("lift (1,) works: factor 0: ")


def test_closure_quotient_judges_the_identity_lift_first_however_the_center_is_listed():
    # R breaks a relation in the SU(2) leaf, so every lift fails; the failure reported is the
    # identity lift's, whichever index of K holds the identity
    graph = pentagon_chord_graph()
    a, b = pentagon_generators(graph)
    loops = (a, b, compose(b, a), compose(a, b), compose(a, a))
    base = mg.ProductGroup((mg.Unitary(1), SU2))
    A, B = mg.haar_batch(base, 2, np.random.default_rng(3))
    R = np.diag([1.0, np.exp(0.3j), np.exp(-0.3j)])
    values = (A, B, -B @ A, A @ B, A @ A @ R)
    reports = []
    for center in ([np.eye(3), -np.eye(3)], [-np.eye(3), np.eye(3)]):
        quo = mg.central_quotient(base, center)
        data = LoopAssignment(graph, loops, tuple(mg.GroupElement(quo, m) for m in values))
        reports.append(closure_membership(data, bound=4))
    assert reports[0] == reports[1]
    assert reports[0].witness == (0, (2, 1), (1, -1), (0, -1))
    assert reports[0].detail == ("no center lift works; identity lift: "
                                    "factor 0: loop values violate a relation among the loops")


@pytest.mark.parametrize("break_su2", [False, True], ids=["member", "su2-violated"])
def test_closure_nested_product_reads_as_flat(break_su2):
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    loops = (la, lb, commutator_word(la, lb))
    flat = mg.ProductGroup((mg.Torus(1), SU2, U2))
    nested = mg.ProductGroup((mg.ProductGroup((mg.Torus(1), SU2)), U2))
    mats = holonomies(random_generalized_connection(graph, flat, seed=12), loops)
    if break_su2:
        mats[2, 1:3, 1:3] = QI
    verdicts = [closure_membership(LoopAssignment(graph, loops, tuple(
        mg.GroupElement(desc, m) for m in mats)), bound=3) for desc in (flat, nested)]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].member is not break_su2
    if break_su2:
        assert verdicts[0].witness[0] == 1
        assert verdicts[0].detail == "factor 1: loop values violate a relation among the loops"


def test_closure_quotient_lift_search_succeeds():
    # in the quotient, class (1, -1) of the torus-times-SU(2) product has
    # canonical representative (-1, 1); only the shifted lift satisfies
    # both factor relations, so membership needs the search over lifts
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)
    quo = U2_AS_QUOTIENT

    def quo_elem(theta, s):
        return mg.quotient_project(quo, block_diag(np.array([[np.exp(1j * theta)]]), s))

    values = (quo_elem(0.0, QI), quo_elem(0.0, QJ),
              quo_elem(0.0, -np.eye(2, dtype=complex)))
    rep = values[2].matrix
    assert np.max(np.abs(rep - np.diag([-1.0, 1.0, 1.0]))) <= 1e-12
    verdict = closure_membership(LoopAssignment(graph, (la, lb, comm), values), bound=4)
    assert verdict.member
    assert any(verdict.witness)  # a nontrivial lift did the job
    assert "lift" in verdict.detail


def test_closure_quotient_rejects_unliftable():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    comm = commutator_word(la, lb)
    quo = U2_AS_QUOTIENT

    def quo_elem(theta, s):
        return mg.quotient_project(quo, block_diag(np.array([[np.exp(1j * theta)]]), s))

    values = (quo_elem(0.0, QI), quo_elem(0.0, QJ),
              quo_elem(0.5, -np.eye(2, dtype=complex)))
    verdict = closure_membership(LoopAssignment(graph, (la, lb, comm), values), bound=4)
    assert not verdict.member
    assert "no center lift" in verdict.detail


def test_closure_rejects_negative_bound_in_every_mode():
    # the torus search used to treat bound -1 as "searched nothing" and
    # answer member, where the SU(n) search raised
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    rng = np.random.default_rng(4)
    families = [LoopAssignment(graph, (la, lb, compose(lb, la)),
                               tuple(mg.GroupElement(desc, m) for m in mg.haar_batch(desc, 3, rng)))
                for desc in (T2, SU2, U2, PROD, U2_AS_QUOTIENT)]
    for data in families + [random_generalized_connection(graph, SU2, seed=9)]:
        with pytest.raises(ValueError, match="bound must be >= 0"):
            closure_membership(data, bound=-1)


def test_closure_rejects_unknown_input():
    with pytest.raises(TypeError, match="closure membership"):
        closure_membership({"loops": []})


def test_loop_assignment_json_roundtrip():
    graph = pentagon_chord_graph()
    la, lb = pentagon_generators(graph)
    rng = np.random.default_rng(5)
    a, b = (mg.GroupElement(SU2, m) for m in mg.haar_batch(SU2, 2, rng))
    data = LoopAssignment(graph, (la, lb), (a, b))
    payload = json.loads(json.dumps(loop_assignment_to_dict(data), sort_keys=True))
    back = loop_assignment_from_dict(graph, payload)
    assert back.loops == data.loops
    for u, v in zip(back.values, data.values):
        assert float(mg.distance(u, v)) <= 1e-12
