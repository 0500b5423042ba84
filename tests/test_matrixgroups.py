from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holonomy_lab.matrixgroups as mg
from holonomy_lab.matrixgroups import (
    DescriptorMismatchError,
    GroupElement,
    LieAlgebraElement,
    MembershipError,
    ProductGroup,
    SpecialUnitary,
    Torus,
    Unitary,
    algebra_descriptor,
    canonicalize_batch,
    central_quotient,
    descriptor_from_dict,
    descriptor_to_dict,
    dim,
    distance,
    exp_antihermitian,
    exp_map,
    find_conjugator,
    haar_batch,
    identity,
    inv,
    leaf_blocks,
    log_map,
    matrix_from_pairs,
    matrix_to_pairs,
    mul,
    quotient_project,
    random_algebra,
    reunitarize,
    validate_algebra,
    validate_matrix,
)
from holonomy_lab.connections import GeneralizedConnection
from holonomy_lab.pathgroupoid import Graph
from instruments import haar_sample
from oracles import (
    admit_one,
    canonicalize_batch_matmul,
    exp_eigh,
    exp_map_leafwise,
    haar_batch_rows,
    haar_leaf_qr,
    log_block_one,
    log_schur,
    polar_scipy,
    repair_one,
    su2_haar_mean,
    unitarity_defect_one,
)

SU2 = SpecialUnitary(2)
SU3 = SpecialUnitary(3)
U2 = Unitary(2)
U3 = Unitary(3)
U4 = Unitary(4)
T1 = Torus(1)
T2 = Torus(2)
PROD = ProductGroup((T1, SU2))
U2_AS_QUOTIENT = central_quotient(PROD, [np.eye(3), -np.eye(3)])

ALL_KINDS = [U2, SU2, SU3, T2, PROD, U2_AS_QUOTIENT]


def haar(desc, seed):
    return haar_sample(desc, seed)


# --- descriptors -------------------------------------------------------------

def test_dims():
    assert dim(U2) == 2 and dim(SU3) == 3 and dim(T2) == 2
    assert dim(PROD) == 3 and dim(U2_AS_QUOTIENT) == 3


def test_central_quotient_validation():
    with pytest.raises(MembershipError):
        central_quotient(PROD, [np.eye(3)[::-1]])  # permutation: not central, not closed
    with pytest.raises(MembershipError):
        central_quotient(PROD, [-np.eye(3)])  # missing identity
    bad = np.diag([1.0, 1.0, -1.0])  # not scalar on the SU(2) block
    with pytest.raises(MembershipError):
        central_quotient(PROD, [np.eye(3), bad])
    quarter = np.diag([1j, 1.0, 1.0])  # central: a phase on the torus block
    with pytest.raises(MembershipError, match="inverse"):
        central_quotient(PROD, [np.eye(3), quarter])
    with pytest.raises(MembershipError, match="product"):  # quarter @ quarter is missing
        central_quotient(PROD, [np.eye(3), quarter, quarter.conj()])
    with pytest.raises(TypeError, match="must be a ProductGroup"):  # a leaf is no product
        central_quotient(SU2, [np.eye(2), -np.eye(2)])
    # one absolute 1e-9, no relative tolerance: a phase of 3e-6 is no element of K, nor scalar
    with pytest.raises(MembershipError, match="not closed"):
        central_quotient(ProductGroup((Unitary(1), SU2)), [np.eye(3), np.diag([np.exp(3e-6j), 1, 1])])
    with pytest.raises(MembershipError, match="not scalar on a U/SU factor"):
        central_quotient(ProductGroup((Unitary(1), U2)), [np.eye(3), np.diag([1, np.exp(5e-6j), 1])])
    # a group of order 3 off the diagonal by 5e-9, which admit lets through on a torus (1e-8)
    w = np.exp(2j * np.pi / 3)
    m = np.diag([w, w * w]) @ scipy.linalg.expm(5e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(MembershipError, match="not diagonal"):
        central_quotient(ProductGroup((T2,)), [np.eye(2), m, m @ m])


def test_descriptors_are_validated_where_built():
    for bad in (0, -1, 1.5, True, "2"):
        for kind in (Unitary, SpecialUnitary, Torus):
            with pytest.raises(ValueError):
                kind(bad)
    with pytest.raises(ValueError):
        ProductGroup(())
    with pytest.raises(ValueError):  # quotients sit at the top level only
        ProductGroup((U2_AS_QUOTIENT, T1))
    with pytest.raises(ValueError):
        descriptor_from_dict({"kind": "SU", "n": 0})


def test_central_quotient_sees_nested_factors():
    # diag(i, -i) is not scalar on the SU(2) block, however deep that block sits
    base = ProductGroup((ProductGroup((SU2,)), T1))
    gen = np.diag([1j, -1j, 1.0])
    with pytest.raises(MembershipError):
        central_quotient(base, [np.linalg.matrix_power(gen, k) for k in range(4)])


def test_leaf_blocks_flatten_products_and_look_through_quotients():
    desc = ProductGroup((ProductGroup((T1, SU2)), U2))
    assert leaf_blocks(desc) == [(slice(0, 1), T1), (slice(1, 3), SU2), (slice(3, 5), U2)]
    assert leaf_blocks(U2_AS_QUOTIENT) == leaf_blocks(PROD)
    assert leaf_blocks(SU3) == [(slice(0, 3), SU3)]
    with pytest.raises(TypeError, match="not a group descriptor"):
        leaf_blocks("SU2")


def test_descriptor_dict_roundtrip():
    for desc in ALL_KINDS:
        assert descriptor_from_dict(descriptor_to_dict(desc)) == desc


def test_descriptor_documents_are_checked():
    doc = descriptor_to_dict(U2_AS_QUOTIENT)
    del doc["K"]
    with pytest.raises(ValueError, match="'K'"):
        descriptor_from_dict(doc)
    for kind in ("u", ["U"], None, "Torus"):
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            descriptor_from_dict({"kind": kind, "n": 2})
    with pytest.raises(TypeError):
        descriptor_to_dict("SU2")


def test_matrix_pairs_roundtrip():
    m = haar(SU3, 5).matrix
    assert np.allclose(matrix_from_pairs(matrix_to_pairs(m)), m)


# --- stacks of small matrices -------------------------------------------------

def _random_stack(rng, shape, dtype):
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if dtype is complex else out


def _broadcast_norms(x):
    return np.linalg.norm(x, axis=(-2, -1))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), batch=st.sampled_from([0, 1, 15, 16, 17, 300]),
       dtypes=st.sampled_from([(float, float), (complex, complex), (float, complex),
                               (complex, float)]),
       data=st.data())
def test_stack_mul_matches_matmul(n, batch, dtypes, data):
    # (k, n, n) x (N, k, n, n) and the other way round, on both sides of the 16-matrix crossover
    k = data.draw(st.sampled_from([d for d in range(1, max(batch, 1) + 1) if batch % d == 0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    shapes = [(k, n, n), (batch // k, k, n, n)]
    if data.draw(st.booleans()):
        shapes.reverse()
    a, b = (_random_stack(rng, sh, dt) for sh, dt in zip(shapes, dtypes))
    got, want = mg.stack_mul(a, b), np.matmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(_broadcast_norms(got - want) <= 1e-13 * _broadcast_norms(a) * _broadcast_norms(b))
    # the same operands as views over entry-major memory (the first axis last): the same bits
    entry_major = [data.draw(st.booleans()) for _ in range(2)]
    a, b = (np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0) if em else x
            for x, em in zip((a, b), entry_major))
    assert mg.stack_mul(a, b).tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stack_det_matches_numpy(n, dtype):
    rng = np.random.default_rng(n)
    for shape in [(n, n), (0, n, n), (7, n, n), (4, 5, n, n)]:
        a = _random_stack(rng, shape, dtype)
        got, want = mg.stack_det(a), np.linalg.det(a)
        assert got.shape == want.shape and got.dtype == want.dtype
        # Hadamard: |det a| is at most the product of its row norms
        assert np.all(np.abs(got - want) <= 1e-13 * np.prod(np.linalg.norm(a, axis=-1), axis=-1))


@pytest.mark.parametrize("desc", [SU2, SU3], ids=repr)
def test_su_draws_have_unit_determinant(desc):
    draws = haar_batch(desc, 5000, np.random.default_rng(41))
    assert np.max(np.abs(np.linalg.det(draws) - 1.0)) <= 1e-14


# --- membership --------------------------------------------------------------

def test_validate_rejects_nonunitary():
    with pytest.raises(MembershipError):
        validate_matrix(U2, np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


def test_validate_rejects_wrong_det():
    with pytest.raises(MembershipError):
        validate_matrix(SU2, np.diag([1j, 1j]))


def test_validate_rejects_offdiagonal_torus():
    with pytest.raises(MembershipError):
        validate_matrix(T2, np.array([[0, 1], [1, 0]], dtype=complex))


def test_validate_rejects_cross_block():
    m = np.eye(3, dtype=complex)
    m[0, 2] = 0.5
    m = reunitarize(m)
    with pytest.raises(MembershipError):
        validate_matrix(PROD, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("desc", [SU2, T2, PROD])
def test_non_finite_entries_are_not_members(desc, bad):
    # every comparison with NaN is False, so the tolerance checks alone pass it
    g = identity(desc).matrix.copy()
    g[0, 0] = bad
    x = np.zeros_like(g)
    x[0, 0] = bad
    with pytest.raises(MembershipError, match="non-finite"):
        GroupElement(desc, g)
    with pytest.raises(MembershipError, match="non-finite"):
        LieAlgebraElement(desc, x)


def test_reunitarize_idempotent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = reunitarize(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12
    assert np.allclose(reunitarize(u), u, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reunitarize_matches_scipy_polar(n):
    rng = np.random.default_rng(n)
    for k in range(40):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if k % 2:  # near-unitary, as drift repair sees it
            m = haar_sample(Unitary(n), k).matrix + 1e-9 * m
        assert np.max(np.abs(reunitarize(m) - polar_scipy(m))) <= 1e-15


# --- group laws --------------------------------------------------------------

@pytest.mark.parametrize("desc", ALL_KINDS)
def test_identity_and_inverse(desc):
    g = haar(desc, 11)
    e = identity(desc)
    assert distance(mul(g, e), g) < 1e-12
    assert distance(mul(e, g), g) < 1e-12
    assert distance(mul(g, inv(g)), e) < 1e-12
    assert distance(mul(inv(g), g), e) < 1e-12


@pytest.mark.parametrize("desc", ALL_KINDS)
def test_associativity(desc):
    a, b, c = (haar(desc, s) for s in (1, 2, 3))
    assert distance(mul(mul(a, b), c), mul(a, mul(b, c))) < 1e-12


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatchError):
        mul(haar(SU2, 0), haar(U2, 0))


def test_unitarity_survives_long_products():
    g = identity(SU3)
    for s in range(1000):
        g = mul(g, haar(SU3, s % 17))
    defect = np.linalg.norm(g.matrix.conj().T @ g.matrix - np.eye(3))
    assert defect < 1e-8


# --- exponential and logarithm -------------------------------------------------

def taylor_exp(X, terms=30):
    out = np.eye(X.shape[0], dtype=complex)
    term = np.eye(X.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


@pytest.mark.parametrize("desc", [U2, SU2, SU3, T2, PROD])
def test_exp_matches_taylor_oracle(desc):
    rng = np.random.default_rng(7)
    X = random_algebra(desc, rng, scale=0.4)
    got = exp_map(X).matrix
    assert np.linalg.norm(got - taylor_exp(X.matrix)) < 1e-12


@pytest.mark.parametrize("desc", [PROD, T2])
def test_exp_map_matches_expm_blockwise(desc):
    X = random_algebra(desc, np.random.default_rng(4), scale=0.8)
    got = exp_map(X).matrix
    assert np.linalg.norm(got - scipy.linalg.expm(X.matrix)) < 1e-13
    # entries off the blocks and off the torus diagonal are zero in X, and exactly zero in exp(X)
    assert np.all(got[X.matrix == 0] == 0)


EXP_KINDS = [PROD, T2, ProductGroup((T1, SU2, U2)), ProductGroup((SU2, SU2)),
             ProductGroup((T2, SU3)), ProductGroup((Unitary(1), SU2, T2, U3)), Torus(3), U3,
             U2_AS_QUOTIENT,
             central_quotient(ProductGroup((SU2, SU2)), [np.eye(4), -np.eye(4)])]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXP_KINDS), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 0.3, 1.0, 4.0, 600.0]))
def test_exp_map_matches_leafwise_oracle(desc, seed, scale):
    # the whole block-diagonal matrix in one call: exactly zero off the blocks and off
    # the torus diagonals, each block as one eigh per block to roundoff; a quotient
    # wraps the same matrix
    X = random_algebra(desc, np.random.default_rng(seed), scale=scale)
    X = LieAlgebraElement(desc, X.matrix)
    got, want = exp_map(X).matrix, exp_map_leafwise(X).matrix
    inside = np.zeros(got.shape, dtype=bool)
    for sl, leaf in leaf_blocks(desc):
        inside[sl, sl] = np.eye(leaf.n, dtype=bool) if isinstance(leaf, Torus) else True
    assert np.all(got[~inside] == 0)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.linalg.norm(X.matrix))


EXP_SPECTRA = [None, (1.0, 1.0, -2.0), (0.0, 0.0, 0.0)]  # generic, a double pair, scalar


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from(EXP_SPECTRA),
       st.sampled_from([1e-300, 1e-160, 1e-9, 1e-3, 0.3, 1.0, 5.0, 14.0, 100.0, 600.0]),
       st.sampled_from([0.0, 1e-9, -0.7, 3.0, 600.0]))
@example(3, 0, (1.0, 1.0, -2.0), 1.0, 0.0)  # diag(1, 1, -2)
@example(3, 0, (0.0, 0.0, 0.0), 1.0, 0.0)   # zero
@example(3, 0, (1.0, -1.0, 0.0), 1e-9, 0.0)  # +-1e-9
def test_exp_antihermitian_matches_eigh_oracle(n, seed, spectrum, norm, trace):
    # u(n): a traceless part Q of Frobenius norm ``norm`` (unless scalar) in a Haar frame,
    # plus ``trace`` on the diagonal; no floating-point warning, even where Q² underflows
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n) if spectrum is None else np.array(spectrum[:n])
    lam = lam - lam.mean()
    if np.linalg.norm(lam) > 1e-12:
        lam *= norm / np.linalg.norm(lam)
    v = haar_sample(Unitary(n), seed).matrix
    X = 1j * (v * (lam + trace)) @ v.conj().T
    X = 0.5 * (X - X.conj().T)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = exp_antihermitian(X)
    assert np.max(np.abs(got - exp_eigh(X))) <= 1e-14 * max(1.0, np.linalg.norm(X))
    assert np.max(np.abs(got.conj().T @ got - np.eye(n))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_antihermitian_of_a_large_stack_is_each_slice_bitwise(n):
    # 19 x 1024 matrices: past 256 KiB numpy reuses temporaries in place and may swap the
    # operands of a product, which with FMA is not bitwise commutative for complex numbers
    rng = np.random.default_rng(56)
    X = rng.normal(size=(19, 1024, n, n)) + 1j * rng.normal(size=(19, 1024, n, n))
    X = 0.5 * (X - np.conj(np.swapaxes(X, -1, -2)))
    got = exp_antihermitian(X)
    for g, x in zip(got, X):
        assert np.array_equal(g, exp_antihermitian(x))


@pytest.mark.parametrize("desc", [U2, SU2, SU3, T2, PROD, U2_AS_QUOTIENT])
def test_exp_log_roundtrip_on_haar(desc, seed=3):
    g = haar(desc, seed)
    back = exp_map(log_map(g))
    assert distance(back, g) < 1e-10


@pytest.mark.parametrize("desc", [U2, SU2, SU3, T2, PROD])
def test_log_exp_roundtrip_small(desc):
    rng = np.random.default_rng(9)
    X = random_algebra(desc, rng, scale=0.3)
    back = log_map(exp_map(X))
    assert np.linalg.norm(back.matrix - X.matrix) < 1e-10


def test_log_su_traceless_even_across_branch_rebalance():
    g = GroupElement(SU3, np.diag(np.exp(1j * np.array([2.5, 2.5, -5.0]))))
    X = log_map(g)
    assert abs(np.trace(X.matrix)) < 1e-12
    assert distance(exp_map(X), g) < 1e-12


LOG_LEAVES = [Unitary(1), U2, U3, SU2, SU3, SpecialUnitary(4), T2]
# -1, a cube root of unity (scalar in SU(3)), and 2.5 twice with -5: principal angles
# summing to 2 pi, so SU(3) moves one whole turn off one of a tied pair
SPECIAL_ANGLES = [np.pi, -np.pi, 0.0, 2.0 * np.pi / 3, 2.5, -2.5]


@st.composite
def log_stacks(draw):
    """A leaf and a stack of its blocks: Haar draws, I and -I where they belong, and
    chosen spectra in Haar frames, with eigenvalues at -1, degenerate pairs and SU
    angles whose principal values sum to whole turns."""
    leaf = draw(st.sampled_from(LOG_LEAVES))
    n = leaf.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [*haar_batch(leaf, draw(st.integers(0, 4)), rng), np.eye(n)]
    if not isinstance(leaf, SpecialUnitary) or n % 2 == 0:
        mats.append(-np.eye(n))
    angle = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-np.pi, np.pi))
    for _ in range(draw(st.integers(0, 4))):
        theta = np.array(draw(st.lists(angle, min_size=n, max_size=n)))
        if n > 1 and draw(st.booleans()):
            theta[1] = theta[0]  # a degenerate pair
        if isinstance(leaf, SpecialUnitary):
            theta[-1] = -theta[:-1].sum()
        q = np.eye(n) if isinstance(leaf, Torus) else haar_batch(Unitary(n), 1, rng)[0]
        mats.append((q * np.exp(1j * theta)) @ q.conj().T)
    return leaf, np.array(mats, dtype=complex)


@settings(max_examples=150, deadline=None)
@given(log_stacks())
def test_stacked_log_matches_per_matrix_oracle_bitwise(case):
    leaf, stack = case
    want = np.array([log_block_one(leaf, m) for m in stack])
    assert mg._log_block(leaf, stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("desc, angles", [
    (SU3, [[2.5, 2.5, -5.0], [-2.5, -2.5, 5.0], [2.2, 2.4, -4.6], [-2.2, -2.4, 4.6]]),
    (SpecialUnitary(4), [[2.5, 2.5, 2.5, -7.5], [-2.0, -2.5, -3.0, 7.5], [3.0, 3.0, -3.0, -3.0]]),
], ids=["su3", "su4"])
def test_stacked_log_moves_whole_turns_like_the_oracle(desc, angles):
    # principal angles summing to +-2 pi: k = +-1 whole turns move, on a tied pair too
    theta = np.array(angles)
    k = np.round(np.angle(np.exp(1j * theta)).sum(axis=1) / (2.0 * np.pi))
    assert {1.0, -1.0} <= set(k)
    q = haar_batch(Unitary(desc.n), len(theta), np.random.default_rng(8))
    stack = np.concatenate([np.exp(1j * theta)[:, None, :] * np.eye(desc.n),
                            (q * np.exp(1j * theta)[:, None, :]) @ np.conj(q).swapaxes(1, 2)])
    want = np.array([log_block_one(desc, m) for m in stack])
    assert mg._log_block(desc, stack).tobytes() == want.tobytes()
    assert np.abs(np.trace(want, axis1=1, axis2=2)).max() < 1e-12


LOG_KINDS = [SU2, SU3, U3, U4, PROD, U2_AS_QUOTIENT]
FRAMES = [0.0, 0.41, 2.19]  # where the oracle measures eigen-angles from


def schur_log(g, frame):
    X = np.zeros_like(g.matrix)
    for sl, leaf in leaf_blocks(g.descriptor):
        X[sl, sl] = log_schur(leaf, g.matrix[sl, sl], frame)
    return 0.5 * (X - X.conj().T)


def log_condition(X, desc):
    """Largest divided difference |a - b| / |e^{ia} - e^{ib}| of the log over
    eigen-angle pairs within a leaf: the log's sensitivity to its argument."""
    kappa = 1.0
    for sl, _ in leaf_blocks(desc):
        a = np.linalg.eigvalsh(-1j * X[sl, sl])
        for i in range(len(a)):
            for j in range(i):
                chord = abs(np.exp(1j * a[i]) - np.exp(1j * a[j]))
                if chord > 0:
                    kappa = max(kappa, abs(a[i] - a[j]) / chord)
    return kappa


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("desc", LOG_KINDS)
def test_log_matches_schur_oracle_on_haar(desc, frame):
    for seed in range(40):
        g = haar(desc, seed)
        assert np.max(np.abs(log_map(g).matrix - schur_log(g, frame))) <= 1e-12


def near_cut_element(desc, delta, rng):
    """An element whose leaves each have an eigenvalue at angle ``pi - delta``,
    the others spread evenly, in Haar-random eigenbases.

    A quotient keeps this representative even where it is not the canonical
    one, which could move the spectrum away from the cut: the logarithm
    reads the leaves of whatever matrix it is given."""
    m = np.zeros((dim(desc), dim(desc)), dtype=complex)
    for sl, leaf in leaf_blocks(desc):
        n = leaf.n
        theta = np.pi - delta - 2.0 * np.pi * np.arange(n) / n
        if isinstance(leaf, SpecialUnitary):
            theta[-1] -= theta.sum()
        q = np.eye(n) if isinstance(leaf, Torus) else haar(Unitary(n), int(rng.integers(2**31))).matrix
        m[sl, sl] = (q * np.exp(1j * theta)) @ q.conj().T
    validate_matrix(desc, m)
    return GroupElement(desc, m, check=False)


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("desc", LOG_KINDS)
def test_log_matches_schur_oracle_near_the_cut(desc, frame, delta):
    # Two eigenvalues of a leaf on either side of the cut have log angles
    # nearly 2 pi apart across a short chord, and that ratio is the log's
    # condition number: ~pi/delta for an SU(2) leaf, whose conjugate
    # eigenvalue sits delta past the cut.  Two backward-stable logs agree
    # only to the condition number times roundoff.
    rng = np.random.default_rng(int(1e9 * delta) + int(100 * frame))
    for _ in range(8):
        g = near_cut_element(desc, delta, rng)
        X, ref = log_map(g).matrix, schur_log(g, frame)
        assert np.max(np.abs(X - ref)) <= 1e-12 * log_condition(ref, desc)
        assert np.max(np.abs(exp_antihermitian(X) - g.matrix)) <= 1e-13


DEGENERATE = [
    (SU3, np.full(3, 2.0 * np.pi / 3)),
    (SpecialUnitary(4), np.array([0.5, 0.5, -0.5, -0.5]) * np.pi),
    (U4, np.array([3.1, 3.1, -3.1, -3.1])),
    (U3, np.full(3, 2.0)),
]


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("desc,theta", DEGENERATE)
def test_log_of_degenerate_spectra(desc, theta, frame):
    # on tied angles the SU whole-turn rebalance may move a different
    # eigenvalue than the Schur oracle does, so compare the angles, not the
    # matrices, and check what any log must meet
    n = len(theta)
    q = haar(Unitary(n), 5).matrix
    g = GroupElement(desc, (q * np.exp(1j * theta)) @ q.conj().T)
    X = log_map(g)
    assert np.linalg.norm(exp_map(X).matrix - g.matrix) <= 1e-13
    angles = np.linalg.eigvalsh(-1j * X.matrix)
    assert np.allclose(angles, np.linalg.eigvalsh(-1j * schur_log(g, frame)), atol=1e-12)
    if isinstance(desc, SpecialUnitary):
        assert abs(np.trace(X.matrix)) < 1e-12
        assert angles[-1] - angles[0] <= 2.0 * np.pi + 1e-12
    else:
        assert np.all(np.abs(angles) < np.pi)


@pytest.mark.parametrize("desc,diagonal", [
    (T1, [-1]), (U2, [-1, -1]), (SU2, [-1, -1]), (SU3, [-1, -1, 1]),
], ids=["T1", "U2", "SU2", "SU3"])
def test_log_at_the_cut_is_a_logarithm(desc, diagonal):
    # eigenvalues at -1 have two least-norm logarithms, angle pi and -pi; either will do
    g = GroupElement(desc, np.diag(np.array(diagonal, dtype=complex)))
    X = log_map(g)
    assert distance(exp_map(X), g) < 1e-14
    if isinstance(desc, SpecialUnitary):
        assert abs(np.trace(X.matrix)) < 1e-12
    assert np.all(np.abs(np.linalg.eigvalsh(-1j * X.matrix)) <= np.pi + 1e-12)


def test_algebra_membership_errors():
    with pytest.raises(MembershipError):
        LieAlgebraElement(SU2, np.diag([1j, 1j]))  # not traceless
    with pytest.raises(MembershipError):
        LieAlgebraElement(T2, np.array([[0, 1], [-1, 0]], dtype=complex))
    with pytest.raises(MembershipError, match="anti-hermitian"):
        LieAlgebraElement(U2, np.array([[0, 1], [1, 0]], dtype=complex))
    assert algebra_descriptor(U2_AS_QUOTIENT) == PROD


def test_validate_algebra_checks_a_whole_stack():
    rng = np.random.default_rng(4)
    stack = np.array([random_algebra(PROD, rng).matrix for _ in range(5)])
    validate_algebra(PROD, stack)
    for edit, message in ((lambda m: m.__setitem__((1, 1), m[1, 1] + 1j), "traceless"),
                          (lambda m: m.__setitem__((0, 2), 0.5), "off block-diagonal"),
                          (lambda m: m.__setitem__((1, 2), m[1, 2] + 0.5), "anti-hermitian")):
        bad = stack.copy()
        edit(bad[3])  # one matrix in the middle of the stack
        with pytest.raises(MembershipError, match=message):
            validate_algebra(PROD, bad)
    with pytest.raises(MembershipError, match=r"expected shape \(3, 3\)"):
        validate_algebra(PROD, stack[:, :2, :2])


# --- Haar sampling -----------------------------------------------------------

def test_haar_deterministic_in_seed():
    a, b = haar(SU2, 42), haar(SU2, 42)
    assert np.array_equal(a.matrix, b.matrix)
    assert distance(haar(SU2, 42), haar(SU2, 43)) > 1e-3


@pytest.mark.parametrize("desc", ALL_KINDS)
def test_haar_lands_in_group(desc):
    for seed in range(5):
        validate_matrix(desc, haar(desc, seed).matrix)


def test_haar_batch_deterministic_per_count_and_seed():
    batch = haar_batch(SU2, 4, np.random.default_rng(5))
    again = haar_batch(SU2, 4, np.random.default_rng(5))
    assert np.array_equal(batch, again)
    assert not np.allclose(batch[0], batch[1])


def test_draws_are_consumed_leaf_by_leaf():
    desc = ProductGroup((ProductGroup((T1, SU2)), U2))
    got = haar_batch(desc, 6, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    want = np.zeros((6, 5, 5), dtype=complex)
    for lo, hi, leaf in ((0, 1, T1), (1, 3, SU2), (3, 5, U2)):
        want[:, lo:hi, lo:hi] = haar_batch(leaf, 6, rng)
    assert np.array_equal(got, want)
    got = random_algebra(desc, np.random.default_rng(9), scale=0.7).matrix
    rng = np.random.default_rng(9)
    want = np.zeros((5, 5), dtype=complex)
    for lo, hi, leaf in ((0, 1, T1), (1, 3, SU2), (3, 5, U2)):
        want[lo:hi, lo:hi] = random_algebra(leaf, rng, scale=0.7).matrix
    assert np.array_equal(got, want)


def test_torus_phase_mean_is_zero():
    rng = np.random.default_rng(123)
    n = 100_000
    phases = np.angle(haar_batch(T1, n, rng)[:, 0, 0])
    se = np.pi / np.sqrt(3.0) / np.sqrt(n)
    assert abs(phases.mean()) < 3 * se


def test_su2_trace_moments():
    rng = np.random.default_rng(321)
    n = 100_000
    tr = np.einsum("kii->k", haar_batch(SU2, n, rng)).real
    assert abs(tr.mean()) < 3.0 / np.sqrt(n)          # E[tr] = 0, var = 1
    assert abs((tr ** 2).mean() - 1.0) < 3.0 * (tr ** 2).std() / np.sqrt(n)


def test_haar_translation_invariance_of_trace_moments():
    rng = np.random.default_rng(77)
    n = 100_000
    g = haar_batch(SU2, n, rng)
    a = haar(SU2, 5).matrix
    tr = np.einsum("ij,kji->k", a, g).real  # trace(a @ g)
    assert abs(tr.mean()) < 3.0 / np.sqrt(n)
    assert abs((tr ** 2).mean() - (np.einsum("kii->k", g).real ** 2).mean()) < 4.0 / np.sqrt(n)


def test_su2_first_row_moment_against_quadrature():
    # E |a_11|^2 over Haar SU(2) is 1/2; check MC, quadrature and closed form agree
    rng = np.random.default_rng(8)
    n = 50_000
    mc = np.abs(haar_batch(SU2, n, rng)[:, 0, 0]) ** 2
    quad = su2_haar_mean(lambda a: abs(a[0, 0]) ** 2)
    assert abs(quad - 0.5) < 1e-10
    assert abs(mc.mean() - quad) < 3 * mc.std() / np.sqrt(n)


def test_u3_trace_and_entry_moments():
    # E|tr U|^2 = 1 (var 1) and E|U_11|^2 = 1/3 (var 1/18) over Haar U(3)
    rng = np.random.default_rng(654)
    n = 100_000
    g = haar_batch(U3, n, rng)
    tr2 = np.abs(np.einsum("kii->k", g)) ** 2
    e2 = np.abs(g[:, 0, 0]) ** 2
    assert abs(tr2.mean() - 1.0) < 3.0 * tr2.std() / np.sqrt(n)
    assert abs(e2.mean() - 1.0 / 3.0) < 3.0 * e2.std() / np.sqrt(n)


U1_SU2_MOD_Z2 = central_quotient(ProductGroup((Unitary(1), SU2)), [np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("desc", [
    Unitary(1), U2, U3, U4, SU2, SU3, SpecialUnitary(4), ProductGroup((T1, SU2, U2)),
    U1_SU2_MOD_Z2,
], ids=repr)
def test_haar_batch_matches_qr_oracle_on_the_same_stream(desc, monkeypatch):
    got_rng, want_rng = np.random.default_rng(29), np.random.default_rng(29)
    got = haar_batch(desc, 2000, got_rng)
    monkeypatch.setattr(mg, "_haar_leaf", haar_leaf_qr)
    want = haar_batch(desc, 2000, want_rng)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


U1_SU2_MOD_Z2_MINUS_FIRST = central_quotient(ProductGroup((Unitary(1), SU2)), [-np.eye(3), np.eye(3)])
HAAR_KINDS = [*(Unitary(n) for n in range(1, 5)), *(SpecialUnitary(n) for n in range(1, 5)), T2,
              ProductGroup((T1, SU2, U2)), U1_SU2_MOD_Z2, U1_SU2_MOD_Z2_MINUS_FIRST]


@pytest.mark.parametrize("desc", HAAR_KINDS, ids=repr)
def test_haar_batch_is_the_row_major_oracle_bitwise(desc):
    # the same bytes and the same generator state after the draw, on both sides of 1,024 and 8,192
    for count in (1, 7, 1023, 1025, 8193):
        got_rng, want_rng = np.random.default_rng(count), np.random.default_rng(count)
        got, want = haar_batch(desc, count, got_rng), haar_batch_rows(desc, count, want_rng)
        if isinstance(desc, mg.CentralQuotient) and len(leaf_blocks(desc)) > 1:
            # the oracle canonicalizes the padded stack, whose zeros off the blocks take the
            # winning translate's signs; those signs are unspecified, so they are folded to +0.0
            got, want = got + 0.0, want + 0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("desc", HAAR_KINDS, ids=repr)
def test_haar_batch_is_entry_major(desc):
    # each matrix entry of the stack is one contiguous vector (matrixgroups.entry_major)
    assert haar_batch(desc, 300, np.random.default_rng(3)).transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("c", [1e6, 1e10, 1e14])
def test_gram_schmidt_stays_unitary_on_nearly_singular_stacks(c):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((500, 3, 3)) + 1j * rng.standard_normal((500, 3, 3))
    z[:, :, 1] = z[:, :, 0] + z[:, :, 1] / c  # condition number ~ c
    q = mg._gram_schmidt(z)
    defect = np.linalg.norm(q.conj().transpose(0, 2, 1) @ q - np.eye(3), axis=(1, 2))
    assert defect.max() <= 1e-14
    # the Q of QR with a positive R diagonal, which both find only to about c * eps
    qr_q, r = np.linalg.qr(z)
    d = np.einsum("kii->ki", r)
    assert np.max(np.abs(q - qr_q * (d / np.abs(d))[:, None, :])) <= c * 1e-13


# --- quotient specifics --------------------------------------------------------

def test_quotient_project_constant_on_cosets():
    g = haar(PROD, 31)
    k = -np.eye(3)
    a = quotient_project(U2_AS_QUOTIENT, g.matrix)
    b = quotient_project(U2_AS_QUOTIENT, g.matrix @ k)
    assert np.array_equal(a.matrix, b.matrix)
    # the representative is one of the two translates
    assert (np.allclose(a.matrix, g.matrix, atol=1e-12)
            or np.allclose(a.matrix, g.matrix @ k, atol=1e-12))


def test_quotient_project_requires_base_membership():
    with pytest.raises(MembershipError):
        quotient_project(U2_AS_QUOTIENT, np.eye(3)[::-1])  # permutation breaks blocks


def test_quotient_mul_well_defined_on_cosets():
    k = -np.eye(3)
    g, h = haar(PROD, 1).matrix, haar(PROD, 2).matrix
    a = mul(quotient_project(U2_AS_QUOTIENT, g), quotient_project(U2_AS_QUOTIENT, h))
    b = mul(quotient_project(U2_AS_QUOTIENT, g @ k), quotient_project(U2_AS_QUOTIENT, h @ k))
    assert distance(a, b) < 1e-12


W3 = np.exp(2j * np.pi / 3)
SU3_MOD_Z3 = central_quotient(ProductGroup((SU3,)), [W3 ** j * np.eye(3) for j in range(3)])
# a torus block makes the center diagonal but not scalar: diag(i, -1, -1, -1) generates Z4
T2_SU2_MOD_Z4 = central_quotient(ProductGroup((T2, SU2)),
                                 [np.linalg.matrix_power(np.diag([1j, -1, -1, -1]), j)
                                  for j in range(4)])
STACK_FORMS = {
    "haar": lambda b: b,
    "rounded": lambda b: np.round(b, 1),  # exact ties between translates, zeros of both signs
    "real": lambda b: np.round(b.real, 1),  # the product's dtype, not the input's, comes out
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([U2_AS_QUOTIENT, SU3_MOD_Z3, T2_SU2_MOD_Z4]), st.integers(0, 6),
       st.integers(0, 2**32 - 1), st.sampled_from(sorted(STACK_FORMS)))
@example(U2_AS_QUOTIENT, 0, 0, "haar")
@example(T2_SU2_MOD_Z4, 1, 0, "real")
def test_canonicalize_batch_equals_the_full_product_tournament(desc, count, seed, form):
    batch = STACK_FORMS[form](haar_batch(desc.base, count, np.random.default_rng(seed)))
    got = canonicalize_batch(desc, batch)
    want = canonicalize_batch_matmul(desc, batch)
    assert got.shape == want.shape and got.dtype == want.dtype == np.result_type(batch, complex)
    assert np.array_equal(got, want)  # in value: the sign of a zero is unspecified


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([U2_AS_QUOTIENT, SU3_MOD_Z3, T2_SU2_MOD_Z4]), st.integers(0, 6),
       st.integers(0, 2**32 - 1), st.sampled_from(sorted(STACK_FORMS)))
@example(T2_SU2_MOD_Z4, 3, 0, "rounded")
def test_canonicalize_batch_is_constant_on_cosets(desc, count, seed, form):
    batch = STACK_FORMS[form](haar_batch(desc.base, count, np.random.default_rng(seed)))
    rep = canonicalize_batch(desc, batch)
    ks = desc.center_matrices()
    translates = np.stack([batch @ k for k in ks])  # (|K|, N, n, n)
    # each output is one of its own translates
    assert all(any(np.array_equal(r, t) for t in translates[:, i]) for i, r in enumerate(rep))
    # scaling by 1, -1 or i is exact, by a cube root of unity only to roundoff:
    # (b w) w and b w^2 may differ in the last bit
    atol = 1e-14 if desc is SU3_MOD_Z3 else 0.0
    for k in ks:
        assert np.allclose(canonicalize_batch(desc, batch @ k), rep, rtol=0.0, atol=atol)
    assert np.array_equal(canonicalize_batch(desc, rep), rep)


@pytest.mark.parametrize("desc", [ProductGroup((Unitary(1), SU2)), U1_SU2_MOD_Z2, T2_SU2_MOD_Z4,
                                  SU3_MOD_Z3], ids=repr)
def test_haar_batch_is_the_leaf_blocks_placed(desc):
    # the gauge average's draws, _haar_blocks, are haar_batch's blocks, from the same stream,
    # canonical in a quotient and placed bit for bit on a zero stack, off-block zeros included
    for count in (1, 7, 1025):
        got_rng, want_rng = np.random.default_rng(count), np.random.default_rng(count)
        got, want = haar_batch(desc, count, got_rng), np.zeros((count, dim(desc), dim(desc)), complex)
        blocks = mg._haar_blocks(desc, count, want_rng)
        if isinstance(desc, mg.CentralQuotient):
            blocks = mg._coset_tournament(desc, blocks)
        for (sl, _), b in zip(leaf_blocks(desc), blocks):
            want[:, sl, sl] = b
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# --- conjugation by a normal subgroup's ambient group ---------------------------

def test_unitary_conjugation_realized_inside_su():
    # for U in U(n) and h in SU(n): s = (det U)^(-1/n) U lies in SU(n)
    # and conjugation by s equals conjugation by U
    for n, seed in ((2, 0), (3, 1)):
        u = haar(Unitary(n), seed).matrix
        h = haar(SpecialUnitary(n), seed + 10).matrix
        s = u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)
        validate_matrix(SpecialUnitary(n), s)
        assert np.allclose(u.conj().T @ h @ u, s.conj().T @ h @ s, atol=1e-12)


# --- the membership gate and the product repair ----------------------------------

GATE_GROUPS = [U3, SU2, T2, PROD, U2_AS_QUOTIENT, SU3_MOD_Z3]


def _drifted(desc, m, drift, rng):
    """``m`` moved inside its blocks (on the diagonal of a torus leaf) to a unitarity
    defect of ``drift``, to first order: the gate must pass it and the repair must act."""
    mask = np.zeros(m.shape, dtype=bool)
    for sl, leaf in leaf_blocks(desc):
        mask[sl, sl] = np.eye(leaf.n, dtype=bool) if isinstance(leaf, Torus) else True
    noise = mask * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    unit = unitarity_defect_one(m + 1e-9 * noise) - unitarity_defect_one(m)
    return m + 1e-9 * drift / unit * noise


BAD_MATRICES = {
    "scaled": lambda m: 1.01 * m,
    "non-finite": lambda m: np.where(np.eye(len(m), dtype=bool)[::-1], np.nan, m),
    "shape": lambda m: np.eye(len(m) + 1, dtype=complex),
    "rows reversed": lambda m: m[::-1],  # off its blocks, or det -1, or a permutation in U(3)
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GATE_GROUPS), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["exact", "drifted"]), max_size=6),
       st.sampled_from([None, *sorted(BAD_MATRICES)]), st.integers(0, 5))
@example(U3, 0, [], None, 0)
@example(SU3_MOD_Z3, 1, ["drifted", "exact"], "shape", 1)
def test_gate_and_repair_match_the_one_matrix_oracle(desc, seed, forms, bad, at):
    rng = np.random.default_rng(seed)
    exact = haar_batch(desc, len(forms), rng)
    drifts = np.exp(rng.uniform(np.log(2e-10), np.log(5e-9), len(forms)))
    mats = [m if form == "exact" else _drifted(desc, m, d, rng)
            for m, d, form in zip(exact, drifts, forms)]
    n = dim(desc)
    if mats:  # the repair of products: no gate, and the stack it reads is left as it was
        stack = np.array(mats)
        kept = stack.copy()
        got = mg.repair(desc, stack)
        assert np.array_equal(got, [repair_one(desc, m) for m in kept])
        assert np.array_equal(stack, kept)
    if bad is not None:
        mats.insert(at % (len(mats) + 1), BAD_MATRICES[bad](exact[0] if len(exact) else np.eye(n)))
    graph = Graph(["v"], [(k, "v", "v") for k in range(len(mats))], "v")
    try:
        want = np.array([admit_one(desc, m) for m in mats]).reshape(-1, n, n)
    except MembershipError as exc:
        for admit in (lambda: mg.admit(desc, mats),
                      lambda: GeneralizedConnection(graph, desc, dict(enumerate(mats)))):
            with pytest.raises(MembershipError) as raised:
                admit()
            assert str(raised.value) == str(exc)
        return
    got = mg.admit(desc, mats)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert not got.flags.writeable
    stored = GeneralizedConnection(graph, desc, dict(enumerate(mats))).values
    assert np.array_equal(np.array(list(stored.values())).reshape(-1, n, n), want)
    for m in stored.values():
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


def test_only_matrixgroups_names_the_repair_rule():
    # the drift test, the polar repair and the coset canonicalization stay behind one module
    rule = {"reunitarize", "_unitarity_defect", "canonicalize_batch", "REPAIR_ATOL"}
    named = {}
    for path in sorted(Path(mg.__file__).parent.glob("*.py")):
        if path.name == "matrixgroups.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in nodes}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        if names & rule:
            named[path.name] = sorted(names & rule)
    assert named == {}


def test_no_isclose_or_allclose_hides_a_relative_tolerance():
    # numpy's default rtol=1e-5 would add 1e-5 of each compared entry to an absolute tolerance
    hidden = []
    for path in sorted(Path(mg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "func", None)
            name = getattr(name, "attr", getattr(name, "id", None))
            if name in ("isclose", "allclose") and len(node.args) < 3 and \
                    "rtol" not in {k.arg for k in node.keywords}:
                hidden.append(f"{path.name}:{node.lineno}")
    assert hidden == []


# --- simultaneous conjugacy ----------------------------------------------------

@pytest.mark.parametrize("desc", [SU2, SU3])
def test_find_conjugator_planted(desc):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mats = haar_batch(desc, 2, rng)
        c = haar_batch(desc, 1, np.random.default_rng(seed + 100))[0]
        target = [c.conj().T @ m @ c for m in mats]
        u, res = find_conjugator(mats, target)
        assert res < 1e-12


def test_find_conjugator_reports_failure_residual():
    rng = np.random.default_rng(0)
    a = haar_batch(SU2, 2, rng)
    b = haar_batch(SU2, 2, np.random.default_rng(99))
    _, res = find_conjugator(a, b)
    assert res > 1e-2


@pytest.mark.parametrize("a, b", [([], []), ([np.eye(2)], []), ([np.eye(2)] * 2, [np.eye(2)])],
                         ids=["empty", "one-none", "two-one"])
def test_find_conjugator_rejects_empty_or_unequal_families(a, b):
    with pytest.raises(ValueError, match="equal nonzero length"):
        find_conjugator(a, b)
