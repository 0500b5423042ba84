from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from holonomy_lab.matrixgroups import (
    BranchCutError,
    CentralQuotient,
    DescriptorMismatchError,
    GroupElement,
    LieAlgebraElement,
    MembershipError,
    ProductGroup,
    SpecialUnitary,
    Torus,
    Unitary,
    algebra_descriptor,
    block_slices,
    central_quotient,
    conjugate,
    descriptor_from_dict,
    descriptor_to_dict,
    dim,
    distance,
    exp_map,
    find_conjugator,
    haar_batch,
    haar_sample,
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
    trace_normalized,
    validate_matrix,
)
from oracles import su2_haar_mean

SU2 = SpecialUnitary(2)
SU3 = SpecialUnitary(3)
U2 = Unitary(2)
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


def test_block_slices():
    slices = block_slices(PROD)
    assert slices[0][0] == slice(0, 1) and slices[1][0] == slice(1, 3)


def test_central_quotient_validation():
    with pytest.raises(MembershipError):
        central_quotient(PROD, [np.eye(3)[::-1]])  # permutation: not central, not closed
    with pytest.raises(MembershipError):
        central_quotient(PROD, [-np.eye(3)])  # missing identity
    bad = np.diag([1.0, 1.0, -1.0])  # not scalar on the SU(2) block
    with pytest.raises(MembershipError):
        central_quotient(PROD, [np.eye(3), bad])


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


def test_descriptor_dict_roundtrip():
    for desc in ALL_KINDS:
        assert descriptor_from_dict(descriptor_to_dict(desc)) == desc


def test_matrix_pairs_roundtrip():
    m = haar(SU3, 5).matrix
    assert np.allclose(matrix_from_pairs(matrix_to_pairs(m)), m)


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


def test_reunitarize_idempotent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = reunitarize(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12
    assert np.allclose(reunitarize(u), u, atol=1e-13)


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


def test_conjugate_definition():
    h, a = haar(SU2, 4), haar(SU2, 5)
    expect = a.matrix.conj().T @ h.matrix @ a.matrix
    assert np.allclose(conjugate(h, a).matrix, expect, atol=1e-13)


def test_trace_normalized():
    assert trace_normalized(identity(SU3)) == pytest.approx(1.0)
    g = haar(SU2, 6)
    assert trace_normalized(g) == pytest.approx(np.trace(g.matrix) / 2)


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


def test_log_branch_cut_raises_and_shift_recovers():
    g = GroupElement(T1, np.array([[-1.0 + 0j]]))
    with pytest.raises(BranchCutError):
        log_map(g)
    X = log_map(g, branch_shift=0.5)
    assert distance(exp_map(X), g) < 1e-14


def test_algebra_membership_errors():
    with pytest.raises(MembershipError):
        LieAlgebraElement(SU2, np.diag([1j, 1j]))  # not traceless
    with pytest.raises(MembershipError):
        LieAlgebraElement(T2, np.array([[0, 1], [-1, 0]], dtype=complex))
    assert algebra_descriptor(U2_AS_QUOTIENT) == PROD


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
