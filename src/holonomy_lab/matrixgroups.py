"""Compact matrix groups as data: descriptors, elements, Haar sampling.

Supported group kinds
---------------------

=================  ==========================================================
``Unitary(n)``     full unitary group U(n)
``SpecialUnitary`` SU(n), unitary with determinant 1
``Torus(n)``       diagonal unitaries diag(exp(i t_1), ..., exp(i t_n))
``ProductGroup``   direct product, embedded block-diagonally
``CentralQuotient``a product modulo a finite central subgroup; elements are
                   represented by a canonical coset representative
=================  ==========================================================

Elements are plain complex matrices wrapped with their descriptor.  All
operations are pure; random sampling is deterministic in an explicit seed.
Haar sampling of U(n) uses the QR decomposition of a complex Ginibre matrix
with the usual phase correction of the R diagonal, SU(n) divides out the
determinant phase, the torus draws independent uniform phases and products
sample factors independently.

Matrix exponential and logarithm exploit that every element here is normal:
both go through an eigendecomposition (Schur form for the logarithm), so the
results are unitary/anti-hermitian to machine precision.  The logarithm
refuses eigenvalues at the branch cut (angle pi); callers can rotate the cut
with ``branch_shift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

UNITARY_ATOL = 1e-8      # membership gate on construction
REPAIR_ATOL = 1e-10      # polar-project drift above this
LEX_ATOL = 1e-9          # tolerance of the coset-representative ordering
BRANCH_ATOL = 1e-8       # minimum angular distance from the log branch cut


class DescriptorMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


class MembershipError(ValueError):
    """Raised when a matrix fails the membership test of its descriptor."""


class BranchCutError(ArithmeticError):
    """Raised by the logarithm when an eigenvalue sits at the branch cut."""


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class Unitary:
    n: int


@dataclass(frozen=True)
class SpecialUnitary:
    n: int


@dataclass(frozen=True)
class Torus:
    n: int


@dataclass(frozen=True)
class ProductGroup:
    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True)
class CentralQuotient:
    """Product group modulo a finite central subgroup.

    ``center`` holds the subgroup elements as nested tuples of complex
    numbers (hashable); use :func:`central_quotient` to build instances with
    validation.  Elements of the quotient are stored as the lexicographically
    smallest matrix among the coset translates, comparing entries row-major,
    real part before imaginary part, with tolerance ``LEX_ATOL``.
    """

    base: ProductGroup
    center: tuple

    def center_matrices(self):
        return [np.array(k, dtype=complex) for k in self.center]


GroupDescriptor = object  # any of the five kinds above


def dim(desc) -> int:
    if isinstance(desc, (Unitary, SpecialUnitary, Torus)):
        return desc.n
    if isinstance(desc, ProductGroup):
        return sum(dim(f) for f in desc.factors)
    if isinstance(desc, CentralQuotient):
        return dim(desc.base)
    raise TypeError(f"not a group descriptor: {desc!r}")


def block_slices(desc: ProductGroup):
    """Slices of the block-diagonal embedding, one per factor."""
    out, lo = [], 0
    for f in desc.factors:
        hi = lo + dim(f)
        out.append((slice(lo, hi), f))
        lo = hi
    return out


def _matrix_tuple(m: np.ndarray) -> tuple:
    return tuple(tuple(complex(x) for x in row) for row in np.asarray(m, dtype=complex))


def central_quotient(base: ProductGroup, center_matrices: Iterable[np.ndarray]) -> CentralQuotient:
    """Build a CentralQuotient, checking the center really is one.

    The list must contain the identity, be closed under product and inverse
    (up to 1e-9) and every element must be central in the base: scalar on
    U/SU factors, diagonal on torus factors.
    """
    if not isinstance(base, ProductGroup):
        raise TypeError("quotient base must be a ProductGroup")
    mats = [np.array(k, dtype=complex) for k in center_matrices]
    n = dim(base)
    for k in mats:
        validate_matrix(base, k)
        for sl, f in block_slices(base):
            blk = k[sl, sl]
            if isinstance(f, (Unitary, SpecialUnitary)):
                if not np.allclose(blk, blk[0, 0] * np.eye(dim(f)), atol=1e-9):
                    raise MembershipError("center element is not scalar on a U/SU factor")
    def find(m):
        for j, k in enumerate(mats):
            if np.allclose(m, k, atol=1e-9):
                return j
        return None
    if find(np.eye(n)) is None:
        raise MembershipError("center list must contain the identity")
    for a in mats:
        if find(a.conj().T) is None:
            raise MembershipError("center list is not closed under inverse")
        for b in mats:
            if find(a @ b) is None:
                raise MembershipError("center list is not closed under product")
    return CentralQuotient(base, tuple(_matrix_tuple(k) for k in mats))


# ---------------------------------------------------------------------------
# membership and elements

def _unitarity_defect(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))


def reunitarize(m: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor); idempotent on unitaries."""
    u, _ = scipy.linalg.polar(m)
    return u


def validate_matrix(desc, m: np.ndarray, atol: float = UNITARY_ATOL) -> None:
    """Raise MembershipError unless ``m`` lies in the group of ``desc``."""
    m = np.asarray(m, dtype=complex)
    n = dim(desc)
    if m.shape != (n, n):
        raise MembershipError(f"expected shape {(n, n)}, got {m.shape}")
    if _unitarity_defect(m) > atol:
        raise MembershipError("matrix is not unitary within tolerance")
    if isinstance(desc, SpecialUnitary):
        if abs(np.linalg.det(m) - 1.0) > 10 * atol:
            raise MembershipError("determinant differs from 1")
    elif isinstance(desc, Torus):
        if np.max(np.abs(m - np.diag(np.diag(m)))) > atol:
            raise MembershipError("torus element must be diagonal")
    elif isinstance(desc, ProductGroup):
        off = m.copy()
        for sl, f in block_slices(desc):
            validate_matrix(f, m[sl, sl], atol)
            off[sl, sl] = 0.0
        if np.max(np.abs(off)) > atol:
            raise MembershipError("off block-diagonal entries in a product element")
    elif isinstance(desc, CentralQuotient):
        validate_matrix(desc.base, m, atol)


class GroupElement:
    """A matrix together with its group descriptor.  Treat as immutable."""

    __slots__ = ("descriptor", "matrix")

    def __init__(self, descriptor, matrix, check: bool = True):
        m = np.array(matrix, dtype=complex)
        if check:
            validate_matrix(descriptor, m)
            if _unitarity_defect(m) > REPAIR_ATOL:
                m = reunitarize(m)
            if isinstance(descriptor, CentralQuotient):
                m = canonicalize_batch(descriptor, m[None])[0]
        m.setflags(write=False)
        self.descriptor = descriptor
        self.matrix = m

    def __repr__(self):
        return f"GroupElement({self.descriptor!r},\n{np.array_str(self.matrix, precision=4)})"


def as_matrix(g) -> np.ndarray:
    """The matrix of a GroupElement, or ``g`` itself as a complex array."""
    return g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=complex)


@dataclass(frozen=True)
class LieAlgebraElement:
    """Anti-hermitian matrix in the Lie algebra of a descriptor."""

    descriptor: object
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        _validate_algebra(self.descriptor, m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _validate_algebra(desc, X: np.ndarray, atol: float = 1e-8) -> None:
    n = dim(desc)
    if X.shape != (n, n):
        raise MembershipError(f"expected shape {(n, n)}, got {X.shape}")
    if np.max(np.abs(X + X.conj().T)) > atol:
        raise MembershipError("algebra element must be anti-hermitian")
    if isinstance(desc, SpecialUnitary):
        if abs(np.trace(X)) > atol * n:
            raise MembershipError("su(n) element must be traceless")
    elif isinstance(desc, Torus):
        if np.max(np.abs(X - np.diag(np.diag(X)))) > atol:
            raise MembershipError("torus algebra element must be diagonal")
    elif isinstance(desc, ProductGroup):
        off = X.copy()
        for sl, f in block_slices(desc):
            _validate_algebra(f, X[sl, sl], atol)
            off[sl, sl] = 0.0
        if np.max(np.abs(off)) > atol:
            raise MembershipError("off block-diagonal entries in a product algebra element")
    elif isinstance(desc, CentralQuotient):
        _validate_algebra(desc.base, X, atol)


def algebra_descriptor(desc):
    """Descriptor whose algebra a given group's algebra coincides with."""
    return desc.base if isinstance(desc, CentralQuotient) else desc


# ---------------------------------------------------------------------------
# canonical coset representatives

def _lex_keys(batch: np.ndarray) -> np.ndarray:
    # row-major entries, real part then imaginary part
    return np.stack([batch.real, batch.imag], axis=-1).reshape(batch.shape[0], -1)


def _lex_less(cand_keys: np.ndarray, best_keys: np.ndarray, atol: float = LEX_ATOL) -> np.ndarray:
    diff = cand_keys - best_keys
    sig = np.abs(diff) > atol
    any_sig = sig.any(axis=1)
    first = np.argmax(sig, axis=1)
    return any_sig & (diff[np.arange(diff.shape[0]), first] < 0.0)


def canonicalize_batch(desc: CentralQuotient, batch: np.ndarray) -> np.ndarray:
    """Canonical coset representative of each matrix in a (N, n, n) stack."""
    ks = desc.center_matrices()
    best = batch @ ks[0]
    best_keys = _lex_keys(best)
    for k in ks[1:]:
        cand = batch @ k
        cand_keys = _lex_keys(cand)
        take = _lex_less(cand_keys, best_keys)
        best[take] = cand[take]
        best_keys[take] = cand_keys[take]
    return best


def quotient_project(desc: CentralQuotient, g) -> GroupElement:
    """Project a base-group matrix or element to its canonical coset rep."""
    m = as_matrix(g)
    validate_matrix(desc.base, m)
    rep = canonicalize_batch(desc, m[None])[0]
    return GroupElement(desc, rep, check=False)


# ---------------------------------------------------------------------------
# group operations

def identity(desc) -> GroupElement:
    m = np.eye(dim(desc), dtype=complex)
    if isinstance(desc, CentralQuotient):
        m = canonicalize_batch(desc, m[None])[0]
    return GroupElement(desc, m, check=False)


def _check_same(a: GroupElement, b: GroupElement) -> None:
    if a.descriptor != b.descriptor:
        raise DescriptorMismatchError(
            f"elements of different groups: {a.descriptor!r} vs {b.descriptor!r}")


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same(a, b)
    m = a.matrix @ b.matrix
    if _unitarity_defect(m) > REPAIR_ATOL:
        m = reunitarize(m)
    if isinstance(a.descriptor, CentralQuotient):
        m = canonicalize_batch(a.descriptor, m[None])[0]
    return GroupElement(a.descriptor, m, check=False)


def inv(a: GroupElement) -> GroupElement:
    m = a.matrix.conj().T
    if isinstance(a.descriptor, CentralQuotient):
        m = canonicalize_batch(a.descriptor, m[None])[0]
    return GroupElement(a.descriptor, m, check=False)


def conjugate(h: GroupElement, a: GroupElement) -> GroupElement:
    """a^-1 h a."""
    return mul(mul(inv(a), h), a)


def trace_normalized(g: GroupElement) -> complex:
    return complex(np.trace(g.matrix) / dim(g.descriptor))


def distance(a: GroupElement, b: GroupElement) -> float:
    _check_same(a, b)
    return float(np.linalg.norm(a.matrix - b.matrix))


# ---------------------------------------------------------------------------
# exponential and logarithm (normal matrices throughout)

def _exp_matrix(desc, X: np.ndarray) -> np.ndarray:
    if isinstance(desc, Torus):
        return np.diag(np.exp(np.diag(X)))
    if isinstance(desc, ProductGroup):
        out = np.zeros_like(X)
        for sl, f in block_slices(desc):
            out[sl, sl] = _exp_matrix(f, X[sl, sl])
        return out
    if isinstance(desc, CentralQuotient):
        return _exp_matrix(desc.base, X)
    # unitary/special unitary: X = i H with H hermitian
    w, v = np.linalg.eigh(-1j * X)
    return (v * np.exp(1j * w)) @ v.conj().T


def exp_map(X: LieAlgebraElement) -> GroupElement:
    m = _exp_matrix(X.descriptor, X.matrix)
    if isinstance(X.descriptor, CentralQuotient):
        m = canonicalize_batch(X.descriptor, m[None])[0]
    return GroupElement(X.descriptor, m, check=False)


def _angles_from_unitary(eigvals: np.ndarray, branch_shift: float) -> np.ndarray:
    rotated = np.angle(eigvals * np.exp(1j * branch_shift))
    if np.min(np.abs(np.abs(rotated) - np.pi)) < BRANCH_ATOL:
        raise BranchCutError(
            "eigenvalue at the logarithm branch cut; retry with another branch_shift")
    return rotated - branch_shift


def _log_matrix(desc, m: np.ndarray, branch_shift: float) -> np.ndarray:
    if isinstance(desc, Torus):
        theta = _angles_from_unitary(np.diag(m), branch_shift)
        return np.diag(1j * theta)
    if isinstance(desc, ProductGroup):
        out = np.zeros_like(m)
        for sl, f in block_slices(desc):
            out[sl, sl] = _log_matrix(f, m[sl, sl], branch_shift)
        return out
    if isinstance(desc, CentralQuotient):
        return _log_matrix(desc.base, m, branch_shift)
    t, z = scipy.linalg.schur(m, output="complex")
    theta = _angles_from_unitary(np.diag(t), branch_shift)
    if isinstance(desc, SpecialUnitary):
        # move whole 2*pi turns between eigenvalues so the log is traceless
        k = int(np.round(theta.sum() / (2.0 * np.pi)))
        if k > 0:
            for j in np.argsort(theta)[::-1][:k]:
                theta[j] -= 2.0 * np.pi
        elif k < 0:
            for j in np.argsort(theta)[:-k]:
                theta[j] += 2.0 * np.pi
        theta = theta - theta.sum() / len(theta)
    return (z * (1j * theta)) @ z.conj().T


def log_map(g: GroupElement, branch_shift: float = 0.0) -> LieAlgebraElement:
    """Matrix logarithm into the Lie algebra.

    Raises BranchCutError when an eigenvalue lies within ``BRANCH_ATOL`` of
    the (rotated) branch cut.  ``branch_shift`` rotates the cut: the result
    is ``log(g e^{i a}) - i a I`` which still exponentiates to ``g``.  For
    SpecialUnitary descriptors the eigenvalue angles are rebalanced by whole
    turns so the result is traceless.
    """
    X = _log_matrix(g.descriptor, g.matrix, branch_shift)
    X = 0.5 * (X - X.conj().T)  # strip hermitian round-off
    return LieAlgebraElement(g.descriptor, X)


# ---------------------------------------------------------------------------
# Haar sampling

def haar_batch(desc, count: int, rng) -> np.ndarray:
    """Stack of ``count`` Haar samples as a (count, n, n) array.

    ``rng`` is a ``numpy.random.Generator``; draws are consumed sequentially
    so results are deterministic in the generator state.
    """
    n = dim(desc)
    if isinstance(desc, Unitary):
        z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.einsum("kii->ki", r)
        ph = d / np.abs(d)
        return q * ph[:, None, :]
    if isinstance(desc, SpecialUnitary):
        u = haar_batch(Unitary(n), count, rng)
        det = np.linalg.det(u)
        return u * np.exp(-1j * np.angle(det) / n)[:, None, None]
    if isinstance(desc, Torus):
        theta = rng.uniform(-np.pi, np.pi, size=(count, n))
        out = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(1j * theta)
        return out
    if isinstance(desc, ProductGroup):
        out = np.zeros((count, n, n), dtype=complex)
        for sl, f in block_slices(desc):
            out[:, sl, sl] = haar_batch(f, count, rng)
        return out
    if isinstance(desc, CentralQuotient):
        return canonicalize_batch(desc, haar_batch(desc.base, count, rng))
    raise TypeError(f"not a group descriptor: {desc!r}")


def haar_sample(desc, seed: int) -> GroupElement:
    """One Haar-distributed element, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    return GroupElement(desc, haar_batch(desc, 1, rng)[0], check=False)


def random_algebra(desc, rng, scale: float = 1.0) -> LieAlgebraElement:
    """Random anti-hermitian element with independent normal coefficients."""
    adesc = algebra_descriptor(desc)
    def build(d):
        n = dim(d)
        if isinstance(d, Torus):
            return np.diag(1j * rng.standard_normal(n) * scale)
        if isinstance(d, ProductGroup):
            out = np.zeros((dim(d), dim(d)), dtype=complex)
            for sl, f in block_slices(d):
                out[sl, sl] = build(f)
            return out
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = 0.5 * (z - z.conj().T) * scale
        if isinstance(d, SpecialUnitary):
            X -= np.trace(X) / n * np.eye(n)
        return X
    return LieAlgebraElement(adesc, build(adesc))


# ---------------------------------------------------------------------------
# simultaneous conjugacy

def find_conjugator(mats_a: Sequence[np.ndarray], mats_b: Sequence[np.ndarray]):
    """Least-squares search for unitary ``u`` with ``u^-1 A_i u = B_i`` for all i.

    Stacks the Sylvester operators ``X -> A_i X - X B_i`` and takes the
    singular vector of the smallest singular value; the polar factor of the
    reshaped vector is the candidate conjugator.  Returns ``(u, residual)``
    where ``residual`` is the largest Frobenius defect over the family; the
    caller decides what residual counts as success.
    """
    mats_a = [np.asarray(m, dtype=complex) for m in mats_a]
    mats_b = [np.asarray(m, dtype=complex) for m in mats_b]
    if not mats_a or len(mats_a) != len(mats_b):
        raise ValueError("need two matrix families of equal nonzero length")
    n = mats_a[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(a, eye) - np.kron(eye, b.T) for a, b in zip(mats_a, mats_b)]
    stacked = np.vstack(rows)
    _, _, vh = np.linalg.svd(stacked)
    x = vh[-1].conj().reshape(n, n)  # right singular vectors are conj rows of vh
    u = reunitarize(x)
    residual = max(np.linalg.norm(u.conj().T @ a @ u - b) for a, b in zip(mats_a, mats_b))
    return u, float(residual)


# ---------------------------------------------------------------------------
# serialization

def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_pairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix document must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def descriptor_to_dict(desc) -> dict:
    if isinstance(desc, Unitary):
        return {"kind": "U", "n": desc.n}
    if isinstance(desc, SpecialUnitary):
        return {"kind": "SU", "n": desc.n}
    if isinstance(desc, Torus):
        return {"kind": "torus", "n": desc.n}
    if isinstance(desc, ProductGroup):
        return {"kind": "product", "factors": [descriptor_to_dict(f) for f in desc.factors]}
    if isinstance(desc, CentralQuotient):
        return {"kind": "quotient",
                "base": descriptor_to_dict(desc.base),
                "K": [matrix_to_pairs(k) for k in desc.center_matrices()]}
    raise TypeError(f"not a group descriptor: {desc!r}")


def descriptor_from_dict(data) -> GroupDescriptor:
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError("descriptor document needs a 'kind'") from exc
    if kind == "U":
        return Unitary(int(data["n"]))
    if kind == "SU":
        return SpecialUnitary(int(data["n"]))
    if kind == "torus":
        return Torus(int(data["n"]))
    if kind == "product":
        return ProductGroup(tuple(descriptor_from_dict(f) for f in data["factors"]))
    if kind == "quotient":
        base = descriptor_from_dict(data["base"])
        mats = [matrix_from_pairs(k) for k in data.get("K", data.get("center", []))]
        return central_quotient(base, mats)
    raise ValueError(f"unknown descriptor kind {kind!r}")
