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

Every group is a block-diagonal product of U, SU and torus blocks (its
leaves), optionally divided by a finite central subgroup at the top level
only: descriptors reject a quotient as a product factor, an empty product and
``n < 1``.  :func:`leaf_blocks` is the one walk over this structure.

Elements are plain complex matrices wrapped with their descriptor.  All
operations are pure; random sampling is deterministic in an explicit seed.
Haar sampling of U(n) orthonormalizes the columns of a complex Ginibre matrix
by Gram-Schmidt (Mezzadri 2007), SU(n) divides out the determinant phase,
the torus draws independent uniform phases and products sample their leaves
independently, in order.  :func:`stack_mul` is the one product kernel for
stacks of matrices, :func:`stack_det` the one determinant and
:func:`complex_pair` the one writer of a complex number as ``[re, im]``.

Matrix exponential and logarithm exploit that every element here is normal:
both diagonalize a hermitian matrix with ``eigh`` (``-iX`` for the
exponential, a Cayley transform of the element for the logarithm), so the
results are unitary/anti-hermitian to machine precision.
:func:`exp_antihermitian` is the one exponential; a block-diagonal matrix
exponentiates whole, with exact zeros off its blocks.  :func:`log_map` is the
one logarithm: principal (eigen-angles in [-pi, pi], moved by whole turns on
SU leaves to make them traceless) and total, so it never fails.  Drift is
repaired with the SVD polar factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNITARY_ATOL = 1e-8      # membership gate of group and algebra elements
REPAIR_ATOL = 1e-10      # polar-project drift above this
LEX_ATOL = 1e-9          # tolerance of the coset-representative ordering


class DescriptorMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


class MembershipError(ValueError):
    """Raised when a matrix fails the membership test of its descriptor."""


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class _Leaf:
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"{type(self).__name__} needs an integer n >= 1, got {self.n!r}")


@dataclass(frozen=True)
class Unitary(_Leaf):
    """U(n)."""


@dataclass(frozen=True)
class SpecialUnitary(_Leaf):
    """SU(n)."""


@dataclass(frozen=True)
class Torus(_Leaf):
    """The diagonal maximal torus of U(n)."""


@dataclass(frozen=True)
class ProductGroup:
    factors: tuple

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors or any(isinstance(f, CentralQuotient) for f in factors):
            raise ValueError("a product group needs one or more factors, none of them a quotient")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class CentralQuotient:
    """Product group modulo a finite central subgroup.

    ``center`` holds the subgroup elements as nested tuples of complex
    numbers (hashable); use :func:`central_quotient` to build instances with
    validation.  Elements of the quotient are stored as the lexicographically
    smallest matrix among the coset translates, comparing entries row-major,
    real part before imaginary part, with tolerance ``LEX_ATOL``: the winning
    column scaling of a lift (:func:`canonicalize_batch`), zero signs unspecified.
    """

    base: ProductGroup
    center: tuple

    def center_matrices(self):
        return [np.array(k, dtype=complex) for k in self.center]


GroupDescriptor = object  # any of the five kinds above


def leaf_blocks(desc) -> list:
    """``(slice, leaf)`` for every U/SU/torus block of ``desc``, in order:
    nested products are flattened and a quotient is looked through."""
    if isinstance(desc, CentralQuotient):
        desc = desc.base
    if isinstance(desc, _Leaf):
        return [(slice(0, desc.n), desc)]
    if not isinstance(desc, ProductGroup):
        raise TypeError(f"not a group descriptor: {desc!r}")
    out = []
    for f in desc.factors:
        lo = out[-1][0].stop if out else 0
        out += [(slice(lo + sl.start, lo + sl.stop), leaf) for sl, leaf in leaf_blocks(f)]
    return out


def dim(desc) -> int:
    return leaf_blocks(desc)[-1][0].stop


def _matrix_tuple(m: np.ndarray) -> tuple:
    return tuple(tuple(complex(x) for x in row) for row in np.asarray(m, dtype=complex))


def central_quotient(base: ProductGroup, center_matrices: Iterable[np.ndarray]) -> CentralQuotient:
    """Build a CentralQuotient, checking the center really is one.

    The list must contain the identity, be closed under product and inverse
    (up to 1e-9) and every element must be central in the base: scalar on
    U/SU blocks, diagonal on torus blocks.
    """
    if not isinstance(base, ProductGroup):
        raise TypeError("quotient base must be a ProductGroup")
    mats = [np.array(k, dtype=complex) for k in center_matrices]
    n = dim(base)
    for k in mats:
        validate_matrix(base, k)
        for sl, leaf in leaf_blocks(base):
            blk = k[sl, sl]
            if not isinstance(leaf, Torus) and \
                    not np.allclose(blk, blk[0, 0] * np.eye(leaf.n), atol=1e-9):
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
# stacks of small matrices

def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with broadcasting, for stacks of small matrices.

    ``@`` makes one BLAS call per matrix; for n <= 3 and 16 or more matrices
    the sum over the inner index, ``a[..., :, k, None] * b[..., k, None, :]``,
    is faster and agrees to roundoff.  Otherwise this is ``a @ b``."""
    n = a.shape[-1]
    if not 1 <= n <= 3 or np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])) < 16:
        return a @ b
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for k in range(1, n):
        out += a[..., :, k, None] * b[..., k, None, :]
    return out


def stack_det(a: np.ndarray) -> np.ndarray:
    """Determinants of a (..., n, n) stack: in closed form for n <= 3."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if n == 3:  # the triple product of the rows
        return np.sum(a[..., 0, :] * np.cross(a[..., 1, :], a[..., 2, :]), axis=-1)
    return np.linalg.det(a)


# ---------------------------------------------------------------------------
# membership and elements

def _unitarity_defect(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))


def reunitarize(m: np.ndarray) -> np.ndarray:
    """Nearest unitary: the polar factor ``U Vᴴ`` of the SVD ``m = U S Vᴴ``."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _check_blocks(desc, m: np.ndarray, what: str, su_bad, su_message: str) -> None:
    """Shape, finiteness, diagonal torus blocks, no ``su_bad`` SU block, nothing off the
    blocks, each within ``UNITARY_ATOL``."""
    n, atol = dim(desc), UNITARY_ATOL
    if m.shape != (n, n):
        raise MembershipError(f"expected shape {(n, n)}, got {m.shape}")
    if not np.isfinite(m).all():
        raise MembershipError(f"{what} has a non-finite entry")
    off = m.copy()
    for sl, leaf in leaf_blocks(desc):
        blk = m[sl, sl]
        if isinstance(leaf, SpecialUnitary) and su_bad(blk):
            raise MembershipError(su_message)
        if isinstance(leaf, Torus) and np.max(np.abs(blk - np.diag(np.diag(blk)))) > atol:
            raise MembershipError(f"torus {what} must be diagonal")
        off[sl, sl] = 0.0
    if np.max(np.abs(off)) > atol:
        raise MembershipError(f"off block-diagonal entries in a product {what}")


def validate_matrix(desc, m: np.ndarray) -> None:
    """Raise MembershipError unless ``m`` lies in the group of ``desc`` within ``UNITARY_ATOL``."""
    m = np.asarray(m, dtype=complex)
    _check_blocks(desc, m, "element", lambda b: abs(stack_det(b) - 1.0) > 10 * UNITARY_ATOL,
                  "determinant differs from 1")
    if _unitarity_defect(m) > UNITARY_ATOL:
        raise MembershipError("matrix is not unitary within tolerance")


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


def _validate_algebra(desc, X: np.ndarray) -> None:
    _check_blocks(desc, X, "algebra element",
                  lambda b: abs(np.trace(b)) > UNITARY_ATOL * b.shape[0],
                  "su(n) element must be traceless")
    if np.max(np.abs(X + X.conj().T)) > UNITARY_ATOL:
        raise MembershipError("algebra element must be anti-hermitian")


def algebra_descriptor(desc):
    """Descriptor whose algebra a given group's algebra coincides with."""
    return desc.base if isinstance(desc, CentralQuotient) else desc


# ---------------------------------------------------------------------------
# canonical coset representatives

def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which matrices of stack ``a`` precede those of ``b``.  Entries are read row-major,
    real part before imaginary; the first pair more than ``LEX_ATOL`` apart decides, and only
    the matrices still tied read the next entry, so a Haar stack is decided at its first."""
    less = np.zeros(len(a), dtype=bool)
    live = np.arange(len(a))
    for idx in np.ndindex(a.shape[1:]):
        for part in (np.real, np.imag):
            d = part(a[(live, *idx)]) - part(b[(live, *idx)])
            sig = np.abs(d) > LEX_ATOL
            less[live[sig]] = d[sig] < 0.0
            live = live[~sig]
            if not live.size:
                return less
    return less


def canonicalize_batch(desc: CentralQuotient, batch: np.ndarray) -> np.ndarray:
    """Canonical coset representative of each matrix in a (N, n, n) stack.

    Every center element k is diagonal, so the translate ``batch @ k`` is
    the column scaling ``batch * diag(k)``, equal in value.  A tournament
    keeps, for each matrix, the scaling that :func:`_lex_less` ranks
    first; the sign of a zero entry in the result is unspecified.
    """
    ks = [np.diagonal(k) for k in desc.center_matrices()]
    best = batch * ks[0]
    for k in ks[1:]:
        cand = batch * k
        np.copyto(best, cand, where=_lex_less(cand, best)[:, None, None])
    return best


def _wrap(desc, m: np.ndarray) -> GroupElement:
    """``m`` in ``desc`` unchecked; in a quotient, its canonical coset representative."""
    if isinstance(desc, CentralQuotient):
        m = canonicalize_batch(desc, m[None])[0]
    return GroupElement(desc, m, check=False)


def quotient_project(desc: CentralQuotient, g) -> GroupElement:
    """Project a base-group matrix or element to its canonical coset rep."""
    m = as_matrix(g)
    validate_matrix(desc.base, m)
    return _wrap(desc, m)


# ---------------------------------------------------------------------------
# group operations

def identity(desc) -> GroupElement:
    return _wrap(desc, np.eye(dim(desc), dtype=complex))


def _check_same(a: GroupElement, b: GroupElement) -> None:
    if a.descriptor != b.descriptor:
        raise DescriptorMismatchError(
            f"elements of different groups: {a.descriptor!r} vs {b.descriptor!r}")


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same(a, b)
    m = a.matrix @ b.matrix
    if _unitarity_defect(m) > REPAIR_ATOL:
        m = reunitarize(m)
    return _wrap(a.descriptor, m)


def inv(a: GroupElement) -> GroupElement:
    return _wrap(a.descriptor, a.matrix.conj().T)


def distance(a: GroupElement, b: GroupElement) -> float:
    _check_same(a, b)
    return float(np.linalg.norm(a.matrix - b.matrix))


# ---------------------------------------------------------------------------
# exponential and logarithm (normal matrices throughout)

def exp_antihermitian(X: np.ndarray) -> np.ndarray:
    """exp of a (..., n, n) stack of anti-hermitian matrices via eigh; unitary to roundoff."""
    w, v = np.linalg.eigh(-1j * X)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())


def exp_map(X: LieAlgebraElement) -> GroupElement:
    """The group element ``exp(X)``: block-diagonal ``X`` has a block-diagonal exponential."""
    return _wrap(X.descriptor, exp_antihermitian(X.matrix))


def _log_block(leaf, m: np.ndarray) -> np.ndarray:
    if isinstance(leaf, Torus):
        return np.diag(1j * np.angle(np.diag(m)))
    # Cayley transform about a pole in the widest gap of the spectrum: v has
    # no eigenvalue within pi/n of -1, so h = i(I+v)^-1(I-v) is a
    # well-conditioned hermitian matrix with the eigenvectors of m and
    # eigenvalues tan(phi/2) for v's eigenvalues e^{i phi}.
    ang = np.sort(np.angle(np.linalg.eigvals(m)))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    pole = ang[widest] + 0.5 * gaps[widest]
    v = m * np.exp(1j * (np.pi - pole))
    eye = np.eye(len(m))
    h = 1j * np.linalg.solve(eye + v, eye - v)
    w, z = np.linalg.eigh(0.5 * (h + h.conj().T))
    theta = np.angle(np.exp(1j * (2.0 * np.arctan(w) + pole - np.pi)))
    if isinstance(leaf, SpecialUnitary):
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


def log_map(g: GroupElement) -> LieAlgebraElement:
    """Principal matrix logarithm into the Lie algebra, defined for every element.

    The eigen-angles are ``np.angle`` of the eigenvalues, in [-pi, pi].  An
    eigenvalue at -1 has two logarithms of least norm, angle pi and -pi; both
    exponentiate to ``g`` and ``np.angle`` picks one from the input bits.  On
    a SpecialUnitary leaf whole turns then move between the angles so the
    result is traceless.
    """
    X = np.zeros_like(g.matrix)
    for sl, leaf in leaf_blocks(g.descriptor):
        X[sl, sl] = _log_block(leaf, g.matrix[sl, sl])
    X = 0.5 * (X - X.conj().T)  # strip hermitian round-off
    return LieAlgebraElement(g.descriptor, X)


# ---------------------------------------------------------------------------
# Haar sampling

def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Q of ``z = QR`` with R's diagonal positive, for a (count, n, n) stack: modified
    Gram-Schmidt projecting each column twice keeps Q unitary however ill-conditioned z is.
    A ``z`` laid out column first, as :func:`_haar_leaf` builds it, is overwritten."""
    q = np.ascontiguousarray(z.transpose(2, 0, 1))  # q[j] holds column j of every matrix
    for j, v in enumerate(q):
        for _ in range(2):
            for w in q[:j]:
                v -= w * np.einsum("ki,ki->k", w.conj(), v)[:, None]
        re_im = v.view(float)
        v /= np.sqrt(np.einsum("ki,ki->k", re_im, re_im))[:, None]
    return q.transpose(1, 2, 0)


def _haar_leaf(leaf, count: int, rng) -> np.ndarray:
    n = leaf.n
    if isinstance(leaf, Torus):
        theta = rng.uniform(-np.pi, np.pi, size=(count, n))
        out = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(1j * theta)
        return out
    z = np.empty((n, count, n), dtype=complex).transpose(1, 2, 0)  # column first
    z.real = rng.standard_normal((count, n, n))
    z.imag = rng.standard_normal((count, n, n))
    u = _gram_schmidt(z)  # Q is scale-free, so z needs no 1/sqrt(2)
    if isinstance(leaf, SpecialUnitary):
        u = u * np.exp(-1j * np.angle(stack_det(u)) / n)[:, None, None]
    return u


def haar_batch(desc, count: int, rng) -> np.ndarray:
    """Stack of ``count`` Haar samples as a (count, n, n) array.

    ``rng`` is a ``numpy.random.Generator``; draws are consumed sequentially
    leaf by leaf, so results are deterministic in the generator state.  A U
    or SU leaf is the Q of a Ginibre stack, by twice-projected Gram-Schmidt.
    """
    leaves = leaf_blocks(desc)
    if len(leaves) == 1:
        out = _haar_leaf(leaves[0][1], count, rng)
    else:
        n = dim(desc)
        out = np.zeros((count, n, n), dtype=complex)
        for sl, leaf in leaves:
            out[:, sl, sl] = _haar_leaf(leaf, count, rng)
    if isinstance(desc, CentralQuotient):
        return canonicalize_batch(desc, out)
    return out


def random_algebra(desc, rng, scale: float = 1.0) -> LieAlgebraElement:
    """Random anti-hermitian element with independent normal coefficients."""
    adesc = algebra_descriptor(desc)
    out = np.zeros((dim(adesc), dim(adesc)), dtype=complex)
    for sl, leaf in leaf_blocks(adesc):
        n = leaf.n
        if isinstance(leaf, Torus):
            out[sl, sl] = np.diag(1j * rng.standard_normal(n) * scale)
            continue
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = 0.5 * (z - z.conj().T) * scale
        if isinstance(leaf, SpecialUnitary):
            X -= np.trace(X) / n * np.eye(n)
        out[sl, sl] = X
    return LieAlgebraElement(adesc, out)


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

def complex_pair(z) -> list:
    """``[re, im]`` of a complex number; a zero is written as 0.0, never -0.0."""
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested list of :func:`complex_pair` entries."""
    return [[complex_pair(x) for x in row] for row in np.asarray(m, dtype=complex)]


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
        return Unitary(data["n"])
    if kind == "SU":
        return SpecialUnitary(data["n"])
    if kind == "torus":
        return Torus(data["n"])
    if kind == "product":
        return ProductGroup(tuple(descriptor_from_dict(f) for f in data["factors"]))
    if kind == "quotient":
        base = descriptor_from_dict(data["base"])
        if "K" not in data:
            raise ValueError("quotient descriptor needs its center list 'K'")
        return central_quotient(base, [matrix_from_pairs(k) for k in data["K"]])
    raise ValueError(f"unknown descriptor kind {kind!r}")
