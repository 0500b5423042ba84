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
``n < 1``.  :func:`leaf_blocks` is the one walk over this structure; each leaf
class carries its document kind, and ``LEAF_KINDS`` maps kinds to classes.

Elements are read-only complex matrices with their descriptor.  :func:`admit`
is the one gate for matrices from outside (one membership check per stack),
:func:`validate_algebra` the one Lie-algebra check (of a matrix or a stack),
:func:`repair` the one rule for products (the SVD polar factor past
``REPAIR_ATOL`` of drift, canonical representatives in a quotient).  All
operations are pure; random sampling is deterministic in an explicit seed.
Haar sampling of U(n) orthonormalizes the columns of a complex Ginibre matrix
by Gram-Schmidt (Mezzadri 2007), SU(n) divides out the determinant phase,
the torus draws independent uniform phases and products sample their leaves
independently, in order.  :func:`stack_mul` is the one product kernel for
stacks of matrices, :func:`stack_det` the one determinant and
:func:`complex_pair` the one writer of a complex number as ``[re, im]``.
Haar stacks are entry-major (:func:`entry_major`): each matrix entry of the stack is one contiguous
vector, so products and Gram-Schmidt run over long vectors, not n-long rows.  Haar draws are leaves
of the base group, one stack per leaf block (:func:`_haar_blocks`); only :func:`haar_batch` and
:func:`repair` canonicalize.  A gauge average over G is the G/K one for center-invariant functions.

Matrix exponential and logarithm exploit that every element here is normal,
so the results are unitary/anti-hermitian to machine precision.
:func:`exp_antihermitian` is the one exponential: of ``iH`` for the hermitian
``H = -iX``, in closed form up to 3x3 (Rodrigues for 2x2, Cayley-Hamilton for
3x3) and by ``eigh`` of ``H`` beyond; a block-diagonal matrix exponentiates
whole, with exact zeros off its blocks.  :func:`log_batch`, the one logarithm,
takes a stack, leaf by leaf, by ``eigh`` of a Cayley transform with one pole per
matrix: principal (eigen-angles in [-pi, pi], moved by whole turns on SU leaves
to make them traceless) and total, so it never fails (:func:`log_map`: one element).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNITARY_ATOL = 1e-8      # membership gate of group and algebra elements
REPAIR_ATOL = 1e-10      # polar-project drift above this
LEX_ATOL = 1e-9          # tolerance of the coset-representative ordering
CENTER_ATOL = 1e-9       # absolute tolerance of the center table's checks and lookups


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
    kind = "U"


@dataclass(frozen=True)
class SpecialUnitary(_Leaf):
    """SU(n)."""
    kind = "SU"


@dataclass(frozen=True)
class Torus(_Leaf):
    """The diagonal maximal torus of U(n)."""
    kind = "torus"


LEAF_KINDS = {leaf.kind: leaf for leaf in (Unitary, SpecialUnitary, Torus)}  # document kinds


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
    """Product group modulo a finite central subgroup K; :func:`central_quotient` builds it checked.

    ``center`` is K's table of diagonals, one hashable tuple of complex numbers per element
    (:meth:`center_matrices` gives the matrices).  A quotient element is stored as its canonical
    coset representative, the least translate in the order of :func:`canonicalize_batch`.
    """

    base: ProductGroup
    center: tuple

    def center_matrices(self):
        return [np.diag(k) for k in self.center]


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


def _center_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in the center ``table`` (K, n) of each of ``rows`` (m, n) to ``CENTER_ATOL``, or -1."""
    near = (np.abs(rows[:, None] - table) <= CENTER_ATOL).all(axis=-1)
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def central_quotient(base: ProductGroup, center_matrices: Iterable[np.ndarray]) -> CentralQuotient:
    """Build a CentralQuotient, checking the center really is one.

    The list is admitted in ``base``, then only its table of diagonals is judged, to the absolute
    ``CENTER_ATOL``: each element diagonal and scalar on U/SU blocks, the table holding the identity
    and closed under inverse (conjugate) and product (entrywise), all by :func:`_center_index`.
    """
    if not isinstance(base, ProductGroup):
        raise TypeError("quotient base must be a ProductGroup")
    mats = admit(base, center_matrices)
    table = np.diagonal(mats, axis1=1, axis2=2)
    if np.max(np.abs(mats - table[:, :, None] * np.eye(dim(base))), initial=0.0) > CENTER_ATOL:
        raise MembershipError("center element is not diagonal")
    if any(np.max(np.abs(table[:, sl] - table[:, sl.start, None]), initial=0.0) > CENTER_ATOL
           for sl, leaf in leaf_blocks(base) if not isinstance(leaf, Torus)):
        raise MembershipError("center element is not scalar on a U/SU factor")
    if _center_index(table, np.ones((1, dim(base))))[0] < 0:
        raise MembershipError("center list must contain the identity")
    if (_center_index(table, np.conj(table)) < 0).any():
        raise MembershipError("center list is not closed under inverse")
    if any((_center_index(table, a * table) < 0).any() for a in table):  # a row at a time
        raise MembershipError("center list is not closed under product")
    return CentralQuotient(base, tuple(map(tuple, table.tolist())))


# ---------------------------------------------------------------------------
# stacks of small matrices

def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with broadcasting, for stacks of small matrices.

    ``@`` makes one BLAS call per matrix; for n <= 3 the sum over the inner
    index, ``a[..., :, k, None] * b[..., k, None, :]``, is faster on stacks
    and agrees to roundoff.  It is the same arithmetic at every stack size, so
    a product comes out the same alone or in any stack.  Larger n use ``a @ b``."""
    n = a.shape[-1]
    if not 1 <= n <= 3:
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

def _unitarity_defect(m: np.ndarray):
    """Frobenius norm of ``mᴴm - I`` for one matrix, or of each matrix of a stack."""
    return np.linalg.norm(np.conj(np.swapaxes(m, -1, -2)) @ m - np.eye(m.shape[-1]), axis=(-2, -1))


def reunitarize(m: np.ndarray) -> np.ndarray:
    """Nearest unitary of each matrix: the polar factor ``U Vᴴ`` of the SVD ``m = U S Vᴴ``."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _check_blocks(desc, m: np.ndarray, what: str, su_bad, su_message: str) -> None:
    """Shape, finiteness, diagonal torus blocks, no ``su_bad`` SU block, nothing off the
    blocks, each within ``UNITARY_ATOL``, for one matrix or every matrix of a stack."""
    n, atol = dim(desc), UNITARY_ATOL
    if m.shape[-2:] != (n, n):
        raise MembershipError(f"expected shape {(n, n)}, got {m.shape}")
    if not np.isfinite(m).all():
        raise MembershipError(f"{what} has a non-finite entry")
    off = m.copy()
    for sl, leaf in leaf_blocks(desc):
        blk = m[..., sl, sl]
        if isinstance(leaf, SpecialUnitary) and np.any(su_bad(blk)):
            raise MembershipError(su_message)
        if isinstance(leaf, Torus) and \
                np.max(np.abs(blk - blk * np.eye(leaf.n)), initial=0.0) > atol:
            raise MembershipError(f"torus {what} must be diagonal")
        off[..., sl, sl] = 0.0
    if np.max(np.abs(off), initial=0.0) > atol:
        raise MembershipError(f"off block-diagonal entries in a product {what}")


def validate_algebra(desc, m: np.ndarray) -> None:
    """MembershipError unless ``m`` (or each of a stack) is in the Lie algebra of ``desc``:
    anti-hermitian, traceless on SU blocks, each within ``UNITARY_ATOL``."""
    _check_blocks(desc, m, "algebra element",
                  lambda b: abs(np.trace(b, axis1=-2, axis2=-1)) > UNITARY_ATOL * b.shape[-1],
                  "su(n) element must be traceless")
    if np.max(np.abs(m + np.conj(m).swapaxes(-1, -2)), initial=0.0) > UNITARY_ATOL:
        raise MembershipError("algebra element must be anti-hermitian")


def validate_matrix(desc, m: np.ndarray) -> None:
    """MembershipError unless ``m`` (or each of a stack) is in ``desc`` to ``UNITARY_ATOL``."""
    _check_blocks(desc, m, "element", lambda b: abs(stack_det(b) - 1.0) > 10 * UNITARY_ATOL,
                  "determinant differs from 1")
    if np.any(_unitarity_defect(m) > UNITARY_ATOL):
        raise MembershipError("matrix is not unitary within tolerance")


def admit(desc, mats) -> np.ndarray:
    """The one gate for matrices (or elements) from outside: a wrong shape is named before
    stacking, one :func:`validate_matrix` checks the stack, returned read-only as repaired."""
    mats = [as_matrix(m) for m in mats]
    n = dim(desc)
    for m in mats:
        if m.shape != (n, n):
            raise MembershipError(f"expected shape {(n, n)}, got {m.shape}")
    stack = np.array(mats, dtype=complex).reshape(-1, n, n)
    validate_matrix(desc, stack)
    out = repair(desc, stack)
    out.setflags(write=False)
    return out


def repair(desc, stack: np.ndarray) -> np.ndarray:
    """The one rule for products on a (N, n, n) stack, which it leaves unwritten: polar factors
    of the matrices that drift past ``REPAIR_ATOL``, canonicalized in a quotient."""
    drift = _unitarity_defect(stack) > REPAIR_ATOL
    if drift.any():
        stack = stack.copy()
        stack[drift] = reunitarize(stack[drift])
    return canonicalize_batch(desc, stack) if isinstance(desc, CentralQuotient) else stack


class GroupElement:
    """A matrix with its group descriptor, admitted unless ``check`` is false.  Immutable."""

    __slots__ = ("descriptor", "matrix")

    def __init__(self, descriptor, matrix, check: bool = True):
        m = admit(descriptor, [matrix])[0] if check else np.array(matrix, dtype=complex)
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
        validate_algebra(self.descriptor, m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def algebra_descriptor(desc):
    """Descriptor whose algebra a given group's algebra coincides with."""
    return desc.base if isinstance(desc, CentralQuotient) else desc


# ---------------------------------------------------------------------------
# canonical coset representatives

def _lex_less(a: list, b: list) -> np.ndarray:
    """Which matrices of ``a`` precede those of ``b``, each a list of (N, ...) stacks of its diagonal
    blocks.  Entries are read block by block, row-major, real part before imaginary: the row-major
    order of the block-diagonal matrix, whose off-block zeros tie.  The first pair more than
    ``LEX_ATOL`` apart decides; only the matrices still tied read on, so a Haar stack stops at one."""
    less = np.zeros(len(a[0]), dtype=bool)
    live = np.arange(len(a[0]))
    for x, y in zip(a, b):
        for idx in np.ndindex(x.shape[1:]):
            for part in (np.real, np.imag):
                d = part(x[(live, *idx)]) - part(y[(live, *idx)])
                sig = np.abs(d) > LEX_ATOL
                less[live[sig]] = d[sig] < 0.0
                live = live[~sig]
                if not live.size:
                    return less
    return less


def _coset_tournament(desc: CentralQuotient, blocks: list) -> list:
    """Canonical coset representatives of the matrices with diagonal ``blocks`` ((N, m, m) stacks):
    each center diagonal, split at the blocks, scales their columns; :func:`_lex_less` ranks these."""
    cuts = np.cumsum([b.shape[-1] for b in blocks])[:-1]
    ks = [np.split(np.array(k), cuts) for k in desc.center]
    best = list(map(np.multiply, blocks, ks[0]))
    for k in ks[1:]:
        cand = list(map(np.multiply, blocks, k))
        take = _lex_less(cand, best)[:, None, None]
        for c, b in zip(cand, best):
            np.copyto(b, c, where=take)
    return best


def canonicalize_batch(desc: CentralQuotient, batch: np.ndarray) -> np.ndarray:
    """Canonical coset representative of each matrix in a (N, n, n) stack: the least translate
    row-major, real part before imaginary (:func:`_lex_less`), by the coset tournament on one block,
    the whole matrix (:func:`haar_batch` runs it leaf by leaf).  Zero signs unspecified."""
    return _coset_tournament(desc, [batch])[0]


def quotient_project(desc: CentralQuotient, g) -> GroupElement:
    """Project a base-group matrix or element to its canonical coset rep."""
    return GroupElement(desc, g)


# ---------------------------------------------------------------------------
# group operations

def _product(desc, m: np.ndarray) -> GroupElement:
    """``m``, formed from elements of ``desc``, as the element :func:`repair` makes of it."""
    return GroupElement(desc, repair(desc, m[None])[0], check=False)


def identity(desc) -> GroupElement:
    return _product(desc, np.eye(dim(desc), dtype=complex))


def _check_same(a: GroupElement, b: GroupElement) -> None:
    if a.descriptor != b.descriptor:
        raise DescriptorMismatchError(
            f"elements of different groups: {a.descriptor!r} vs {b.descriptor!r}")


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same(a, b)
    return _product(a.descriptor, a.matrix @ b.matrix)


def inv(a: GroupElement) -> GroupElement:
    return _product(a.descriptor, a.matrix.conj().T)


def distance(a: GroupElement, b: GroupElement) -> float:
    _check_same(a, b)
    return float(np.linalg.norm(a.matrix - b.matrix))


# ---------------------------------------------------------------------------
# exponential and logarithm (normal matrices throughout)

def _exp_eigh(X: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(-1j * X)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())


def _sinc(x: np.ndarray) -> np.ndarray:
    """``sin(x) / x``, and 1 at 0."""
    return np.where(x > 0.0, np.sin(x) / np.where(x > 0.0, x, 1.0), 1.0)


def exp_antihermitian(X: np.ndarray) -> np.ndarray:
    """exp of a (..., n, n) stack of anti-hermitian matrices; unitary to roundoff.

    ``exp(X) = exp(iH)`` for the hermitian ``H = -iX`` of ``X``'s lower triangle (as
    ``eigh`` reads it).  For n <= 3 it is a closed form in ``t = tr H / n`` and the
    traceless ``Q = H - tI``, elementwise over the stack, so a matrix comes out the
    same alone or in any stack: ``exp(iθ)`` for n = 1; Rodrigues,
    ``e^{it}(cos a I + i sinc(a) Q)`` with ``a² = -det Q``, for n = 2; Cayley-Hamilton,
    ``e^{it}(f0 I + f1 Q + f2 Q²)``, for n = 3, the ``fj`` from the trigonometric roots
    of ``λ³ - c1 λ - c0`` (Morningstar and Peardon, Phys. Rev. D 69, 054501 (2004)).
    Larger n, and 3x3 matrices with ``‖Q‖ > 14``, diagonalize ``H`` with ``eigh``."""
    n = X.shape[-1]
    if n == 1:
        return np.exp(1j * X.imag)
    if n > 3:
        return _exp_eigh(X)
    shape, X = X.shape, X.reshape(-1, n, n)
    idx = np.arange(n)
    Q = np.multiply(X.transpose(1, 2, 0), -1j, order="C")  # (n, n, N): arrays of entries
    for i, j in ((1, 0), (2, 0), (2, 1))[:n * (n - 1) // 2]:  # the upper triangle from the lower
        np.conjugate(Q[i, j], out=Q[j, i])
    h = Q[idx, idx].real
    t = sum(h) / n
    q = h - t
    q[-1] = -sum(q[:-1])  # traceless to roundoff of Q, not of t: the formulas assume it
    Q[idx, idx] = q
    Q2 = Q[:, 0, None] * Q[None, 0]
    for k in range(1, n):
        Q2 += Q[:, k, None] * Q[None, k]
    c1 = 0.5 * sum(Q2[idx, idx].real)  # ‖Q‖² / 2
    if n == 2:  # Q² = c1 I
        a, ph = np.sqrt(c1), np.exp(1j * t)
        out = (1j * ph * _sinc(a)) * Q
        out[idx, idx] += ph * np.cos(a)
        return out.transpose(2, 0, 1).reshape(shape)
    # a near-double root of the cubic is off by eps c1 where eigh is off by eps ‖Q‖
    big = c1 > 100.0
    if big.any():
        out = np.empty(X.shape, dtype=complex)
        out[big], out[~big] = _exp_eigh(X[big]), exp_antihermitian(X[~big])
        return out.reshape(shape)
    # Q's eigenvalues are 2u and -u +- w; c0 = det Q = tr(Q³) / 3 by Cayley-Hamilton
    c0 = sum(Q[0, k] * Q2[k, 0] for k in range(n)).real - c1 * Q[0, 0].real
    small = c1 < 1e-12  # then exp(iQ) = I + iQ - Q²/2 within 1e-18; never divide by it
    c1 = np.where(small, 1.0, c1)
    s = np.sqrt(c1 / 3.0)
    third = np.arccos(np.minimum(np.abs(c0) / (2.0 * s ** 3), 1.0)) / 3.0
    # the roots for -c0 are those for c0 negated: u changes sign, which is
    # fj(-c0) = (-1)^j conj(fj(c0)); at u >= 0, 9u² - w² >= 2 c1 cannot cancel
    u, w = np.copysign(s * np.cos(third), c0), np.sqrt(c1) * np.sin(third)
    u2, w2 = u * u, w * w
    ph, eu = np.exp(1j * t), np.exp(1j * u)  # one phase for all three roots: unitary
    # not ph * eu.conj(): numpy swaps operands to reuse a big temporary; FMA is not commutative
    e2, em = ph * eu * eu, np.multiply(ph, eu.conj())
    a, b = em * np.cos(w), 1j * em * _sinc(w)
    inv = 1.0 / (9.0 * u2 - w2)
    f0 = ((u2 - w2) * e2 + 8.0 * u2 * a + 2.0 * u * (3.0 * u2 + w2) * b) * inv
    f1 = (2.0 * u * (e2 - a) + (3.0 * u2 - w2) * b) * inv
    f2 = (e2 - a - 3.0 * u * b) * inv
    f0, f1, f2 = (np.where(small, c * ph, f) for c, f in ((1.0, f0), (1j, f1), (-0.5, f2)))
    out = f1 * Q + f2 * Q2
    out[idx, idx] += f0
    return out.transpose(2, 0, 1).reshape(shape)


def exp_map(X: LieAlgebraElement) -> GroupElement:
    """The group element ``exp(X)``: block-diagonal ``X`` has a block-diagonal exponential."""
    return _product(X.descriptor, exp_antihermitian(X.matrix))


def _log_block(leaf, m: np.ndarray) -> np.ndarray:
    """Principal logarithms of a (N, n, n) stack of one leaf's blocks."""
    n = m.shape[-1]
    if isinstance(leaf, Torus):
        out, idx = np.zeros_like(m), np.arange(n)
        out[:, idx, idx] = 1j * np.angle(m[:, idx, idx])
        return out
    # Cayley transform about a pole in the widest gap of each spectrum: v has
    # no eigenvalue within pi/n of -1, so h = i(I+v)^-1(I-v) is a
    # well-conditioned hermitian matrix with the eigenvectors of m and
    # eigenvalues tan(phi/2) for v's eigenvalues e^{i phi}.
    ang = np.sort(np.angle(np.linalg.eigvals(m)), axis=-1)
    gaps = np.diff(ang, append=ang[:, :1] + 2.0 * np.pi, axis=-1)
    widest = np.argmax(gaps, axis=-1)[:, None]
    pole = np.take_along_axis(ang, widest, -1) + 0.5 * np.take_along_axis(gaps, widest, -1)
    v = m * np.exp(1j * (np.pi - pole))[:, :, None]
    eye = np.eye(n)
    h = 1j * np.linalg.solve(eye + v, eye - v)
    w, z = np.linalg.eigh(0.5 * (h + np.conj(h).swapaxes(-1, -2)))
    theta = np.angle(np.exp(1j * (2.0 * np.arctan(w) + pole - np.pi)))
    if isinstance(leaf, SpecialUnitary):
        # move whole 2*pi turns between eigenvalues so the log is traceless: k turns
        # off the k largest angles, or -k on to the -k smallest, ties in argsort's order
        k = np.round(theta.sum(axis=-1, keepdims=True) / (2.0 * np.pi))
        rank = np.argsort(np.argsort(theta, axis=-1), axis=-1)
        theta = theta - 2.0 * np.pi * ((rank >= n - k) * 1.0 - (rank < -k))
        theta = theta - theta.sum(axis=-1, keepdims=True) / n
    return (z * (1j * theta)[:, None, :]) @ np.conj(z).swapaxes(-1, -2)


def log_batch(desc, stack: np.ndarray) -> np.ndarray:
    """Principal matrix logarithms of a (N, n, n) stack of elements of ``desc``, a stack
    in its Lie algebra, defined for every element: one :func:`_log_block` call per leaf.

    The eigen-angles are ``np.angle`` of the eigenvalues, in [-pi, pi].  An
    eigenvalue at -1 has two logarithms of least norm, angle pi and -pi; both
    exponentiate to the element and ``np.angle`` picks one from the input bits.
    On a SpecialUnitary leaf whole turns then move between the angles so the
    result is traceless.
    """
    X = np.zeros_like(stack)
    for sl, leaf in leaf_blocks(desc):
        X[:, sl, sl] = _log_block(leaf, stack[:, sl, sl])
    return 0.5 * (X - np.conj(X).swapaxes(-1, -2))  # strip hermitian round-off


def log_map(g: GroupElement) -> LieAlgebraElement:
    """The principal logarithm of one element: the one-element case of :func:`log_batch`."""
    return LieAlgebraElement(g.descriptor, log_batch(g.descriptor, g.matrix[None])[0])


# ---------------------------------------------------------------------------
# Haar sampling

def entry_major(shape, alloc=np.empty) -> np.ndarray:
    """A complex stack of ``shape`` (count, ..., n, n) laid out entry-major: a view over an
    ``alloc`` array with the first axis moved last, so each entry of the stack is one contiguous
    vector over the count.  Ufuncs lay their outputs out like their inputs, so :func:`stack_mul`
    on such stacks sums contiguous vectors of the count rather than n-long rows; every Haar
    stack is laid out so, from the draw to the gauge average."""
    return alloc((*shape[1:], shape[0]), dtype=complex).transpose(-1, *range(len(shape) - 1))


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Q of ``z = QR`` with R's diagonal positive, for a (count, n, n) stack: modified
    Gram-Schmidt projecting each column twice keeps Q unitary however ill-conditioned z is.
    It works in entry-major memory, each column an (n, count) array of contiguous entries;
    an entry-major ``z``, as :func:`_haar_leaf` builds it, is overwritten and returned."""
    q = np.ascontiguousarray(z.transpose(1, 2, 0))  # q[i, j] holds entry (i, j) of every matrix
    cols = q.transpose(1, 0, 2)  # cols[j] holds column j of every matrix
    for j, v in enumerate(cols):
        for _ in range(2):
            for w in cols[:j]:
                v -= w * np.einsum("ik,ik->k", w.conj(), v)
        re_im = v.T.copy().view(float)  # rows [re, im, re, ...], summed in the row-major order
        v /= np.sqrt(np.einsum("ki,ki->k", re_im, re_im))
    return q.transpose(2, 0, 1)


def _haar_leaf(leaf, count: int, rng) -> np.ndarray:
    n = leaf.n
    if isinstance(leaf, Torus):
        theta = rng.uniform(-np.pi, np.pi, size=(count, n))
        out = entry_major((count, n, n), np.zeros)
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(1j * theta)
        return out
    z = entry_major((count, n, n))
    z.real = rng.standard_normal((count, n, n))
    z.imag = rng.standard_normal((count, n, n))
    u = _gram_schmidt(z)  # Q is scale-free, so z needs no 1/sqrt(2)
    if isinstance(leaf, SpecialUnitary):
        u = u * np.exp(-1j * np.angle(stack_det(u)) / n)[:, None, None]
    return u


def _haar_blocks(desc, count: int, rng) -> list:
    """``count`` Haar samples of the base group, one entry-major (count, m, m) stack per leaf."""
    return [_haar_leaf(leaf, count, rng) for _, leaf in leaf_blocks(desc)]


def haar_batch(desc, count: int, rng) -> np.ndarray:
    """Stack of ``count`` Haar samples as a (count, n, n) entry-major array (:func:`entry_major`).

    ``rng`` is a ``numpy.random.Generator``; draws are consumed leaf by leaf (:func:`_haar_blocks`),
    so results are deterministic in the generator state.  The blocks, made canonical in a quotient
    by the coset tournament, are placed on a zero stack; one leaf is its own stack.
    """
    blocks = _haar_blocks(desc, count, rng)
    blocks = _coset_tournament(desc, blocks) if isinstance(desc, CentralQuotient) else blocks
    if len(blocks) == 1:
        return blocks[0]
    out = entry_major((count, dim(desc), dim(desc)), np.zeros)
    for (sl, _), b in zip(leaf_blocks(desc), blocks):
        out[:, sl, sl] = b
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
    if isinstance(desc, _Leaf):
        return {"kind": desc.kind, "n": desc.n}
    if isinstance(desc, ProductGroup):
        return {"kind": "product", "factors": [descriptor_to_dict(f) for f in desc.factors]}
    if isinstance(desc, CentralQuotient):
        return {"kind": "quotient",
                "base": descriptor_to_dict(desc.base),
                "K": [matrix_to_pairs(k) for k in desc.center_matrices()]}
    raise TypeError(f"not a group descriptor: {desc!r}")


def descriptor_from_dict(data):
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError("descriptor document needs a 'kind'") from exc
    if isinstance(kind, str) and kind in LEAF_KINDS:
        return LEAF_KINDS[kind](data["n"])
    if kind == "product":
        return ProductGroup(tuple(descriptor_from_dict(f) for f in data["factors"]))
    if kind == "quotient":
        base = descriptor_from_dict(data["base"])
        if "K" not in data:
            raise ValueError("quotient descriptor needs its center list 'K'")
        return central_quotient(base, [matrix_from_pairs(k) for k in data["K"]])
    raise ValueError(f"unknown descriptor kind {kind!r}")
