"""Connections on an embedded graph and their holonomy maps.

Two kinds of connection live here.  A :class:`GeneralizedConnection` is the
purely combinatorial object: one group element per edge, extended to reduced
words multiplicatively.  A :class:`SmoothConnection` is a Lie-algebra valued
one-form on the chart, a finite sum of compactly supported bump terms

    A(x)[v] = sum_k  phi_k(x) <u_k, v> X_k

where ``phi_k`` is a smooth bump (identically 1 inside half its radius, 0
outside the radius), ``u_k`` a constant covector and ``X_k`` anti-hermitian.
Centers and covectors have the chart dimension of the graph they are
restricted to.

Holonomy of a smooth connection along a curve solves U' = -A(c(t))[c'(t)] U,
U(0) = 1, so that walking eta then lam multiplies as H(lam eta) = H(lam) H(eta)
and a gauge transformation g acts by H ->  g(end)^-1 H g(start).  Since only
g's values at path ends enter, gauge transformations here are discrete, one
group element per vertex (:class:`DiscreteGauge`).

The one-form vanishes off the chords the bumps' disks cut from each segment.
Each segment is cut at every chord end into pieces, each held by a known set
of disks (:func:`_pieces`).  Where those disks' generators commute pairwise,
as on every piece one disk holds alone and on every piece of an abelian
group, the transport is exactly exp(-sum_k c_k X_k), with c_k the scalar
line integral of the bump (:func:`_line_integrals`).  A run of adjacent
pieces whose generators do not commute takes one fourth-order Magnus step
(two Gauss nodes) per sub-interval (:func:`_segment_transport`).
Interpolation's coefficients are the same scalar integrals, and its
logarithms are one ``matrixgroups.log_batch`` stack.  Every piece of many
polylines refines in the one doubling loop :func:`_refine`, each from
``DEFAULT_STEPS`` sub-intervals under its own stop rule, and evaluates only
the bumps that hold it.

Every gauge action on holonomies is :func:`gauge_transform`.  Stacked
products (gauge actions, word folds, the Magnus commutator) go through
``matrixgroups.stack_mul``.

Conventions match the combinatorial side: traversing an edge against its
direction contributes the inverse transport, and the transport of a
reversed sub-segment is the exact matrix inverse of the forward one.

A smooth connection reaches path words only through :func:`restrict`,
the embedding of smooth connections into generalized ones: each edge
carries its transport.  :func:`holonomies` is the one evaluator of path
words: it integrates every edge its words walk that a restricted
connection still lacks in one batched pass, then multiplies edge values
like any other edge assignment.  Every ordered product of letters (path
words, loop relations, trace words, a polyline's transport pieces) is one
:func:`_word_products` call: the matrices and their adjoints are stacked
once, and all words of one length are one gather and one :func:`_chain`
fold.  ``matrixgroups.repair`` takes the word stack whole, as ``admit`` takes
each edge or gauge assignment (:func:`admit_values`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import matrixgroups as mg
from .pathgroupoid import Graph, PathWord, UnknownEdgeError, json_int

DEFAULT_STEPS = 8
DEFAULT_TOL = 1e-9
MAX_DOUBLINGS = 14
CLEARANCE = 0.7         # interpolation bump radius as a share of the window's room
MIN_COEFFICIENT = 1e-8  # smallest bump line integral an interpolation target may have
COEFFICIENT_TOL = 1e-12  # refinement tolerance of the interpolation coefficients
FOLD_LETTERS = 8192      # letters one word fold gathers: bounds its memory, never splits a word


class IndependenceError(ValueError):
    """Raised when interpolation targets do not have private room."""


class GeometryError(ValueError):
    """Raised when a graph lacks the chart data an operation needs."""


# ---------------------------------------------------------------------------
# generalized (combinatorial) connections

def admit_values(descriptor, keys, values: Mapping, mismatch: str) -> dict:
    """``values``, keyed by exactly ``keys``, admitted as one ``matrixgroups.admit`` stack."""
    missing, extra = set(keys) - set(values), set(values) - set(keys)
    if missing or extra:
        raise ValueError(f"{mismatch} (missing {sorted(map(str, missing))}, "
                         f"extra {sorted(map(str, extra))})")
    return dict(zip(values, mg.admit(descriptor, values.values())))


class GeneralizedConnection:
    """One group element per edge; holonomy extends multiplicatively."""

    def __init__(self, graph: Graph, descriptor, values: Mapping):
        self.graph = graph
        self.descriptor = descriptor
        self.values = admit_values(descriptor, graph.edges, values,
                                   "edge values do not match the graph")


def _word_products(mats: np.ndarray, words, keys=None) -> np.ndarray:
    """Products of signed words over ``mats`` of shape (k, ..., n, n): shape (len(words), ..., n, n).

    ``keys`` names the k matrices, by default their positions.  A letter (x, 1) reads the
    matrix named x and (x, -1) its adjoint, the first letter acts first, and the empty word is
    the identity.  The words of one length are gathered by one index array into the table of
    the matrices and their adjoints and folded by one :func:`_chain` call, in chunks of at most
    ``FOLD_LETTERS`` letters (or one word), so each product is the pairwise fold of its own
    letters, whatever the batch."""
    k = len(mats)
    pos = range(k) if keys is None else {x: j for j, x in enumerate(keys)}
    table = np.concatenate([mats, np.conj(np.swapaxes(mats, -1, -2))])
    rows = [[pos[x] if o == 1 else k + pos[x] for x, o in w] for w in words]
    by_length = {}
    for j, r in enumerate(rows):
        by_length.setdefault(len(r), []).append(j)
    out = np.empty((len(rows),) + mats.shape[1:], dtype=complex)
    out[by_length.pop(0, [])] = np.eye(mats.shape[-1])
    for length, js in by_length.items():
        step = max(1, FOLD_LETTERS // length)
        for lo in range(0, len(js), step):
            part = js[lo:lo + step]
            out[part] = _chain(table[np.array([rows[j] for j in part]).T])
    return out


def holonomies(conn: GeneralizedConnection, words: Sequence[PathWord]) -> np.ndarray:
    """Holonomies of reduced words, shape (len(words), n, n): the first-walked letter acts first.

    Every walked edge is checked before any matrix work, and a restricted
    connection integrates those it lacks in one batched pass.  The walked
    edges' values are stacked once and every word is one :func:`_word_products`
    word over that stack (a unit is the identity); the stack is repaired once by
    ``matrixgroups.repair``.
    """
    if not isinstance(conn, GeneralizedConnection):
        raise TypeError(f"cannot take holonomies of {type(conn).__name__}; "
                        f"restrict smooth connections to the graph first")
    desc, values = conn.descriptor, conn.values
    walked = dict.fromkeys(itertools.chain.from_iterable(w.letters for w in words))
    edges = list(dict.fromkeys(eid for eid, _ in walked))  # in the order first walked
    for eid in edges:
        if eid not in values:
            raise UnknownEdgeError(f"no edge with id {eid!r}")
    if isinstance(values, _EdgeTransports):
        values.fill(edges)
    n = mg.dim(desc)
    mats = np.array([values[eid] for eid in edges], dtype=complex).reshape(-1, n, n)
    return mg.repair(desc, _word_products(mats, [w.letters for w in words], edges))


def holonomy_general(conn: GeneralizedConnection, word: PathWord) -> mg.GroupElement:
    """Holonomy of one reduced word: the one-word case of :func:`holonomies`."""
    return mg.GroupElement(conn.descriptor, holonomies(conn, [word])[0], check=False)


def random_generalized_connection(graph: Graph, descriptor, seed: int) -> GeneralizedConnection:
    rng = np.random.default_rng(seed)
    ids = sorted(graph.edges, key=lambda i: (isinstance(i, str), str(i)))
    mats = mg.haar_batch(descriptor, len(ids), rng)
    return GeneralizedConnection(graph, descriptor, dict(zip(ids, mats)))


class DiscreteGauge:
    """One group element per vertex."""

    def __init__(self, graph: Graph, descriptor, values: Mapping):
        self.graph = graph
        self.descriptor = descriptor
        self.values = admit_values(descriptor, graph.vertices, values,
                                   "gauge values do not match the vertex set")


def random_discrete_gauge(graph: Graph, descriptor, seed: int) -> DiscreteGauge:
    rng = np.random.default_rng(seed)
    verts = list(graph.vertices)
    mats = mg.haar_batch(descriptor, len(verts), rng)
    return DiscreteGauge(graph, descriptor, dict(zip(verts, mats)))


def gauge_transform(stack: np.ndarray, g_src: np.ndarray, g_dst: np.ndarray) -> np.ndarray:
    """Broadcast gauge action H -> g_dst^-1 H g_src on unitary matrix stacks."""
    return mg.stack_mul(mg.stack_mul(np.conj(np.swapaxes(g_dst, -1, -2)), stack), g_src)


def gauge_act_general(conn: GeneralizedConnection, gauge: DiscreteGauge) -> GeneralizedConnection:
    """Edge-wise action value(e) -> g(dst)^-1 value(e) g(src), checked like any edge data."""
    if gauge.descriptor != conn.descriptor:
        raise mg.DescriptorMismatchError("gauge and connection descriptors differ")
    n, edges = mg.dim(conn.descriptor), conn.graph.edges
    g = np.array([(gauge.values[e.src], gauge.values[e.dst]) for e in edges.values()])
    h = np.array([conn.values[eid] for eid in edges])
    out = gauge_transform(h.reshape(-1, n, n), *g.reshape(-1, 2, n, n).swapaxes(0, 1))
    return GeneralizedConnection(conn.graph, conn.descriptor, dict(zip(edges, out)))


# ---------------------------------------------------------------------------
# smooth bump one-forms

def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    tm = np.clip(t, 1e-12, 1.0 - 1e-12)
    f, g = np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))
    return np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, f / (f + g)))


def bump_value(points, center, radius):
    """Bump profile: 1 inside radius/2, 0 outside radius, smooth in between.

    A stack of centers, shape (k, dim) with radii of shape (k,), gives one
    column per center: shape (..., npoints, k).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.asarray(center, dtype=float)
    if center.ndim == 2:
        pts = pts[..., None, :]
    r = np.linalg.norm(pts - center, axis=-1)
    return smoothstep(2.0 - 2.0 * r / radius)


@dataclass(frozen=True)
class BumpTerm:
    """One term phi(x) <u, dx> X of a smooth connection."""

    X: np.ndarray
    center: tuple
    radius: float
    direction: tuple

    def __post_init__(self):
        X = np.array(self.X, dtype=complex)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        d = tuple(float(c) for c in self.direction)
        if not (0 < self.radius and self.radius * self.radius < np.inf):
            raise ValueError(f"bump radius must be positive with a finite square, "
                             f"got {self.radius!r}")
        if not 1e-24 <= sum(c * c for c in d) < np.inf:
            raise ValueError("bump direction must be nonzero with a finite squared norm")
        object.__setattr__(self, "direction", d)


class SmoothConnection:
    """Finite sum of bump terms with a common group descriptor and chart dimension."""

    def __init__(self, descriptor, terms: Iterable[BumpTerm]):
        self.descriptor = descriptor
        self.terms = tuple(terms)
        n = mg.dim(descriptor)
        for t in self.terms:  # before stacking, which would read a larger X as n x n blocks
            if t.X.shape != (n, n):
                raise mg.MembershipError(f"expected shape {(n, n)}, got {t.X.shape}")
        self._X = np.array([t.X for t in self.terms], dtype=complex).reshape(-1, n, n)
        mg.validate_algebra(mg.algebra_descriptor(descriptor), self._X)
        dims = {len(v) for t in self.terms for v in (t.center, t.direction)}
        if len(dims) > 1:
            raise ValueError(f"bump centers and directions mix chart dimensions {sorted(dims)}")
        dim = dims.pop() if dims else 1
        self._centers = np.array([t.center for t in self.terms], dtype=float).reshape(-1, dim)
        self._radii = np.array([t.radius for t in self.terms], dtype=float)
        self._dirs = np.array([t.direction for t in self.terms], dtype=float).reshape(-1, dim)
        # which generators commute: those whose commutator is roundoff,
        # ||[X_i, X_j]|| <= 1e-14 ||X_i|| ||X_j|| (a zero X commutes; diagonal ones exactly)
        k = len(self.terms)
        X, Y = self._X[:, None], self._X[None]
        size = np.linalg.norm(self._X.reshape(k, n * n), axis=-1)
        gap = np.linalg.norm((mg.stack_mul(X, Y) - mg.stack_mul(Y, X)).reshape(k, k, n * n), axis=-1)
        self._commutes = (gap <= 1e-14 * np.outer(size, size)) | np.eye(k, dtype=bool)


def random_smooth_connection(descriptor, graph: Graph, n_terms: int, seed: int) -> SmoothConnection:
    """Random bump terms of radius 0.6 and generator scale 0.8, centered near curve points
    of the graph, in edge order."""
    rng = np.random.default_rng(seed)
    pool = np.asarray([p for e in graph.edges.values() if e.curve for p in e.curve], dtype=float)
    if not pool.size:
        raise GeometryError("graph has no curve data to anchor bump terms")
    terms = []
    for _ in range(n_terms):
        c = pool[rng.integers(len(pool))] + rng.normal(scale=0.1, size=pool.shape[1])
        d = rng.normal(size=pool.shape[1])
        d /= np.linalg.norm(d)
        X = mg.random_algebra(descriptor, rng, scale=0.8)
        terms.append(BumpTerm(X.matrix, tuple(c), 0.6, tuple(d)))
    return SmoothConnection(descriptor, terms)


# ---------------------------------------------------------------------------
# curves of words

def edge_polyline(graph: Graph, eid, orientation: int = 1) -> np.ndarray:
    e = graph.edge(eid)
    if e.curve is not None:
        pts = np.asarray(e.curve, dtype=float)
    else:
        try:
            pts = np.asarray([graph.positions[e.src], graph.positions[e.dst]], dtype=float)
        except KeyError:
            raise GeometryError(f"edge {eid!r} has no curve and its endpoints have no positions")
    return pts if orientation == 1 else pts[::-1]


def path_polyline(graph: Graph, word: PathWord) -> np.ndarray:
    """The word's edge curves laid end to end, each after the first without its
    start point (``Graph`` holds curve ends to their vertex); a unit is its
    vertex's position."""
    if word.is_unit():
        try:
            return np.asarray([graph.positions[word.source]], dtype=float)
        except KeyError:
            raise GeometryError(f"vertex {word.source!r} has no position")
    chunks = [edge_polyline(graph, eid, o) for eid, o in word.letters]
    return np.concatenate([chunks[0]] + [pts[1:] for pts in chunks[1:]], axis=0)


# ---------------------------------------------------------------------------
# parallel transport

def _chain(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise folding."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        even = mats[0:m - m % 2]
        paired = mg.stack_mul(even[1::2], even[0::2])
        mats = np.concatenate([paired, mats[m - 1:]], axis=0) if m % 2 else paired
    return mats[0]


_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def _segment_distances(points, starts, ends) -> np.ndarray:
    """Distance from each point to each segment [starts[j], ends[j]]: shape (m, s).

    The nearest point of a segment is p + t d with t clipped to [0, 1]; a
    zero-length segment is its start point.
    """
    x = np.asarray(points, dtype=float)[:, None, :]
    d = ends - starts
    L2 = np.sum(d * d, axis=-1)
    t = np.clip(np.sum((x - starts) * d, axis=-1) / np.where(L2 > 0.0, L2, 1.0), 0.0, 1.0)
    return np.linalg.norm(x - (starts + t[..., None] * d), axis=-1)


def _bump_chords(starts, ends, centers, radii):
    """Where p + t (q - p), t in [0, 1], enters and leaves each disk: t0 <= t1,
    each of shape (s, k) for s segments and k disks, with t0 == t1 on a miss."""
    d = ends - starts
    rel = starts[:, None, :] - centers
    # p + t d meets the circle at t = (-b -+ half) / L2
    L2, b = np.sum(d * d, axis=-1)[:, None], np.sum(rel * d[:, None, :], axis=-1)
    half = np.sqrt(np.maximum(b * b - L2 * (np.sum(rel * rel, axis=-1) - radii ** 2), 0.0))
    L2 = np.where(L2 > 0.0, L2, 1.0)
    return tuple(np.clip((-b + sign * half) / L2, 0.0, 1.0) for sign in (-1.0, 1.0))


def _gauss_nodes(p: np.ndarray, q: np.ndarray, steps: int):
    """Both Gauss nodes of ``steps`` equal sub-intervals of [p, q], shape
    (..., steps, dim), and the sub-interval vector; p, q may lead with a segment axis."""
    delta = (q - p) / steps
    base = np.arange(steps)[:, None] + 0.5
    p0, d = p[..., None, :], delta[..., None, :]
    return p0 + (base - _GAUSS_OFFSET) * d, p0 + (base + _GAUSS_OFFSET) * d, delta


def _node_weights(p, q, steps: int, centers, radii, directions):
    """The one bump integrand, one row per (interval, bump) pair given as the interval's
    ends and the bump's center, radius and direction: phi at both Gauss nodes of
    ``steps`` sub-intervals of [p, q], shape (2, pairs, steps), and <u, delta> of a
    sub-interval, shape (pairs,)."""
    x1, x2, delta = _gauss_nodes(p, q, steps)
    return (bump_value(np.stack((x1, x2)), centers[:, None, :], radii[:, None]),
            np.sum(delta * directions, axis=-1))


def _line_integrals(p, q, steps: int, centers, radii, directions) -> np.ndarray:
    """The scalar line integral of phi <u, dx> over [p, q] of each pair of
    :func:`_node_weights`, at its Gauss nodes: shape (pairs,)."""
    w, scale = _node_weights(p, q, steps, centers, radii, directions)
    return 0.5 * (w[0] + w[1]).sum(axis=-1) * scale


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Where each row's run begins in the sorted row indices of ``np.nonzero``: every row
    must have one entry or more."""
    return np.flatnonzero(np.diff(rows, prepend=-1))


def _piece_exponents(conn: SmoothConnection, p: np.ndarray, q: np.ndarray,
                     steps: int, cover: np.ndarray) -> np.ndarray:
    """-sum_k c_k X_k over the bumps ``cover`` marks for each [p, q] (shape (m, k), one or
    more a row), c_k the bump's line integral at both Gauss nodes of ``steps``
    sub-intervals: the exact transport's exponent where those X_k commute, shape (m, n, n)."""
    rows, k = np.nonzero(cover)
    c = _line_integrals(p[rows], q[rows], steps, conn._centers[k], conn._radii[k], conn._dirs[k])
    return -np.add.reduceat(c[:, None, None] * conn._X[k], _row_starts(rows))


def _segment_transport(conn: SmoothConnection, p: np.ndarray, q: np.ndarray,
                       steps: int, cover: np.ndarray) -> np.ndarray:
    """One fourth-order Magnus step per sub-interval (two Gauss nodes) of each [p, q],
    shape (m, n, n), with the one-form summed over the bumps ``cover`` marks for that
    interval (shape (m, k), one or more a row).  A bump that is 0 on part of an interval
    adds exact zeros there."""
    rows, k = np.nonzero(cover)
    w, scale = _node_weights(p[rows], q[rows], steps, conn._centers[k], conn._radii[k], conn._dirs[k])
    terms = (w * scale[:, None])[..., None, None] * conn._X[k][:, None]
    M1, M2 = np.add.reduceat(terms, _row_starts(rows), axis=1)
    commutator = mg.stack_mul(M1, M2) - mg.stack_mul(M2, M1)
    omega = -0.5 * (M1 + M2) - (np.sqrt(3.0) / 12.0) * commutator
    # fold the sub-step axis, laid out first so each level's pairs are contiguous
    return _chain(np.ascontiguousarray(np.moveaxis(mg.exp_antihermitian(omega), -3, 0)))


def _pieces(polylines: Sequence, centers, radii):
    """Every piece of a segment that a bump integral must cover, in walk order: its
    polyline and segment, its ends p and q, and its cover, the disks whose chords hold
    it (shape (pieces, k)).

    Each segment is cut at every chord end of :func:`_bump_chords`, sorted with the
    missed disks' ends as inf; the pieces no disk covers are dropped.  A piece lies
    between two successive chord ends, so a chord holds all of it or none of it.
    Chord ends within 1e-12 of the one before them are one end, the first: two circles
    that meet on the segment leave no roundoff sliver between them."""
    lines = [np.atleast_2d(np.asarray(line, dtype=float)) for line in polylines]
    owner = np.repeat(np.arange(len(lines)), [len(pts) - 1 for pts in lines])
    starts = np.concatenate([pts[:-1] for pts in lines])
    ends = np.concatenate([pts[1:] for pts in lines])
    t0, t1 = _bump_chords(starts, ends, centers, radii)
    # a chord under 1e-12 wide is roundoff where a segment ends on a circle; the bump is 0 there
    wide = t1 - t0 > 1e-12
    t = np.concatenate([np.where(wide, t0, np.inf), np.where(wide, t1, np.inf)], axis=1)
    order = np.argsort(t, axis=1, kind="stable")
    cuts = np.take_along_axis(t, order, axis=1)
    # each end takes the value of the first end of its run of near-equal ends
    fresh = np.ones(cuts.shape, dtype=bool)
    fresh[:, 1:] = cuts[:, 1:] > cuts[:, :-1] + 1e-12
    first = np.maximum.accumulate(np.where(fresh, np.arange(cuts.shape[1]), 0), axis=1)
    cuts = np.take_along_axis(cuts, first, axis=1)
    np.put_along_axis(t, order, cuts, axis=1)
    t0, t1 = np.split(t, 2, axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    cover = (t0[:, None] <= a[..., None]) & (b[..., None] <= t1[:, None])
    seg, i = np.nonzero((a < b) & cover.any(axis=-1))
    a, b, d = a[seg, i], b[seg, i], ends[seg] - starts[seg]
    return owner[seg], seg, starts[seg] + a[:, None] * d, starts[seg] + b[:, None] * d, cover[seg, i]


def _refine(integrate, count: int, tol: float, floor: float = 1e-10):
    """Values of ``count`` intervals, and each one's doubling level and last difference.

    ``integrate(idx, steps)`` evaluates intervals ``idx`` at ``steps`` sub-steps, from
    ``DEFAULT_STEPS`` doubling, so a level is one call on those still active.  Each
    stops on its own: at ``tol`` in Frobenius norm once the previous difference was
    within ``256 * tol`` too (so after two doublings at least), on a stall below the
    integrand's roundoff ``floor``, or at ``MAX_DOUBLINGS``."""
    level, diff = np.zeros(count, dtype=int), np.full(count, np.inf)
    active, lev = np.arange(count), 0
    val = integrate(active, DEFAULT_STEPS) if count else np.zeros(0)
    while active.size and lev < MAX_DOUBLINGS:
        lev += 1
        v2 = integrate(active, DEFAULT_STEPS << lev)
        d = np.linalg.norm((v2 - val[active]).reshape(active.size, -1), axis=-1)
        # stop on target accuracy, unless the level before was far off (fourth order
        # shrinks the change ~16x a level), so the agreement is a chance; or on a stall
        # once the change is tiny: no spinning on a tol below the roundoff floor
        stop = ((d <= tol) & (diff[active] <= 256 * tol)) | ((d > 0.5 * diff[active]) & (d < floor))
        val[active], level[active], diff[active] = v2, lev, d
        active = active[~stop]
    return val, level, diff


def _transport_batch(conn: SmoothConnection, polylines: Sequence, tol: float):
    """Transports along many polylines in one batched pass, shape (len(polylines), n, n),
    and the levels and differences of :func:`_refine`, one per refined piece.

    On a piece of :func:`_pieces` whose bumps commute pairwise the transport is exactly
    exp(-sum_k c_k X_k), c_k the bump's scalar line integral: such a piece refines that
    exponent, and one ``exp_antihermitian`` call takes them all at the end.  A run of
    adjacent pieces of one segment whose bumps do not commute is one Magnus interval of
    :func:`_segment_transport`, covered by the bumps of all its pieces.  Both kinds
    refine together, each in Frobenius norm: ``|exp A - exp B| <= |A - B|`` for
    anti-hermitian A and B, so ``tol`` bounds the transport either way."""
    n = mg.dim(conn.descriptor)
    owner, seg, p, q, cover = _pieces(polylines, conn._centers, conn._radii)
    if not len(p):
        identities = np.repeat(np.eye(n, dtype=complex)[None], len(polylines), axis=0)
        return identities, np.zeros(0, dtype=int), np.zeros(0)
    magnus = (cover & (cover @ ~conn._commutes)).any(axis=1)
    run = np.zeros_like(magnus)  # a Magnus piece that starts where the one before it ends
    run[1:] = magnus[1:] & magnus[:-1] & (seg[1:] == seg[:-1]) & np.all(p[1:] == q[:-1], axis=-1)
    heads = np.flatnonzero(~run)
    tails = np.append(heads[1:], len(run)) - 1
    owner, p, q, magnus = owner[heads], p[heads], q[tails], magnus[heads]
    cover = np.logical_or.reduceat(cover, heads)

    def integrate(idx, steps):
        val = np.empty((len(idx), n, n), dtype=complex)
        for kernel, mask in ((_segment_transport, magnus[idx]), (_piece_exponents, ~magnus[idx])):
            if mask.any():
                i = idx[mask]
                val[mask] = kernel(conn, p[i], q[i], steps, cover[i])
        return val

    u, level, diff = _refine(integrate, len(p), tol)
    u[~magnus] = mg.exp_antihermitian(u[~magnus])
    # each polyline is the word of its pieces in walk order
    ends = np.searchsorted(owner, np.arange(len(polylines) + 1))
    words = [[(j, 1) for j in range(a, b)] for a, b in zip(ends[:-1], ends[1:])]
    return _word_products(u, words), level, diff


def transport(conn: SmoothConnection, polyline, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transport matrix along a polyline: the one-polyline case of :func:`_transport_batch`."""
    return _transport_batch(conn, [polyline], tol)[0][0]


def holonomy_smooth(conn: SmoothConnection, polyline, tol: float = DEFAULT_TOL) -> mg.GroupElement:
    return mg.GroupElement(conn.descriptor, transport(conn, polyline, tol))


class _EdgeTransports(Mapping):
    """Edge id -> transport matrix of a smooth connection, integrated on demand and kept."""

    def __init__(self, conn: SmoothConnection, graph: Graph, tol: float):
        self._conn, self._graph, self._tol = conn, graph, tol
        self._cache = {}

    def fill(self, eids):
        todo = [e for e in dict.fromkeys(eids) if e not in self._cache]
        if todo:
            lines = [edge_polyline(self._graph, e) for e in todo]
            stack = _transport_batch(self._conn, lines, self._tol)[0]
            self._cache.update(zip(todo, mg.admit(self._conn.descriptor, stack)))

    def __getitem__(self, eid):  # a read that misses integrates every missing edge in one pass
        if eid not in self._cache:
            self._graph.edge(eid)  # an unknown id fails before any integration
            self.fill(self._graph.edges)
        return self._cache[eid]

    def __contains__(self, eid):
        return eid in self._graph.edges

    def __iter__(self):
        return iter(self._graph.edges)

    def __len__(self):
        return len(self._graph.edges)


def restrict(conn: SmoothConnection, graph: Graph, tol: float = DEFAULT_TOL) -> GeneralizedConnection:
    """The generalized connection a smooth one induces on a graph's edges.

    Each edge holds the transport along its curve, integrated when first
    needed and kept: :func:`holonomies` integrates every edge its words walk
    in one batched pass, and an edge that no word walks is never integrated;
    any other read integrates every missing edge in one batched pass.
    Bump terms and graph points must have the same number of coordinates.
    """
    if conn.terms and graph.chart_dim not in (None, conn._centers.shape[1]):
        raise ValueError(f"bump terms have {conn._centers.shape[1]} chart coordinates, "
                         f"the graph's points {graph.chart_dim}")
    out = GeneralizedConnection.__new__(GeneralizedConnection)
    out.graph, out.descriptor = graph, conn.descriptor
    out.values = _EdgeTransports(conn, graph, tol)
    return out


# ---------------------------------------------------------------------------
# interpolation on an independent family

@dataclass(frozen=True)
class InterpolationTarget:
    """A path, the value its holonomy should take, and a private window.

    ``window`` is a pair of indices into the path's polyline; the
    sub-polyline between them must be crossed by no other family path.
    Detecting privacy automatically is out of scope: the window is the
    caller's independence witness and is only verified, not discovered.
    """

    word: PathWord
    value: mg.GroupElement
    window: tuple


def _bump_coefficients(centers, radii, directions, polylines: Sequence) -> np.ndarray:
    """Integral of phi_k(x) <u_k, dx> along polyline k for every k, in one :func:`_refine`
    pass to ``COEFFICIENT_TOL``: :func:`_line_integrals`, the integral of transport's
    commuting pieces, on the pieces of :func:`_pieces` that polyline k's own disk covers."""
    centers, radii, directions = (np.asarray(a, dtype=float) for a in (centers, radii, directions))
    owner, _, p, q, cover = _pieces(polylines, centers, radii)
    piece, disk = np.nonzero(cover)
    own = disk == owner[piece]
    piece, disk = piece[own], disk[own]

    def integrate(idx, steps):
        k = disk[idx]
        return _line_integrals(p[piece[idx]], q[piece[idx]], steps, centers[k], radii[k], directions[k])

    values = _refine(integrate, len(piece), COEFFICIENT_TOL, floor=1e-14)[0]
    return np.bincount(owner[piece], values, minlength=len(polylines))


def interpolate_connection(graph: Graph, targets: Sequence[InterpolationTarget],
                           extra_paths: Sequence[PathWord] = ()) -> SmoothConnection:
    """Smooth connection whose holonomy hits each target on its path.

    Places one bump term on each target's private window and solves for the
    generator, using that a single path meets only its own bump: the
    transport collapses to ``exp(-c X)`` with ``c`` the scalar bump line
    integral, so ``X = -log(value)/c`` is exact up to integration error.
    Every target's ``c`` comes from one :func:`_bump_coefficients` pass, at the
    Gauss nodes of :func:`transport` over the chords its bump cuts from its path.

    The bump sits at the window's arc-length midpoint.  Its room is the
    distance from there to the nearest segment of every other family path,
    every extra path and the target's own path outside the window, capped at
    half the window's length; its radius is ``CLEARANCE`` times the room.
    Since ``CLEARANCE < 1``, a positive room leaves every foreign path
    strictly outside the bump, so no bump can leak onto another path.

    Raises IndependenceError when a window has no room (another path
    crosses it), or when its own path barely meets its bump.
    """
    if not targets:
        raise ValueError("no targets")
    desc = targets[0].value.descriptor
    polylines = [path_polyline(graph, t.word) for t in targets]
    lines = polylines + [path_polyline(graph, w) for w in extra_paths]
    # every segment of every line, a one-point line being one zero-length segment
    starts = np.concatenate([line[:-1] if len(line) > 1 else line for line in lines])
    ends = np.concatenate([line[1:] if len(line) > 1 else line for line in lines])
    offsets = np.cumsum([0] + [max(len(line) - 1, 1) for line in lines])
    mids, halves, directions = [], [], []
    for k, t in enumerate(targets):
        if t.value.descriptor != desc:
            raise mg.DescriptorMismatchError("targets mix group descriptors")
        pts = polylines[k]
        lo, hi = t.window
        if not (0 <= lo < hi < pts.shape[0]):
            raise ValueError(f"target {k}: window {t.window} outside the polyline")
        window = pts[lo:hi + 1]
        lengths = np.linalg.norm(np.diff(window, axis=0), axis=1)
        total = float(lengths.sum())
        chord = np.linalg.norm(window[-1] - window[0])
        if chord == 0.0:
            raise ValueError(f"target {k}: window ends coincide at {window[0].tolist()}, "
                             f"so its bump has no direction")
        # arc-length midpoint of the window, on the first segment reaching it
        cum = np.cumsum(lengths)
        j = int(np.searchsorted(cum, total / 2.0))
        acc = cum[j - 1] if j else 0.0
        mids.append(window[j] + (total / 2.0 - acc) / lengths[j] * (window[j + 1] - window[j]))
        halves.append(total / 2.0)
        directions.append((window[-1] - window[0]) / chord)
    dist = _segment_distances(mids, starts, ends)
    for k, t in enumerate(targets):
        dist[k, offsets[k] + t.window[0]:offsets[k] + t.window[1]] = np.inf
    radii = CLEARANCE * np.minimum(dist.min(axis=1), halves)
    # a target without clearance fails before its coefficient is read; its radius need only be > 0
    coefficients = _bump_coefficients(mids, np.maximum(radii, 1e-9), directions, polylines)
    for k, (radius, c) in enumerate(zip(radii, coefficients)):
        if radius <= 1e-9:
            raise IndependenceError(
                f"target {k}: window has no clearance; paths overlap its segment")
        if abs(c) < MIN_COEFFICIENT:
            raise IndependenceError(
                f"target {k}: path barely meets its own bump (coefficient {c:.2e})")
    X = -mg.log_batch(desc, np.array([t.value.matrix for t in targets])) / coefficients[:, None, None]
    return SmoothConnection(desc, [BumpTerm(x, tuple(m), float(r), tuple(d))
                                   for x, m, r, d in zip(X, mids, radii, directions)])


# ---------------------------------------------------------------------------
# serialization

def generalized_to_dict(conn: GeneralizedConnection) -> dict:
    """The connection's group and its edge values keyed by ``str`` of the edge id."""
    return {
        "group": mg.descriptor_to_dict(conn.descriptor),
        "values": {str(i): mg.matrix_to_pairs(m) for i, m in conn.values.items()},
    }


def generalized_from_dict(graph: Graph, data: Mapping) -> GeneralizedConnection:
    """Edge values keyed by ``str`` of the edge id, or a ``haar_seed`` to draw them."""
    desc = mg.descriptor_from_dict(data["group"])
    if "haar_seed" in data:
        return random_generalized_connection(graph, desc, json_int(data["haar_seed"], "haar_seed"))
    values = {}
    for key, pairs in data["values"].items():
        if key not in graph.names:
            raise UnknownEdgeError(f"no edge with id {key!r}")
        values[graph.names[key]] = mg.matrix_from_pairs(pairs)
    return GeneralizedConnection(graph, desc, values)


def smooth_to_dict(conn: SmoothConnection) -> dict:
    return {
        "group": mg.descriptor_to_dict(conn.descriptor),
        "terms": [
            {
                "X": mg.matrix_to_pairs(t.X),
                "center": list(t.center),
                "radius": t.radius,
                "direction": list(t.direction),
            }
            for t in conn.terms
        ],
    }


def smooth_from_dict(data: Mapping) -> SmoothConnection:
    desc = mg.descriptor_from_dict(data["group"])
    terms = [
        BumpTerm(mg.matrix_from_pairs(t["X"]), tuple(t["center"]),
                 float(t["radius"]), tuple(t["direction"]))
        for t in data["terms"]
    ]
    return SmoothConnection(desc, terms)
