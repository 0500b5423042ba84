"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares no
code with the library: exhaustive cancellation for word reduction,
deterministic quadrature over SU(2) for Haar means, grid search for
conjugators, plain Simpson refinement for line integrals.  The exceptions
are the implementations the library replaced, kept as they were:
``reduce_word_letterwise`` and ``word_from_tokens_letterwise`` (the
composability check of one ``letter_endpoints`` call per letter, and the
token parse of every token, where the library reads a letter table and
compares the endpoint tuples in one pass and parses each distinct token
once), ``holonomy_letterwise`` (one group multiplication per letter),
``_word_trace`` (a word's trace over a matrix stack, one product per
letter), ``word_product_per_word``, ``holonomies_per_word``,
``first_broken_relation`` and ``separation_per_word`` (one gather and one
pairwise fold per word, per relation and per trace word, with their own copy
of the signed-letter row rule, where the library folds every word of one length
in one ``_word_products`` call), ``point_polyline_distance`` (one Python step per segment),
``polar_scipy`` and ``log_schur`` (the polar factor and the Schur-form
logarithm of scipy, which the library no longer imports),
``compose_seam`` (word composition cancelling only across the seam, where
the library runs the one free reduction over both words),
``exp_eigh`` (the exponential of one ``eigh`` per matrix, where the library
takes the Rodrigues and Cayley-Hamilton closed forms up to 3x3),
``log_block_one`` (the Cayley-transform logarithm of one leaf block of one
matrix, with the SU whole-turn moves as a loop per eigenvalue, where the
library takes a whole stack per leaf with one indexed update) and
``exp_map_leafwise`` (the exponential one leaf block at a time, with the
torus leaves' diagonal ``exp`` and ``exp_eigh`` on the other leaves, where
the library exponentiates the whole block-diagonal matrix in one call),
``admit_one`` and ``repair_one`` (the membership check, polar repair and
coset canonicalization of one matrix at a time, where the library admits
every matrix from outside as one stack and repairs every product stack by one
rule),
``haar_leaf_qr`` (Haar draws of one leaf from numpy's QR of a Ginibre
stack with the phase fix of the R diagonal, where the library orthonormalizes
the columns by Gram-Schmidt),
``gram_schmidt_rows``, ``haar_leaf_rows``, ``haar_batch_rows`` and
``gauged_values_rows`` (the Haar draws and the gauge average on row-major
stacks, every matrix's rows contiguous, where the library keeps every Haar
stack entry-major and runs the gauge action on slices of samples),
``canonicalize_batch_matmul`` (the coset tournament that formed every
candidate ``batch @ k`` in full and compared full key arrays of every entry,
with its own copy of that lexicographic compare, where the library keeps the
winning column scaling ``batch * diag(k)`` and reads an entry only while
candidates tie),
``scalar_line_integral_midpoint`` (the refined midpoint rule over every
segment that interpolation used for its bump coefficient),
``scalar_line_integral`` (one bump coefficient at the Gauss nodes of
transport over its chords, in its own doubling loop to a relative change of
1e-12 in at most 12 doublings, one target at a time, where the library
refines every chord of every target together in the doubling loop of transport),
``gauge_transform_matmul`` and ``chain_matmul`` (the broadcast gauge action
and the pairwise fold of a word's letters with numpy's ``@``, one BLAS call
per matrix, where the library multiplies stacks of matrices up to 3x3 by
``stack_mul``'s sum over the inner index),
``gauge_act_edgewise`` (the vertex gauge action as three group operations
per edge), ``split_holonomy_per_factor`` (one transport per factor of a
product-group connection) and ``transport_whole_segments`` (the adaptive
Magnus transport over every whole segment that a bump comes near, from a
caller-chosen start count, which can step over a bump that only grazes a
long segment, with the all-bump Magnus step ``segment_transport_all_bumps``),
``transport_all_magnus`` (the library's transport before it took exact
exponentials: every bump evaluated at every Gauss node of the union of each
segment's chords, ``_chord_intervals``, and a Magnus step per sub-interval,
where the library cuts pieces at every chord end and takes
exp(-sum_k c_k X_k) wherever the bumps on a piece commute) and
``transport_per_interval`` (the piece transport that splits each segment in a
Python loop, ``segment_pieces``, and refines one piece or Magnus run at a time,
each with its own loop of ``_piece_exponents`` or ``_segment_transport`` calls,
where the library refines every piece of every polyline together; like the
library, it stops a piece at the tolerance only when the previous difference
was within 256 times it),
``split_clusters_loop`` (the spectral clusters of orbit representatives grown
one sorted value at a time, where the library splits the sort order at every
gap in one ``np.split``), and
``depends_on`` and ``dependencies`` (the breadth-first factor search, capped
by a bound, that decided closure functoriality before the library found
every relation among a loop family by one Stallings fold).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    DEFAULT_STEPS,
    DEFAULT_TOL,
    MAX_DOUBLINGS,
    BumpTerm,
    GeneralizedConnection,
    SmoothConnection,
    _bump_chords,
    _chain,
    _gauss_nodes,
    _piece_exponents,
    _refine,
    _segment_distances,
    _segment_transport,
    bump_value,
    gauge_transform,
    holonomy_smooth,
)
from holonomy_lab.cylindrical import SEPARATION_THRESHOLD, SeparationVerdict, _index_words
from holonomy_lab.pathgroupoid import (
    CompositionError,
    Graph,
    PathWord,
    _free_reduce,
    compose,
    inverse,
    json_int,
    letter_endpoints,
    unit,
)


# ---------------------------------------------------------------------------
# free cancellation oracles

def cancellable_positions(letters):
    return [i for i in range(len(letters) - 1)
            if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]]


def all_order_normal_forms(letters):
    """Set of normal forms reachable by cancelling in every possible order."""
    memo = {}

    def go(word):
        if word in memo:
            return memo[word]
        positions = cancellable_positions(word)
        if not positions:
            out = {word}
        else:
            out = set()
            for i in positions:
                out |= go(word[:i] + word[i + 2:])
        memo[word] = out
        return out

    return go(tuple(letters))


def leftmost_innermost_reduce(letters):
    word = list(letters)
    while True:
        positions = cancellable_positions(word)
        if not positions:
            return tuple(word)
        i = positions[0]
        del word[i:i + 2]


def reduce_word_letterwise(graph: Graph, letters: Sequence, source=None) -> PathWord:
    """``reduce_word`` checking composability with one ``letter_endpoints`` per letter."""
    letters = list(letters)
    if not letters:
        if source is None:
            raise ValueError("empty word needs an explicit source vertex")
        return unit(graph, source)
    s0, prev_r = letter_endpoints(graph, letters[0])
    if source is not None and source != s0:
        raise CompositionError(f"word starts at {s0!r}, expected {source!r}")
    for k in range(1, len(letters)):
        s, r = letter_endpoints(graph, letters[k])
        if s != prev_r:
            raise CompositionError(
                f"letters {k-1} and {k} do not compose: range {prev_r!r} != source {s!r}")
        prev_r = r
    stack = _free_reduce(letters)
    if not stack:
        return PathWord((), s0, s0)
    src, _ = letter_endpoints(graph, stack[0])
    _, rng = letter_endpoints(graph, stack[-1])
    return PathWord(tuple(stack), src, rng)


def compose_seam(p: PathWord, q: PathWord) -> PathWord:
    """``compose`` cancelling only across the seam of two reduced words, one pair at a time."""
    if q.range != p.source:
        raise CompositionError(
            f"cannot compose: range {q.range!r} of the right word "
            f"!= source {p.source!r} of the left word")
    merged = list(q.letters) + list(p.letters)
    i = len(q.letters)
    while 0 < i < len(merged):
        a, b = merged[i - 1], merged[i]
        if a[0] == b[0] and a[1] == -b[1]:
            del merged[i - 1:i + 1]
            i -= 1
        else:
            break
    if not merged:
        return PathWord((), q.source, q.source)
    return PathWord(tuple(merged), q.source, p.range)


def word_from_tokens_letterwise(graph: Graph, tokens, source=None) -> PathWord:
    """``word_from_tokens`` parsing every token on its own, then :func:`reduce_word_letterwise`;
    a token names the edge whose ``str`` it is, found by a scan of the edge ids."""
    def named(name, fallback):
        return next((eid for eid in graph.edges if str(eid) == name), fallback)

    letters = []
    for t in tokens:
        if isinstance(t, int):
            if json_int(t, "a signed edge id") == 0:
                raise ValueError("0 is not a valid signed edge id")
            letters.append((named(str(abs(t)), abs(t)), 1 if t > 0 else -1))
        else:
            t = str(t).strip()
            o = 1
            if t.endswith("^-1"):
                o, t = -1, t[:-3]
            elif t.startswith("-"):
                o, t = -1, t[1:]
            eid = int(t) if t.lstrip("-").isdigit() else t
            letters.append((named(t, eid), o))
    return reduce_word_letterwise(graph, letters, source=source)


def enumerate_composable_words(graph, max_len):
    """Every raw (possibly unreduced) composable letter sequence up to max_len."""
    out = []
    letters_from = {}
    for v in graph.vertices:
        opts = []
        for eid in graph.incident_edges(v):
            e = graph.edges[eid]
            if e.src == v:
                opts.append((eid, 1))
            if e.dst == v:
                opts.append((eid, -1))
        letters_from[v] = opts

    def extend(word, at):
        if word:
            out.append(tuple(word))
        if len(word) == max_len:
            return
        for letter in letters_from[at]:
            _, r = letter_endpoints(graph, letter)
            word.append(letter)
            extend(word, r)
            word.pop()

    for v in graph.vertices:
        extend([], v)
    return out


# ---------------------------------------------------------------------------
# SU(2) Haar quadrature

def su2_from_angles(theta, phi1, phi2):
    a = np.cos(theta) * np.exp(1j * phi1)
    b = np.sin(theta) * np.exp(1j * phi2)
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def su2_quadrature_nodes(n_theta=24, n_phi=24):
    """Deterministic Haar quadrature nodes and weights on SU(2).

    Gauss-Legendre in the polar angle, periodic trapezoid in both phases;
    exact to near machine precision for low-degree polynomial integrands.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.25 * np.pi * (x + 1.0)
    wt = 0.25 * np.pi * w * np.sin(2.0 * theta)  # integrates to 1 over [0, pi/2]
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    nodes, weights = [], []
    for t, wth in zip(theta, wt):
        for p1 in phis:
            for p2 in phis:
                nodes.append(su2_from_angles(t, p1, p2))
                weights.append(wth / n_phi / n_phi)
    return np.array(nodes), np.array(weights)


def su2_haar_mean(f, n_theta=24, n_phi=24):
    nodes, weights = su2_quadrature_nodes(n_theta, n_phi)
    vals = np.array([f(a) for a in nodes])
    return (weights * vals).sum()


def su2_grid(n_theta=14, n_phi=14):
    nodes, _ = su2_quadrature_nodes(n_theta, n_phi)
    return nodes


def brute_force_conjugator(mats_a, mats_b, grid):
    """Grid search for a unitary with u^-1 A u close to B; returns (u, residual)."""
    best, best_res = None, np.inf
    for u in grid:
        res = max(np.linalg.norm(u.conj().T @ a @ u - b) for a, b in zip(mats_a, mats_b))
        if res < best_res:
            best, best_res = u, res
    return best, float(best_res)


# ---------------------------------------------------------------------------
# scalar line integrals

def polyline_line_integral(f_vec, polyline, per_segment=256):
    """Midpoint-rule integral of a covector field along a polyline.

    ``f_vec(x, v)`` maps a point and a displacement to a scalar.  Used as an
    independent check of the transport quadrature at ~1e-10 accuracy.
    """
    total = 0.0
    pts = np.asarray(polyline, dtype=float)
    for p, q in zip(pts[:-1], pts[1:]):
        delta = (q - p) / per_segment
        for i in range(per_segment):
            mid = p + (i + 0.5) * delta
            total += f_vec(mid, delta)
    return total


def scalar_line_integral_midpoint(center, radius, direction, polyline):
    """Refined midpoint quadrature of phi(x) <u, dx> along a polyline."""
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    u = np.asarray(direction, dtype=float)

    def once(per_seg):
        total = 0.0
        for p, q in zip(pts[:-1], pts[1:]):
            delta = (q - p) / per_seg
            mids = p + (np.arange(per_seg)[:, None] + 0.5) * delta
            total += float(bump_value(mids, center, radius).sum() * (u @ delta))
        return total

    # midpoints at most radius / 64 apart from the first level: coarser levels can step
    # over the narrow peak of a bump that only grazes a segment and agree on about 0
    s = max(64, int(np.ceil(64.0 * np.linalg.norm(np.diff(pts, axis=0), axis=1).max(initial=0.0)
                            / radius)))
    val = once(s)
    while 2 * s <= 64 << 12:  # no finer than 64 points per segment doubled 12 times
        s *= 2
        nxt = once(s)
        if abs(nxt - val) <= 1e-12 * max(1.0, abs(nxt)):
            return nxt
        val = nxt
    return val



def scalar_line_integral(center, radius, direction, polyline) -> float:
    """Integral of phi(x) <u, dx> along a polyline, at the Gauss nodes of transport.

    Only the chords :func:`_bump_chords` cuts from the segments, where phi
    lives, are integrated, so no level can miss a grazing bump; chords start
    at ``DEFAULT_STEPS`` sub-steps, doubling until two changes in a row are
    <= 1e-12 relative: one small change can be a chance agreement of two
    coarse levels, 1.3e-10 away from the limit.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    p, d = pts[:-1], np.diff(pts, axis=0)
    t0, t1 = _bump_chords(p, pts[1:], center[None], np.array([radius]))

    def once(steps):
        x1, x2, delta = _gauss_nodes(p + t0 * d, p + t1 * d, steps)
        weights = bump_value(x1, center, radius) + bump_value(x2, center, radius)
        return 0.5 * float(weights.sum(axis=-1) @ (delta @ direction))

    val, settled = once(DEFAULT_STEPS), False
    for lev in range(1, 13):
        nxt = once(DEFAULT_STEPS << lev)
        small = abs(nxt - val) <= 1e-12 * max(1.0, abs(nxt))
        if small and settled:
            return nxt
        val, settled = nxt, small
    return val

# ---------------------------------------------------------------------------
# point-to-polyline distance

def point_polyline_distance(point: np.ndarray, pts: np.ndarray) -> float:
    if pts.shape[0] == 1:
        return float(np.linalg.norm(point - pts[0]))
    best = np.inf
    for p, q in zip(pts[:-1], pts[1:]):
        d = q - p
        L2 = float(d @ d)
        t = 0.0 if L2 == 0.0 else float(np.clip((point - p) @ d / L2, 0.0, 1.0))
        best = min(best, float(np.linalg.norm(point - (p + t * d))))
    return best


# ---------------------------------------------------------------------------
# parallel transport

def transport_field(field, polyline, n, steps=64):
    """Transport for an arbitrary one-form ``field(x, v) -> matrix``.

    Plain fixed-step midpoint integrator: no bump structure is assumed, so
    nothing is skipped or refined adaptively.  ``field`` takes a segment's
    (steps, d) midpoints at once and returns their (steps, n, n) matrices,
    which are exponentiated by ``eigh`` as one stack and multiplied in order.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    acc = np.eye(n, dtype=complex)
    for p, q in zip(pts[:-1], pts[1:]):
        delta = (q - p) / steps
        mids = p + (np.arange(steps)[:, None] + 0.5) * delta
        w, v = np.linalg.eigh(1j * field(mids, delta))
        for step in (v * np.exp(1j * w)[:, None, :]) @ np.conj(v).swapaxes(-1, -2):
            acc = step @ acc
    return acc


def segment_transport_all_bumps(conn: SmoothConnection, p: np.ndarray, q: np.ndarray,
                                steps: int) -> np.ndarray:
    """One fourth-order Magnus step per sub-interval (two Gauss nodes) of [p, q];
    p, q may lead with an interval axis, with the same arithmetic per interval."""
    x1, x2, delta = _gauss_nodes(p, q, steps)
    scale = np.sum(delta[..., None, :] * conn._dirs, axis=-1)[..., None, :]
    M1, M2 = (np.tensordot(bump_value(x, conn._centers, conn._radii) * scale, conn._X, axes=(-1, 0))
              for x in (x1, x2))
    commutator = mg.stack_mul(M1, M2) - mg.stack_mul(M2, M1)
    omega = -0.5 * (M1 + M2) - (np.sqrt(3.0) / 12.0) * commutator
    # fold the sub-step axis, laid out first so each level's pairs are contiguous
    return _chain(np.ascontiguousarray(np.moveaxis(mg.exp_antihermitian(omega), -3, 0)))


def _chord_intervals(polylines: Sequence, centers, radii):
    """Polyline and ends p, q of every interval a bump integral must cover, in walk
    order: the union of the chords :func:`_bump_chords` cuts from one segment, where
    the bumps live."""
    lines = [np.atleast_2d(np.asarray(line, dtype=float)) for line in polylines]
    owner = np.repeat(np.arange(len(lines)), [len(pts) - 1 for pts in lines])
    starts = np.concatenate([pts[:-1] for pts in lines])
    ends = np.concatenate([pts[1:] for pts in lines])
    t0, t1 = _bump_chords(starts, ends, centers, radii)
    # a chord under 1e-12 wide is roundoff where a segment ends on a circle; the bump is 0 there
    rows, cols = np.nonzero(t1 - t0 > 1e-12)
    spans = []  # [segment, a, b]: the union of each segment's chords, in walk order
    for j, a, b in sorted(zip(rows, t0[rows, cols], t1[rows, cols])):
        if spans and spans[-1][0] == j and a <= spans[-1][2]:
            spans[-1][2] = max(spans[-1][2], b)
        else:
            spans.append([j, a, b])
    j, a, b = np.array(spans).reshape(-1, 3).T
    j = j.astype(int)
    return owner[j], *(starts[j] + t[:, None] * (ends[j] - starts[j]) for t in (a, b))


def transport_all_magnus(conn: SmoothConnection, polylines: Sequence, tol: float):
    """Transports along many polylines in one batched pass, shape (len(polylines), n, n),
    and the levels and differences of :func:`_refine` over :func:`_chord_intervals`."""
    owner, p, q = _chord_intervals(polylines, conn._centers, conn._radii)
    u, level, diff = _refine(lambda idx, steps: segment_transport_all_bumps(conn, p[idx], q[idx], steps),
                             len(p), tol)
    out = np.repeat(np.eye(mg.dim(conn.descriptor), dtype=complex)[None], len(polylines), axis=0)
    for k, m in zip(owner, u):
        out[k] = m @ out[k]
    return out, level, diff


def transport_whole_segments(conn, polyline, steps=DEFAULT_STEPS, tol=DEFAULT_TOL):
    """Transport matrix along a polyline, adaptive per segment.

    Each segment starts at ``steps`` Magnus sub-steps and the count doubles
    until two successive refinements differ by less than ``tol`` in
    Frobenius norm.  Segments outside every bump contribute the identity
    exactly.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    acc = np.eye(mg.dim(conn.descriptor), dtype=complex)
    if not conn.terms:
        return acc
    near = np.any(_segment_distances(conn._centers, pts[:-1], pts[1:])
                  < conn._radii[:, None], axis=0)
    for p, q in zip(pts[:-1][near], pts[1:][near]):
        s = steps
        u = segment_transport_all_bumps(conn, p, q, s)
        prev = None
        for _ in range(MAX_DOUBLINGS):
            s *= 2
            u2 = segment_transport_all_bumps(conn, p, q, s)
            diff = np.linalg.norm(u2 - u)
            u = u2
            # stop on target accuracy; a stall check guards against spinning
            # on a tolerance below the roundoff floor, but only once the
            # change is already tiny (convergence need not be monotone)
            if diff <= tol or (prev is not None and diff > 0.5 * prev and diff < 1e-10):
                break
            prev = diff
        acc = u @ acc
    return acc


def commuting(X: np.ndarray, i: int, j: int) -> bool:
    """Whether generators i and j commute to roundoff: ||[X_i, X_j]|| <= 1e-14 ||X_i|| ||X_j||."""
    gap = np.linalg.norm(X[i] @ X[j] - X[j] @ X[i])
    return i == j or gap <= 1e-14 * np.linalg.norm(X[i]) * np.linalg.norm(X[j])


def segment_pieces(conn, p, q):
    """The pieces of segment [p, q] in walk order, as [a, b, disks, magnus] in segment
    parameters: cut at every chord end, kept where some disk holds the piece, and
    joined into one Magnus run where adjacent pieces each hold non-commuting bumps."""
    t0, t1 = _bump_chords(p[None], q[None], conn._centers, conn._radii)
    chords = [(k, a, b) for k, (a, b) in enumerate(zip(t0[0], t1[0])) if b - a > 1e-12]
    cuts = sorted(t for _, a, b in chords for t in (a, b))
    runs = []
    for a, b in zip(cuts, cuts[1:]):
        disks = [k for k, c0, c1 in chords if c0 <= a and b <= c1]
        if not (a < b and disks):
            continue
        magnus = not all(commuting(conn._X, i, j) for i in disks for j in disks)
        if magnus and runs and runs[-1][3] and runs[-1][1] == a:
            runs[-1][1], runs[-1][2] = b, sorted(set(runs[-1][2]) | set(disks))
        else:
            runs.append([a, b, disks, magnus])
    return runs


def transport_per_interval(conn, polyline, tol=DEFAULT_TOL):
    """Transport along a polyline over the pieces of :func:`segment_pieces`, refining
    one piece at a time: the exponent -sum_k c_k X_k of a commuting piece, or the
    Magnus transport of a run.

    Returns the matrix and, per piece in walk order, its doubling level and last
    difference.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    n = mg.dim(conn.descriptor)
    acc = np.eye(n, dtype=complex)
    levels, diffs = [], []
    for j in range(len(pts) - 1):
        d = pts[j + 1] - pts[j]
        for a, b, disks, magnus in segment_pieces(conn, pts[j], pts[j + 1]):
            p, q = pts[j] + a * d, pts[j] + b * d

            kernel = _segment_transport if magnus else _piece_exponents
            cover = np.isin(np.arange(len(conn.terms)), disks)[None]

            def integrate(steps):
                return kernel(conn, p[None], q[None], steps, cover)[0]

            s, prev = DEFAULT_STEPS, None
            u = integrate(s)
            level, diff = 0, np.inf
            for _ in range(MAX_DOUBLINGS):
                s *= 2
                u2 = integrate(s)
                diff = np.linalg.norm(u2 - u)
                u = u2
                level += 1
                # stop on target accuracy once the previous change was near it too
                # (two levels agreeing by chance is no convergence); a stall check
                # guards against spinning on a tolerance below the roundoff floor,
                # but only once the change is already tiny (convergence need not
                # be monotone)
                confirmed = prev is not None and prev <= 256 * tol
                if (diff <= tol and confirmed) or (prev is not None and diff > 0.5 * prev
                                                   and diff < 1e-10):
                    break
                prev = diff
            levels.append(level)
            diffs.append(diff)
            acc = (u if magnus else mg.exp_antihermitian(u)) @ acc
    return acc, levels, diffs


# ---------------------------------------------------------------------------
# holonomy of words

def holonomy_letterwise(conn, word):
    """Left fold of group elements, last-walked letter first.

    Every letter wraps its edge matrix, inverts it when walked backwards and
    goes through ``mg.mul``, which repairs drift and canonicalizes a quotient
    product at every step.
    """
    acc = mg.identity(conn.descriptor)
    for eid, o in reversed(word.letters):
        v = mg.GroupElement(conn.descriptor, conn.values[eid], check=False)
        acc = mg.mul(acc, v if o == 1 else mg.inv(v))
    return acc


def word_product_per_word(mats: np.ndarray, word) -> np.ndarray:
    """One signed word over ``mats`` of shape (k, ..., n, n): (i, 1) reads row i and
    (i, -1) row k + i of the table of the matrices and their adjoints, gathered by the
    word's own index list and folded by ``_chain``; the empty word is the identity."""
    k = len(mats)
    if not word:
        return np.broadcast_to(np.eye(mats.shape[-1], dtype=complex), mats.shape[1:]).copy()
    table = np.concatenate([mats, np.conj(np.swapaxes(mats, -1, -2))])
    return _chain(table[[i if o == 1 else k + i for i, o in word]])


def holonomies_per_word(conn, words) -> np.ndarray:
    """Each path word's holonomy on its own: the walked edges' values in the order first
    walked, one :func:`word_product_per_word` per word, repaired as one stack."""
    edges = list(dict.fromkeys(eid for w in words for eid, _ in w.letters))
    n = mg.dim(conn.descriptor)
    mats = np.array([conn.values[eid] for eid in edges], dtype=complex).reshape(-1, n, n)
    pos = {eid: k for k, eid in enumerate(edges)}
    out = [word_product_per_word(mats, [(pos[e], o) for e, o in w.letters]) for w in words]
    return mg.repair(conn.descriptor, np.array(out, dtype=complex).reshape(-1, n, n))


def first_broken_relation(stack: np.ndarray, relations, tol: float):
    """The first relation whose value on ``stack`` is farther than ``tol`` from I, and its
    1-based number; (None, None) when all hold.  One product per relation."""
    for j, rel in enumerate(relations):
        if np.linalg.norm(word_product_per_word(stack, rel) - np.eye(stack.shape[-1])) > tol:
            return rel, j + 1
    return None, None


def separation_per_word(stack_a, stack_b, max_len: int = 3):
    """The trace separation test one word at a time: the first word of the largest
    trace gap, by a strict ``>`` from a gap of 0."""
    a, b = np.array(stack_a, dtype=complex), np.array(stack_b, dtype=complex)
    best_gap, best_word = 0.0, None
    words = _index_words(len(a), max_len)
    for w in words:
        gap = abs(np.trace(word_product_per_word(a, w)) - np.trace(word_product_per_word(b, w)))
        if gap > best_gap:
            best_gap, best_word = gap, w
    return SeparationVerdict(best_gap > SEPARATION_THRESHOLD, best_gap,
                             best_word if best_word is not None else (), len(words))


def _word_trace(stack: np.ndarray, word) -> complex:
    n = stack.shape[-1]
    acc = np.eye(n, dtype=complex)
    for idx, o in word:
        m = stack[idx]
        acc = (m if o == 1 else m.conj().T) @ acc
    return complex(np.trace(acc))


# ---------------------------------------------------------------------------
# gauge actions and product groups

def gauge_transform_matmul(stack: np.ndarray, g_src: np.ndarray, g_dst: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(g_dst, -1, -2)) @ stack @ g_src


def chain_matmul(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise folding."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        even = mats[0:m - m % 2]
        paired = even[1::2] @ even[0::2]
        mats = np.concatenate([paired, mats[m - m % 2:]], axis=0)
    return mats[0]


def gauge_act_edgewise(conn, gauge):
    """values[e] -> g(dst)^-1 values[e] g(src) as group operations, edge by edge."""
    out = {}
    for eid, e in conn.graph.edges.items():
        v, g_src, g_dst = (mg.GroupElement(conn.descriptor, m, check=False)
                           for m in (conn.values[eid], gauge.values[e.src], gauge.values[e.dst]))
        out[eid] = mg.mul(mg.mul(mg.inv(g_dst), v), g_src)
    return GeneralizedConnection(conn.graph, conn.descriptor, out)


def split_holonomy_per_factor(conn, polyline, tol):
    """Each leaf block's holonomy from its own connection, terms cut to its block."""
    out = []
    for sl, f in mg.leaf_blocks(conn.descriptor):
        terms = [BumpTerm(t.X[sl, sl], t.center, t.radius, t.direction) for t in conn.terms]
        part = SmoothConnection(f, terms)
        out.append(holonomy_smooth(part, polyline, tol))
    return tuple(out)


# ---------------------------------------------------------------------------
# exponential, polar factor and logarithm

def exp_eigh(X: np.ndarray) -> np.ndarray:
    """exp of a (..., n, n) stack of anti-hermitian matrices via eigh; unitary to roundoff."""
    w, v = np.linalg.eigh(-1j * X)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())


def exp_map_leafwise(X: mg.LieAlgebraElement) -> mg.GroupElement:
    """``exp_map`` one leaf block at a time: ``exp`` of the diagonal on a torus leaf,
    :func:`exp_eigh` of the block on a U or SU leaf, exact zeros off the blocks."""
    out = np.zeros_like(X.matrix)
    for sl, leaf in mg.leaf_blocks(X.descriptor):
        blk = X.matrix[sl, sl]
        out[sl, sl] = (np.diag(np.exp(np.diag(blk))) if isinstance(leaf, mg.Torus)
                       else exp_eigh(blk))
    if isinstance(X.descriptor, mg.CentralQuotient):
        out = canonicalize_batch_matmul(X.descriptor, out[None])[0]
    return mg.GroupElement(X.descriptor, out, check=False)


def polar_scipy(m):
    """Nearest unitary as ``scipy.linalg.polar`` computes it."""
    u, _ = scipy.linalg.polar(m)
    return u


def principal_angles(eigvals, frame):
    """Angles of unit eigenvalues in (-pi, pi], measured from a reference rotated by
    ``frame`` in [0, pi) and moved back: the principal branch does not depend on it."""
    theta = np.angle(eigvals * np.exp(1j * frame)) - frame
    return np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)


def log_schur(leaf, m, frame):
    """Principal logarithm of one leaf block through the complex Schur form."""
    if isinstance(leaf, mg.Torus):
        return np.diag(1j * principal_angles(np.diag(m), frame))
    t, z = scipy.linalg.schur(m, output="complex")
    theta = principal_angles(np.diag(t), frame)
    if isinstance(leaf, mg.SpecialUnitary):
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


def log_block_one(leaf, m: np.ndarray) -> np.ndarray:
    """Principal logarithm of one leaf block, one matrix at a time."""
    if isinstance(leaf, mg.Torus):
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
    if isinstance(leaf, mg.SpecialUnitary):
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


# ---------------------------------------------------------------------------
# Haar sampling

def haar_leaf_qr(leaf, count: int, rng) -> np.ndarray:
    n = leaf.n
    if isinstance(leaf, mg.Torus):
        theta = rng.uniform(-np.pi, np.pi, size=(count, n))
        out = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(1j * theta)
        return out
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("kii->ki", r)
    ph = d / np.abs(d)
    u = q * ph[:, None, :]
    if isinstance(leaf, mg.SpecialUnitary):
        det = np.linalg.det(u)
        u = u * np.exp(-1j * np.angle(det) / n)[:, None, None]
    return u


def gram_schmidt_rows(z: np.ndarray) -> np.ndarray:
    """Q of ``z = QR`` with R's diagonal positive, for a (count, n, n) stack: modified
    Gram-Schmidt projecting each column twice keeps Q unitary however ill-conditioned z is.
    A ``z`` laid out column first, as :func:`haar_leaf_rows` builds it, is overwritten."""
    q = np.ascontiguousarray(z.transpose(2, 0, 1))  # q[j] holds column j of every matrix
    for j, v in enumerate(q):
        for _ in range(2):
            for w in q[:j]:
                v -= w * np.einsum("ki,ki->k", w.conj(), v)[:, None]
        re_im = v.view(float)
        v /= np.sqrt(np.einsum("ki,ki->k", re_im, re_im))[:, None]
    return q.transpose(1, 2, 0)


def haar_leaf_rows(leaf, count: int, rng) -> np.ndarray:
    n = leaf.n
    if isinstance(leaf, mg.Torus):
        theta = rng.uniform(-np.pi, np.pi, size=(count, n))
        out = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(1j * theta)
        return out
    z = np.empty((n, count, n), dtype=complex).transpose(1, 2, 0)  # column first
    z.real = rng.standard_normal((count, n, n))
    z.imag = rng.standard_normal((count, n, n))
    u = gram_schmidt_rows(z)  # Q is scale-free, so z needs no 1/sqrt(2)
    if isinstance(leaf, mg.SpecialUnitary):
        u = u * np.exp(-1j * np.angle(mg.stack_det(u)) / n)[:, None, None]
    return u


def haar_batch_rows(desc, count: int, rng) -> np.ndarray:
    """``count`` Haar samples as a row-major (count, n, n) array, leaf by leaf."""
    leaves = mg.leaf_blocks(desc)
    if len(leaves) == 1:
        out = haar_leaf_rows(leaves[0][1], count, rng)
    else:
        n = mg.dim(desc)
        out = np.zeros((count, n, n), dtype=complex)
        for sl, leaf in leaves:
            out[:, sl, sl] = haar_leaf_rows(leaf, count, rng)
    if isinstance(desc, mg.CentralQuotient):
        return mg.canonicalize_batch(desc, out)
    return out


def gauged_values_rows(f, stack: np.ndarray, descriptor, count: int, layers: int, rng) -> np.ndarray:
    """f at ``count`` random gauge transforms of its holonomy stack, each
    vertex's gauge the pointwise product of ``layers`` Haar draws."""
    verts = f.endpoint_vertices()
    index = {v: i for i, v in enumerate(verts)}
    n = mg.dim(descriptor)
    gauges = None
    for _ in range(layers):
        layer = haar_batch_rows(descriptor, count * len(verts), rng).reshape(count, len(verts), n, n)
        gauges = layer if gauges is None else mg.stack_mul(gauges, layer)
    src = [index[p.source] for p in f.paths]
    dst = [index[p.range] for p in f.paths]
    return f.expr.eval(gauge_transform(stack, gauges[:, src], gauges[:, dst]))


# ---------------------------------------------------------------------------
# canonical coset representatives

def _lex_keys(batch: np.ndarray) -> np.ndarray:
    # row-major entries, real part then imaginary part; the width is explicit for an empty stack
    keys = np.stack([batch.real, batch.imag], axis=-1)
    return keys.reshape(len(batch), 2 * int(np.prod(batch.shape[1:])))


def _lex_less(cand_keys: np.ndarray, best_keys: np.ndarray, atol: float = mg.LEX_ATOL) -> np.ndarray:
    diff = cand_keys - best_keys
    sig = np.abs(diff) > atol
    any_sig = sig.any(axis=1)
    first = np.argmax(sig, axis=1)
    return any_sig & (diff[np.arange(diff.shape[0]), first] < 0.0)


def canonicalize_batch_matmul(desc: mg.CentralQuotient, batch: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# the one-matrix membership gate and product repair

def unitarity_defect_one(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))


def reunitarize_one(m: np.ndarray) -> np.ndarray:
    """Nearest unitary: the polar factor ``U Vᴴ`` of the SVD ``m = U S Vᴴ``."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def check_blocks_one(desc, m: np.ndarray, what: str, su_bad, su_message: str) -> None:
    """Shape, finiteness, diagonal torus blocks, no ``su_bad`` SU block, nothing off the
    blocks, each within ``UNITARY_ATOL``."""
    n, atol = mg.dim(desc), mg.UNITARY_ATOL
    if m.shape != (n, n):
        raise mg.MembershipError(f"expected shape {(n, n)}, got {m.shape}")
    if not np.isfinite(m).all():
        raise mg.MembershipError(f"{what} has a non-finite entry")
    off = m.copy()
    for sl, leaf in mg.leaf_blocks(desc):
        blk = m[sl, sl]
        if isinstance(leaf, mg.SpecialUnitary) and su_bad(blk):
            raise mg.MembershipError(su_message)
        if isinstance(leaf, mg.Torus) and np.max(np.abs(blk - np.diag(np.diag(blk)))) > atol:
            raise mg.MembershipError(f"torus {what} must be diagonal")
        off[sl, sl] = 0.0
    if np.max(np.abs(off)) > atol:
        raise mg.MembershipError(f"off block-diagonal entries in a product {what}")


def validate_one(desc, m: np.ndarray) -> None:
    """Raise MembershipError unless ``m`` lies in the group of ``desc`` within ``UNITARY_ATOL``."""
    m = np.asarray(m, dtype=complex)
    check_blocks_one(desc, m, "element",
                     lambda b: abs(mg.stack_det(b) - 1.0) > 10 * mg.UNITARY_ATOL,
                     "determinant differs from 1")
    if unitarity_defect_one(m) > mg.UNITARY_ATOL:
        raise mg.MembershipError("matrix is not unitary within tolerance")


def lex_less_tied(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which matrices of stack ``a`` precede those of ``b``.  Entries are read row-major,
    real part before imaginary; the first pair more than ``LEX_ATOL`` apart decides, and only
    the matrices still tied read the next entry, so a Haar stack is decided at its first."""
    less = np.zeros(len(a), dtype=bool)
    live = np.arange(len(a))
    for idx in np.ndindex(a.shape[1:]):
        for part in (np.real, np.imag):
            d = part(a[(live, *idx)]) - part(b[(live, *idx)])
            sig = np.abs(d) > mg.LEX_ATOL
            less[live[sig]] = d[sig] < 0.0
            live = live[~sig]
            if not live.size:
                return less
    return less


def canonicalize_scaling(desc: mg.CentralQuotient, batch: np.ndarray) -> np.ndarray:
    """Canonical coset representative of each matrix in a (N, n, n) stack."""
    ks = [np.diagonal(k) for k in desc.center_matrices()]
    best = batch * ks[0]
    for k in ks[1:]:
        cand = batch * k
        np.copyto(best, cand, where=lex_less_tied(cand, best)[:, None, None])
    return best


def admit_one(desc, matrix) -> np.ndarray:
    """The checked ``GroupElement`` constructor: validate, polar-repair past
    ``REPAIR_ATOL``, canonicalize in a quotient; the stored read-only matrix."""
    m = np.array(matrix, dtype=complex)
    validate_one(desc, m)
    if unitarity_defect_one(m) > mg.REPAIR_ATOL:
        m = reunitarize_one(m)
    if isinstance(desc, mg.CentralQuotient):
        m = canonicalize_scaling(desc, m[None])[0]
    m.setflags(write=False)
    return m


def repair_one(desc, m: np.ndarray) -> np.ndarray:
    """The product repair of ``mul``: polar-repair past ``REPAIR_ATOL``, then the
    canonical coset representative in a quotient."""
    if unitarity_defect_one(m) > mg.REPAIR_ATOL:
        m = reunitarize_one(m)
    if isinstance(desc, mg.CentralQuotient):
        m = canonicalize_scaling(desc, m[None])[0]
    return m


# ---------------------------------------------------------------------------
# spectral clusters of orbit representatives

def split_clusters_loop(values: np.ndarray, atol: float) -> list:
    """Stable-sorted indices of ``values`` grouped at gaps wider than ``atol``."""
    order = np.argsort(values, kind="stable")
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= atol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


# ---------------------------------------------------------------------------
# bounded factor search

def depends_on(graph: Graph, p: PathWord, family: Sequence[PathWord],
               bound: int):
    """Search for a factorization of ``p`` as a word in ``family`` members.

    Exhaustive breadth-first search over reduced factor sequences of length
    at most ``bound``.  Returns the factor list ``[(index, orientation), ...]``
    in product order (the last entry walks first), or None when no
    factorization with at most ``bound`` factors exists.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if p.is_unit():
        return []
    factors = []
    for i, f in enumerate(family):
        factors.append((i, 1, f))
        factors.append((i, -1, inverse(f)))
    start = PathWord((), p.source, p.source)
    frontier = [(start, [])]
    seen = {(start.letters, start.range)}
    for _ in range(bound):
        nxt = []
        for word, hist in frontier:
            for i, o, f in factors:
                if hist and hist[-1] == (i, -o):
                    continue  # immediately cancelling factor, never shortest
                if f.source != word.range:
                    continue
                cand = compose(f, word)
                new_hist = hist + [(i, o)]
                if cand.letters == p.letters and cand.range == p.range:
                    return list(reversed(new_hist))
                key = (cand.letters, cand.range)
                if key not in seen:
                    seen.add(key)
                    nxt.append((cand, new_hist))
        frontier = nxt
        if not frontier:
            break
    return None


def dependencies(graph: Graph, family: Sequence[PathWord], bound: int) -> Iterator:
    """Lazily, for each member: :func:`depends_on` against the other members,
    with factor indices counted in the whole family."""
    for j, p in enumerate(family):
        others = [i for i in range(len(family)) if i != j]
        dep = depends_on(graph, p, [family[i] for i in others], bound)
        yield None if dep is None else [(others[i], o) for i, o in dep]
