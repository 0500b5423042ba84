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
letter), ``point_polyline_distance`` (one Python step per segment),
``polar_scipy`` and ``log_schur`` (the polar factor and the Schur-form
logarithm of scipy, which the library no longer imports),
``compose_seam`` (word composition cancelling only across the seam, where
the library runs the one free reduction over both words),
``exp_map_leafwise`` (the exponential one leaf block at a time, with the
torus leaves' diagonal ``exp``, where the library exponentiates the whole
block-diagonal matrix in one ``eigh``),
``haar_leaf_qr`` (Haar draws of one leaf from numpy's QR of a Ginibre
stack with the phase fix of the R diagonal, where the library orthonormalizes
the columns by Gram-Schmidt),
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
long segment) and ``transport_per_interval`` (the chord-union transport
that refines one interval at a time, each with its own loop of
``_segment_transport`` calls, where the library refines every interval of
every polyline together; like the library, it stops an interval at the
tolerance only when the previous difference was within 256 times it), and
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
    _gauss_nodes,
    _segment_distances,
    _segment_transport,
    bump_value,
    holonomy_smooth,
)
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
    """``word_from_tokens`` parsing every token on its own, then :func:`reduce_word_letterwise`."""
    letters = []
    for t in tokens:
        if isinstance(t, int):
            if json_int(t, "a signed edge id") == 0:
                raise ValueError("0 is not a valid signed edge id")
            letters.append((abs(t), 1 if t > 0 else -1))
        else:
            t = str(t).strip()
            o = 1
            if t.endswith("^-1"):
                o, t = -1, t[:-3]
            elif t.startswith("-"):
                o, t = -1, t[1:]
            eid = int(t) if t.lstrip("-").isdigit() else t
            letters.append((eid, o))
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

    s = 64
    val = once(s)
    for _ in range(12):
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
    at ``DEFAULT_STEPS`` sub-steps, doubling to a relative change <= 1e-12.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    p, d = pts[:-1], np.diff(pts, axis=0)
    t0, t1 = _bump_chords(p, pts[1:], center[None], np.array([radius]))

    def once(steps):
        x1, x2, delta = _gauss_nodes(p + t0 * d, p + t1 * d, steps)
        weights = bump_value(x1, center, radius) + bump_value(x2, center, radius)
        return 0.5 * float(weights.sum(axis=-1) @ (delta @ direction))

    val = once(DEFAULT_STEPS)
    for lev in range(1, 13):
        nxt = once(DEFAULT_STEPS << lev)
        if abs(nxt - val) <= 1e-12 * max(1.0, abs(nxt)):
            return nxt
        val = nxt
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
    nothing is skipped, vectorized or refined adaptively.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    acc = np.eye(n, dtype=complex)
    for p, q in zip(pts[:-1], pts[1:]):
        delta = (q - p) / steps
        for i in range(steps):
            mid = p + (i + 0.5) * delta
            M = -field(mid, delta)
            w, v = np.linalg.eigh(-1j * M)
            acc = ((v * np.exp(1j * w)) @ v.conj().T) @ acc
    return acc


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
        u = _segment_transport(conn, p, q, s)
        prev = None
        for _ in range(MAX_DOUBLINGS):
            s *= 2
            u2 = _segment_transport(conn, p, q, s)
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


def transport_per_interval(conn, polyline, tol=DEFAULT_TOL):
    """Transport along a polyline over the union of each segment's bump
    chords, refining one interval at a time.

    Returns the matrix and, per interval in walk order, its doubling level
    and last difference.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    acc = np.eye(mg.dim(conn.descriptor), dtype=complex)
    levels, diffs = [], []
    if not conn.terms:
        return acc, levels, diffs
    t0, t1 = _bump_chords(pts[:-1], pts[1:], conn._centers, conn._radii)
    rows, cols = np.nonzero(t1 > t0)
    spans = []  # [segment, a, b]: the union of each segment's chords, in order
    for j, a, b in sorted(zip(rows, t0[rows, cols], t1[rows, cols])):
        if spans and spans[-1][0] == j and a <= spans[-1][2]:
            spans[-1][2] = max(spans[-1][2], b)
        else:
            spans.append([j, a, b])
    for j, a, b in spans:
        p, q = pts[j] + a * (pts[j + 1] - pts[j]), pts[j] + b * (pts[j + 1] - pts[j])
        s, prev = DEFAULT_STEPS, None
        u = _segment_transport(conn, p, q, s)
        level, diff = 0, np.inf
        for _ in range(MAX_DOUBLINGS):
            s *= 2
            u2 = _segment_transport(conn, p, q, s)
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
        acc = u @ acc
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
        v = conn.value(eid)
        acc = mg.mul(acc, v if o == 1 else mg.inv(v))
    return acc


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
    """value(e) -> g(dst)^-1 value(e) g(src) as group operations, edge by edge."""
    out = {}
    for eid, e in conn.graph.edges.items():
        v = conn.value(eid)
        out[eid] = mg.mul(mg.mul(mg.inv(gauge.value(e.dst)), v), gauge.value(e.src))
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

def exp_map_leafwise(X: mg.LieAlgebraElement) -> mg.GroupElement:
    """``exp_map`` one leaf block at a time: ``exp`` of the diagonal on a torus leaf,
    ``exp_antihermitian`` of the block on a U or SU leaf, exact zeros off the blocks."""
    out = np.zeros_like(X.matrix)
    for sl, leaf in mg.leaf_blocks(X.descriptor):
        blk = X.matrix[sl, sl]
        out[sl, sl] = (np.diag(np.exp(np.diag(blk))) if isinstance(leaf, mg.Torus)
                       else mg.exp_antihermitian(blk))
    return mg._wrap(X.descriptor, out)


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
