"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares no
code with the library: exhaustive cancellation for word reduction,
deterministic quadrature over SU(2) for Haar means, grid search for
conjugators, plain Simpson refinement for line integrals.  The exceptions
are the implementations the library replaced, kept as they were:
``holonomy_letterwise`` (one group multiplication per letter),
``point_polyline_distance`` (one Python step per segment),
``polar_scipy`` and ``log_schur`` (the polar factor and the Schur-form
logarithm of scipy, which the library no longer imports),
``scalar_line_integral_midpoint`` (the refined midpoint rule over every
segment that interpolation used for its bump coefficient),
``gauge_act_edgewise`` (the vertex gauge action as three group operations
per edge) and ``split_holonomy_per_factor`` (one transport per factor of a
product-group connection).
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    BumpTerm,
    GeneralizedConnection,
    SmoothConnection,
    bump_value,
    holonomy_smooth,
)
from holonomy_lab.pathgroupoid import letter_endpoints


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


# ---------------------------------------------------------------------------
# gauge actions and product groups

def gauge_act_edgewise(conn, gauge):
    """value(e) -> g(dst)^-1 value(e) g(src) as group operations, edge by edge."""
    out = {}
    for eid, e in conn.graph.edges.items():
        v = conn.value(eid)
        out[eid] = mg.mul(mg.mul(mg.inv(gauge.value(e.dst)), v), gauge.value(e.src))
    return GeneralizedConnection(conn.graph, conn.descriptor, out, check=False)


def split_holonomy_per_factor(conn, polyline, steps, tol):
    """Each factor's holonomy from its own connection, terms cut to its block."""
    out = []
    for sl, f in mg.block_slices(conn.descriptor):
        terms = [BumpTerm(t.X[sl, sl], t.center, t.radius, t.direction) for t in conn.terms]
        part = SmoothConnection(f, terms)
        out.append(holonomy_smooth(part, polyline, steps, tol))
    return tuple(out)


# ---------------------------------------------------------------------------
# polar factor and logarithm through scipy

def polar_scipy(m):
    """Nearest unitary as ``scipy.linalg.polar`` computes it."""
    u, _ = scipy.linalg.polar(m)
    return u


def log_schur(leaf, m, branch_shift):
    """Logarithm of one leaf block through the complex Schur form."""
    if isinstance(leaf, mg.Torus):
        return np.diag(1j * mg._angles_from_unitary(np.diag(m), branch_shift))
    t, z = scipy.linalg.schur(m, output="complex")
    theta = mg._angles_from_unitary(np.diag(t), branch_shift)
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
