"""Test instruments: small constructions the tests build on that no command reaches.

Unlike ``oracles``, nothing here reimplements a library algorithm to check
it against; these are conveniences for building inputs and probes.
``compose_all`` and ``power`` build long path words, ``haar_sample`` draws
one group element from a seed, ``one_form`` evaluates a smooth connection
A(x)[v] at a point or at each of a point stack, and ``SmoothGauge`` is a smooth
gauge transformation g(x) = exp(sum_j psi_j(x) Y_j), evaluated the same way or
at the vertices for the covariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import DiscreteGauge, GeometryError, SmoothConnection, bump_value
from holonomy_lab.pathgroupoid import CompositionError, Graph, PathWord, compose, inverse


# ---------------------------------------------------------------------------
# path words

def compose_all(words: Sequence[PathWord]) -> PathWord:
    """Product of a left-to-right factor list (the rightmost factor walks first)."""
    if not words:
        raise ValueError("empty factor list")
    out = words[-1]
    for w in reversed(words[:-1]):
        out = compose(w, out)
    return out


def power(p: PathWord, k: int) -> PathWord:
    if not p.is_loop():
        raise CompositionError("powers need a loop")
    if k == 0:
        return PathWord((), p.source, p.source)
    base = p if k > 0 else inverse(p)
    out = base
    for _ in range(abs(k) - 1):
        out = compose(base, out)
    return out


# ---------------------------------------------------------------------------
# group elements and one-forms

def haar_sample(desc, seed: int) -> mg.GroupElement:
    """One Haar-distributed element, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    return mg.GroupElement(desc, mg.haar_batch(desc, 1, rng)[0], check=False)


def one_form(conn: SmoothConnection, points, vector) -> np.ndarray:
    """A(x)[v] as a matrix, at a point x of shape (d,), or at each of an (m, d) stack
    as an (m, n, n) stack."""
    pts = np.asarray(points, dtype=float)
    n = mg.dim(conn.descriptor)
    if not conn.terms:
        return np.zeros(pts.shape[:-1] + (n, n), dtype=complex)
    phi = bump_value(np.atleast_2d(pts), conn._centers, conn._radii)
    w = phi * (conn._dirs @ np.asarray(vector, dtype=float))
    out = np.tensordot(w, conn._X, axes=(-1, 0))
    return out if pts.ndim == 2 else out[0]


# ---------------------------------------------------------------------------
# smooth gauge transformations

@dataclass(frozen=True)
class GaugeBump:
    Y: np.ndarray
    center: tuple
    radius: float

    def __post_init__(self):
        Y = np.array(self.Y, dtype=complex)
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not 0 < self.radius < np.inf:
            raise ValueError("bump radius must be positive and finite")


class SmoothGauge:
    """Pointwise g(x) = exp(sum_j psi_j(x) Y_j) with smooth bumps psi_j."""

    def __init__(self, descriptor, terms: Iterable[GaugeBump]):
        self.descriptor = descriptor
        self.terms = tuple(terms)
        n, dim = mg.dim(descriptor), len(self.terms[0].center) if self.terms else 1
        self._Y = np.array([t.Y for t in self.terms], dtype=complex).reshape(-1, n, n)
        mg.validate_algebra(mg.algebra_descriptor(descriptor), self._Y)
        self._centers = np.array([t.center for t in self.terms], dtype=float).reshape(-1, dim)
        self._radii = np.array([t.radius for t in self.terms], dtype=float)

    def at(self, points) -> np.ndarray:
        """g(x) at a point of shape (d,), or at each of an (m, d) stack as an (m, n, n) stack."""
        pts = np.asarray(points, dtype=float)
        w = bump_value(np.atleast_2d(pts), self._centers, self._radii)
        g = mg.exp_antihermitian(np.tensordot(w, self._Y, axes=(-1, 0)))
        return g if pts.ndim == 2 else g[0]

    def as_discrete(self, graph: Graph) -> DiscreteGauge:
        try:
            vals = {v: self.at(graph.positions[v]) for v in graph.vertices}
        except KeyError as exc:
            raise GeometryError("every vertex needs a position to discretize a gauge") from exc
        return DiscreteGauge(graph, self.descriptor, vals)


def random_smooth_gauge(descriptor, graph: Graph, n_terms: int, seed: int,
                        scale: float = 0.7, radius: float = 0.9) -> SmoothGauge:
    """Random bumps centered near the graph's curve points, or its vertices without curves."""
    rng = np.random.default_rng(seed)
    pool = np.asarray([p for e in graph.edges.values() if e.curve for p in e.curve], dtype=float)
    if not pool.size:
        pool = np.asarray([graph.positions[v] for v in graph.vertices], dtype=float)
    terms = []
    for _ in range(n_terms):
        c = pool[rng.integers(len(pool))] + rng.normal(scale=0.15, size=pool.shape[1])
        Y = mg.random_algebra(descriptor, rng, scale=scale)
        terms.append(GaugeBump(Y.matrix, tuple(c), radius))
    return SmoothGauge(descriptor, terms)
