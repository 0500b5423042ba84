"""Fixture graphs built through the public API.

The shapes mirror the package's test fixtures (pentagon with a chord,
spider with r legs, bouquet of two circles), so the benchmark feeds the
command line the same kinds of graphs its tests use.  Nothing here
depends on the test suite.
"""

from __future__ import annotations

import numpy as np

from holonomy_lab import Edge, Graph


def arc_points(p, q, bulge, samples=9):
    """Polyline from p to q bowed sideways by ``bulge``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    normal = np.array([-d[1], d[0]])
    norm = np.linalg.norm(normal)
    normal = normal / norm if norm > 0 else normal
    ts = np.linspace(0.0, 1.0, samples)
    return tuple(tuple(p + t * d + np.sin(np.pi * t) * bulge * normal) for t in ts)


def pentagon_chord_graph():
    """Five-cycle v0..v4 (edges 1..5) plus the chord 6: v0 -> v2."""
    verts = [f"v{i}" for i in range(5)]
    pos = {v: (float(np.cos(2 * np.pi * i / 5)), float(np.sin(2 * np.pi * i / 5)))
           for i, v in enumerate(verts)}
    edges = [Edge(i + 1, verts[i], verts[(i + 1) % 5],
                  arc_points(pos[verts[i]], pos[verts[(i + 1) % 5]], 0.1))
             for i in range(5)]
    edges.append(Edge(6, "v0", "v2", arc_points(pos["v0"], pos["v2"], -0.15)))
    return Graph(verts, edges, "v0", pos)


def spider_graph(r):
    """Basepoint o with r legs: inner edge k+1 (o -> u_k), outer edge r+k+1."""
    verts = ["o"] + [f"u{k}" for k in range(r)] + [f"w{k}" for k in range(r)]
    pos = {"o": (0.0, 0.0)}
    edges = []
    for k in range(r):
        ang = np.pi * (k + 0.5) / r
        u = (float(np.cos(ang)), float(np.sin(ang)))
        w = (2.0 * u[0], 2.0 * u[1])
        pos[f"u{k}"], pos[f"w{k}"] = u, w
        edges.append(Edge(k + 1, "o", f"u{k}", arc_points(pos["o"], u, 0.0, 5)))
        edges.append(Edge(r + k + 1, f"u{k}", f"w{k}", arc_points(u, w, 0.0, 5)))
    return Graph(verts, edges, "o", pos)


def bouquet_graph():
    """Two round self-loops at the single vertex o."""
    ts = np.linspace(np.pi, 3.0 * np.pi, 17)
    right = tuple((float(1.0 + np.cos(t)), float(np.sin(t))) for t in ts)
    left = tuple((-x, y) for x, y in right)
    return Graph("o", [Edge(1, "o", "o", right), Edge(2, "o", "o", left)], "o",
                 {"o": (0.0, 0.0)})
