"""Shared example graphs for the test suite."""

from __future__ import annotations

import numpy as np

from holonomy_lab.pathgroupoid import Edge, Graph


def arc_points(p, q, bulge, samples=9):
    """Polyline from p to q bowed sideways by ``bulge`` (perpendicular offset)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    normal = np.array([-d[1], d[0]])
    norm = np.linalg.norm(normal)
    normal = normal / norm if norm > 0 else normal
    ts = np.linspace(0.0, 1.0, samples)
    pts = [tuple(p + t * d + np.sin(np.pi * t) * bulge * normal) for t in ts]
    return tuple(pts)


def line_points(p, q, samples=5):
    return arc_points(p, q, 0.0, samples)


def square_graph():
    """Four vertices on a cycle, edges 1..4, basepoint 'a'."""
    pos = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (1.0, 1.0), "d": (0.0, 1.0)}
    edges = [
        Edge(1, "a", "b", line_points(pos["a"], pos["b"])),
        Edge(2, "b", "c", line_points(pos["b"], pos["c"])),
        Edge(3, "c", "d", line_points(pos["c"], pos["d"])),
        Edge(4, "d", "a", line_points(pos["d"], pos["a"])),
    ]
    return Graph("abcd", edges, "a", pos)


def triangle_graph():
    """Three vertices on a cycle, edges 1..3, basepoint 'a'."""
    pos = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.5, 1.0)}
    edges = [
        Edge(1, "a", "b", line_points(pos["a"], pos["b"])),
        Edge(2, "b", "c", line_points(pos["b"], pos["c"])),
        Edge(3, "c", "a", line_points(pos["c"], pos["a"])),
    ]
    return Graph("abc", edges, "a", pos)


def pentagon_chord_graph():
    """Five-cycle with one chord: six edges, two independent loops."""
    verts = [f"v{i}" for i in range(5)]
    pos = {v: (float(np.cos(2 * np.pi * i / 5)), float(np.sin(2 * np.pi * i / 5)))
           for i, v in enumerate(verts)}
    edges = []
    for i in range(5):
        a, b = verts[i], verts[(i + 1) % 5]
        edges.append(Edge(i + 1, a, b, arc_points(pos[a], pos[b], 0.1)))
    edges.append(Edge(6, "v0", "v2", arc_points(pos["v0"], pos["v2"], -0.15)))
    return Graph(verts, edges, "v0", pos)


def theta_graph():
    """Two vertices joined by three arcs; loop generators come in pairs."""
    pos = {"L": (0.0, 0.0), "R": (2.0, 0.0)}
    edges = [
        Edge(1, "L", "R", arc_points(pos["L"], pos["R"], 0.0, 9)),
        Edge(2, "L", "R", arc_points(pos["L"], pos["R"], 0.8, 9)),
        Edge(3, "L", "R", arc_points(pos["L"], pos["R"], -0.8, 9)),
    ]
    return Graph("LR", edges, "L", pos)


def bouquet_graph():
    """Two circles glued at the basepoint; edges are self-loops with round curves."""
    def circle(center, radius, samples=17):
        c = np.asarray(center, dtype=float)
        # run from pi to 3*pi so the curve starts and ends at the origin
        ts = np.linspace(np.pi, 3.0 * np.pi, samples)
        return tuple((float(c[0] + radius * np.cos(t)), float(c[1] + radius * np.sin(t)))
                     for t in ts)
    pos = {"o": (0.0, 0.0)}
    edges = [
        Edge(1, "o", "o", circle((1.0, 0.0), 1.0)),
        Edge(2, "o", "o", tuple((-x, y) for x, y in circle((1.0, 0.0), 1.0))),
    ]
    return Graph("o", edges, "o", pos)


def spider_graph(r, spread=np.pi):
    """Basepoint with r two-edge legs fanned over ``spread`` radians.

    Leg k has an inner edge (center -> u_k) with id k + 1 and an outer edge
    (u_k -> w_k) with id r + k + 1.  The outer halves are geometrically far
    apart, which makes them convenient private segments.
    """
    verts = ["o"] + [f"u{k}" for k in range(r)] + [f"w{k}" for k in range(r)]
    pos = {"o": (0.0, 0.0)}
    edges = []
    for k in range(r):
        ang = spread * (k + 0.5) / r
        u = (float(np.cos(ang)), float(np.sin(ang)))
        w = (2.0 * u[0], 2.0 * u[1])
        pos[f"u{k}"] = u
        pos[f"w{k}"] = w
        edges.append(Edge(k + 1, "o", f"u{k}", line_points(pos["o"], u, 5)))
        edges.append(Edge(r + k + 1, f"u{k}", f"w{k}", line_points(u, w, 5)))
    return Graph(verts, edges, "o", pos)
