"""Independent references for the benchmark's correctness checks.

Nothing here calls into ``holonomy_lab``: holonomies are plain numpy
products of the edge matrices read from the input files, Haar means come
from their closed forms, and smooth transport is re-integrated from the
bump terms with a fixed-step exponential midpoint rule.  Each check takes
a report (the command's stdout) and returns an error message, or None
when the report is right.
"""

from __future__ import annotations

import json

import numpy as np

LEX_TOL = 1e-9          # tie tolerance of the documented coset ordering
MATRIX_TOL = 1e-9       # plain product against the reported holonomy
SMOOTH_TOL = 1e-6       # midpoint reference against adaptive Magnus transport
MIDPOINT_STEPS = 512    # sub-steps per polyline segment of the reference


class CheckFailed(Exception):
    """A report disagrees with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def pairs_to_matrix(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def tokens_to_letters(tokens):
    return [(abs(int(t)), 1 if int(t) > 0 else -1) for t in tokens]


def invert_tokens(tokens):
    return [-t for t in reversed(tokens)]


def plain_holonomy(edge_values, letters, n):
    """Product M_last ... M_first of edge matrices (inverse for reversed letters)."""
    h = np.eye(n, dtype=complex)
    for eid, o in letters:
        m = edge_values[eid]
        h = (m if o == 1 else m.conj().T) @ h
    return h


def canonical_coset(m, center):
    """Smallest of m @ k over the center, row-major, real part before imaginary."""
    def key(a):
        return np.stack([a.real, a.imag], axis=-1).reshape(-1)
    best = m @ center[0]
    for k in center[1:]:
        cand = m @ k
        diff = key(cand) - key(best)
        sig = np.flatnonzero(np.abs(diff) > LEX_TOL)
        if sig.size and diff[sig[0]] < 0:
            best = cand
    return best


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def parse_report(text):
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    require(isinstance(report, dict), "report is not a JSON object")
    return report


# ---------------------------------------------------------------------------
# Haar means in closed form

def haar_mean_reference(function, holonomy, blocks):
    """Exact gauge average of the benchmark's three function shapes.

    ``blocks`` lists (kind, size) of the block-diagonal factors; ``function``
    is ("wilson" | "based-entry" | "open-abs2", index) with a 0-based
    diagonal index.  Conjugating a based loop averages each U/SU block to
    its normalized trace and leaves torus entries alone; an open path with
    independent gauges at both ends is Haar distributed in a U/SU block,
    so |H_ii|^2 averages to 1/n there and is identically 1 on a torus.
    """
    shape, i = function
    n = holonomy.shape[0]
    if shape == "wilson":
        return np.trace(holonomy) / n
    lo = 0
    for kind, size in blocks:
        if lo <= i < lo + size:
            break
        lo += size
    torus_like = kind == "torus" or size == 1
    if shape == "based-entry":
        if torus_like:
            return holonomy[i, i]
        return np.trace(holonomy[lo:lo + size, lo:lo + size]) / size
    if shape == "open-abs2":
        return 1.0 if torus_like else 1.0 / size
    raise ValueError(shape)


# ---------------------------------------------------------------------------
# smooth transport, re-integrated

def _smoothstep(t):
    t = np.asarray(t, dtype=float)
    tm = np.clip(t, 1e-12, 1.0 - 1e-12)
    f, g = np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, f / (f + g)))


def _fold(mats):
    """mats[-1] @ ... @ mats[0]."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            mats = np.concatenate([mats, np.eye(mats.shape[1])[None]], axis=0)
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def smooth_transport_reference(terms, polyline, n, steps=MIDPOINT_STEPS):
    """Transport of U' = -A(c) c' U along a polyline, exponential midpoint rule.

    ``terms`` are the connection document's bump terms: A(x)[v] =
    sum_k phi_k(x) <u_k, v> X_k with phi_k = smoothstep(2 - 2|x - c_k|/r_k).
    """
    if not terms:
        return np.eye(n, dtype=complex)
    X = np.array([pairs_to_matrix(t["X"]) for t in terms])
    centers = np.array([t["center"] for t in terms], dtype=float)
    radii = np.array([t["radius"] for t in terms], dtype=float)
    dirs = np.array([t["direction"] for t in terms], dtype=float)
    pts = np.asarray(polyline, dtype=float)
    h = np.eye(n, dtype=complex)
    for p, q in zip(pts[:-1], pts[1:]):
        delta = (q - p) / steps
        mids = p + (np.arange(steps)[:, None] + 0.5) * delta
        dist = np.linalg.norm(mids[:, None, :] - centers[None], axis=-1)
        coef = _smoothstep(2.0 - 2.0 * dist / radii[None]) * (dirs @ delta)[None]
        omega = -np.tensordot(coef, X, axes=(1, 0))
        w, v = np.linalg.eigh(-1j * omega)
        steps_exp = np.einsum("sij,sj,skj->sik", v, np.exp(1j * w), v.conj())
        h = _fold(steps_exp) @ h
    return h


def path_polyline(graph_doc, letters):
    curves = {e["id"]: np.asarray(e["curve"], dtype=float) for e in graph_doc["edges"]}
    chunks = []
    for eid, o in letters:
        pts = curves[eid] if o == 1 else curves[eid][::-1]
        chunks.append(pts if not chunks else pts[1:])
    return np.concatenate(chunks, axis=0)


def abelianization(letters):
    out = {}
    for eid, o in letters:
        out[eid] = out.get(eid, 0) + o
    return {eid: c for eid, c in out.items() if c}
