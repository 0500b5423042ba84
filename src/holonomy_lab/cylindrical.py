"""Cylindrical functions of holonomies and their gauge averages.

A cylindrical function depends on a connection only through the holonomies
of finitely many paths: F(A) = expr(H_A(p_1), ..., H_A(p_k)).  The
expression tree bottoms out in matrix entries and traces of those
holonomies, so everything evaluates on batches of sampled matrices with
plain array arithmetic.

Gauge transformations touch F only through the path endpoints,
H_i -> g(range_i)^-1 H_i g(source_i), so averaging F over the gauge group is an integral over one
Haar factor per endpoint vertex, and over one per leaf block of the group within it.  The draws
are leaves of the base group G (only ``matrixgroups.haar_batch`` and ``repair`` canonicalize):
Haar measure on G pushes forward to that on G/K, so for G/K the integral over G is the average
of a center-invariant F.  One sampler, ``_gauged_values``, draws them; the Monte Carlo mean calls
it in fixed-size chunks, which makes every estimate reproducible from (samples, seed) alone.  Its
convergence ladder reads every rung as a prefix of that one stream: the rung n is the mean of the
first n of the N draws, not a fresh n-sample run.  Gauge layers and actions run leaf block by leaf
block on entry-major stacks (``matrixgroups.entry_major``), the action on cache-sized slices.

Entry and trace indices are 1-based throughout (path 1 is the first path,
H_11 the top-left entry), matching the usual matrix notation.  Results hold
only what they compute; the ``cli`` module lays out their reports, and
``cyl_to_dict`` writes an input document.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import matrixgroups as mg
from .connections import (
    GeneralizedConnection,
    _word_products,
    gauge_transform,
    holonomies,
)
from .pathgroupoid import Graph, PathWord, json_int, word_from_tokens, word_to_tokens

MEAN_CHUNK = 8192
GAUGE_SLICE = 1024  # samples per gauge action, so that its temporaries stay in cache
SEPARATION_THRESHOLD = 1e-8  # trace gap that separates two holonomy tuples


# ---------------------------------------------------------------------------
# expression trees

class Expr:
    """Base class; subclasses evaluate on a stack of shape (N, k, n, n)."""

    children = ()

    def eval(self, stack: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_path(self) -> int:
        return max([getattr(self, "path", 0)] + [c.max_path() for c in self.children])


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def eval(self, stack):
        return np.full(stack.shape[0], complex(self.value))


@dataclass(frozen=True)
class Entry(Expr):
    """Matrix entry H_ij of path number ``path`` (all indices 1-based)."""

    path: int
    row: int
    col: int

    def __post_init__(self):
        if min(self.path, self.row, self.col) < 1:
            raise ValueError("entry indices are 1-based")

    def eval(self, stack):
        n = stack.shape[-1]
        if max(self.row, self.col) > n:
            raise ValueError(f"entry {[self.path, self.row, self.col]} is outside "
                             f"the {n}x{n} holonomy")
        return stack[:, self.path - 1, self.row - 1, self.col - 1]


@dataclass(frozen=True)
class TraceOf(Expr):
    path: int

    def __post_init__(self):
        if self.path < 1:
            raise ValueError("path index is 1-based")

    def eval(self, stack):
        return np.einsum("nii->n", stack[:, self.path - 1])


@dataclass(frozen=True)
class Conj(Expr):
    inner: Expr
    children = property(lambda self: (self.inner,))

    def eval(self, stack):
        return np.conj(self.inner.eval(stack))


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple
    children = property(lambda self: self.terms)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, stack):
        return sum((t.eval(stack) for t in self.terms), np.zeros(stack.shape[0], dtype=complex))


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple
    children = property(lambda self: self.factors)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def eval(self, stack):
        out = np.ones(stack.shape[0], dtype=complex)
        for f in self.factors:
            out *= f.eval(stack)
        return out


def expr_to_dict(expr: Expr) -> dict:
    if isinstance(expr, Const):
        return {"const": mg.complex_pair(expr.value)}
    if isinstance(expr, Entry):
        return {"entry": [expr.path, expr.row, expr.col]}
    if isinstance(expr, TraceOf):
        return {"trace": expr.path}
    if isinstance(expr, Conj):
        return {"conj": expr_to_dict(expr.inner)}
    if isinstance(expr, Sum):
        return {"add": [expr_to_dict(t) for t in expr.terms]}
    if isinstance(expr, Prod):
        return {"mul": [expr_to_dict(f) for f in expr.factors]}
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def expr_from_dict(data: Mapping) -> Expr:
    if len(data) != 1:
        raise ValueError("expression nodes have exactly one key")
    key, val = next(iter(data.items()))
    if key == "const":
        return Const(complex(val[0], val[1]))
    if key == "entry":
        return Entry(*(json_int(i, "an entry index") for i in val))
    if key == "trace":
        return TraceOf(json_int(val, "a trace index"))
    if key == "conj":
        return Conj(expr_from_dict(val))
    if key == "add":
        return Sum(tuple(expr_from_dict(t) for t in val))
    if key == "mul":
        return Prod(tuple(expr_from_dict(f) for f in val))
    raise ValueError(f"unknown expression key {key!r}")


# ---------------------------------------------------------------------------
# cylindrical functions

class CylFunction:
    """An expression applied to the holonomies of a fixed path tuple."""

    def __init__(self, paths: Sequence[PathWord], expr: Expr):
        self.paths = tuple(paths)
        self.expr = expr
        if expr.max_path() > len(self.paths):
            raise ValueError(f"expression uses path {expr.max_path()} "
                             f"but only {len(self.paths)} paths are given")

    def endpoint_vertices(self) -> tuple:
        return tuple(dict.fromkeys(v for p in self.paths for v in (p.source, p.range)))

    def check_size(self, descriptor) -> None:
        n = mg.dim(descriptor)  # a dry run raises the first bad entry's message
        self.expr.eval(np.zeros((1, len(self.paths), n, n), dtype=complex))


def wilson_loop(word: PathWord, n: int) -> CylFunction:
    """Normalized trace of a single loop holonomy."""
    if not word.is_loop():
        raise ValueError("wilson functions are built on loops")
    return CylFunction((word,), Prod((Const(1.0 / n), TraceOf(1))))


def entry_function(word: PathWord, row: int, col: int) -> CylFunction:
    return CylFunction((word,), Entry(1, row, col))


def entry_abs_square(word: PathWord, row: int, col: int) -> CylFunction:
    e = Entry(1, row, col)
    return CylFunction((word,), Prod((e, Conj(e))))


def cyl_to_dict(f: CylFunction) -> dict:
    out = {"paths": [], "expr": expr_to_dict(f.expr)}
    for p in f.paths:
        item = {"tokens": word_to_tokens(p)}
        if p.is_unit():
            item["source"] = p.source
        out["paths"].append(item)
    return out


def cyl_from_dict(graph: Graph, data: Mapping) -> CylFunction:
    paths = []
    for item in data["paths"]:
        if isinstance(item, Mapping):
            paths.append(word_from_tokens(graph, item["tokens"], source=item.get("source")))
        else:
            paths.append(word_from_tokens(graph, item))
    return CylFunction(paths, expr_from_dict(data["expr"]))


# ---------------------------------------------------------------------------
# evaluation

def holonomy_stack(f: CylFunction, conn: GeneralizedConnection) -> np.ndarray:
    """Holonomy matrices of the function's paths, shape (k, n, n)."""
    return holonomies(conn, f.paths)


def evaluate(f: CylFunction, conn: GeneralizedConnection) -> complex:
    f.check_size(conn.descriptor)
    return complex(f.expr.eval(holonomy_stack(f, conn)[None])[0])


# ---------------------------------------------------------------------------
# gauge averaging

def _gauged_values(f: CylFunction, stack: np.ndarray, descriptor, count: int,
                   layers: int, rng) -> np.ndarray:
    """f at ``count`` random gauge transforms of its holonomy stack, each vertex's gauge the
    pointwise product of ``layers`` Haar draws of the base group, never canonicalized, leaf block by
    leaf block (``matrixgroups._haar_blocks``); the action runs on ``GAUGE_SLICE`` samples at a
    time, on entry-major stacks with the holonomies spread over the slice."""
    verts = f.endpoint_vertices()
    index = {v: i for i, v in enumerate(verts)}
    gauges = mg._haar_blocks(descriptor, count * len(verts), rng)
    for _ in range(layers - 1):
        gauges = list(map(mg.stack_mul, gauges, mg._haar_blocks(descriptor, count * len(verts), rng)))
    src = [index[p.source] for p in f.paths]
    dst = [index[p.range] for p in f.paths]
    leaves = mg.leaf_blocks(descriptor)
    out = mg.entry_major((count, *stack.shape), np.zeros if len(leaves) > 1 else np.empty)
    for (sl, _), leaf_gauges in zip(leaves, gauges):
        leaf_gauges = leaf_gauges.reshape(count, len(verts), *leaf_gauges.shape[1:])
        held = mg.entry_major((min(count, GAUGE_SLICE), *stack[:, sl, sl].shape))
        held[...] = stack[:, sl, sl]  # spread: products with a stride-0 operand come out laid by rows
        for lo in range(0, count, GAUGE_SLICE):
            g = leaf_gauges[lo:lo + GAUGE_SLICE]
            out[lo:lo + GAUGE_SLICE, :, sl, sl] = gauge_transform(held[:len(g)], g[:, src], g[:, dst])
    return f.expr.eval(out)


@dataclass(frozen=True)
class MeanEstimate:
    value: complex
    stderr: float
    samples: int
    ladder: tuple = field(default=(), compare=False)  # per rung n: the first n draws' estimate


class HaarMean:
    """Monte Carlo gauge average of a cylindrical function.

    ``layers`` composes that many independent gauge draws pointwise before
    transforming, which realizes repeated averaging; by translation
    invariance of the Haar measure every layer count estimates the same
    number, so stacking layers is an idempotence check, not a refinement.
    """

    def __init__(self, function: CylFunction, descriptor, layers: int = 1):
        if layers < 1:
            raise ValueError("layers must be at least 1")
        function.check_size(descriptor)
        self.function = function
        self.descriptor = descriptor
        self.layers = layers

    def estimate(self, conn: GeneralizedConnection, samples: int, seed: int) -> MeanEstimate:
        if samples < 2:
            raise ValueError("need at least two samples for an error bar")
        arr = holonomy_stack(self.function, conn)
        rng = np.random.default_rng(seed)
        rungs = sorted({max(2, samples >> k) for k in range(1, 6)} | {samples})  # N >> 5 .. N
        # deviations from the first value: a near-constant f must not cancel in E|f|^2 - |Ef|^2
        total = dev_total = 0.0 + 0.0j
        dev_sq = 0.0
        shift = None
        done = 0
        ladder = []
        while done < samples:
            count = min(MEAN_CHUNK, samples - done)
            vals = _gauged_values(self.function, arr, self.descriptor, count, self.layers, rng)
            shift = vals[0] if shift is None else shift
            dev = vals - shift
            for n in (n for n in rungs if done < n <= done + count):  # a prefix of this chunk
                v, d = vals[:n - done], dev[:n - done]
                mean, dev_mean = (total + v.sum()) / n, (dev_total + d.sum()) / n
                var = max((dev_sq + float(np.sum(np.abs(d) ** 2))) / n - abs(dev_mean) ** 2, 0.0)
                ladder.append(MeanEstimate(complex(mean), float(np.sqrt(var / n)), n))
            total += vals.sum()
            dev_total += dev.sum()
            dev_sq += float(np.sum(np.abs(dev) ** 2))
            done += count
        return replace(ladder[-1], ladder=tuple(ladder))


def invariance_check(f: CylFunction, stack: np.ndarray, descriptor,
                     gauges: int = 20, seed: int = 0) -> float:
    """Largest deviation |F(A.g) - F(A)| over random gauge tuples, from the
    holonomies ``stack`` of f's paths under A (:func:`holonomy_stack`)."""
    if gauges < 1:
        raise ValueError("need at least one gauge sample")
    f.check_size(descriptor)
    base = complex(f.expr.eval(stack[None, ...])[0])
    vals = _gauged_values(f, stack, descriptor, gauges, 1, np.random.default_rng(seed))
    return float(np.max(np.abs(vals - base)))


# ---------------------------------------------------------------------------
# separation by trace invariants

@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a trace-invariant comparison of two holonomy tuples.

    ``separated`` True is conclusive: some invariant differs by more than
    ``SEPARATION_THRESHOLD``, so no simultaneous conjugation matches the tuples.
    False only says no witness exists among products of length at most the
    bound that was searched.
    """

    separated: bool
    gap: float
    witness: tuple
    words_checked: int


def _index_words(k: int, max_len: int):
    """Nonempty products over k symbols and inverses, no adjacent backtrack."""
    alphabet = [(i, +1) for i in range(k)] + [(i, -1) for i in range(k)]
    frontier = [(s,) for s in alphabet]
    out = list(frontier)
    for _ in range(max_len - 1):
        nxt = []
        for w in frontier:
            last = w[-1]
            for s in alphabet:
                if s[0] == last[0] and s[1] == -last[1]:
                    continue
                nxt.append(w + (s,))
        out.extend(nxt)
        frontier = nxt
    return out


def separation_test(stack_a, stack_b, max_len: int = 3) -> SeparationVerdict:
    """Compare all trace invariants of two same-length holonomy tuples.

    The inputs are loop holonomies at a common basepoint, as matrices or
    group elements.  Traces of products are invariant under simultaneous
    conjugation, so a gap larger than ``SEPARATION_THRESHOLD`` certifies the
    tuples lie on different gauge orbits.
    """
    a = np.array([mg.as_matrix(m) for m in stack_a], dtype=complex)
    b = np.array([mg.as_matrix(m) for m in stack_b], dtype=complex)
    if not len(a) or not len(b):
        raise ValueError("need nonempty holonomy tuples")
    if a.shape != b.shape:
        raise ValueError("holonomy tuples must have matching shapes")
    words = _index_words(a.shape[0], max_len)
    traces = np.trace(_word_products(np.stack([a, b], axis=1), words), axis1=-2, axis2=-1)
    d = traces[:, 0] - traces[:, 1]
    gaps = np.hypot(d.real, d.imag)  # bit for bit abs() of one gap, which numpy's complex abs is not
    best = int(np.argmax(gaps))  # the first maximal gap
    gap, witness = (float(gaps[best]), words[best]) if gaps[best] > 0.0 else (0.0, ())
    return SeparationVerdict(gap > SEPARATION_THRESHOLD, gap, witness, len(words))
