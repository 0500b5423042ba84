"""Spanning-tree coordinates, orbit normal forms and closure tests.

A spanning tree turns an edge assignment into frame data along the tree
plus one free holonomy per leftover edge: value(e) factors as
frame(dst) h(loop_e) frame(src)^-1 where loop_e runs root -> src, across e,
and back down the tree.  The decomposition is exact and gauge covariant,
so every question about gauge orbits reduces to simultaneous conjugation
of the loop holonomies at the root.

orbit_representative picks a canonical point on such a conjugation orbit.
closure_membership decides whether prescribed loop values can arise from
connections at all.  It stacks the values once and judges the stack leaf
block by leaf block: a torus leaf must kill every word with vanishing edge
exponents up to a search bound, an SU(n) or U(n) leaf must send every
relation that a Stallings fold finds among the loops to I, and a central
quotient repeats this for each center lift in a finite search.  Both
searches refuse up front a size past their cap, ``MAX_SEARCH_CUBE``
exponent vectors and ``MAX_CENTER_LIFTS`` lifts.

Results hold only what they compute; the ``cli`` module lays out their
reports.  ``loop_assignment_to_dict`` writes an input document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import matrixgroups as mg
from .connections import (
    DEFAULT_TOL,
    GeneralizedConnection,
    admit_values,
    edge_polyline,
    gauge_transform,
    holonomies,
    holonomy_general,
    interpolate_connection,
    InterpolationTarget,
    path_polyline,
    restrict,
    _word_products,
)
from .pathgroupoid import (
    Graph,
    PathWord,
    abelianize,
    compose,
    edge_word,
    inverse,
    loop_relations,
    spanning_tree,
    tree_edge_ids,
    word_to_tokens,
    _id_key,
)

CLUSTER_ATOL = 1e-6
ENTRY_ATOL = 1e-7
MAX_CENTER_LIFTS = 4096  # exhaustive center-lift searches stop above this
MAX_SEARCH_CUBE = 13 ** 6  # bounded exponent searches refuse a larger cube (2 bound + 1)^k


# ---------------------------------------------------------------------------
# spanning-tree coordinates

@dataclass(frozen=True)
class TreeBasis:
    """Spanning tree of a graph together with its loop generators."""

    graph: Graph
    vertex_words: Mapping
    tree_edges: frozenset
    loops: Mapping
    loop_ids: tuple


def tree_basis(graph: Graph) -> TreeBasis:
    tree = spanning_tree(graph)
    edges = tree_edge_ids(graph, tree)
    loop_ids = tuple(sorted((eid for eid in graph.edges if eid not in edges), key=_id_key))
    loops = {}
    for eid in loop_ids:
        e = graph.edges[eid]
        loops[eid] = compose(inverse(tree[e.dst]),
                             compose(edge_word(graph, eid), tree[e.src]))
    return TreeBasis(graph, tree, frozenset(edges), loops, loop_ids)


@dataclass(frozen=True)
class TreeDecomposition:
    basis: TreeBasis
    frames: Mapping
    loop_values: Mapping


def tree_decompose(basis: TreeBasis, conn: GeneralizedConnection) -> TreeDecomposition:
    mats = holonomies(conn, [*basis.vertex_words.values(), *basis.loops.values()])
    values = [mg.GroupElement(conn.descriptor, m, check=False) for m in mats]
    frames = dict(zip(basis.vertex_words, values))
    loop_values = dict(zip(basis.loops, values[len(frames):]))
    return TreeDecomposition(basis, frames, loop_values)


def tree_reconstruct(basis: TreeBasis, descriptor, loop_values: Mapping,
                     frames: Mapping = None) -> GeneralizedConnection:
    """Rebuild the edge assignment from tree frames and loop holonomies.

    Without ``frames`` this is the canonical section: every tree edge holds
    the identity and every loop edge its loop value.  With them, one
    ``gauge_transform`` of the stacked section by the inverse frames gives
    each edge frame(dst) h(loop_e) frame(src)^-1.
    """
    loops = admit_values(descriptor, basis.loop_ids, loop_values,
                         "loop values do not match the non-tree edges")
    n, edges = mg.dim(descriptor), basis.graph.edges
    ident = np.eye(n, dtype=complex)
    section = [loops.get(eid, ident) for eid in edges]
    if frames is not None:
        frames = admit_values(descriptor, basis.graph.vertices, frames,
                              "frames do not match the vertex set")
        inverse = np.conj(np.array([(frames[e.src], frames[e.dst]) for e in edges.values()]))
        inverse = inverse.reshape(-1, 2, n, n).swapaxes(-1, -2)
        section = gauge_transform(np.reshape(section, (-1, n, n)), inverse[:, 0], inverse[:, 1])
    return GeneralizedConnection(basis.graph, descriptor, dict(zip(edges, section)))


# ---------------------------------------------------------------------------
# canonical representatives of conjugation orbits

def _center_lifts(descriptor, mats):
    """Each ``(choice, stack)`` with ``stack[i] = center[choice[i]] @ mats[i]``, a row scaling by
    a row of the center table, the identity lift first: every index runs through the table from
    the identity's index (:func:`matrixgroups._center_index`) round to the one before it.
    ValueError up front when there are more than ``MAX_CENTER_LIFTS``."""
    table = np.array(descriptor.center)
    lifts = len(table) ** len(mats)
    if lifts > MAX_CENTER_LIFTS:
        raise ValueError(f"too many center lifts: {len(table)}^{len(mats)} = {lifts} "
                         f"> {MAX_CENTER_LIFTS}")
    one = int(mg._center_index(table, np.ones((1, table.shape[1])))[0])
    order = [*range(one, len(table)), *range(one)]
    return ((choice, table[list(choice)][:, :, None] * mats)
            for choice in itertools.product(order, repeat=len(mats)))


def _split_clusters(values: np.ndarray):
    """Group sorted real values into clusters separated by gaps > ``CLUSTER_ATOL``."""
    order = np.argsort(values, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(values[order]) > CLUSTER_ATOL) + 1)


def _refine_frame(mats: np.ndarray) -> np.ndarray:
    """Unitary V making every generator block-diagonal with sorted spectra.

    Blocks are refined generator by generator, first by the hermitian part
    of the compression, then by the skew part, at spectral gaps wider than
    ``CLUSTER_ATOL``; indices inside a finished block see every generator as
    a scalar.
    """
    n = mats.shape[-1]
    V = np.eye(n, dtype=complex)
    blocks = [list(range(n))]
    for g in mats:
        for use_herm in (True, False):
            refined = []
            for B in blocks:
                if len(B) == 1:
                    refined.append(B)
                    continue
                C = (V.conj().T @ g @ V)[np.ix_(B, B)]
                H = 0.5 * (C + C.conj().T) if use_herm else -0.5j * (C - C.conj().T)
                w, U = np.linalg.eigh(H)
                if w[-1] - w[0] <= CLUSTER_ATOL:
                    refined.append(B)
                    continue
                V[:, B] = V[:, B] @ U
                for cluster in _split_clusters(w):
                    refined.append([B[i] for i in cluster])
            blocks = refined
    return V


def _fix_phases(mats: np.ndarray) -> np.ndarray:
    """Diagonal phases making the first significant entries (above ``ENTRY_ATOL``) real positive.

    Spreads outward from index 0 through significant off-diagonal entries,
    scanning generators in order; indices never reached keep phase one.
    """
    n = mats.shape[-1]
    phase = np.ones(n, dtype=complex)
    known = np.zeros(n, dtype=bool)
    known[0] = True
    changed = True
    while changed:
        changed = False
        for g in mats:
            for r in range(n):
                for c in range(n):
                    if r == c or abs(g[r, c]) <= ENTRY_ATOL:
                        continue
                    if known[r] and not known[c]:
                        phase[c] = phase[r] * np.conj(g[r, c]) / abs(g[r, c])
                        known[c] = True
                        changed = True
                    elif known[c] and not known[r]:
                        phase[r] = g[r, c] * phase[c] / abs(g[r, c])
                        known[r] = True
                        changed = True
    return phase


def _unitary_representative(mats: np.ndarray) -> np.ndarray:
    V = _refine_frame(mats)
    conj = np.einsum("ij,kjl,lm->kim", V.conj().T, mats, V)
    phase = _fix_phases(conj)
    return np.conj(phase)[None, :, None] * conj * phase[None, None, :]


def orbit_representative(descriptor, values):
    """Canonical point on the simultaneous-conjugation orbit of a tuple.

    Conjugation-invariant by construction for tuples whose refinement ends
    in singleton blocks (generic tuples, and any tuple some generator of
    which separates the spectrum), and for tuples of scalars, which are
    fixed points of conjugation anyway.  For a quotient the result is the
    lexicographically least representative over all center lifts, of which
    there may be at most ``MAX_CENTER_LIFTS``.
    """
    mats = np.array([mg.as_matrix(v) for v in values], dtype=complex)
    if mats.ndim != 3 or mats.shape[0] == 0:
        raise ValueError("need a nonempty stack of square matrices")
    leaves = mg.leaf_blocks(descriptor)
    quotient = isinstance(descriptor, mg.CentralQuotient)
    out = None
    for _, lifted in _center_lifts(descriptor, mats) if quotient else [((), mats)]:
        cand = np.zeros_like(lifted)
        for sl, leaf in leaves:
            blk = np.ascontiguousarray(lifted[:, sl, sl])
            cand[:, sl, sl] = blk if isinstance(leaf, mg.Torus) else _unitary_representative(blk)
        if out is None or mg._lex_less([cand[None]], [out[None]])[0]:
            out = cand
    return [mg.GroupElement(descriptor, m, check=False) for m in out]


# ---------------------------------------------------------------------------
# interpolation experiments

def default_windows(graph: Graph, words: Sequence[PathWord]) -> list:
    """Each word's final edge from its second curve point on, a natural
    private segment; a straight two-point final edge gives its one segment."""
    out = []
    for w in words:
        if w.is_unit():
            raise ValueError("unit words have no window")
        last = len(path_polyline(graph, w)) - 1  # index of the word's last point
        final_edge = len(edge_polyline(graph, *w.letters[-1]))
        out.append((last - max(final_edge - 2, 1), last))
    return out


def approximation_experiment(graph: Graph, words: Sequence[PathWord], descriptor,
                             seed: int, windows: Sequence = None,
                             tol: float = DEFAULT_TOL) -> tuple:
    """Draw Haar targets, interpolate, and return each word's holonomy error (Frobenius)."""
    if windows is None:
        windows = default_windows(graph, words)
    if len(windows) != len(words):
        raise ValueError(f"{len(words)} words but {len(windows)} windows; give one window per word")
    rng = np.random.default_rng(seed)
    targets_mats = mg.haar_batch(descriptor, len(words), rng)
    targets = [InterpolationTarget(w, mg.GroupElement(descriptor, m, check=False), tuple(win))
               for w, m, win in zip(words, targets_mats, windows)]
    conn = restrict(interpolate_connection(graph, targets), graph, tol)
    return tuple(float(np.linalg.norm(h - m)) for h, m in zip(holonomies(conn, words), targets_mats))


# ---------------------------------------------------------------------------
# the abelian obstruction

def commutator_word(a: PathWord, b: PathWord) -> PathWord:
    """The loop a b a^-1 b^-1 (walked in that order)."""
    return compose(inverse(b), compose(inverse(a), compose(b, a)))


_QI = np.array([[1j, 0.0], [0.0, -1j]])
_QJ = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ObstructionWitness:
    """A zero-exponent loop that abelian connections cannot move.

    ``word`` retraces every edge equally often in both directions, so any
    connection with commuting values holds it at the identity; the packaged
    nonabelian edge assignment sends it to minus the identity instead,
    which is as far from forced as it gets.
    """

    graph: Graph
    loop_a: PathWord
    loop_b: PathWord
    word: PathWord
    nonabelian_connection: GeneralizedConnection
    nonabelian_defect: float

    def abelian_defect(self, conn: GeneralizedConnection) -> float:
        """Distance of the witness word's holonomy from the identity."""
        h = holonomy_general(conn, self.word)
        return float(mg.distance(h, mg.identity(h.descriptor)))


def abelian_obstruction_witness(graph: Graph) -> ObstructionWitness:
    """Commutator of the first two tree-basis loops, with a nonabelian foil."""
    basis = tree_basis(graph)
    if len(basis.loop_ids) < 2:
        raise ValueError("need at least two independent loops for a commutator")
    ea, eb = basis.loop_ids[0], basis.loop_ids[1]
    la, lb = basis.loops[ea], basis.loops[eb]
    word = commutator_word(la, lb)
    su2 = mg.SpecialUnitary(2)
    loop_values = {eid: mg.identity(su2) for eid in basis.loop_ids}
    loop_values[ea] = mg.GroupElement(su2, _QI)
    loop_values[eb] = mg.GroupElement(su2, _QJ)
    conn = tree_reconstruct(basis, su2, loop_values)
    h = holonomy_general(conn, word)
    defect = float(mg.distance(h, mg.identity(su2)))
    return ObstructionWitness(graph, la, lb, word, conn, defect)


# ---------------------------------------------------------------------------
# closure membership

@dataclass(frozen=True)
class LoopAssignment:
    """Prescribed holonomies on a family of loops at a common basepoint."""

    graph: Graph
    loops: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.loops) != len(self.values):
            raise ValueError("one value per loop")
        if not self.loops:
            raise ValueError("empty loop family")
        base = {self.loops[0].source}
        for w in self.loops:
            if not w.is_loop():
                raise ValueError(f"{w!r} is not a loop")
            base.add(w.source)
        if len(base) != 1:
            raise ValueError("loops must share a single basepoint")
        descs = {v.descriptor for v in self.values}
        if len(descs) != 1:
            raise mg.DescriptorMismatchError("values mix group descriptors")

    @property
    def descriptor(self):
        return self.values[0].descriptor


@dataclass(frozen=True)
class ClosureVerdict:
    member: bool
    certified: bool
    witness: tuple
    detail: str
    checked: int


def _exponent_vectors(k: int, bound: int):
    """All nonzero integer vectors with L1 norm at most ``bound``."""
    rng = range(-bound, bound + 1)
    for m in itertools.product(rng, repeat=k):
        if m == (0,) * k:
            continue
        if sum(abs(c) for c in m) <= bound:
            yield m


def _exponent_matrix(loops):
    """Edge-exponent rows of the loops and their rank.  At rank k the loops freely
    generate a free group (Nielsen-Schreier; Hopfian) and obey no relation."""
    exps = [abelianize(w) for w in loops]
    edge_ids = sorted({eid for a in exps for eid in a}, key=_id_key)
    A = np.array([[a.get(eid, 0) for eid in edge_ids] for a in exps], dtype=int)
    return A, np.linalg.matrix_rank(A)


def _abelian_check(A, diagonals, bound, tol, trivial_kernel):
    """Zero-exponent words must multiply the abelian values to one.

    ``A`` holds the loops' edge-exponent rows and ``diagonals`` one complex
    vector of unit phases per loop; the value of an exponent vector m is the
    entrywise product of powers.  A trivial kernel of ``A^T`` certifies a member
    at once.  Otherwise the search walks the cube (2 bound + 1)^k, k loops, so a
    cube larger than ``MAX_SEARCH_CUBE`` is a ValueError before any vector is
    enumerated.
    """
    if trivial_kernel:
        return ClosureVerdict(True, True, (), "exponent relations have no nonzero solutions", 0)
    cube = (2 * bound + 1) ** len(A)
    if cube > MAX_SEARCH_CUBE:
        raise ValueError(f"closure search too large: {2 * bound + 1}^{len(A)} = {cube} "
                         f"exponent vectors > {MAX_SEARCH_CUBE}; lower the bound or the loops")
    diag = np.asarray(diagonals, dtype=complex)
    checked = 0
    for m in _exponent_vectors(len(A), bound):
        if np.any(A.T @ np.asarray(m) != 0):
            continue
        checked += 1
        prod = np.prod(diag ** np.asarray(m)[:, None], axis=0)
        if np.max(np.abs(prod - 1.0)) > tol:
            return ClosureVerdict(False, True, tuple(m),
                                  "zero-exponent word with nontrivial abelian value", checked)
    return ClosureVerdict(True, False, (),
                          f"no violation among exponent vectors with L1 norm <= {bound}", checked)


def _loop_verdict(data: LoopAssignment, bound, tol) -> ClosureVerdict:
    descriptor, loops = data.descriptor, data.loops
    relations, rank = loop_relations(data.graph, loops)
    A, exp_rank = _exponent_matrix(loops)

    def leaf_verdict(leaf, stack):
        """A torus leaf by its diagonals; an SU(n) or U(n) leaf must send every relation to
        I, and is certified only at exponent rank = subgroup rank (word maps need not be
        onto: the lone commutator {[a, b]} obeys no relation).  There the relations'
        exponent sums span {m : A^T m = 0}; below it, where that kernel is nonzero, a U(n)
        leaf's determinants are searched."""
        if isinstance(leaf, mg.Torus):
            diagonals = np.diagonal(stack, axis1=1, axis2=2)
            return _abelian_check(A, diagonals, bound, tol, exp_rank == len(A))
        residuals = _word_products(stack, relations) - np.eye(stack.shape[-1])
        broken = np.flatnonzero(np.linalg.norm(residuals, axis=(1, 2)) > tol)
        if broken.size:  # the first broken relation, numbered from 1
            return ClosureVerdict(False, True, relations[broken[0]],
                                  "loop values violate a relation among the loops", int(broken[0]) + 1)
        detail = (f"every relation among the loops holds ({len(relations)} found)" if relations else
                  "the loops obey no relation, so they are independent")
        if exp_rank != rank:
            detail += f"; exponent rank {exp_rank} < subgroup rank {rank}"
        if exp_rank == rank or isinstance(leaf, mg.SpecialUnitary):
            return ClosureVerdict(True, exp_rank == rank, (), detail, len(relations))
        det_check = _abelian_check(A, mg.stack_det(stack)[:, None], bound, tol, False)
        checked = len(relations) + det_check.checked
        if not det_check.member:
            return ClosureVerdict(False, True, det_check.witness,
                                  "zero-exponent word with nontrivial determinant", checked)
        return ClosureVerdict(True, False, (), f"{detail}; {det_check.detail}", checked)

    mats = np.array([v.matrix for v in data.values])
    if not isinstance(descriptor, (mg.ProductGroup, mg.CentralQuotient)):
        return leaf_verdict(descriptor, mats)
    leaves = mg.leaf_blocks(descriptor)

    def product_verdict(stack):
        """The first failing leaf names itself by its index in ``leaf_blocks``."""
        total, details, certified = 0, [], True
        for idx, (sl, leaf) in enumerate(leaves):
            sub = leaf_verdict(leaf, np.ascontiguousarray(stack[:, sl, sl]))
            total += sub.checked
            details.append(f"factor {idx}: {sub.detail}")
            if not sub.member:
                return ClosureVerdict(False, sub.certified, (idx,) + sub.witness, details[-1], total)
            certified = certified and sub.certified
        return ClosureVerdict(True, certified, (), "; ".join(details), total)

    if isinstance(descriptor, mg.ProductGroup):
        return product_verdict(mats)
    total, certified, first_failure = 0, True, None
    for choice, stack in _center_lifts(descriptor, mats):
        sub = product_verdict(stack)
        total += sub.checked
        if sub.member:
            return ClosureVerdict(True, sub.certified, tuple(choice),
                                  f"lift {choice} works: {sub.detail}", total)
        certified = certified and sub.certified
        if first_failure is None:
            first_failure = sub
    return ClosureVerdict(False, certified, first_failure.witness,
                          f"no center lift works; identity lift: {first_failure.detail}", total)


def closure_membership(data, bound: int = 6, tol: float = 1e-8) -> ClosureVerdict:
    """Decide whether loop or edge data lies in the holonomy closure.

    Edge assignments always do: every relation telescopes on edges.
    A loop family is folded once (:func:`loop_relations`), its values are
    stacked once, and the stack is judged by :func:`matrixgroups.leaf_blocks`,
    once per center lift in a quotient; a product's witness and detail lead
    with the failing leaf's index, so a nested product reads as the flat one.
    ``bound`` limits only the torus search and the U(n) determinant search
    behind an uncertified member; ``certified`` records whether the verdict
    is a proof.  A negative ``bound`` is a ValueError.
    """
    if bound < 0:
        raise ValueError(f"closure search bound must be >= 0, got {bound}")
    if isinstance(data, GeneralizedConnection):
        return ClosureVerdict(True, True, (), "edge assignments satisfy every closure relation "
                              "automatically", 0)
    if isinstance(data, LoopAssignment):
        return _loop_verdict(data, bound, tol)
    raise TypeError(f"cannot test closure membership of {type(data).__name__}")


def loop_assignment_to_dict(data: LoopAssignment) -> dict:
    return {
        "group": mg.descriptor_to_dict(data.descriptor),
        "basepoint": data.loops[0].source,
        "loops": [word_to_tokens(w) for w in data.loops],
        "values": [mg.matrix_to_pairs(v.matrix) for v in data.values],
    }


def loop_assignment_from_dict(graph: Graph, data: Mapping) -> LoopAssignment:
    from .pathgroupoid import word_from_tokens

    desc = mg.descriptor_from_dict(data["group"])
    loops = [word_from_tokens(graph, t, source=data.get("basepoint"))
             for t in data["loops"]]
    mats = mg.admit(desc, [mg.matrix_from_pairs(p) for p in data["values"]])
    values = tuple(mg.GroupElement(desc, m, check=False) for m in mats)
    return LoopAssignment(graph, tuple(loops), values)
