"""Tests for cylindrical functions, gauge means and trace separation."""

import itertools

import numpy as np
import pytest

import holonomy_lab.matrixgroups as mg
from holonomy_lab.connections import (
    _adjoint_table,
    _word_product,
    gauge_act_general,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    restrict,
)
from holonomy_lab.cylindrical import (
    MEAN_CHUNK,
    Conj,
    Const,
    CylFunction,
    Entry,
    HaarMean,
    Prod,
    Sum,
    TraceOf,
    _gauged_values,
    cyl_from_dict,
    cyl_to_dict,
    entry_abs_square,
    entry_function,
    evaluate,
    evaluate_stack,
    expr_from_dict,
    expr_to_dict,
    holonomy_stack,
    invariance_check,
    loop_stack,
    separation_test,
    wilson_loop,
)
from holonomy_lab.pathgroupoid import PathWord, compose, edge_word, inverse

from graphs import pentagon_chord_graph, square_graph, triangle_graph
from oracles import _word_trace, brute_force_conjugator, su2_grid, su2_haar_mean

SU2 = mg.SpecialUnitary(2)


def square_loop(graph):
    w = edge_word(graph, 1)
    for eid in (2, 3, 4):
        w = compose(edge_word(graph, eid), w)
    return w


# ---------------------------------------------------------------------------
# expression trees

def test_expr_eval_matches_hand_computation():
    stack = np.array([[
        [[1.0 + 2.0j, 0.5j], [2.0, -1.0]],
        [[0.0, 1.0], [1.0j, 3.0]],
    ]])
    assert Entry(1, 1, 2).eval(stack)[0] == 0.5j
    assert Entry(2, 2, 1).eval(stack)[0] == 1.0j
    assert TraceOf(1).eval(stack)[0] == (1.0 + 2.0j) + (-1.0)
    assert Conj(Entry(1, 1, 1)).eval(stack)[0] == 1.0 - 2.0j
    got = Sum((Const(2.0), Prod((Entry(1, 2, 1), Entry(2, 1, 2))))).eval(stack)[0]
    assert got == 2.0 + 2.0 * 1.0


def test_expr_indices_are_one_based():
    with pytest.raises(ValueError):
        Entry(0, 1, 1)
    with pytest.raises(ValueError):
        Entry(1, 0, 1)
    with pytest.raises(ValueError):
        TraceOf(0)


def test_expr_json_roundtrip():
    expr = Sum((
        Const(1.5 - 0.5j),
        Prod((Entry(1, 1, 2), Conj(Entry(2, 2, 2)), TraceOf(1))),
    ))
    again = expr_from_dict(expr_to_dict(expr))
    assert again == expr
    with pytest.raises(ValueError):
        expr_from_dict({"nope": 1})
    with pytest.raises(ValueError):
        expr_from_dict({"trace": 1, "extra": 2})


def test_function_checks_path_count():
    graph = square_graph()
    w = edge_word(graph, 1)
    with pytest.raises(ValueError):
        CylFunction((w,), Entry(2, 1, 1))
    with pytest.raises(ValueError):
        wilson_loop(w, 2)  # an open edge is not a loop


def test_function_json_roundtrip():
    graph = square_graph()
    loop = square_loop(graph)
    f = CylFunction((loop, edge_word(graph, 2)),
                    Sum((TraceOf(1), Entry(2, 1, 1))))
    again = cyl_from_dict(graph, cyl_to_dict(f))
    assert again.paths == f.paths
    assert again.expr == f.expr
    unit = CylFunction((PathWord((), "b", "b"),), TraceOf(1))
    back = cyl_from_dict(graph, cyl_to_dict(unit))
    assert back.paths[0].is_unit() and back.paths[0].source == "b"


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_on_generalized_connection():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=1)
    loop = square_loop(graph)
    f = wilson_loop(loop, 2)
    direct = evaluate(f, conn)
    h = holonomy_stack(f, conn)[0]
    assert abs(direct - np.trace(h) / 2.0) < 1e-13
    assert abs(direct - evaluate_stack(f, [h])) < 1e-15


def test_entry_indices_are_checked_before_any_holonomy(transport_calls):
    expr = Sum((Prod((Entry(2, 1, 3), Conj(TraceOf(3)))), Const(1.0)))
    assert expr.max_path() == 3 and expr.max_index() == 3
    assert TraceOf(2).max_index() == 0 and Const(0.0).max_path() == 0
    graph = pentagon_chord_graph()
    word = edge_word(graph, 1)
    f = CylFunction((word, word, word), expr)
    conn = restrict(random_smooth_connection(SU2, graph, 2, seed=2), graph)
    for check in (lambda: HaarMean(f, SU2), lambda: evaluate(f, conn),
                  lambda: invariance_check(f, np.repeat(np.eye(2)[None], 3, axis=0), SU2)):
        with pytest.raises(ValueError, match=r"entry \[2, 1, 3\] is outside the 2x2"):
            check()
    assert transport_calls == []
    HaarMean(f, mg.Unitary(3))  # fits a 3x3 holonomy


def test_evaluate_smooth_needs_graph():
    graph = pentagon_chord_graph()
    conn = random_smooth_connection(SU2, graph, 2, seed=2)
    f = entry_function(edge_word(graph, 1), 1, 1)
    with pytest.raises(TypeError):
        evaluate(f, conn)
    val = evaluate(f, restrict(conn, graph))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


# ---------------------------------------------------------------------------
# invariance and gauge means

def test_wilson_is_gauge_invariant_entry_is_not():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=3)
    loop = square_loop(graph)
    stack = holonomy_stack(wilson_loop(loop, 2), conn)  # both functions read the one loop
    assert invariance_check(wilson_loop(loop, 2), stack, SU2, gauges=40, seed=4) < 1e-12
    assert invariance_check(entry_function(loop, 1, 1), stack, SU2, gauges=40, seed=4) > 1e-3


def test_wilson_invariance_under_explicit_gauge_action():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=5)
    gauge = random_discrete_gauge(graph, SU2, seed=6)
    loop = square_loop(graph)
    f = wilson_loop(loop, 2)
    assert abs(evaluate(f, conn) - evaluate(f, gauge_act_general(conn, gauge))) < 1e-12


def test_mean_of_invariant_function_is_its_value():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=7)
    f = wilson_loop(square_loop(graph), 2)
    est = HaarMean(f, SU2).estimate(conn, samples=200, seed=8)
    assert abs(est.value - evaluate(f, conn)) < 1e-12
    assert est.stderr < 1e-12


def test_mean_of_invariant_function_has_roundoff_stderr():
    # every sample of a gauge-invariant function is the same number up to
    # roundoff, so its error bar is roundoff too, not the square root of a
    # cancellation between E|f|^2 and |E f|^2
    graph = triangle_graph()
    desc = mg.ProductGroup((mg.Torus(1), SU2))
    conn = random_generalized_connection(graph, desc, seed=0)
    loop = compose(edge_word(graph, 3), compose(edge_word(graph, 2), edge_word(graph, 1)))
    f = wilson_loop(loop, 3)
    est = HaarMean(f, desc).estimate(conn, samples=4096, seed=0)
    assert abs(est.value - evaluate(f, conn)) < 1e-12
    assert est.stderr <= 1e-15


def test_open_edge_entry_square_mean_is_half():
    # for an edge with two distinct endpoints the average of |H'_11|^2 over
    # independent endpoint gauges is |sum_ij H_ij u_i v_j|^2-type and comes
    # out to ||H||_F^2 / 4 = 1/2 for any H in SU(2)
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=9)
    f = entry_abs_square(edge_word(graph, 1), 1, 1)
    est = HaarMean(f, SU2).estimate(conn, samples=200_000, seed=10)
    assert est.stderr < 2e-3
    assert abs(est.value.imag) < 1e-12
    assert abs(est.value.real - 0.5) < 5.0 * est.stderr


def test_loop_entry_square_mean_matches_quadrature():
    # a loop has a single endpoint vertex, so the average conjugates H by one
    # gauge factor; the exact value is (|tr H|^2 + 2) / 6 for SU(2)
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=11)
    loop = square_loop(graph)
    h = holonomy_stack(CylFunction((loop,), TraceOf(1)), conn)[0]
    closed_form = (abs(np.trace(h)) ** 2 + 2.0) / 6.0
    oracle = su2_haar_mean(lambda g: abs((g.conj().T @ h @ g)[0, 0]) ** 2)
    assert abs(oracle - closed_form) < 1e-10
    f = entry_abs_square(loop, 1, 1)
    est = HaarMean(f, SU2).estimate(conn, samples=200_000, seed=12)
    assert abs(est.value.real - closed_form) < 5.0 * est.stderr
    assert est.stderr < 2e-3


def test_mean_estimates_are_deterministic():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=13)
    f = entry_abs_square(square_loop(graph), 1, 1)
    a = HaarMean(f, SU2).estimate(conn, samples=30_000, seed=14)
    b = HaarMean(f, SU2).estimate(conn, samples=30_000, seed=14)
    assert a == b
    c = HaarMean(f, SU2).estimate(conn, samples=30_000, seed=15)
    assert a != c


def test_layered_mean_is_idempotent_within_noise():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=16)
    loop = square_loop(graph)
    h = holonomy_stack(CylFunction((loop,), TraceOf(1)), conn)[0]
    closed_form = (abs(np.trace(h)) ** 2 + 2.0) / 6.0
    f = entry_abs_square(loop, 1, 1)
    for layers in (1, 2, 3):
        est = HaarMean(f, SU2, layers=layers).estimate(conn, samples=60_000, seed=17)
        assert est.layers == layers
        assert abs(est.value.real - closed_form) < 5.0 * est.stderr


def test_mean_function_is_gauge_invariant_within_noise():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=18)
    moved = gauge_act_general(conn, random_discrete_gauge(graph, SU2, seed=19))
    f = entry_abs_square(edge_word(graph, 2), 2, 1)
    a = HaarMean(f, SU2).estimate(conn, samples=60_000, seed=20)
    b = HaarMean(f, SU2).estimate(moved, samples=60_000, seed=21)
    assert abs(a.value - b.value) < 5.0 * (a.stderr + b.stderr)


def test_mean_is_linear_per_sample():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=22)
    loop = square_loop(graph)
    fa = entry_abs_square(loop, 1, 1)
    fb = wilson_loop(loop, 2)
    both = CylFunction((loop,), Sum((fa.expr, fb.expr)))
    ea = HaarMean(fa, SU2).estimate(conn, samples=10_000, seed=23)
    eb = HaarMean(fb, SU2).estimate(conn, samples=10_000, seed=23)
    es = HaarMean(both, SU2).estimate(conn, samples=10_000, seed=23)
    assert abs(es.value - (ea.value + eb.value)) < 1e-12


def ladder_case(layers):
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=25)
    f = entry_abs_square(edge_word(graph, 1), 1, 1)  # two endpoint vertices, not gauge invariant
    return HaarMean(f, SU2, layers=layers), conn


@pytest.mark.parametrize("samples, rungs", [
    (2, [2]), (3, [2, 3]), (1000, [31, 62, 125, 250, 500, 1000]),
    (MEAN_CHUNK + 1000, [287, 574, 1149, 2298, 4596, MEAN_CHUNK + 1000])])
def test_ladder_top_rung_is_the_estimate(samples, rungs):
    hm, conn = ladder_case(1)
    est = hm.estimate(conn, samples, seed=26)
    assert [r.samples for r in est.ladder] == rungs
    assert est.ladder[-1] == est  # value, stderr and counts; the ladder field is not compared


@pytest.mark.parametrize("layers", [1, 2])
def test_ladder_rungs_at_chunk_multiples_are_standalone_estimates(layers):
    hm, conn = ladder_case(layers)
    samples = 4 * MEAN_CHUNK
    rungs = {r.samples: r for r in hm.estimate(conn, samples, seed=27).ladder}
    for n in (MEAN_CHUNK, 2 * MEAN_CHUNK):
        assert rungs[n] == hm.estimate(conn, n, seed=27)


@pytest.mark.parametrize("layers", [1, 2])
def test_ladder_rungs_inside_a_chunk_are_prefix_means_of_one_stream(layers):
    hm, conn = ladder_case(layers)
    samples = 3000
    est = hm.estimate(conn, samples, seed=28)
    stack = holonomy_stack(hm.function, conn)
    vals = _gauged_values(hm.function, stack, SU2, samples, layers, np.random.default_rng(28))
    for rung in est.ladder:
        assert rung.value == vals[:rung.samples].sum() / rung.samples
    # a standalone run of a rung below one chunk draws a different stream
    assert est.ladder[0].value != hm.estimate(conn, est.ladder[0].samples, seed=28).value


def test_mean_rejects_tiny_sample_counts():
    graph = square_graph()
    f = entry_abs_square(square_loop(graph), 1, 1)
    conn = random_generalized_connection(graph, SU2, seed=24)
    with pytest.raises(ValueError):
        HaarMean(f, SU2).estimate(conn, samples=1, seed=0)
    with pytest.raises(ValueError):
        HaarMean(f, SU2, layers=0)


# ---------------------------------------------------------------------------
# separation by trace invariants

QI = np.array([[1j, 0.0], [0.0, -1j]])
QJ = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
QK = np.array([[0.0, 1j], [1j, 0.0]])


def test_separation_accepts_conjugated_stack():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=25)
    loops = [
        compose(inverse(edge_word(graph, 6)),
                compose(edge_word(graph, 2), edge_word(graph, 1))),
        compose(edge_word(graph, 5),
                compose(edge_word(graph, 4),
                        compose(edge_word(graph, 3), edge_word(graph, 6)))),
    ]
    stack = loop_stack(conn, loops)
    g = mg.haar_sample(SU2, seed=26).matrix
    conjugated = np.array([g.conj().T @ m @ g for m in stack])
    verdict = separation_test(stack, conjugated, max_len=4)
    assert not verdict.separated
    assert verdict.gap < 1e-9


def test_separation_detects_planted_difference():
    graph = pentagon_chord_graph()
    conn = random_generalized_connection(graph, SU2, seed=27)
    loops = [
        compose(inverse(edge_word(graph, 6)),
                compose(edge_word(graph, 2), edge_word(graph, 1))),
    ]
    stack = loop_stack(conn, loops)
    other = np.array([mg.haar_sample(SU2, seed=28).matrix])
    verdict = separation_test(stack, other, max_len=2)
    assert verdict.separated
    assert verdict.gap > 1e-3
    assert verdict.witness


def test_separation_quaternion_frames_need_length_three():
    # all traces of products of <= 2 quaternion units agree between the two
    # orderings, but ijk = -1 while ikj = +1 splits them at length three
    a = [QI, QJ, QK]
    b = [QI, QK, QJ]
    short = separation_test(a, b, max_len=2)
    assert not short.separated
    assert short.gap < 1e-12
    full = separation_test(a, b, max_len=3)
    assert full.separated
    assert full.gap > 3.9
    _, residual = brute_force_conjugator(a, b, su2_grid(10, 10))
    assert residual > 0.5


@pytest.mark.parametrize("desc", [mg.SpecialUnitary(3), mg.Unitary(2)], ids=["SU3", "U2"])
def test_word_product_and_separation_gaps_match_letterwise_oracle(desc):
    rng = np.random.default_rng(40)
    a, b = mg.haar_batch(desc, 3, rng), mg.haar_batch(desc, 3, rng)
    for _ in range(50):
        word = [(int(i), int(o)) for i, o in zip(rng.integers(3, size=rng.integers(1, 9)),
                                                 rng.choice([-1, 1], size=8))]
        assert abs(np.trace(_word_product(_adjoint_table(a), word)) - _word_trace(a, word)) <= 1e-12
    # every word of length <= 3 over the letters (i, +-1) without backtracking
    letters = [(i, o) for i in range(3) for o in (1, -1)]
    words = [w for n in (1, 2, 3) for w in itertools.product(letters, repeat=n)
             if all(p[0] != q[0] or p[1] != -q[1] for p, q in zip(w, w[1:]))]
    gaps = [abs(_word_trace(a, w) - _word_trace(b, w)) for w in words]
    verdict = separation_test(a, b, max_len=3)
    assert verdict.words_checked == len(words)
    assert abs(verdict.gap - max(gaps)) <= 1e-12


def test_separation_validates_shapes():
    with pytest.raises(ValueError):
        separation_test([QI], [QI, QJ])


def test_loop_stack_needs_common_basepoint():
    graph = square_graph()
    conn = random_generalized_connection(graph, SU2, seed=29)
    with pytest.raises(ValueError):
        loop_stack(conn, [edge_word(graph, 1)])
