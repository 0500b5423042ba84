"""Tests for cylindrical functions, gauge means and trace separation."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import holonomy_lab.matrixgroups as mg
import holonomy_lab.cylindrical as cyl
from holonomy_lab.connections import (
    _word_products,
    gauge_act_general,
    holonomies,
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
    expr_from_dict,
    expr_to_dict,
    holonomy_stack,
    invariance_check,
    separation_test,
    wilson_loop,
)
from holonomy_lab.pathgroupoid import PathWord, compose, edge_word, inverse

from graphs import pentagon_chord_graph, square_graph, triangle_graph
from instruments import haar_sample
from oracles import (
    _word_trace,
    brute_force_conjugator,
    gauge_transform_matmul,
    gauged_values_canonical,
    gauged_values_rows,
    separation_per_word,
    su2_grid,
    su2_haar_mean,
)

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
    assert abs(direct - f.expr.eval(h[None, None])[0]) < 1e-15


def test_entry_indices_are_checked_before_any_holonomy(transport_calls):
    expr = Sum((Prod((Entry(2, 1, 3), Conj(TraceOf(3)))), Const(1.0)))
    assert expr.max_path() == 3 and Const(0.0).max_path() == 0
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


def test_invariance_check_needs_a_gauge_sample():
    graph = square_graph()
    loop = square_loop(graph)
    stack = holonomy_stack(wilson_loop(loop, 2), random_generalized_connection(graph, SU2, seed=3))
    with pytest.raises(ValueError, match="at least one gauge sample"):
        invariance_check(wilson_loop(loop, 2), stack, SU2, gauges=0)


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


U1_SU2_MOD_Z2 = mg.central_quotient(mg.ProductGroup((mg.Unitary(1), SU2)),
                                    [np.eye(3), -np.eye(3)])
U1_SU2 = mg.ProductGroup((mg.Unitary(1), SU2))
SU3_MOD_Z3 = mg.central_quotient(mg.ProductGroup((mg.SpecialUnitary(3),)),
                                 [np.exp(2j * np.pi * j / 3) * np.eye(3) for j in range(3)])
# a torus block makes the center diagonal but not scalar: diag(i, -1, -1, -1) generates Z4
T2_SU2_MOD_Z4 = mg.central_quotient(mg.ProductGroup((mg.Torus(2), SU2)),
                                    [np.linalg.matrix_power(np.diag([1j, -1, -1, -1]), j)
                                     for j in range(4)])
U2_T1_SU2 = mg.ProductGroup((mg.Unitary(2), mg.Torus(1), SU2))


@pytest.mark.parametrize("desc", [SU2, mg.Unitary(3), mg.Torus(2), U1_SU2_MOD_Z2],
                         ids=["SU2", "U3", "T2", "quotient"])
@pytest.mark.parametrize("layers", [1, 2])
def test_gauged_values_and_mean_match_the_matmul_products(desc, layers, monkeypatch):
    graph = square_graph()
    conn = random_generalized_connection(graph, desc, seed=23)
    loop, edge = square_loop(graph), edge_word(graph, 2)
    f = CylFunction((loop, edge), Sum((Prod((Entry(1, 1, 1), Conj(Entry(2, 2, 1)))),
                                       TraceOf(1))))
    stack = holonomy_stack(f, conn)
    got = _gauged_values(f, stack, desc, 300, layers, np.random.default_rng(24))
    mean = HaarMean(f, desc, layers).estimate(conn, samples=3000, seed=25)
    # the replaced forms: every gauge product by numpy's @
    monkeypatch.setattr(cyl, "gauge_transform", gauge_transform_matmul)
    monkeypatch.setattr(mg, "stack_mul", np.matmul)
    want = _gauged_values(f, stack, desc, 300, layers, np.random.default_rng(24))
    assert np.max(np.abs(got - want)) <= 1e-12
    want_mean = HaarMean(f, desc, layers).estimate(conn, samples=3000, seed=25)
    assert abs(mean.value - want_mean.value) <= 1e-12
    assert abs(mean.stderr - want_mean.stderr) <= 1e-12


def gauge_cases(graph):
    """Cylindrical functions of 0, 1 and 2 paths: unit, open and closed."""
    loop, edge, unit = square_loop(graph), edge_word(graph, 2), PathWord((), "c", "c")
    return {
        "no-path": CylFunction((), Const(0.5 - 2.0j)),
        "unit": CylFunction((unit,), Sum((TraceOf(1), Entry(1, 1, 2)))),
        "open": entry_abs_square(edge, 2, 1),
        "closed": CylFunction((loop,), Prod((Const(0.5), TraceOf(1)))),
        "closed-and-open": CylFunction((loop, edge), Sum((Prod((Entry(1, 1, 1), Conj(Entry(2, 2, 1)))),
                                                          TraceOf(1)))),
    }


@pytest.mark.parametrize("desc", [SU2, mg.Unitary(3), mg.Torus(2), U1_SU2_MOD_Z2, U1_SU2, SU3_MOD_Z3],
                         ids=["SU2", "U3", "T2", "quotient", "U1xSU2", "SU3modZ3"])
@pytest.mark.parametrize("layers", [1, 2])
def test_gauged_values_and_mean_are_the_row_major_oracle_bitwise(desc, layers, monkeypatch):
    # slices of cyl.GAUGE_SLICE samples: counts on both sides of a slice edge and of a mean chunk
    graph = square_graph()
    conn = random_generalized_connection(graph, desc, seed=31)
    edge = cyl.GAUGE_SLICE
    for name, f in gauge_cases(graph).items():
        stack = holonomy_stack(f, conn)
        for count in (1, edge - 1, edge, edge + 1, 2 * edge + 1):
            got = _gauged_values(f, stack, desc, count, layers, np.random.default_rng(count))
            want = gauged_values_rows(f, stack, desc, count, layers, np.random.default_rng(count))
            assert got.tobytes() == want.tobytes(), (name, count)
        got = HaarMean(f, desc, layers).estimate(conn, samples=MEAN_CHUNK + edge + 1, seed=32)
        with monkeypatch.context() as m:
            m.setattr(cyl, "_gauged_values", gauged_values_rows)
            want = HaarMean(f, desc, layers).estimate(conn, samples=MEAN_CHUNK + edge + 1, seed=32)
        assert ladder_bytes(got) == ladder_bytes(want), name


def ladder_bytes(est):
    return np.array([(r.value, r.stderr, r.samples) for r in est.ladder]).tobytes()


@pytest.mark.parametrize("desc", [T2_SU2_MOD_Z4, U2_T1_SU2], ids=["T2xSU2modZ4", "U2xT1xSU2"])
@pytest.mark.parametrize("layers", [1, 2])
def test_gauged_values_of_wide_groups_agree_with_the_padded_oracle(desc, layers):
    # past 3x3 the padded products were BLAS matmuls; the leaf blocks take stack_mul's sums
    graph = square_graph()
    conn = random_generalized_connection(graph, desc, seed=33)
    for name, f in gauge_cases(graph).items():
        stack = holonomy_stack(f, conn)
        for count in (1, cyl.GAUGE_SLICE + 1):
            got = _gauged_values(f, stack, desc, count, layers, np.random.default_rng(count))
            want = gauged_values_rows(f, stack, desc, count, layers, np.random.default_rng(count))
            assert np.max(np.abs(got - want)) <= 1e-14, (name, count)


@pytest.mark.parametrize("desc", [U1_SU2_MOD_Z2, T2_SU2_MOD_Z4, SU3_MOD_Z3],
                         ids=["quotient", "T2xSU2modZ4", "SU3modZ3"])
@pytest.mark.parametrize("layers", [1, 2])
def test_base_group_draws_keep_every_center_invariant_value(desc, layers):
    # Haar measure on G pushes forward to Haar measure on G/K, so a function on G/K, a
    # center-invariant function on G, takes the same values at raw draws as at coset
    # representatives: bitwise for the center {I, -I}, whose translates are exact negations,
    # and to roundoff for the roots of unity beyond -1
    graph = square_graph()
    conn = random_generalized_connection(graph, desc, seed=36)
    loop, edge, n = square_loop(graph), edge_word(graph, 2), mg.dim(desc)
    invariant = {
        "trace": CylFunction((loop,), TraceOf(1)),
        "abs-trace": CylFunction((loop,), Prod((TraceOf(1), Conj(TraceOf(1))))),
        "open-abs2": entry_abs_square(edge, n, n),
    }
    for name, f in invariant.items():
        stack = holonomy_stack(f, conn)
        for count in (1, cyl.GAUGE_SLICE + 1):
            got = _gauged_values(f, stack, desc, count, layers, np.random.default_rng(count))
            want = gauged_values_canonical(f, stack, desc, count, layers, np.random.default_rng(count))
            if desc is U1_SU2_MOD_Z2:
                assert got.tobytes() == want.tobytes(), (name, count)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14, (name, count)
    # an entry on an open edge is charged, no function on G/K: its mean is its base-group average, 0
    est = HaarMean(entry_function(edge, 1, 1), desc, layers).estimate(conn, samples=4096, seed=37)
    assert abs(est.value) <= 5 * est.stderr


@pytest.mark.parametrize("desc", [U1_SU2_MOD_Z2, T2_SU2_MOD_Z4, U2_T1_SU2],
                         ids=["quotient", "T2xSU2modZ4", "U2xT1xSU2"])
def test_gauge_products_run_on_leaf_blocks(desc, monkeypatch):
    # layers and the gauge action multiply leaf blocks, never the padded n x n stacks
    widths, mul = set(), mg.stack_mul

    def spy(a, b):
        widths.add((a.shape[-1], b.shape[-1]))
        return mul(a, b)

    graph = square_graph()
    f = gauge_cases(graph)["closed-and-open"]
    conn = random_generalized_connection(graph, desc, seed=34)
    stack = holonomy_stack(f, conn)  # the path products are not gauge products
    monkeypatch.setattr(cyl, "holonomy_stack", lambda *_: stack)
    monkeypatch.setattr(mg, "stack_mul", spy)
    HaarMean(f, desc, layers=2).estimate(conn, samples=MEAN_CHUNK + 5, seed=35)
    leaf_sizes = {leaf.n for _, leaf in mg.leaf_blocks(desc)}
    assert widths and {w for pair in widths for w in pair} <= leaf_sizes


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
    stack = holonomies(conn, loops)
    g = haar_sample(SU2, seed=26).matrix
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
    stack = holonomies(conn, loops)
    other = np.array([haar_sample(SU2, seed=28).matrix])
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
        assert abs(np.trace(_word_products(a, [word])[0]) - _word_trace(a, word)) <= 1e-12
    # every word of length <= 3 over the letters (i, +-1) without backtracking
    letters = [(i, o) for i in range(3) for o in (1, -1)]
    words = [w for n in (1, 2, 3) for w in itertools.product(letters, repeat=n)
             if all(p[0] != q[0] or p[1] != -q[1] for p, q in zip(w, w[1:]))]
    gaps = [abs(_word_trace(a, w) - _word_trace(b, w)) for w in words]
    verdict = separation_test(a, b, max_len=3)
    assert verdict.words_checked == len(words)
    assert abs(verdict.gap - max(gaps)) <= 1e-12


def test_separation_matches_the_per_word_oracle_bitwise():
    # SU(3) at length 6, every word with inverses: the gap's bits, the witness and the count;
    # quaternion frames tie exactly on many words, where the first maximal gap is the witness
    rng = np.random.default_rng(41)
    su3 = mg.SpecialUnitary(3)
    a, b = mg.haar_batch(su3, 3, rng), mg.haar_batch(su3, 3, rng)
    for x, y, max_len in ((a, b, 6), ([QI, QJ, QK], [QI, QK, QJ], 3), (a, a, 2)):
        got, want = separation_test(x, y, max_len), separation_per_word(x, y, max_len)
        assert np.float64(got.gap).tobytes() == np.float64(want.gap).tobytes()
        assert (got.separated, got.witness, got.words_checked) == \
            (want.separated, want.witness, want.words_checked)
    assert got.witness == () and got.gap == 0.0  # a tuple against itself
    assert separation_test(a, b, 6).words_checked == 23436


def test_separation_memory_is_bounded_by_the_fold_chunks():
    # SU(3) at length 6 gathers about 136,000 letters on two tuples; folded in chunks of
    # connections.FOLD_LETTERS letters the call's peak stays well below one gather of them all
    # (which peaked at 74 MiB)
    rng = np.random.default_rng(41)
    su3 = mg.SpecialUnitary(3)
    a, b = mg.haar_batch(su3, 3, rng), mg.haar_batch(su3, 3, rng)
    tracemalloc.start()
    try:
        separation_test(a, b, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_separation_verdict_holds_python_scalars():
    # a report can carry the verdict: a positive gap is a float and the flag a bool
    rng = np.random.default_rng(42)
    a, b = mg.haar_batch(SU2, 2, rng), mg.haar_batch(SU2, 2, rng)
    v = separation_test(a, b)
    assert v.gap > 0.0 and type(v.separated) is bool and type(v.gap) is float
    data = dataclasses.asdict(v)
    assert json.loads(json.dumps(data)) == {**data, "witness": [list(s) for s in v.witness]}


def test_separation_rejects_empty_tuples():
    with pytest.raises(ValueError, match="nonempty"):
        separation_test([], [])
    with pytest.raises(ValueError, match="nonempty"):
        separation_test([], [QI])


def test_separation_validates_shapes():
    with pytest.raises(ValueError):
        separation_test([QI], [QI, QJ])
