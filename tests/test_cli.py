"""End-to-end tests of the command line front-end."""

import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holonomy_lab
import holonomy_lab.cli as cli
import holonomy_lab.cylindrical as cyl
import holonomy_lab.matrixgroups as mg
from holonomy_lab.cli import CliError, _build_parser, main, parse_group, parse_path_tokens
from holonomy_lab.connections import (
    edge_polyline,
    gauge_act_general,
    generalized_to_dict,
    holonomy_general,
    holonomy_smooth,
    path_polyline,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    smooth_from_dict,
    smooth_to_dict,
)
from holonomy_lab.cylindrical import cyl_to_dict, entry_abs_square, wilson_loop
from holonomy_lab.pathgroupoid import (
    Edge,
    Graph,
    compose,
    edge_word,
    graph_to_dict,
    inverse,
    word_from_tokens,
    word_to_tokens,
)
from holonomy_lab.spectra import (
    LoopAssignment,
    abelian_obstruction_witness,
    approximation_experiment,
    commutator_word,
    loop_assignment_from_dict,
    loop_assignment_to_dict,
    tree_basis,
)

from graphs import arc_points, pentagon_chord_graph, spider_graph, triangle_graph

SU2 = mg.SpecialUnitary(2)


def run_cli(argv, **kwargs):
    env = dict(os.environ)
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "holonomy_lab.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared input files for the pentagon graph."""
    tmp = tmp_path_factory.mktemp("cli")
    graph = pentagon_chord_graph()
    (tmp / "graph.json").write_text(json.dumps(graph_to_dict(graph)))
    conn = random_generalized_connection(graph, SU2, seed=3)
    (tmp / "conn.json").write_text(json.dumps(generalized_to_dict(conn)))
    smooth = random_smooth_connection(SU2, graph, n_terms=5, seed=4)
    (tmp / "smooth.json").write_text(json.dumps(smooth_to_dict(smooth)))
    loop = compose(edge_word(graph, 5),
                   compose(edge_word(graph, 4),
                           compose(edge_word(graph, 3),
                                   compose(edge_word(graph, 2), edge_word(graph, 1)))))
    (tmp / "wilson.json").write_text(json.dumps(cyl_to_dict(wilson_loop(loop, 2))))
    abelian = random_generalized_connection(graph, mg.Torus(2), seed=6)
    (tmp / "abelian.json").write_text(json.dumps(generalized_to_dict(abelian)))
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    torus_values = mg.haar_batch(mg.Torus(2), 3, np.random.default_rng(7))
    torus_loops = LoopAssignment(graph, (la, lb, compose(lb, la)),
                                 tuple(mg.GroupElement(mg.Torus(2), m) for m in torus_values))
    (tmp / "torus-loops.json").write_text(json.dumps(loop_assignment_to_dict(torus_loops)))
    return tmp, graph, conn


def test_holonomy_matches_library(workspace):
    tmp, graph, conn = workspace
    result = run_cli(["holonomy", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"), "--path", "1,2,3,4,5"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    from holonomy_lab.pathgroupoid import word_from_tokens
    word = word_from_tokens(graph, [1, 2, 3, 4, 5])
    expect = holonomy_general(conn, word)
    got = mg.matrix_from_pairs(report["matrix"])
    assert np.max(np.abs(got - expect.matrix)) <= 1e-12
    assert report["source"] == "v0" and report["range"] == "v0"
    assert report["trace"] == pytest.approx([expect.matrix.trace().real,
                                             expect.matrix.trace().imag])


def test_wilson_needs_a_loop(workspace):
    tmp, _, _ = workspace
    result = run_cli(["wilson", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"), "--path", "1,2"])
    assert result.returncode == 2
    assert "loop" in result.stderr


def test_wilson_value(workspace):
    tmp, graph, conn = workspace
    result = run_cli(["wilson", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"), "--path", "1,2,3,4,5"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    from holonomy_lab.pathgroupoid import word_from_tokens
    h = holonomy_general(conn, word_from_tokens(graph, [1, 2, 3, 4, 5]))
    assert report["value"] == pytest.approx([h.matrix.trace().real / 2,
                                             h.matrix.trace().imag / 2])


def test_gauge_orbit_invariant_representative(workspace, tmp_path):
    tmp, graph, conn = workspace
    gauged = gauge_act_general(conn, random_discrete_gauge(graph, SU2, seed=11))
    (tmp_path / "gauged.json").write_text(json.dumps(generalized_to_dict(gauged)))
    args = ["gauge-orbit", "--graph", str(tmp / "graph.json"), "--seed", "5",
            "--function", str(tmp / "wilson.json"), "--strict"]
    a = run_cli(args + ["--connection", str(tmp / "conn.json")])
    b = run_cli(args + ["--connection", str(tmp_path / "gauged.json")])
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["ok"] and ra["function_drift"] <= 1e-12
    for ma, mb in zip(ra["representative"], rb["representative"]):
        diff = np.abs(mg.matrix_from_pairs(ma) - mg.matrix_from_pairs(mb))
        assert np.max(diff) <= 1e-8
    # raw loop values, by contrast, differ between the two gauges
    worst = max(np.max(np.abs(mg.matrix_from_pairs(ma) - mg.matrix_from_pairs(mb)))
                for ma, mb in zip(ra["loop_values"], rb["loop_values"]))
    assert worst > 1e-3


def test_haar_mean_deterministic(workspace, tmp_path):
    tmp, _, _ = workspace
    base = ["haar-mean", "--graph", str(tmp / "graph.json"),
            "--connection", str(tmp / "conn.json"),
            "--function", str(tmp / "wilson.json"), "--samples", "2048"]
    a = run_cli(base + ["--seed", "1", "--out", str(tmp_path / "a")])
    b = run_cli(base + ["--seed", "1", "--out", str(tmp_path / "b")])
    c = run_cli(base + ["--seed", "2", "--out", str(tmp_path / "c")])
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout
    for name in ("haar-mean.json", "haar-mean.dat"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ladder = (tmp_path / "a" / "haar-mean.dat").read_text().splitlines()
    assert len(ladder) >= 2
    assert ladder[-1].split()[0] == "2048"
    # a Wilson loop is gauge invariant, so the mean is the value itself
    # and the spread is pure roundoff
    report = json.loads(a.stdout)
    assert report["stderr"] <= 1e-8


def test_haar_mean_draws_each_gauge_sample_once(workspace, tmp_path, monkeypatch):
    tmp, graph, _ = workspace
    drawn = []
    original = mg._haar_blocks  # every Haar draw, gauge layers and haar_batch alike

    def counting(desc, count, rng):
        drawn.append(count)
        return original(desc, count, rng)

    monkeypatch.setattr(mg, "_haar_blocks", counting)
    f = entry_abs_square(edge_word(graph, 1), 1, 1)  # an open edge: two endpoint vertices
    (tmp_path / "edge.json").write_text(json.dumps(cyl_to_dict(f)))
    samples, layers = 3000, 2
    argv = ["haar-mean", "--graph", tmp / "graph.json", "--connection", tmp / "conn.json",
            "--function", tmp_path / "edge.json", "--seed", "1", "--samples", str(samples),
            "--layers", str(layers), "--out", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 0
    assert sum(drawn) == samples * len(f.endpoint_vertices()) * layers
    rows = (tmp_path / "out" / "haar-mean.dat").read_text().splitlines()
    assert [int(r.split()[0]) for r in rows] == [93, 187, 375, 750, 1500, 3000]
    report = json.loads((tmp_path / "out" / "haar-mean.json").read_text())
    assert float(rows[-1].split()[1]) == report["value"][0]
    assert report["layers"] == layers


def test_theta_roundtrip_strict(workspace):
    tmp, graph, _ = workspace
    result = run_cli(["theta", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"),
                      "--check-tolerance", "1e-12", "--strict"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    basis = tree_basis(graph)
    assert report["tree_edges"] == sorted(str(e) for e in basis.tree_edges)
    assert report["loop_ids"] == [str(e) for e in basis.loop_ids]
    assert report["roundtrip_error"] <= 1e-12


def test_theta_on_edgeless_graph(tmp_path, capsys):
    # an empty assignment reconstructs exactly, so the roundtrip error is 0
    (tmp_path / "graph.json").write_text(json.dumps(
        {"vertices": [{"id": "a", "pos": [0, 0]}], "edges": [], "basepoint": "a"}))
    (tmp_path / "conn.json").write_text(json.dumps({"group": mg.descriptor_to_dict(SU2),
                                                    "values": {}}))
    assert main(["theta", "--graph", str(tmp_path / "graph.json"),
                 "--connection", str(tmp_path / "conn.json"), "--strict"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["roundtrip_error"] == 0.0 and report["ok"] is True
    assert report["loop_ids"] == [] and report["tree_edges"] == []
    assert report["frames"] == {"a": mg.matrix_to_pairs(np.eye(2))}


def test_smooth_connection_commands_match_whole_path_transport(workspace):
    # every command restricts the smooth connection to the edges; the
    # product of edge transports must agree with transporting along the
    # word's whole polyline
    tmp, graph, _ = workspace
    smooth = smooth_from_dict(json.loads((tmp / "smooth.json").read_text()))
    common = ["--graph", str(tmp / "graph.json"), "--connection", str(tmp / "smooth.json")]

    def whole(word):
        return holonomy_smooth(smooth, path_polyline(graph, word)).matrix

    def report(*argv):
        result = run_cli([argv[0], *common, *argv[1:]])
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    loop = word_from_tokens(graph, [1, 2, 3, 4, 5])
    got = mg.matrix_from_pairs(report("holonomy", "--path", "1,2,-6")["matrix"])
    assert np.max(np.abs(got - whole(word_from_tokens(graph, [1, 2, -6])))) <= 1e-10
    value = complex(*report("wilson", "--path", "1,2,3,4,5")["value"])
    assert abs(value - np.trace(whole(loop)) / 2) <= 1e-10

    orbit = report("gauge-orbit", "--seed", "5", "--function", str(tmp / "wilson.json"))
    basis = tree_basis(graph)
    for eid, pairs in zip(basis.loop_ids, orbit["loop_values"]):
        assert np.max(np.abs(mg.matrix_from_pairs(pairs) - whole(basis.loops[eid]))) <= 1e-10
    assert orbit["function_drift"] <= 1e-10

    mean = report("haar-mean", "--seed", "1", "--samples", "64",
                  "--function", str(tmp / "wilson.json"))
    assert abs(complex(*mean["value"]) - np.trace(whole(loop)) / 2) <= 1e-10

    wit = abelian_obstruction_witness(graph)
    defect = report("obstruction")["abelian_defect"]
    assert abs(defect - np.linalg.norm(whole(wit.word) - np.eye(2))) <= 1e-10


def test_closure_on_smooth_connection_transports_nothing(workspace, transport_calls, capsys):
    tmp, _, _ = workspace
    assert main(["closure", "--graph", str(tmp / "graph.json"),
                 "--connection", str(tmp / "smooth.json"), "--strict"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert transport_calls == []


def _loop_12345(graph):
    return [word_from_tokens(graph, [1, 2, 3, 4, 5])]


def _gauge_orbit_words(graph):
    basis = tree_basis(graph)
    return [*basis.loops.values(), *_loop_12345(graph)]


def _theta_words(graph):
    basis = tree_basis(graph)
    return [*basis.vertex_words.values(), *basis.loops.values()]


@pytest.mark.parametrize("argv, words", [
    (["holonomy", "--path", "1,2,3,4,5"], _loop_12345),
    (["wilson", "--path", "1,2,3,4,5"], _loop_12345),
    (["gauge-orbit", "--seed", "1", "--samples", "4", "--function", "wilson.json"],
     _gauge_orbit_words),
    (["haar-mean", "--seed", "1", "--samples", "64", "--function", "wilson.json"], _loop_12345),
    (["theta"], _theta_words),
    (["obstruction"], lambda graph: [abelian_obstruction_witness(graph).word]),
], ids=["holonomy", "wilson", "gauge-orbit", "haar-mean", "theta", "obstruction"])
def test_smooth_command_transports_walked_edges_in_one_batch(workspace, transport_batches,
                                                             capsys, argv, words):
    tmp, graph, _ = workspace
    argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--graph", str(tmp / "graph.json"),
                        "--connection", str(tmp / "smooth.json")]) == 0
    capsys.readouterr()
    walked = sorted({eid for w in words(graph) for eid, _ in w.letters})
    assert len(transport_batches) == 1 and len(transport_batches[0]) == len(walked)
    got = sorted(eid for pts in transport_batches[0] for eid in graph.edges
                 if np.array_equal(pts, edge_polyline(graph, eid)))
    assert got == walked


def test_haar_mean_ladder_transports_each_edge_once(workspace, transport_calls, capsys):
    tmp, graph, _ = workspace
    assert main(["haar-mean", "--graph", str(tmp / "graph.json"),
                 "--connection", str(tmp / "smooth.json"),
                 "--function", str(tmp / "wilson.json"),
                 "--samples", "256", "--seed", "1"]) == 0
    capsys.readouterr()
    # the Wilson loop walks edges 1..5 once each; the ladder has six rungs
    walked = sorted(eid for pts in transport_calls for eid in graph.edges
                    if np.array_equal(pts, edge_polyline(graph, eid)))
    assert walked == [1, 2, 3, 4, 5]


def test_haar_mean_rejects_single_sample(workspace):
    tmp, _, _ = workspace
    result = run_cli(["haar-mean", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"),
                      "--function", str(tmp / "wilson.json"),
                      "--samples", "1", "--seed", "1"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1


def test_theta_accepts_smooth_connection(workspace):
    tmp, _, _ = workspace
    result = run_cli(["theta", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "smooth.json"), "--strict"])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["ok"] is True


def family_file(tmp_path, r=2):
    graph = spider_graph(r)
    words = [compose(edge_word(graph, r + k + 1), edge_word(graph, k + 1))
             for k in range(r)]
    doc = {"graph": graph_to_dict(graph),
           "words": [word_to_tokens(w) for w in words],
           "label": f"spider-{r}"}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    return path


def test_approx_batch_outputs(tmp_path):
    fam = family_file(tmp_path)
    out = tmp_path / "out"
    result = run_cli(["approx", "--group", "su2", "--family", str(fam),
                      "--seed", "7", "--seeds", "3", "--out", str(out), "--strict"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["ok"] and len(report["reports"]) == 3
    assert [r["seed"] for r in report["reports"]] == [7, 8, 9]
    assert report["label"] == "spider-2"
    csv_lines = (out / "approx.csv").read_text().splitlines()
    assert csv_lines[0] == "seed,max_error,verdict"
    assert len(csv_lines) == 4 and csv_lines[1].startswith("7,")
    dat_lines = (out / "approx-errors.dat").read_text().splitlines()
    assert len(dat_lines) == 3 and all(len(l.split()) == 2 for l in dat_lines)


def test_approx_default_window_on_straight_edges(tmp_path, capsys):
    # two straight two-point edges: each final edge's window is its one segment
    pos = {"o": (0.0, 0.0), "a": (1.0, 0.0), "b": (0.0, 1.0)}
    graph = Graph("oab", [Edge(1, "o", "a", None), Edge(2, "o", "b", None)], "o", pos)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"graph": graph_to_dict(graph), "words": [[1], [2]]}))
    assert main(["approx", "--group", "su2", "--family", str(path), "--seed", "0",
                 "--strict"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["verdict"] and report["max_error"] <= 1e-12


def test_approx_strict_bound_fails(tmp_path, capsys):
    # a seed's entry lays out approximation_experiment's errors against --bound
    fam = family_file(tmp_path)
    graph = spider_graph(2)
    words = [compose(edge_word(graph, 2 + k + 1), edge_word(graph, k + 1)) for k in range(2)]
    errors = approximation_experiment(graph, words, SU2, 3)
    assert main(["approx", "--group", "su2", "--family", str(fam), "--seed", "3",
                 "--bound", "1e-20", "--strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["bound"] == 1e-20
    assert report["reports"] == [{
        "experiment": "spider-2", "descriptor": mg.descriptor_to_dict(SU2), "seed": 3,
        "errors": list(errors), "max_error": max(errors), "bound": 1e-20, "verdict": False}]


NESTED_QUOTIENT = {"kind": "product", "factors": [
    mg.descriptor_to_dict(mg.central_quotient(
        mg.ProductGroup((mg.Torus(1), SU2)), [np.eye(3), -np.eye(3)])),
    {"kind": "U", "n": 1}]}


@pytest.mark.parametrize("group", [{"kind": "SU", "n": 0}, {"kind": "product", "factors": []},
                                   NESTED_QUOTIENT, "su0", {"kind": "U"}, {"kind": "product"}])
def test_bad_group_is_usage_error(tmp_path, group):
    if isinstance(group, dict):
        (tmp_path / "group.json").write_text(json.dumps(group))
        group = str(tmp_path / "group.json")
    result = run_cli(["approx", "--group", group, "--family", str(family_file(tmp_path)),
                      "--seed", "0"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1


def test_quotient_descriptor_reads_its_center_from_K_only(tmp_path):
    doc = mg.descriptor_to_dict(mg.central_quotient(mg.ProductGroup((mg.Unitary(1), SU2)),
                                                    [np.eye(3), -np.eye(3)]))
    doc["center"] = doc.pop("K")
    (tmp_path / "group.json").write_text(json.dumps(doc))
    result = run_cli(["approx", "--group", str(tmp_path / "group.json"),
                      "--family", str(family_file(tmp_path)), "--seed", "0"])
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
    assert "group.json" in result.stderr and "'K'" in result.stderr


def test_approx_family_needs_one_window_per_word(tmp_path, capsys):
    # spider-3: three words but windows for two; the third must not be dropped
    path = family_file(tmp_path, r=3)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), windows=[[5, 8], [5, 8]])))
    err = usage_error(capsys, ["approx", "--group", "su2", "--family", path, "--seed", "0"])
    assert "family.json" in err and "3 words but 2 windows" in err


@pytest.mark.parametrize("command", ["gauge-orbit", "closure"])
def test_too_many_center_lifts_is_usage_error(tmp_path, command):
    # two vertices joined by 14 arcs: 13 independent loops, 2^13 lifts for a Z2 quotient
    pos = {"a": (0.0, 0.0), "b": (1.0, 0.0)}
    graph = Graph("ab", [Edge(k, "a", "b", arc_points(pos["a"], pos["b"], 0.1 * k - 0.7))
                         for k in range(1, 15)], "a", pos)
    desc = mg.central_quotient(mg.ProductGroup((mg.Torus(1), SU2)), [np.eye(3), -np.eye(3)])
    conn = random_generalized_connection(graph, desc, seed=1)
    basis = tree_basis(graph)
    loops = tuple(basis.loops[eid] for eid in basis.loop_ids)
    family = LoopAssignment(graph, loops, tuple(holonomy_general(conn, w) for w in loops))
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(graph)))
    (tmp_path / "conn.json").write_text(json.dumps(generalized_to_dict(conn)))
    (tmp_path / "family.json").write_text(json.dumps(loop_assignment_to_dict(family)))
    data = (["--connection", str(tmp_path / "conn.json"), "--seed", "0"]
            if command == "gauge-orbit" else ["--family", str(tmp_path / "family.json")])
    result = run_cli([command, "--graph", str(tmp_path / "graph.json")] + data)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "too many center lifts" in result.stderr and len(result.stderr.splitlines()) == 1


def test_closure_search_past_the_cube_cap_is_usage_error(tmp_path, capsys):
    # two vertices joined by 8 arcs: 7 independent loops.  A family with a repeated loop
    # obeys a relation, so its search walks a 13^7 cube at the default bound; the free
    # family needs no search at all.
    pos = {"a": (0.0, 0.0), "b": (1.0, 0.0)}
    graph = Graph("ab", [Edge(k, "a", "b", arc_points(pos["a"], pos["b"], 0.1 * k - 0.45))
                         for k in range(1, 9)], "a", pos)
    conn = random_generalized_connection(graph, mg.Torus(1), seed=1)
    basis = tree_basis(graph)
    loops = tuple(basis.loops[eid] for eid in basis.loop_ids)
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(graph)))
    for name, family in (("seven", loops[:6] + loops[:1]), ("two", loops[:1] * 2), ("free", loops)):
        values = tuple(holonomy_general(conn, w) for w in family)
        (tmp_path / f"{name}.json").write_text(
            json.dumps(loop_assignment_to_dict(LoopAssignment(graph, family, values))))
    closure = ["closure", "--graph", tmp_path / "graph.json", "--family"]
    err = usage_error(capsys, closure + [tmp_path / "seven.json"])
    assert err.startswith("error: closure: closure search too large: 13^7 = 62748517")
    err = usage_error(capsys, closure + [tmp_path / "two.json", "--bound", "1000000"])
    assert "2000001^2" in err
    assert main([str(a) for a in closure + [tmp_path / "two.json"]]) == 0
    assert json.loads(capsys.readouterr().out)["member"]
    assert main([str(a) for a in closure + [tmp_path / "free.json", "--bound", "1000000"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["member"] and report["certified"] and report["checked"] == 0


@pytest.mark.parametrize("document, edit, message", [
    ("smooth.json", lambda d: d["terms"][1].update(direction=[1.0]), "mix chart dimensions [1, 2]"),
    ("smooth.json", lambda d: [t.update(center=t["center"] + [0.0],
                                        direction=t["direction"] + [0.0]) for t in d["terms"]],
     "bump terms have 3 chart coordinates, the graph's points 2"),
    ("smooth.json", lambda d: d["terms"][0].update(radius=1e300), "finite square"),
    ("smooth.json", lambda d: d["terms"][0].update(direction=[0.0, 0.0]), "direction must be nonzero"),
    ("smooth.json", lambda d: d["terms"][0].update(direction=[1e200, 0.0]), "finite squared norm"),
    ("graph.json", lambda d: d["vertices"][1]["pos"].append(0.0), "mix chart dimensions [2, 3]"),
    ("graph.json", lambda d: d["edges"][0]["curve"][1].append(0.0), "mix chart dimensions [2, 3]"),
], ids=["direction-length", "bump-3d-graph-2d", "radius-square-overflow", "direction-zero",
        "direction-square-overflow", "position-3d", "curve-point-3d"])
def test_chart_dimension_mismatch_is_usage_error(workspace, tmp_path, capsys, document, edit,
                                                 message):
    tmp, _, _ = workspace
    doc = json.loads((tmp / document).read_text())
    edit(doc)
    (tmp_path / document).write_text(json.dumps(doc))
    graph, smooth = (tmp_path / f if f == document else tmp / f
                     for f in ("graph.json", "smooth.json"))
    err = usage_error(capsys, ["holonomy", "--graph", graph, "--connection", smooth,
                               "--path", "1,2,3,4,5"])
    assert str(tmp_path / document) in err and message in err


def usage_error(capsys, argv):
    """Run ``main`` in-process; it must exit 2 with one ``error:`` line."""
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


def test_haar_mean_rejects_zero_layers(workspace, capsys):
    tmp, _, _ = workspace
    usage_error(capsys, ["haar-mean", "--graph", tmp / "graph.json",
                         "--connection", tmp / "conn.json", "--function", tmp / "wilson.json",
                         "--seed", "1", "--samples", "64", "--layers", "0"])


def _far_curve_point(x):
    def move(doc):  # at 1e200 its square overflows; from 1e60 the bump geometry's products do
        doc["graph"]["edges"][0]["curve"][1][0] = x
        return doc
    return move


@pytest.mark.parametrize("family, named", [
    (lambda doc: dict(doc, windows=[[0, 99], [0, 99]]), "window (0, 99)"),
    (lambda doc: dict(doc, windows=3), "family.json"),
    (lambda doc: [doc], "family.json"),
    *((_far_curve_point(x), "graph.json") for x in (1e60, 1e100, 1e150, 1e200)),
], ids=["window-past-polyline", "windows-number", "family-list", "curve-point-1e60",
        "curve-point-1e100", "curve-point-1e150", "curve-point-overflow"])
def test_malformed_approx_family_is_usage_error(tmp_path, capsys, family, named):
    path = family_file(tmp_path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(family(doc)))
    (tmp_path / "graph.json").write_text(json.dumps(doc["graph"]))
    err = usage_error(capsys, ["approx", "--group", "su2", "--family", path, "--seed", "0",
                               "--graph", tmp_path / "graph.json"])
    assert named in err


SU2_DOC = {"kind": "SU", "n": 2}
WILSON = ["gauge-orbit", "--connection", "conn.json", "--seed", "0", "--samples", "1",
          "--function", "bad.json"]
HOLONOMY = ["holonomy", "--path", "1,2", "--connection", "bad.json"]


@pytest.mark.parametrize("argv, document", [
    (WILSON, {"paths": [{"tokens": [True, 2, 3, 4, 5]}], "expr": {"trace": 1}}),
    (WILSON, {"paths": [[1, 2, 3, 4, 5]], "expr": {"entry": [1, 1.9, 2.2]}}),
    (WILSON, {"paths": [[1, 2, 3, 4, 5]], "expr": {"trace": 1.5}}),
    (HOLONOMY, {"group": {"kind": "SU", "n": True}, "haar_seed": 3}),
    (HOLONOMY, {"group": {"kind": "SU", "n": 2.5}, "haar_seed": 3}),
    (HOLONOMY, {"group": SU2_DOC, "haar_seed": True}),
    (["approx", "--group", "su2", "--seed", "0", "--family", "bad.json"],
     {"windows": [[5.7, 8.2], [5.7, 8.2]]}),
], ids=["path-true", "entry-fractions", "trace-fraction", "n-true", "n-fraction",
        "haar-seed-true", "window-fractions"])
def test_integer_fields_take_only_json_integers(workspace, tmp_path, capsys, argv, document):
    tmp, _, _ = workspace
    if argv[0] == "approx":
        document = dict(json.loads(family_file(tmp_path).read_text()), **document)
    (tmp_path / "bad.json").write_text(json.dumps(document))
    argv = [str(tmp_path / a) if a == "bad.json" else str(tmp / a) if a.endswith(".json") else a
            for a in argv]
    err = usage_error(capsys, argv + ([] if argv[0] == "approx" else
                                      ["--graph", tmp / "graph.json"]))
    assert "bad.json" in err


def test_approx_window_with_coinciding_ends_is_usage_error(tmp_path, capsys):
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    graph = Graph("a", [Edge(1, "a", "a", square)], "a", {"a": (0.0, 0.0)})
    doc = {"graph": graph_to_dict(graph), "words": [word_to_tokens(edge_word(graph, 1))],
           "windows": [[0, 4]]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = usage_error(capsys, ["approx", "--group", "su2", "--family", path, "--seed", "0"])
    assert caught == []
    assert "target 0: window ends coincide" in err


def test_obstruction_needs_two_loops(tmp_path, capsys):
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(triangle_graph())))
    usage_error(capsys, ["obstruction", "--graph", tmp_path / "graph.json"])


def test_gauge_orbit_rejects_negative_samples(workspace, capsys):
    tmp, _, _ = workspace
    usage_error(capsys, ["gauge-orbit", "--graph", tmp / "graph.json",
                         "--connection", tmp / "conn.json", "--function", tmp / "wilson.json",
                         "--seed", "0", "--samples", "-3"])


@pytest.mark.parametrize("argv, named", [
    (["holonomy", "--path", "1,2", "--connection", "smooth.json", "--tolerance", "nan"],
     "--tolerance"),
    (["holonomy", "--path", "1,2", "--connection", "smooth.json", "--tolerance", "inf"],
     "--tolerance"),
    (["holonomy", "--path", "1,2", "--connection", "smooth.json", "--tolerance=-1e-9"],
     "--tolerance"),
    (["gauge-orbit", "--connection", "conn.json", "--function", "wilson.json", "--seed", "0",
      "--check-tolerance", "nan"], "--check-tolerance"),
    (["approx", "--group", "su2", "--seed", "0", "--bound", "nan"], "--bound"),
    (["gauge-orbit", "--connection", "conn.json", "--function", "wilson.json", "--seed", "0",
      "--samples", "0"], "--samples"),
    (["gauge-orbit", "--connection", "conn.json", "--seed", "0", "--samples", "0"],
     "--samples"),
    (["gauge-orbit", "--connection", "conn.json", "--seed", "0", "--samples", "-5"],
     "--samples"),
    (["haar-mean", "--connection", "conn.json", "--function", "wilson.json", "--seed", "0",
      "--samples", "1"], "--samples"),
    (["haar-mean", "--connection", "conn.json", "--function", "wilson.json", "--seed", "0",
      "--samples", "-4"], "--samples"),
    (["closure", "--family", "torus-loops.json", "--bound", "-1"], "--bound"),
    (["closure", "--family", "torus-loops.json", "--bound", "2.5"], "--bound"),
    (["approx", "--group", "su2", "--seed", "0", "--seeds", "0"], "--seeds"),
    (["approx", "--group", "su2", "--seed", "0", "--seeds", "-2"], "--seeds"),
    (["haar-mean", "--connection", "conn.json", "--function", "wilson.json", "--seed", "-1"],
     "argument --seed"),
    (["approx", "--group", "su2", "--seed", "-1"], "argument --seed"),
    (["gauge-orbit", "--connection", "conn.json", "--seed", "-1"], "argument --seed"),
    (["gauge-orbit", "--connection", "conn.json", "--function", "wilson.json", "--seed", "-1"],
     "argument --seed"),
], ids=["tolerance-nan", "tolerance-inf", "tolerance-negative", "check-tolerance-nan",
        "bound-nan", "zero-samples", "orbit-zero-samples", "orbit-negative-samples",
        "mean-one-sample", "mean-negative-samples", "closure-bound-negative",
        "closure-bound-fraction", "zero-seeds", "negative-seeds", "mean-negative-seed",
        "approx-negative-seed", "orbit-negative-seed", "orbit-function-negative-seed"])
def test_bad_numeric_flag_is_usage_error(workspace, tmp_path, capsys, monkeypatch, argv, named):
    tmp, _, _ = workspace

    def unread(path):  # a bad flag exits before any input is read
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "_load_json", unread)
    inputs = (["--family", str(family_file(tmp_path))] if argv[0] == "approx"
              else ["--graph", str(tmp / "graph.json")])
    argv = [str(tmp / a) if a.endswith(".json") else a for a in argv] + inputs
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and err.startswith("error: ") and len(err.splitlines()) == 1, err


# every option each command takes: a flag a command never reads is not offered
COMMON_OPTIONS = {"--graph", "--tolerance", "--out", "--strict"}
COMMAND_OPTIONS = {
    "holonomy": {"--connection", "--path"},
    "wilson": {"--connection", "--path"},
    "gauge-orbit": {"--connection", "--function", "--seed", "--samples", "--check-tolerance"},
    "haar-mean": {"--connection", "--function", "--seed", "--samples", "--layers"},
    "theta": {"--connection", "--check-tolerance"},
    "approx": {"--group", "--family", "--seed", "--seeds", "--bound"},
    "obstruction": {"--connection", "--path", "--check-tolerance"},
    "closure": {"--connection", "--family", "--bound", "--check-tolerance"},
}


def test_option_census():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    census = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
              for name, sub in commands.choices.items()}
    assert census == {name: COMMON_OPTIONS | extra for name, extra in COMMAND_OPTIONS.items()}


# the 20 defaulted parameters of every exported function, class __init__ and public method:
# a parameter exists only if some caller sets it (README, "Library layout")
DEFAULTED_PARAMETERS = {
    "Edge.__init__": ("curve",), "Graph.__init__": ("positions",),
    "GroupElement.__init__": ("check",), "HaarMean.__init__": ("layers",),
    "MeanEstimate.__init__": ("ladder",),
    "approximation_experiment": ("windows", "tol"),
    "closure_membership": ("bound", "tol"), "edge_word": ("orientation",),
    "holonomy_smooth": ("tol",), "interpolate_connection": ("extra_paths",),
    "invariance_check": ("gauges", "seed"), "random_algebra": ("scale",),
    "restrict": ("tol",), "separation_test": ("max_len",), "transport": ("tol",),
    "tree_reconstruct": ("frames",), "word_from_tokens": ("source",),
}


def test_parameter_census():
    census = {}
    for name, value in vars(holonomy_lab).items():
        if name.startswith("_") or isinstance(value, types.ModuleType) or not callable(value):
            continue
        funcs = [(name, value)]
        if isinstance(value, type):
            funcs = [(f"{name}.{m}", f) for m, f in vars(value).items()
                     if (m == "__init__" or not m.startswith("_")) and inspect.isfunction(f)]
        for qualname, f in funcs:
            defaulted = tuple(p.name for p in inspect.signature(f).parameters.values()
                              if p.default is not p.empty)
            if defaulted:
                census[qualname] = defaulted
    assert census == DEFAULTED_PARAMETERS


# every name the package exports; README's "Library layout" states what earns a place
PUBLIC_SURFACE = [
    "BumpTerm", "CentralQuotient",
    "ClosureVerdict", "CompositionError", "Conj", "ConnectivityError", "Const",
    "CylFunction", "DescriptorMismatchError", "DiscreteGauge", "Edge", "Entry",
    "GeneralizedConnection", "GeometryError", "Graph", "GroupElement", "HaarMean",
    "IndependenceError", "InterpolationTarget", "LieAlgebraElement", "LoopAssignment",
    "MeanEstimate", "ObstructionWitness", "PathWord", "Prod", "ProductGroup",
    "SeparationVerdict", "SmoothConnection", "SpecialUnitary", "Sum", "Torus", "TraceOf",
    "TreeBasis", "TreeDecomposition", "Unitary", "UnknownEdgeError",
    "abelian_obstruction_witness", "abelianize", "approximation_experiment",
    "central_quotient", "closure_membership", "commutator_word", "compose", "cyl_from_dict",
    "cyl_to_dict", "descriptor_from_dict", "descriptor_to_dict", "dim", "distance",
    "edge_word", "entry_abs_square", "entry_function", "evaluate", "exp_map",
    "find_conjugator", "gauge_act_general", "generalized_from_dict", "generalized_to_dict",
    "graph_from_dict", "graph_to_dict", "haar_batch", "holonomies", "holonomy_general",
    "holonomy_smooth", "holonomy_stack", "identity", "interpolate_connection", "inv",
    "invariance_check", "inverse", "log_map", "loop_assignment_from_dict",
    "loop_assignment_to_dict", "loop_relations", "mul", "orbit_representative",
    "quotient_project", "random_algebra", "random_discrete_gauge",
    "random_generalized_connection", "random_smooth_connection", "restrict",
    "separation_test", "smooth_from_dict", "smooth_to_dict", "spanning_tree", "transport",
    "tree_basis", "tree_decompose", "tree_edge_ids", "tree_reconstruct", "wilson_loop",
    "word_from_tokens", "word_to_tokens",
]


def test_public_surface_census():
    names = sorted(n for n, v in vars(holonomy_lab).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_SURFACE


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["haar-mean", "gauge-orbit"])
def test_entry_past_matrix_size_is_usage_error(workspace, tmp_path, capsys, command):
    tmp, _, _ = workspace
    doc = json.loads((tmp / "wilson.json").read_text())
    doc["expr"] = {"entry": [1, 5, 1]}
    (tmp_path / "entry.json").write_text(json.dumps(doc))
    err = usage_error(capsys, [command, "--graph", tmp / "graph.json",
                               "--connection", tmp / "conn.json",
                               "--function", tmp_path / "entry.json",
                               "--seed", "0", "--samples", "64"])
    assert "[1, 5, 1]" in err and "2x2" in err


@pytest.mark.parametrize("command, samples", [("haar-mean", "1"), ("gauge-orbit", "0")])
def test_bad_sample_count_exits_before_any_transport(workspace, capsys, transport_calls,
                                                     command, samples):
    tmp, _, _ = workspace
    err = usage_error(capsys, [command, "--graph", tmp / "graph.json",
                               "--connection", tmp / "smooth.json",
                               "--function", tmp / "wilson.json",
                               "--seed", "0", "--samples", samples])
    assert "argument --samples: expected an integer" in err
    assert transport_calls == []


@pytest.mark.parametrize("command", ["haar-mean", "gauge-orbit"])
def test_entry_past_matrix_size_exits_before_any_transport(workspace, tmp_path, capsys,
                                                           transport_calls, command):
    tmp, _, _ = workspace
    doc = json.loads((tmp / "wilson.json").read_text())
    doc["expr"] = {"entry": [1, 3, 3]}
    (tmp_path / "entry.json").write_text(json.dumps(doc))
    err = usage_error(capsys, [command, "--graph", tmp / "graph.json",
                               "--connection", tmp / "smooth.json",
                               "--function", tmp_path / "entry.json",
                               "--seed", "0", "--samples", "64"])
    assert "[1, 3, 3]" in err and "2x2" in err
    assert transport_calls == []


@pytest.mark.parametrize("command", ["haar-mean", "gauge-orbit"])
def test_haar_draws_never_call_qr(workspace, capsys, monkeypatch, command):
    def qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", qr)
    tmp, _, _ = workspace
    assert main([command, "--graph", str(tmp / "graph.json"),
                 "--connection", str(tmp / "conn.json"), "--function", str(tmp / "wilson.json"),
                 "--seed", "1", "--samples", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize("command", ["approx", "haar-mean"])
def test_out_of_memory_is_usage_error(workspace, tmp_path, capsys, monkeypatch, command):
    # what numpy raises for a descriptor with n = 10**6; nothing is allocated here
    def huge(desc, count, rng):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(2, 1000000, 1000000) and data type complex128")

    monkeypatch.setattr(mg, "_haar_blocks", huge)  # every Haar draw
    tmp, _, _ = workspace
    argv = {"approx": ["approx", "--group", "su2", "--family", family_file(tmp_path),
                       "--seed", "0"],
            "haar-mean": ["haar-mean", "--graph", tmp / "graph.json",
                          "--connection", tmp / "conn.json", "--function", tmp / "wilson.json",
                          "--seed", "1", "--samples", "64"]}[command]
    err = usage_error(capsys, argv)
    assert err.startswith(f"error: {command}: out of memory: Unable to allocate 14.6 TiB")


@pytest.mark.parametrize("literal, message", [
    ("NaN", "non-finite number NaN"), ("Infinity", "non-finite number Infinity"),
    ("-Infinity", "non-finite number -Infinity"), ("1e400", "non-finite number 1e400"),
    ("1" + "0" * 400, "too large to convert to float"),
], ids=["NaN", "Infinity", "-Infinity", "1e400", "10^400"])
def test_unrepresentable_number_is_usage_error(workspace, tmp_path, capsys, literal, message):
    tmp, _, _ = workspace
    text = (tmp / "conn.json").read_text()
    first = json.dumps(json.loads(text)["values"]["1"][0][0][0])
    (tmp_path / "conn.json").write_text(text.replace(first, literal, 1))
    err = usage_error(capsys, ["holonomy", "--graph", tmp / "graph.json",
                               "--connection", tmp_path / "conn.json", "--path", "1"])
    assert str(tmp_path / "conn.json") in err and message in err


def test_null_matrix_entry_is_usage_error(workspace, tmp_path, capsys):
    # a JSON null becomes NaN in a matrix; NaN passed every tolerance check
    tmp, _, _ = workspace
    doc = json.loads((tmp / "conn.json").read_text())
    doc["values"]["1"][0][0][0] = None
    (tmp_path / "conn.json").write_text(json.dumps(doc))
    err = usage_error(capsys, ["holonomy", "--graph", tmp / "graph.json",
                               "--connection", tmp_path / "conn.json", "--path", "1,2,3,4,5"])
    assert "non-finite" in err


def test_null_bump_generator_is_usage_error_before_transport(workspace, tmp_path, capsys,
                                                             transport_calls):
    tmp, _, _ = workspace
    doc = json.loads((tmp / "smooth.json").read_text())
    doc["terms"][0]["X"][0][1][0] = None
    (tmp_path / "smooth.json").write_text(json.dumps(doc))
    err = usage_error(capsys, ["wilson", "--graph", tmp / "graph.json",
                               "--connection", tmp_path / "smooth.json",
                               "--path", "1,2,3,4,5"])
    assert "non-finite" in err and transport_calls == []


@pytest.mark.parametrize("generators", [
    [np.zeros((4, 4))],  # stacked alone it would read as four 2x2 blocks
    [np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2))],
], ids=["one-4x4", "3x3-among-2x2"])
def test_generator_of_another_shape_is_usage_error(workspace, tmp_path, capsys, transport_calls,
                                                   generators):
    tmp, _, _ = workspace
    doc = json.loads((tmp / "smooth.json").read_text())
    doc["terms"] = [dict(doc["terms"][0], X=mg.matrix_to_pairs(x)) for x in generators]
    (tmp_path / "smooth.json").write_text(json.dumps(doc))
    err = usage_error(capsys, ["holonomy", "--graph", tmp / "graph.json",
                               "--connection", tmp_path / "smooth.json", "--path", "1,2,3,4,5"])
    assert "smooth.json" in err and "expected shape (2, 2)" in err and transport_calls == []


def numeric_failure(capsys, argv):
    """Run ``main`` in-process; it must exit 3 with one ``error:`` line."""
    assert main([str(a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


def test_approx_on_a_repeated_word_is_numeric_failure(tmp_path, capsys):
    path = family_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["words"][1] = doc["words"][0]  # the two targets share one window: no private room
    path.write_text(json.dumps(doc))
    err = numeric_failure(capsys, ["approx", "--group", "su2", "--family", path, "--seed", "0"])
    assert "error: approx: IndependenceError: target 0" in err


def test_smooth_holonomy_without_chart_data_is_numeric_failure(workspace, tmp_path, capsys):
    tmp, _, _ = workspace
    graph = Graph("ab", [Edge(1, "a", "b", None), Edge(2, "b", "a", None)], "a")
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(graph)))
    err = numeric_failure(capsys, ["holonomy", "--graph", tmp_path / "graph.json",
                                   "--connection", tmp / "smooth.json", "--path", "1,2"])
    assert "error: holonomy: GeometryError: edge 1 has no curve" in err


def test_obstruction_commutator_mode(workspace):
    tmp, graph, _ = workspace
    result = run_cli(["obstruction", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "abelian.json"), "--strict"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["verdict"] == "Obstructed"
    assert report["abelianization"] == {}
    wit = abelian_obstruction_witness(graph)
    words = [word_to_tokens(w) for w in (wit.word, wit.loop_a, wit.loop_b)]
    assert [report[k] for k in ("word", "loop_a", "loop_b")] == json.loads(json.dumps(words))
    assert report["nonabelian_defect"] == pytest.approx(2.0 * np.sqrt(2.0))
    assert report["abelian_defect"] <= 1e-8


def test_obstruction_strict_rejects_nonabelian_motion(workspace):
    # an SU(2) connection moves the witness word, so the abelian-defect
    # check fails and strict mode exits nonzero
    tmp, _, _ = workspace
    result = run_cli(["obstruction", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"), "--strict"])
    assert result.returncode == 1
    assert json.loads(result.stdout)["abelian_defect"] > 1e-2


def test_obstruction_word_mode(workspace):
    tmp, graph, _ = workspace
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    tokens = ",".join(str(t) for t in word_to_tokens(commutator_word(la, lb)))
    result = run_cli(["obstruction", "--graph", str(tmp / "graph.json"),
                      "--path", tokens])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "Obstructed"
    free = run_cli(["obstruction", "--graph", str(tmp / "graph.json"),
                    "--path", "1,2"])
    report = json.loads(free.stdout)
    assert report["verdict"] == "Unobstructed"
    assert report["abelianization"] == {"1": 1, "2": 1}


def test_closure_loop_family_strict_exit(workspace, tmp_path):
    tmp, graph, _ = workspace
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    comm = commutator_word(la, lb)
    t1 = mg.Torus(1)

    def phase(theta):
        return mg.GroupElement(t1, np.array([[np.exp(1j * theta)]]))

    bad = LoopAssignment(graph, (la, lb, comm),
                         (phase(0.7), phase(-0.4), phase(np.pi)))
    (tmp_path / "bad.json").write_text(json.dumps(loop_assignment_to_dict(bad)))
    result = run_cli(["closure", "--graph", str(tmp / "graph.json"),
                      "--family", str(tmp_path / "bad.json"),
                      "--bound", "4", "--strict"])
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["member"] is False and report["certified"] is True
    assert report["mode"] == "torus-abelianized"

    good = LoopAssignment(graph, (la, lb, comm),
                          (phase(0.7), phase(-0.4), phase(0.0)))
    (tmp_path / "good.json").write_text(json.dumps(loop_assignment_to_dict(good)))
    result = run_cli(["closure", "--graph", str(tmp / "graph.json"),
                      "--family", str(tmp_path / "good.json"),
                      "--bound", "4", "--strict"])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("break_su2", [False, True], ids=["member", "su2-violated"])
def test_closure_nested_and_flat_products_print_the_same_report(workspace, tmp_path, capsys,
                                                                 break_su2):
    tmp, graph, _ = workspace
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    loops = (la, lb, commutator_word(la, lb))
    leaves = (mg.Torus(1), SU2, mg.Unitary(2))
    flat = mg.ProductGroup(leaves)
    nested = mg.ProductGroup((mg.ProductGroup(leaves[:2]), leaves[2]))
    mats = [holonomy_general(random_generalized_connection(graph, flat, seed=21), w).matrix.copy()
            for w in loops]
    if break_su2:
        mats[2][1:3, 1:3] = np.array([[1j, 0.0], [0.0, -1j]])
    outs = []
    for name, desc in (("flat", flat), ("nested", nested)):
        family = LoopAssignment(graph, loops, tuple(mg.GroupElement(desc, m) for m in mats))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(loop_assignment_to_dict(family)))
        main(["closure", "--graph", str(tmp / "graph.json"), "--family", str(path),
              "--bound", "3"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["member"] is not break_su2
    if break_su2:
        assert report["witness"][0] == 1 and report["detail"].startswith("factor 1: ")


def test_closure_mode_names_the_descriptor_type(workspace, tmp_path, capsys):
    tmp, graph, _ = workspace
    quotient = mg.central_quotient(mg.ProductGroup((mg.Torus(1), SU2)), [np.eye(3), -np.eye(3)])
    for desc, mode in ((mg.Torus(2), "torus-abelianized"), (SU2, "semisimple-full"),
                       (mg.Unitary(2), "unitary-determinant"),
                       (mg.ProductGroup((mg.Torus(1), SU2)), "product-split"),
                       (quotient, "quotient-pushforward")):
        conn = random_generalized_connection(graph, desc, seed=5)
        (tmp_path / "conn.json").write_text(json.dumps(generalized_to_dict(conn)))
        assert main(["closure", "--graph", str(tmp / "graph.json"),
                     "--connection", str(tmp_path / "conn.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == mode
        assert report["member"] is True and report["certified"] is True
        assert report["witness"] is None and report["checked"] == 0


def test_closure_edge_data_member(workspace):
    tmp, _, _ = workspace
    result = run_cli(["closure", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "conn.json"), "--strict"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["member"] and report["certified"]


def test_closure_needs_exactly_one_input(workspace):
    tmp, _, _ = workspace
    result = run_cli(["closure", "--graph", str(tmp / "graph.json")])
    assert result.returncode == 2
    assert "exactly one" in result.stderr


# Two inputs at fault at once: the error is the one the command meets first.
@pytest.fixture
def bad_files(tmp_path):
    """One undecodable document per input, each under its own name."""
    files = {kind: tmp_path / f"bad-{kind}.json" for kind in ("graph", "conn", "function", "family")}
    for path in files.values():
        path.write_text("{")
    return files


def test_a_bad_graph_is_named_before_a_bad_connection(bad_files, capsys):
    err = usage_error(capsys, ["holonomy", "--graph", bad_files["graph"],
                               "--connection", bad_files["conn"], "--path", "1"])
    assert str(bad_files["graph"]) in err and str(bad_files["conn"]) not in err


def test_a_bad_connection_is_named_before_a_bad_path(workspace, bad_files, capsys):
    tmp, _, _ = workspace
    err = usage_error(capsys, ["holonomy", "--graph", tmp / "graph.json",
                               "--connection", bad_files["conn"], "--path", "99"])
    assert str(bad_files["conn"]) in err and "--path" not in err


def test_gauge_orbit_on_a_loopless_graph_fails_before_reading_its_function(bad_files, tmp_path,
                                                                          capsys):
    tree = Graph("ab", [Edge(1, "a", "b", None)], "a")
    (tmp_path / "tree.json").write_text(json.dumps(graph_to_dict(tree)))
    conn = random_generalized_connection(tree, SU2, seed=0)
    (tmp_path / "tree-conn.json").write_text(json.dumps(generalized_to_dict(conn)))
    err = usage_error(capsys, ["gauge-orbit", "--graph", tmp_path / "tree.json",
                               "--connection", tmp_path / "tree-conn.json",
                               "--function", bad_files["function"], "--seed", "0"])
    assert "graph has no independent loops" in err


def test_obstruction_word_mode_never_reads_its_connection(workspace, bad_files, capsys):
    tmp, _, _ = workspace
    argv = ["obstruction", "--graph", tmp / "graph.json", "--path", "1,2",
            "--connection", bad_files["conn"]]
    assert main([str(a) for a in argv]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "word"


def test_closure_asks_for_exactly_one_input_before_reading_either(workspace, bad_files, capsys):
    tmp, _, _ = workspace
    err = usage_error(capsys, ["closure", "--graph", tmp / "graph.json",
                               "--family", bad_files["family"], "--connection", bad_files["conn"]])
    assert "exactly one" in err


def test_deep_document_through_the_entry_point_is_one_error_line(workspace, tmp_path):
    tmp, _, _ = workspace
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    result = run_cli(["holonomy", "--graph", str(deep), "--connection", str(tmp / "conn.json"),
                      "--path", "1,2"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: {deep}: nested too deeply\n"


def test_missing_file_is_usage_error(workspace, tmp_path, capsys):
    result = run_cli(["holonomy", "--graph", str(tmp_path / "nope.json"),
                      "--connection", str(tmp_path / "nope.json"), "--path", "1"])
    assert result.returncode == 2
    assert "no such file" in result.stderr
    # a directory as an input document, and an --out that is a file or lies under one
    tmp, _, _ = workspace
    graph, conn, plain = tmp / "graph.json", tmp / "conn.json", tmp_path / "plain"
    plain.write_text("")
    for argv, named in [(["--graph", tmp_path, "--connection", conn], tmp_path),
                        (["--graph", graph, "--connection", tmp_path], tmp_path),
                        (["--graph", graph, "--connection", conn, "--out", plain], plain),
                        (["--graph", graph, "--connection", conn, "--out", plain / "sub"],
                         plain / "sub")]:
        assert main(["holonomy", "--path", "1", *map(str, argv)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert str(named) in err


def test_malformed_json_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    result = run_cli(["holonomy", "--graph", str(bad),
                      "--connection", str(bad), "--path", "1"])
    assert result.returncode == 2
    assert "bad.json:1:" in result.stderr


def test_group_shorthand_parsing():
    assert parse_group("su2") == mg.SpecialUnitary(2)
    assert parse_group("U3") == mg.Unitary(3)
    assert parse_group("t2") == mg.Torus(2)
    assert parse_group("torus1") == mg.Torus(1)
    assert parse_group("u1xsu2") == mg.ProductGroup((mg.Unitary(1), mg.SpecialUnitary(2)))
    assert parse_group("t1xsu2") == mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2)))
    from holonomy_lab.cli import CliError
    with pytest.raises(CliError):
        parse_group("so3")


def test_group_from_descriptor_file(tmp_path):
    desc = mg.central_quotient(
        mg.ProductGroup((mg.Torus(1), mg.SpecialUnitary(2))),
        [np.eye(3), -np.eye(3)])
    path = tmp_path / "group.json"
    path.write_text(json.dumps(mg.descriptor_to_dict(desc)))
    assert parse_group(str(path)) == desc


def test_edge_ids_are_named_by_their_str(tmp_path, capsys):
    # ids that read as integers are still the edges whose str they are, in paths and documents
    graph = Graph(["a", "b"], [("1", "a", "b"), ("2", "b", "a"), ("x", "a", "a")], "a")
    word = word_from_tokens(graph, ["1", "2", "x^-1"])
    assert word.letters == (("1", 1), ("2", 1), ("x", -1))
    for w in (word, inverse(word)):
        assert word_from_tokens(graph, word_to_tokens(w)) == w
    conn = random_generalized_connection(graph, SU2, seed=0)
    family = LoopAssignment(graph, (word,), (holonomy_general(conn, word),))
    back = loop_assignment_from_dict(graph, loop_assignment_to_dict(family))
    assert back.loops == (word,)
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(graph)))
    (tmp_path / "conn.json").write_text(json.dumps(generalized_to_dict(conn)))
    assert main(["holonomy", "--graph", str(tmp_path / "graph.json"),
                 "--connection", str(tmp_path / "conn.json"), "--path", "1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == ["1", "2"] and report["range"] == "a"
    # one name and one id per edge (1, 1.0 and True are one dict key), and no name
    # that a token would read as a reversed letter
    for eid in ("1", -3, "-y", "y^-1", 1.0, True):
        with pytest.raises(ValueError, match="repeats the name|equals the id|reversed letter"):
            Graph(["a", "b"], [(1, "a", "b"), (eid, "b", "a")], "a")


def test_path_token_splitting():
    assert parse_path_tokens("1, 2,3") == ["1", "2", "3"]
    assert parse_path_tokens("1 -2  3^-1") == ["1", "-2", "3^-1"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["1", "-2", "3^-1", "e7", "x", "é"]),
                          st.sampled_from([",", " ", "\t", "\n", "\x1c", "\x85", "\u3000", ", "]),
                          st.characters()), max_size=30).map("".join))
@example("")
@example(" ,\u3000")
@example("\x851,\x1c2\u3000 ")
def test_path_token_splitting_matches_the_regex_split(text):
    want = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if want:
        assert parse_path_tokens(text) == want
    else:
        with pytest.raises(CliError):
            parse_path_tokens(text)


def test_reports_are_byte_identical_across_runs(workspace, tmp_path):
    tmp, _, _ = workspace
    args = ["gauge-orbit", "--graph", str(tmp / "graph.json"),
            "--connection", str(tmp / "conn.json"), "--seed", "9",
            "--function", str(tmp / "wilson.json")]
    a = run_cli(args + ["--out", str(tmp_path / "x")])
    b = run_cli(args + ["--out", str(tmp_path / "y")])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert (tmp_path / "x" / "gauge-orbit.json").read_bytes() == \
        (tmp_path / "y" / "gauge-orbit.json").read_bytes()


QUOTIENT = mg.central_quotient(mg.ProductGroup((mg.Unitary(1), SU2)), [np.eye(3), -np.eye(3)])


@pytest.fixture(scope="module")
def quotient_workspace(workspace, tmp_path_factory):
    """Quotient inputs on the pentagon graph, beside the shared SU(2) ones."""
    tmp, graph, _ = workspace
    out = tmp_path_factory.mktemp("quotient")
    conn = random_generalized_connection(graph, QUOTIENT, seed=8)
    (out / "conn.json").write_text(json.dumps(generalized_to_dict(conn)))
    loop = _loop_12345(graph)[0]
    (out / "wilson.json").write_text(json.dumps(cyl_to_dict(wilson_loop(loop, 3))))
    (out / "group.json").write_text(json.dumps(mg.descriptor_to_dict(QUOTIENT)))
    return out


@pytest.mark.parametrize("argv", [["haar-mean", "--samples", "64"], ["gauge-orbit", "--samples", "4"]],
                         ids=lambda argv: argv[0])
def test_quotient_gauge_draws_run_no_coset_tournament(workspace, quotient_workspace, tmp_path,
                                                      monkeypatch, argv):
    # a gauge average integrates over the base group, so its draws are never canonicalized;
    # the loaded connection and its holonomies are, by matrixgroups.repair
    tmp, _, _ = workspace
    inside, calls, gauged = [False], [], []
    tournament, gauged_values = mg._coset_tournament, cyl._gauged_values

    def counting_tournament(desc, blocks):
        calls.append(inside[0])
        return tournament(desc, blocks)

    def marked_gauged_values(*args):
        gauged.append(args[3])  # the sample count
        inside[0] = True
        try:
            return gauged_values(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(mg, "_coset_tournament", counting_tournament)
    monkeypatch.setattr(cyl, "_gauged_values", marked_gauged_values)
    files = quotient_workspace
    assert main(argv + ["--seed", "1", "--function", str(files / "wilson.json"),
                        "--graph", str(tmp / "graph.json"), "--connection", str(files / "conn.json"),
                        "--out", str(tmp_path / "out")]) == 0
    assert gauged == [int(argv[-1])] and calls and not any(calls)
    before = len(calls)
    mg.haar_batch(QUOTIENT, 3, np.random.default_rng(0))  # it returns coset representatives
    assert len(calls) == before + 1


def _negative_zeros(doc):
    if isinstance(doc, float):
        return int(doc == 0.0 and math.copysign(1.0, doc) < 0.0)
    items = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return sum(_negative_zeros(x) for x in items)


@pytest.mark.parametrize("fixture", ["quotient", "smooth"])
@pytest.mark.parametrize("argv", [
    ["holonomy", "--path", "1,2,3,4,5"], ["holonomy", "--path", "1,2,-6"],
    ["wilson", "--path", "1,2,3,4,5"],
    ["gauge-orbit", "--seed", "1", "--samples", "4", "--function", "wilson.json"],
    ["haar-mean", "--seed", "1", "--samples", "64", "--function", "wilson.json"],
    ["theta"], ["obstruction"], ["obstruction", "--path", "1,2,-6"], ["closure"], ["approx"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_no_report_prints_negative_zero(workspace, quotient_workspace, tmp_path, capsys,
                                        fixture, argv):
    # coset representatives and reconstructed frames hold exact zeros of either sign
    tmp, _, _ = workspace
    files = quotient_workspace if fixture == "quotient" else tmp
    if argv[0] == "approx":
        group = str(files / "group.json") if fixture == "quotient" else "su2"
        argv = ["approx", "--group", group, "--family", str(family_file(tmp_path)), "--seed", "0"]
    else:
        conn = files / "conn.json" if fixture == "quotient" else tmp / "smooth.json"
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        argv += ["--graph", str(tmp / "graph.json"), "--connection", str(conn)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _negative_zeros(json.loads(out)) == 0
    assert re.search(r"(?<![\d.])-0\.0(?!\d)", out) is None


@pytest.mark.parametrize("argv", [
    ["holonomy", "--path", "1,2,3,4,5"], ["wilson", "--path", "1,2,3,4,5"],
    ["gauge-orbit", "--seed", "1", "--samples", "4"],
    ["haar-mean", "--seed", "1", "--samples", "64", "--function", "wilson.json"],
    ["theta"], ["obstruction"], ["obstruction", "--path", "1,2,-6"], ["closure"], ["approx"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_every_report_names_its_command(workspace, tmp_path, capsys, argv):
    tmp, _, _ = workspace
    if argv[0] == "approx":
        argv = ["approx", "--group", "su2", "--family", str(family_file(tmp_path)), "--seed", "0"]
    else:
        argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
        argv += ["--graph", str(tmp / "graph.json"), "--connection", str(tmp / "conn.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == argv[0]
    assert json.loads((tmp_path / "out" / f"{argv[0]}.json").read_text()) == report


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency: scipy is for the tests alone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, holonomy_lab.cli; print([k for k in sys.modules if k.startswith('scipy')])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_reused_parser_keeps_no_state_between_calls(workspace, capsys):
    # main reuses one argparse tree per process; a usage error, --strict and a
    # non-default option must each leave nothing behind for the next call
    tmp, _, _ = workspace
    assert _build_parser()._subparsers is _build_parser()._subparsers
    obstruction = ["obstruction", "--graph", str(tmp / "graph.json"),
                   "--connection", str(tmp / "conn.json")]
    calls = [
        ["closure", "--graph", str(tmp / "graph.json"), "--bound", "-1"],
        obstruction + ["--strict"],
        obstruction + ["--check-tolerance", "100"],
        obstruction,
    ]
    fresh = [run_cli(argv) for argv in calls]
    assert [r.returncode for r in fresh] == [2, 1, 0, 0]
    assert json.loads(fresh[2].stdout)["ok"] and not json.loads(fresh[3].stdout)["ok"]
    for _ in range(2):
        for argv, want in zip(calls, fresh):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == (want.returncode, want.stdout, want.stderr)
