"""End-to-end tests of the command line front-end."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import holonomy_lab.matrixgroups as mg
from holonomy_lab.cli import main, parse_group, parse_path_tokens
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
from holonomy_lab.cylindrical import cyl_to_dict, wilson_loop
from holonomy_lab.pathgroupoid import (
    Edge,
    Graph,
    compose,
    edge_word,
    graph_to_dict,
    word_from_tokens,
    word_to_tokens,
)
from holonomy_lab.spectra import (
    LoopAssignment,
    abelian_obstruction_witness,
    commutator_word,
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


@pytest.mark.parametrize("family, named", [
    (lambda doc: dict(doc, windows=[[0, 99], [0, 99]]), "window (0, 99)"),
    (lambda doc: dict(doc, windows=3), "family.json"),
    (lambda doc: [doc], "family.json"),
], ids=["window-past-polyline", "windows-number", "family-list"])
def test_malformed_approx_family_is_usage_error(tmp_path, capsys, family, named):
    path = family_file(tmp_path)
    doc = json.loads(path.read_text())
    (tmp_path / "graph.json").write_text(json.dumps(doc["graph"]))
    path.write_text(json.dumps(family(doc)))
    err = usage_error(capsys, ["approx", "--group", "su2", "--family", path, "--seed", "0",
                               "--graph", tmp_path / "graph.json"])
    assert named in err


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
      "--samples", "0"], "need at least one gauge sample"),
], ids=["tolerance-nan", "tolerance-inf", "tolerance-negative", "check-tolerance-nan",
        "bound-nan", "zero-samples"])
def test_bad_numeric_flag_is_usage_error(workspace, tmp_path, capsys, argv, named):
    tmp, _, _ = workspace
    inputs = (["--family", str(family_file(tmp_path))] if argv[0] == "approx"
              else ["--graph", str(tmp / "graph.json")])
    argv = [str(tmp / a) if a.endswith(".json") else a for a in argv] + inputs
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value before any command runs
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["approx", "haar-mean"])
def test_out_of_memory_is_usage_error(workspace, tmp_path, capsys, monkeypatch, command):
    # what numpy raises for a descriptor with n = 10**6; nothing is allocated here
    def huge(desc, count, rng):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(2, 1000000, 1000000) and data type complex128")

    monkeypatch.setattr(mg, "haar_batch", huge)
    tmp, _, _ = workspace
    argv = {"approx": ["approx", "--group", "su2", "--family", family_file(tmp_path),
                       "--seed", "0"],
            "haar-mean": ["haar-mean", "--graph", tmp / "graph.json",
                          "--connection", tmp / "conn.json", "--function", tmp / "wilson.json",
                          "--seed", "1", "--samples", "64"]}[command]
    err = usage_error(capsys, argv)
    assert err.startswith(f"error: {command}: out of memory: Unable to allocate 14.6 TiB")


def test_zero_transport_steps_is_usage_error(workspace, capsys):
    tmp, _, _ = workspace
    err = usage_error(capsys, ["holonomy", "--graph", tmp / "graph.json",
                               "--connection", tmp / "smooth.json", "--path", "1,2",
                               "--steps", "0"])
    assert "steps must be at least 1" in err


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


def test_obstruction_commutator_mode(workspace):
    tmp, _, _ = workspace
    result = run_cli(["obstruction", "--graph", str(tmp / "graph.json"),
                      "--connection", str(tmp / "abelian.json"), "--strict"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["verdict"] == "Obstructed"
    assert report["abelianization"] == {}
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


def test_missing_file_is_usage_error(tmp_path):
    result = run_cli(["holonomy", "--graph", str(tmp_path / "nope.json"),
                      "--connection", str(tmp_path / "nope.json"), "--path", "1"])
    assert result.returncode == 2
    assert "no such file" in result.stderr


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


def test_path_token_splitting():
    assert parse_path_tokens("1, 2,3") == ["1", "2", "3"]
    assert parse_path_tokens("1 -2  3^-1") == ["1", "-2", "3^-1"]


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


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency: scipy is for the tests alone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, holonomy_lab.cli; print([k for k in sys.modules if k.startswith('scipy')])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
