"""The command line's exit-code contract on mutated input documents.

Each example takes one valid fixture document (graph, generalized or smooth
connection, cylindrical function, closure loop family, ``approx`` family or
group descriptor), applies one mutation to one node of it, and runs a cheap
command on the result in-process.  Whatever the mutation, ``main`` must
return 0, 1, 2 or 3 and raise nothing.  A return of 2 or 3 comes with
exactly one ``error:`` line on stderr; a return of 0 or 1 comes with a
report that parses as strict JSON, with no ``NaN`` or ``Infinity``.
A document nested past Python's recursion limit, whether decoding or
building it fails, exits 2 with one line that names its file.

The mutation alphabet holds no large integers.  A descriptor with
``n = 10**6`` makes numpy try to allocate terabytes and fails with
``MemoryError``, which ``main`` reports as one ``out of memory`` line with
exit 2; ``test_cli.py`` checks that by making ``_haar_blocks`` raise it, since
a real allocation of that size could exhaust the machine.
"""

import contextlib
import copy
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import holonomy_lab.matrixgroups as mg
from holonomy_lab.cli import main
from holonomy_lab.connections import (
    generalized_to_dict,
    random_generalized_connection,
    random_smooth_connection,
    smooth_to_dict,
)
from holonomy_lab.cylindrical import Const, CylFunction, Entry, Prod, Sum, TraceOf, cyl_to_dict
from holonomy_lab.pathgroupoid import compose, edge_word, graph_to_dict, word_from_tokens, word_to_tokens
from holonomy_lab.spectra import (
    LoopAssignment,
    commutator_word,
    default_windows,
    loop_assignment_to_dict,
    tree_basis,
)

from graphs import pentagon_chord_graph, spider_graph

SU2 = mg.SpecialUnitary(2)
DELETE = object()
NON_FINITE = ("NaN", "Infinity", "1e400")
MUTATIONS = [DELETE, None, "x", -1, 0, [], {}, 1e200, -1e200, *NON_FINITE]


def _documents():
    graph = pentagon_chord_graph()
    loop = word_from_tokens(graph, [1, 2, 3, 4, 5])
    function = CylFunction((loop,), Sum((Prod((Const(0.5), TraceOf(1))), Entry(1, 1, 2))))
    basis = tree_basis(graph)
    la, lb = basis.loops[basis.loop_ids[0]], basis.loops[basis.loop_ids[1]]
    t1 = mg.Torus(1)
    loops = LoopAssignment(graph, (la, lb, commutator_word(la, lb)),
                           tuple(mg.GroupElement(t1, np.array([[np.exp(1j * a)]]))
                                 for a in (0.7, -0.4, 0.0)))
    spider = spider_graph(2)
    words = [compose(edge_word(spider, k + 3), edge_word(spider, k + 1)) for k in range(2)]
    family = {"graph": graph_to_dict(spider),
              "words": [word_to_tokens(w) for w in words],
              "windows": [list(w) for w in default_windows(spider, words)],
              "label": "spider-2"}
    quotient = mg.central_quotient(mg.ProductGroup((t1, SU2)), [np.eye(3), -np.eye(3)])
    return {
        "graph": graph_to_dict(graph),
        "conn": generalized_to_dict(random_generalized_connection(graph, SU2, seed=3)),
        "smooth": smooth_to_dict(random_smooth_connection(SU2, graph, n_terms=3, seed=4)),
        "function": cyl_to_dict(function),
        "loops": loop_assignment_to_dict(loops),
        "family": family,
        "group": mg.descriptor_to_dict(quotient),
    }


DOCUMENTS = _documents()

# (document that is mutated, command line); the other documents stay valid
CASES = [
    ("graph", ["holonomy", "--graph", "{graph}", "--connection", "{conn}", "--path", "1,2,3"]),
    ("graph", ["obstruction", "--graph", "{graph}"]),
    ("conn", ["holonomy", "--graph", "{graph}", "--connection", "{conn}", "--path", "1,2,3"]),
    ("conn", ["wilson", "--graph", "{graph}", "--connection", "{conn}", "--path", "1,2,3,4,5"]),
    ("conn", ["theta", "--graph", "{graph}", "--connection", "{conn}"]),
    ("conn", ["gauge-orbit", "--graph", "{graph}", "--connection", "{conn}", "--seed", "0",
              "--samples", "4"]),
    ("conn", ["closure", "--graph", "{graph}", "--connection", "{conn}", "--bound", "2"]),
    ("smooth", ["holonomy", "--graph", "{graph}", "--connection", "{smooth}", "--path", "1,2"]),
    ("smooth", ["wilson", "--graph", "{graph}", "--connection", "{smooth}",
                "--path", "1,2,3,4,5"]),
    ("function", ["haar-mean", "--graph", "{graph}", "--connection", "{conn}",
                  "--function", "{function}", "--seed", "0", "--samples", "64"]),
    ("function", ["gauge-orbit", "--graph", "{graph}", "--connection", "{conn}",
                  "--function", "{function}", "--seed", "0", "--samples", "4"]),
    ("loops", ["closure", "--graph", "{graph}", "--family", "{loops}", "--bound", "2"]),
    ("family", ["approx", "--group", "su2", "--family", "{family}", "--seed", "0"]),
    ("group", ["approx", "--group", "{group}", "--family", "{family}", "--seed", "0"]),
]


def _node_paths(doc, prefix=()):
    """Key paths of every node below the root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_node_paths(child, prefix + (key,)))
    return out


PATHS = {kind: _node_paths(doc) for kind, doc in DOCUMENTS.items()}


def mutated_text(doc, path, mutation):
    """JSON text of ``doc`` with one node deleted or replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
        return json.dumps(doc)
    marker = "@non-finite@"
    parent[path[-1]] = marker if mutation in NON_FINITE else mutation
    return json.dumps(doc).replace(json.dumps(marker), str(mutation))


@st.composite
def mutated_cases(draw):
    kind, argv = draw(st.sampled_from(CASES))
    path = draw(st.sampled_from(PATHS[kind]))
    return kind, argv, mutated_text(DOCUMENTS[kind], path, draw(st.sampled_from(MUTATIONS)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    for kind, doc in DOCUMENTS.items():
        (tmp / f"{kind}.json").write_text(json.dumps(doc))
    return tmp


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_constant(text):
    raise AssertionError(f"report holds {text}")


# the top-level keys of each report, "command" and "ok" aside, and of each approx seed's
# entry; "group" names the connection or descriptor that the command read
REPORT_KEYS = {
    "holonomy": {"group", "path", "source", "range", "matrix", "trace", "trace_normalized"},
    "wilson": {"group", "path", "basepoint", "value"},
    "theta": {"group", "tree_edges", "loop_ids", "frames", "loop_values", "roundtrip_error"},
    "gauge-orbit": {"group", "loop_ids", "loop_values", "representative", "seed", "samples"},
    "gauge-orbit --function": {"group", "loop_ids", "loop_values", "representative", "seed",
                               "samples", "function_drift"},
    "haar-mean": {"group", "value", "stderr", "samples", "layers", "seed"},
    "approx": {"group", "label", "bound", "reports"},
    "approx seed": {"experiment", "descriptor", "seed", "errors", "max_error", "bound",
                    "verdict"},
    "obstruction": {"mode", "word", "abelianization", "loop_a", "loop_b", "nonabelian_defect",
                    "verdict"},
    "closure": {"member", "mode", "certified", "witness", "detail", "checked"},
}


@pytest.mark.parametrize("kind, argv", CASES)
def test_fixture_commands_succeed(files, kind, argv):
    # so that a mutation, not a broken fixture, is what each example tests
    names = {k: files / f"{k}.json" for k in DOCUMENTS}
    code, out, _ = run_main([a.format(**names) for a in argv])
    assert code == 0
    report = json.loads(out, parse_constant=_strict_constant)
    assert report["command"] == argv[0]
    assert isinstance(report["ok"], bool)
    layout = argv[0] + (" --function" if argv[0] == "gauge-orbit" and "--function" in argv else "")
    assert set(report) == REPORT_KEYS[layout] | {"command", "ok"}
    for entry in report.get("reports", []):  # approx alone has them, one per seed
        assert set(entry) == REPORT_KEYS["approx seed"]


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000  # fails while decoding
CONJ_DEPTH = 700  # decodes, then fails while building the expression
CONJ_CHAIN = (f'{{"paths": {json.dumps(DOCUMENTS["function"]["paths"])}, "expr": '
              + '{"conj": ' * CONJ_DEPTH + '{"trace": 1}' + "}" * CONJ_DEPTH + "}")
DEEP_CASES = ([(kind, argv, DEEP_ARRAY) for kind, argv in CASES]
              + [(kind, argv, CONJ_CHAIN) for kind, argv in CASES if kind == "function"])


@pytest.mark.parametrize("kind, argv, text", DEEP_CASES,
                         ids=[f"{kind}-{argv[0]}-{'decode' if text is DEEP_ARRAY else 'build'}"
                              for kind, argv, text in DEEP_CASES])
def test_deep_documents_exit_2_naming_the_file(files, kind, argv, text):
    if text is CONJ_CHAIN:
        json.loads(text)  # so that building, not decoding, is what fails
    (files / "deep.json").write_text(text)
    names = {k: files / ("deep.json" if k == kind else f"{k}.json") for k in DOCUMENTS}
    code, out, err = run_main([a.format(**names) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {files / 'deep.json'}: nested too deeply\n"


@settings(max_examples=300, deadline=None)
@given(case=mutated_cases())
def test_mutated_documents_keep_the_exit_code_contract(files, case):
    kind, argv, text = case
    (files / "mutated.json").write_text(text)
    names = {k: files / ("mutated.json" if k == kind else f"{k}.json") for k in DOCUMENTS}
    code, out, err = run_main([a.format(**names) for a in argv])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out, parse_constant=_strict_constant)
    else:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
