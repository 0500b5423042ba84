"""Batch front-end for holonomy experiments.

Every command is a thin composition of library operations: load JSON
inputs, run the named computation, and emit a deterministic JSON report
(stdout, and ``<command>.json`` under ``--out`` when given).  Batch
commands additionally write a CSV summary and two-column ``.dat`` files
that any plotting tool can consume.  Nothing here owns numerics.

Exit codes, decided in ``main`` alone: 0 success; 1 a mathematical verdict
failed under ``--strict``; 2 usage or input errors, where an input file that
cannot be read, an ``--out`` that cannot be written (before any output) and
a malformed document (non-finite numbers included) are named by their path,
and any other out-of-range parameter, or a size too large to allocate, by
the command;
3 numeric failures inside an operation.
Reports never embed timestamps or environment data, so a fixed command
line with a fixed seed reproduces byte-identical output.

A smooth connection document is restricted to the graph once per command;
every command then works with the resulting edge values.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import matrixgroups as mg
from .connections import (
    GeometryError,
    IndependenceError,
    generalized_from_dict,
    holonomies,
    holonomy_general,
    restrict,
    smooth_from_dict,
)
from .cylindrical import HaarMean, cyl_from_dict, invariance_check
from .pathgroupoid import abelianize, graph_from_dict, json_int, word_from_tokens, word_to_tokens
from .spectra import (
    abelian_obstruction_witness,
    approximation_experiment,
    closure_membership,
    loop_assignment_from_dict,
    orbit_representative,
    tree_basis,
    tree_decompose,
    tree_reconstruct,
)

class CliError(Exception):
    """Input or usage problem; ``main`` exits with code 2."""


# ---------------------------------------------------------------------------
# input plumbing

def _finite(text):
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing floats are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _tolerance(text):
    """argparse type of tolerances and bounds: a finite number >= 0."""
    if not 0.0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return float(text)


def _count(minimum):
    """argparse type of integer counts >= ``minimum``."""
    def count(text):
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)
    return count


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except OSError as exc:  # a directory or an unreadable file
        raise CliError(f"{path}: {exc.strerror.lower()}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load(path, build, *args):
    """``build(*args, document)``; what a malformed document raises names ``path``."""
    document = _load_json(path)
    try:
        return build(*args, document)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ArithmeticError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _connection_from_dict(graph, args, data):
    """A generalized connection; smooth documents are restricted to the graph."""
    if isinstance(data, dict) and "terms" in data:
        return restrict(smooth_from_dict(data), graph, args.tolerance)
    return generalized_from_dict(graph, data)


def _family_from_dict(graph, family):
    """Graph, words, windows and label of an ``approx`` family document."""
    if graph is None:
        if "graph" not in family:
            raise ValueError("no graph; pass --graph")
        graph = graph_from_dict(family["graph"])
    words = [word_from_tokens(graph, t) for t in family["words"]]
    windows = family.get("windows")
    if windows is not None:
        windows = [(json_int(lo, "a window"), json_int(hi, "a window")) for lo, hi in windows]
        if len(windows) != len(words):
            raise ValueError(f"{len(words)} words but {len(windows)} windows")
    return graph, words, windows, family.get("label", "interpolation")


_SHORTHAND = re.compile(r"^(su|u|t|torus)([1-9]\d*)$")


def parse_group(text):
    """A descriptor from a JSON file path or shorthand like su2, u1xsu2."""
    if os.path.exists(text):
        return _load(text, mg.descriptor_from_dict)
    factors = []
    for part in text.lower().split("x"):
        m = _SHORTHAND.match(part.strip())
        if not m:
            raise CliError(f"cannot parse group {text!r} (file not found, "
                           f"and not shorthand like su2, u3, t2, u1xsu2)")
        kind, n = m.group(1), int(m.group(2))
        if kind == "su":
            factors.append(mg.SpecialUnitary(n))
        elif kind == "u":
            factors.append(mg.Unitary(n))
        else:
            factors.append(mg.Torus(n))
    return factors[0] if len(factors) == 1 else mg.ProductGroup(tuple(factors))


def parse_path_tokens(text):
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise CliError("empty --path")
    return tokens


def _path_word(graph, text):
    try:
        return word_from_tokens(graph, parse_path_tokens(text))
    except (ValueError, KeyError) as exc:
        raise CliError(f"--path: {exc}") from None


# ---------------------------------------------------------------------------
# output plumbing

def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report, out, name, extra_files=()):
    """Write ``<name>.json`` and the sidecar files under ``out``, then print the report;
    an ``out`` that cannot be written is a usage error before any output."""
    text = _dump(report)
    if out is not None:
        directory = Path(out)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for fname, content in ((f"{name}.json", text), *extra_files):
                (directory / fname).write_text(content, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"--out {out}: {exc.strerror.lower()}") from None
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

def cmd_holonomy(args):
    graph = _load(args.graph, graph_from_dict)
    conn = _load(args.connection, _connection_from_dict, graph, args)
    word = _path_word(graph, args.path)
    h = holonomy_general(conn, word)
    tr = complex(np.trace(h.matrix))
    report = {
        "command": "holonomy",
        "path": word_to_tokens(word),
        "source": word.source,
        "range": word.range,
        "group": mg.descriptor_to_dict(conn.descriptor),
        "matrix": mg.matrix_to_pairs(h.matrix),
        "trace": mg.complex_pair(tr),
        "trace_normalized": mg.complex_pair(tr / mg.dim(conn.descriptor)),
        "ok": True,
    }
    return report, []


def cmd_wilson(args):
    graph = _load(args.graph, graph_from_dict)
    conn = _load(args.connection, _connection_from_dict, graph, args)
    word = _path_word(graph, args.path)
    if not word.is_loop():
        raise CliError(f"--path: wilson needs a loop, got {word.source!r} -> {word.range!r}")
    h = holonomy_general(conn, word)
    value = complex(np.trace(h.matrix)) / mg.dim(conn.descriptor)
    report = {
        "command": "wilson",
        "path": word_to_tokens(word),
        "basepoint": word.source,
        "group": mg.descriptor_to_dict(conn.descriptor),
        "value": mg.complex_pair(value),
        "ok": True,
    }
    return report, []


def cmd_gauge_orbit(args):
    graph = _load(args.graph, graph_from_dict)
    conn = _load(args.connection, _connection_from_dict, graph, args)
    desc = conn.descriptor
    basis = tree_basis(graph)
    if not basis.loop_ids:
        raise CliError("graph has no independent loops; the orbit is a point")
    f = None if args.function is None else _load(args.function, cyl_from_dict, graph)
    if f is not None:
        f.check_size(desc)  # a bad entry exits before any transport
    loops = [basis.loops[eid] for eid in basis.loop_ids]  # f's paths join their transport
    stack = holonomies(conn, [*loops, *(() if f is None else f.paths)])
    values = stack[:len(loops)]
    rep = orbit_representative(desc, values)
    report = {
        "command": "gauge-orbit",
        "group": mg.descriptor_to_dict(desc),
        "loop_ids": [str(eid) for eid in basis.loop_ids],
        "loop_values": [mg.matrix_to_pairs(v) for v in values],
        "representative": [mg.matrix_to_pairs(r.matrix) for r in rep],
        "seed": args.seed,
        "samples": args.samples,
        "ok": True,
    }
    if f is not None:
        drift = invariance_check(f, stack[len(loops):], desc, gauges=args.samples, seed=args.seed)
        report["function_drift"] = drift
        report["ok"] = drift <= args.check_tolerance
    return report, []


def cmd_haar_mean(args):
    graph = _load(args.graph, graph_from_dict)
    conn = _load(args.connection, _connection_from_dict, graph, args)
    f = _load(args.function, cyl_from_dict, graph)
    hm = HaarMean(f, conn.descriptor, layers=args.layers)
    est = hm.estimate(conn, args.samples, args.seed)
    rows = [f"{e.samples} {e.value.real!r}\n" for e in est.ladder]
    report = {
        "command": "haar-mean",
        "group": mg.descriptor_to_dict(conn.descriptor),
        "value": mg.complex_pair(est.value),
        "stderr": est.stderr,
        "samples": est.samples,
        "layers": est.layers,
        "seed": args.seed,
        "ok": True,
    }
    return report, [("haar-mean.dat", "".join(rows))]


def cmd_theta(args):
    graph = _load(args.graph, graph_from_dict)
    conn = _load(args.connection, _connection_from_dict, graph, args)
    basis = tree_basis(graph)
    dec = tree_decompose(basis, conn)
    back = tree_reconstruct(basis, conn.descriptor, dec.loop_values, frames=dec.frames)
    err = max((float(mg.distance(back.value(eid), conn.value(eid))) for eid in graph.edges),
              default=0.0)
    report = {
        "command": "theta",
        "group": mg.descriptor_to_dict(conn.descriptor),
        "tree_edges": sorted(str(eid) for eid in basis.tree_edges),
        "loop_ids": [str(eid) for eid in basis.loop_ids],
        "frames": {str(v): mg.matrix_to_pairs(dec.frames[v].matrix)
                   for v in graph.vertices},
        "loop_values": {str(eid): mg.matrix_to_pairs(dec.loop_values[eid].matrix)
                        for eid in basis.loop_ids},
        "roundtrip_error": err,
        "ok": err <= args.check_tolerance,
    }
    return report, []


def cmd_approx(args):
    graph = None if args.graph is None else _load(args.graph, graph_from_dict)
    graph, words, windows, label = _load(args.family, _family_from_dict, graph)
    desc = parse_group(args.group)
    reports = [approximation_experiment(graph, words, desc, seed, windows=windows,
                                        bound=args.bound, label=label, tol=args.tolerance)
               for seed in range(args.seed, args.seed + args.seeds)]
    ok = all(r.verdict for r in reports)
    csv_rows = ["seed,max_error,verdict\n"]
    dat_rows = []
    for r in reports:
        worst = max(r.errors)
        csv_rows.append(f"{r.seed},{worst!r},{str(r.verdict).lower()}\n")
        dat_rows.append(f"{r.seed} {worst!r}\n")
    report = {
        "command": "approx",
        "group": mg.descriptor_to_dict(desc),
        "label": label,
        "bound": args.bound,
        "reports": [r.to_dict() for r in reports],
        "ok": ok,
    }
    extras = [("approx.csv", "".join(csv_rows)), ("approx-errors.dat", "".join(dat_rows))]
    return report, extras


def cmd_obstruction(args):
    graph = _load(args.graph, graph_from_dict)
    if args.path is not None:
        word = _path_word(graph, args.path)
        exponents = abelianize(word)
        verdict = "Obstructed" if not exponents else "Unobstructed"
        report = {
            "command": "obstruction",
            "mode": "word",
            "word": word_to_tokens(word),
            "abelianization": {str(eid): c for eid, c in exponents.items()},
            "verdict": verdict,
            "ok": True,
        }
        return report, []
    wit = abelian_obstruction_witness(graph)
    report = {
        "command": "obstruction",
        "mode": "commutator",
        "verdict": "Obstructed",
        "ok": wit.nonabelian_defect > 1.0,
    }
    report.update(wit.to_dict())
    if args.connection is not None:
        conn = _load(args.connection, _connection_from_dict, graph, args)
        defect = wit.abelian_defect(conn)
        report["abelian_defect"] = defect
        report["ok"] = report["ok"] and defect <= args.check_tolerance
    return report, []


def cmd_closure(args):
    graph = _load(args.graph, graph_from_dict)
    if (args.family is None) == (args.connection is None):
        raise CliError("closure needs exactly one of --family or --connection")
    if args.connection is not None:
        data = _load(args.connection, _connection_from_dict, graph, args)
    else:
        data = _load(args.family, loop_assignment_from_dict, graph)
    verdict = closure_membership(data, bound=args.bound, tol=args.check_tolerance)
    report = {"command": "closure", "ok": verdict.member}
    report.update(verdict.to_dict())
    return report, []


# ---------------------------------------------------------------------------
# argument wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line from ``main``, not a usage block
        raise CliError(f"{self.prog}: {message}")


def _build_parser():
    """The command-line parser: a shallow copy of the one tree :func:`_parser_tree` builds
    per process, so what a caller sets on it (perfbench's tracer wraps ``parse_args``)
    stays with that caller.  Parsing reads the shared tree and never writes it."""
    return copy.copy(_parser_tree())


@functools.cache
def _parser_tree():
    parser = _Parser(
        prog="holonomy-lab",
        description="holonomy, gauge and closure experiments on finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **needs):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--graph", required=needs.get("graph", False))
        for opt in ("connection", "function", "group", "path", "family", "seed"):  # needs: required
            if opt in needs:
                p.add_argument(f"--{opt}", type=int if opt == "seed" else str, required=needs[opt])
        for opt in ("samples", "seeds", "layers", "bound"):  # needs: (type, default)
            if opt in needs:
                p.add_argument(f"--{opt}", type=needs[opt][0], default=needs[opt][1])
        p.add_argument("--tolerance", type=_tolerance, default=1e-9)
        if "check_tol" in needs:
            p.add_argument("--check-tolerance", type=_tolerance, default=needs["check_tol"])
        p.add_argument("--out", default=None)
        p.add_argument("--strict", action="store_true")
        return p

    add("holonomy", cmd_holonomy, graph=True, connection=True, path=True)
    add("wilson", cmd_wilson, graph=True, connection=True, path=True)
    add("gauge-orbit", cmd_gauge_orbit, graph=True, connection=True,
        function=False, seed=True, samples=(_count(1), 20), check_tol=1e-8)
    add("haar-mean", cmd_haar_mean, graph=True, connection=True,
        function=True, seed=True, samples=(_count(2), 4096), layers=(_count(1), 1))
    add("theta", cmd_theta, graph=True, connection=True, check_tol=1e-9)
    add("approx", cmd_approx, graph=False, group=True, family=True,
        seed=True, seeds=(_count(1), 1), bound=(_tolerance, 1e-6))
    add("obstruction", cmd_obstruction, graph=True, connection=False,
        path=False, check_tol=1e-8)
    add("closure", cmd_closure, graph=True, connection=False, family=False,
        bound=(_count(0), 6), check_tol=1e-8)
    return parser


def main(argv=None):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args = _build_parser().parse_args(argv)
            report, extras = args.func(args)
            _emit(report, args.out, args.command, extras)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # before ValueError: all but FloatingPointError subclass it
    except (IndependenceError, GeometryError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the input asked for an impossible size
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    if args.strict and not report.get("ok", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
