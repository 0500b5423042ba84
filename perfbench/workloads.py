"""Workloads: command lines for ``holonomy_lab.cli``, their inputs and checks.

A workload is a cycle of jobs generated from a seed.  Each job is one
command line, the JSON input files it reads, and a check that compares its
report with an independent reference (see ``checks``).  Job kinds repeat in
fixed proportions and are interleaved evenly, so any prefix of the cycle
has nearly the workload's mix; the proportions put the median and the
90th percentile of job latency inside a run of equal-cost jobs rather than
on the step between two kinds.  The seed changes matrices, words and Monte
Carlo streams, never a job's size, so the cost of each kind is the same
for every seed.

- ``haar-mc``: ``haar-mean`` over SU(2), U(3), T2 and (U(1) x SU(2))/Z2 on
  pentagon-chord generalized connections, plus ``gauge-orbit`` with an
  invariance check.  Stresses ``matrixgroups.haar_batch`` and
  ``cylindrical.HaarMean``; word handling, transport and searches idle.
- ``smooth-transport``: ``approx`` on spiders, ``holonomy``, ``theta`` and
  ``gauge-orbit`` with bump connections, ``obstruction`` with a torus bump
  connection.  Stresses ``connections.transport`` and
  ``interpolate_connection``; Haar sampling is negligible.
- ``discrete-algebra``: long-word ``holonomy``/``wilson``/``obstruction``,
  ``theta`` on a spider, ``gauge-orbit`` and ``closure`` searches.
  Stresses per-element ``matrixgroups`` calls, ``pathgroupoid`` word
  handling and the ``spectra`` searches; smooth transport idles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import holonomy_lab.matrixgroups as mg
from holonomy_lab import (
    cyl_to_dict,
    generalized_to_dict,
    graph_to_dict,
    random_generalized_connection,
    random_smooth_connection,
    smooth_to_dict,
    wilson_loop,
    word_from_tokens,
)
from holonomy_lab.cylindrical import entry_abs_square, entry_function

import checks as ck
import fixtures as fx
from checks import require

HAAR_SAMPLES = 2 ** 14          # per haar-mean job; the ladder draws ~2x that
WORD_LETTERS = 1500             # SU(2)/U(3) words of discrete-algebra
QUOTIENT_WORD_LETTERS = 1000    # quotient words cost ~4x per letter
CLOSURE_BOUND = 6               # the CLI default
SPIDER_APPROX_BOUND = 1e-6      # the CLI default

# kind -> jobs per cycle, cheapest first; the lines on their own hold the
# kinds where the median and the 90th percentile of job latency fall.  The
# --seeds 4 approx kind runs a thread pool whose latency follows how much
# of the second CPU is free, so it is kept above the 90th percentile.
# Approx cost depends on the drawn targets, so smooth-transport carries
# many instances of each kind to make its percentiles seed-independent.
MIXES = {
    "haar-mc": {
        "orbit-invariance/su2": 1, "orbit-invariance/quotient": 1,
        "haar/t2/wilson": 1, "haar/t2/based-entry": 1, "haar/t2/open-abs2": 1,
        "haar/su2/wilson": 2, "haar/su2/based-entry": 2, "haar/u3/based-entry": 1,
        "haar/u3/wilson": 6,
        "haar/su2/open-abs2": 1, "haar/quotient/wilson": 1, "haar/quotient/based-entry": 1,
        "haar/u3/open-abs2": 1,
        "haar/quotient/open-abs2": 5,
    },
    "smooth-transport": {
        "holonomy/smooth-su2": 8, "approx/spider4/su2": 8, "approx/spider4/su3": 8,
        "theta/smooth-su2": 8, "obstruction/bouquet-t2": 4,
        "approx/spider8/su2": 18,
        "approx/spider8/su3": 30,
        "gauge-orbit/smooth-su2": 2, "approx/spider4/su2-seeds4": 2,
    },
    "discrete-algebra": {
        "closure/u2-dependent-member": 1, "closure/u2-dependent-nonmember": 1,
        "gauge-orbit/su3": 1, "gauge-orbit/quotient": 1,
        "theta/spider8/su2": 1, "theta/spider8/su3": 1, "obstruction/word": 1,
        "holonomy/su2": 2, "holonomy/u3": 2, "wilson/su2": 2, "wilson/u3": 2,
        "closure/torus5-nonmember": 1, "holonomy/quotient": 1, "wilson/quotient": 1,
        "closure/torus5-member": 4,
    },
}

LIGHT_COMMANDS = ("holonomy", "wilson", "obstruction", "gauge-orbit")


@dataclass
class Job:
    kind: str
    argv: list
    check: Callable[[str], None]

    @property
    def command(self):
        return self.argv[0]


def quotient_group():
    base = mg.ProductGroup((mg.Unitary(1), mg.SpecialUnitary(2)))
    return mg.central_quotient(base, [np.eye(3), -np.eye(3)])


GROUPS = {
    "su2": mg.SpecialUnitary(2), "u3": mg.Unitary(3), "t2": mg.Torus(2),
    "su3": mg.SpecialUnitary(3), "u2": mg.Unitary(2), "quotient": quotient_group(),
}


def blocks_of(desc_doc):
    """(kind, size) of each block-diagonal factor of a descriptor document."""
    kind = desc_doc["kind"]
    if kind == "quotient":
        return blocks_of(desc_doc["base"])
    if kind == "product":
        return [b for f in desc_doc["factors"] for b in blocks_of(f)]
    return [(kind, desc_doc["n"])]


def center_of(desc_doc):
    if desc_doc["kind"] != "quotient":
        return None
    return [ck.pairs_to_matrix(k) for k in desc_doc["K"]]


class Inputs:
    """Writes the JSON input files of a workload into a work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.docs = {}
        os.makedirs(workdir, exist_ok=True)

    def put(self, name, doc):
        path = os.path.join(self.workdir, name)
        if name in self.docs:
            if self.docs[name] != doc:
                raise ValueError(f"two different inputs named {name}")
            return path
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.docs[name] = doc
        return path


def edge_matrices(conn_doc):
    return {int(k): ck.pairs_to_matrix(v) for k, v in conn_doc["values"].items()}


def canonical(h, group_doc):
    center = center_of(group_doc)
    return h if center is None else ck.canonical_coset(h, center)


def random_walk(graph, rng, length, close=False):
    """Reduced random walk of ``length`` letters from the basepoint.

    With ``close`` the walk returns to the basepoint, which may change its
    length by the few letters of the way back.
    """
    v, letters = graph.basepoint, []
    while len(letters) < length:
        options = []
        for eid in graph.incident_edges(v):
            e = graph.edges[eid]
            if e.src == v:
                options.append((eid, 1, e.dst))
            if e.dst == v:
                options.append((eid, -1, e.src))
        options = [o for o in options if not letters or letters[-1] != (o[0], -o[1])]
        eid, o, v = options[rng.integers(len(options))]
        letters.append((eid, o))
    tokens = [eid * o for eid, o in letters]
    if close and v != graph.basepoint:
        back = [-t for t in reversed(tokens[:_prefix_to(graph, tokens, v)])]
        tokens = tokens + back
    return [eid * o for eid, o in word_from_tokens(graph, tokens).letters]


def _prefix_to(graph, tokens, v):
    """Length of the shortest prefix of ``tokens`` that ends at ``v``."""
    at = graph.basepoint
    for i, t in enumerate(tokens):
        if at == v:
            return i
        e = graph.edges[abs(t)]
        at = e.dst if t > 0 else e.src
    return len(tokens)


def path_arg(tokens):
    return "--path=" + ",".join(str(t) for t in tokens)


# ---------------------------------------------------------------------------
# one function per family of job kinds; each returns the jobs of one kind

def _haar_jobs(kind, count, rng, inp):
    _, group, shape = kind.split("/")
    graph = fx.pentagon_chord_graph()
    gpath = inp.put("pentagon.json", graph_to_dict(graph))
    desc = GROUPS[group]
    cdoc = generalized_to_dict(random_generalized_connection(graph, desc, int(rng.integers(2**31))))
    cpath = inp.put(f"haar-{group}-{shape}.json", cdoc)
    n = mg.dim(desc)
    idx = n - 1  # last diagonal entry: the SU(2) block of the quotient
    loops = {"wilson": [1, 2, 3, 4, 5], "based-entry": [6, 3, 4, 5], "open-abs2": [1, 2]}
    word = word_from_tokens(graph, loops[shape])
    f = {"wilson": lambda: wilson_loop(word, n),
         "based-entry": lambda: entry_function(word, idx + 1, idx + 1),
         "open-abs2": lambda: entry_abs_square(word, idx + 1, idx + 1)}[shape]()
    fpath = inp.put(f"fn-{group}-{shape}.json", cyl_to_dict(f))
    h = canonical(ck.plain_holonomy(edge_matrices(cdoc), ck.tokens_to_letters(loops[shape]), n),
                  cdoc["group"])
    expect = ck.haar_mean_reference((shape, idx), h, blocks_of(cdoc["group"]))

    def check(text):
        r = ck.parse_report(text)
        require(r.get("command") == "haar-mean" and r.get("ok") is True, "not an ok haar-mean report")
        require(r["samples"] == HAAR_SAMPLES, "wrong sample count")
        # every function here has |f| <= 1, so its standard error is at most 1/sqrt(N)
        require(0.0 <= r["stderr"] <= HAAR_SAMPLES ** -0.5, f"impossible stderr {r['stderr']}")
        got = complex(*r["value"])
        err = abs(got - expect)
        require(err <= 5.0 * r["stderr"] + 1e-9,
                f"mean {got} is {err:.3g} from {expect} (stderr {r['stderr']:.3g})")

    return [Job(kind, ["haar-mean", "--graph", gpath, "--connection", cpath, "--function", fpath,
                       "--samples", str(HAAR_SAMPLES), "--seed", str(int(rng.integers(2**31)))],
                check)
            for _ in range(count)]


def _orbit_checks(r, group_doc):
    """Conjugation keeps each loop's trace (up to the center for quotients)."""
    reps = [ck.pairs_to_matrix(m) for m in r["representative"]]
    vals = [ck.pairs_to_matrix(m) for m in r["loop_values"]]
    require(len(reps) == len(vals) > 0, "representative and loop values differ in length")
    center = center_of(group_doc) or [np.eye(reps[0].shape[0])]
    for a, b in zip(reps, vals):
        n = a.shape[0]
        require(ck.max_abs(a.conj().T @ a, np.eye(n)) <= 1e-8, "representative is not unitary")
        require(min(abs(np.trace(a) - np.trace(k @ b)) for k in center) <= 1e-8,
                "representative changes a loop trace")


def _orbit_invariance_jobs(kind, count, rng, inp):
    group = kind.split("/")[1]
    graph = fx.pentagon_chord_graph()
    gpath = inp.put("pentagon.json", graph_to_dict(graph))
    desc = GROUPS[group]
    cdoc = generalized_to_dict(random_generalized_connection(graph, desc, int(rng.integers(2**31))))
    cpath = inp.put(f"orbit-{group}.json", cdoc)
    fpath = inp.put(f"fn-orbit-{group}.json",
                    cyl_to_dict(wilson_loop(word_from_tokens(graph, [1, 2, 3, 4, 5]), mg.dim(desc))))

    def check(text):
        r = ck.parse_report(text)
        require(r.get("command") == "gauge-orbit" and r.get("ok") is True, "not an ok gauge-orbit report")
        require(r["function_drift"] <= 1e-9, f"Wilson loop moved by {r['function_drift']:.3g} under gauge")
        _orbit_checks(r, cdoc["group"])

    return [Job(kind, ["gauge-orbit", "--graph", gpath, "--connection", cpath, "--function", fpath,
                       "--samples", "4096", "--seed", str(int(rng.integers(2**31)))], check)
            for _ in range(count)]


def _spider_family(inp, r):
    graph = fx.spider_graph(r)
    words = [[k + 1, r + k + 1] for k in range(r)]
    return inp.put(f"spider{r}-family.json",
                   {"graph": graph_to_dict(graph), "words": words, "label": f"spider-{r}"})


def _approx_jobs(kind, count, rng, inp):
    _, spider, group = kind.split("/")
    seeds = 4 if group.endswith("-seeds4") else 1
    group = group.split("-")[0]
    r = int(spider[len("spider"):])
    fam = _spider_family(inp, r)
    jobs = []
    for _ in range(count):
        first = int(rng.integers(2**31 - 8))

        def check(text, first=first):
            rep = ck.parse_report(text)
            require(rep.get("command") == "approx" and rep.get("ok") is True, "not an ok approx report")
            require([x["seed"] for x in rep["reports"]] == list(range(first, first + seeds)),
                    "wrong seed range")
            for x in rep["reports"]:
                require(len(x["errors"]) == r, "one error per family word expected")
                require(max(x["errors"]) <= SPIDER_APPROX_BOUND and x["verdict"] is True,
                        f"interpolation error {max(x['errors']):.3g} above its bound")
                require(x["max_error"] == max(x["errors"]), "max_error is not the largest error")

        jobs.append(Job(kind, ["approx", "--group", group, "--family", fam, "--seed", str(first),
                               "--seeds", str(seeds)], check))
    return jobs


def _smooth_connection(inp, rng, graph, gname, desc):
    conn = random_smooth_connection(desc, graph, n_terms=5, seed=int(rng.integers(2**31)))
    doc = smooth_to_dict(conn)
    return inp.put(f"{gname}-{int(rng.integers(2**31))}.json", doc), doc


def _smooth_jobs(kind, count, rng, inp):
    command = kind.split("/")[0]
    jobs = []
    for _ in range(count):
        if command == "obstruction":
            graph = fx.bouquet_graph()
            gdoc = graph_to_dict(graph)
            gpath = inp.put("bouquet.json", gdoc)
            cpath, _ = _smooth_connection(inp, rng, graph, "bump-t2", GROUPS["t2"])

            def check(text):
                r = ck.parse_report(text)
                require(r.get("command") == "obstruction" and r.get("ok") is True,
                        "not an ok obstruction report")
                require(r["verdict"] == "Obstructed" and r["abelianization"] == {},
                        "commutator witness must be obstructed")
                require(abs(r["nonabelian_defect"] - 2.0 * np.sqrt(2.0)) <= 1e-9,
                        "nonabelian foil defect is not 2*sqrt(2)")
                require(r["abelian_defect"] <= 1e-8,
                        f"torus connection moved the commutator by {r['abelian_defect']:.3g}")

            jobs.append(Job(kind, ["obstruction", "--graph", gpath, "--connection", cpath], check))
            continue
        graph = fx.pentagon_chord_graph()
        gdoc = graph_to_dict(graph)
        gpath = inp.put("pentagon.json", gdoc)
        cpath, cdoc = _smooth_connection(inp, rng, graph, "bump-su2", GROUPS["su2"])
        if command == "holonomy":
            tokens = [1, 2, 3, 4, 5]

            def check(text, cdoc=cdoc, tokens=tokens, gdoc=gdoc):
                r = ck.parse_report(text)
                require(r.get("command") == "holonomy" and r["path"] == tokens, "wrong holonomy report")
                line = ck.path_polyline(gdoc, ck.tokens_to_letters(tokens))
                ref = ck.smooth_transport_reference(cdoc["terms"], line, 2)
                err = ck.max_abs(ck.pairs_to_matrix(r["matrix"]), ref)
                require(err <= ck.SMOOTH_TOL, f"smooth holonomy is {err:.3g} from the reference")

            jobs.append(Job(kind, ["holonomy", "--graph", gpath, "--connection", cpath,
                                   path_arg(tokens)], check))
        elif command == "theta":
            def check(text):
                r = ck.parse_report(text)
                require(r.get("command") == "theta" and r.get("ok") is True, "not an ok theta report")
                require(r["roundtrip_error"] <= 1e-9, f"roundtrip error {r['roundtrip_error']:.3g}")

            jobs.append(Job(kind, ["theta", "--graph", gpath, "--connection", cpath], check))
        else:
            fpath = inp.put("fn-smooth-wilson.json",
                            cyl_to_dict(wilson_loop(word_from_tokens(graph, [1, 2, 3, 4, 5]), 2)))

            def check(text, cdoc=cdoc):
                r = ck.parse_report(text)
                require(r.get("command") == "gauge-orbit" and r.get("ok") is True,
                        "not an ok gauge-orbit report")
                require(r["function_drift"] <= 1e-8, "Wilson loop moved under gauge")
                _orbit_checks(r, cdoc["group"])

            jobs.append(Job(kind, ["gauge-orbit", "--graph", gpath, "--connection", cpath,
                                   "--function", fpath, "--seed", str(int(rng.integers(2**31)))],
                            check))
    return jobs


def _word_jobs(kind, count, rng, inp):
    command, group = kind.split("/")
    graph = fx.pentagon_chord_graph()
    gpath = inp.put("pentagon.json", graph_to_dict(graph))
    if command == "obstruction":
        jobs = []
        for _ in range(count):
            u = random_walk(graph, rng, WORD_LETTERS // 4, close=True)
            v = random_walk(graph, rng, WORD_LETTERS // 4, close=True)
            tokens = [eid * o for eid, o in word_from_tokens(
                graph, u + v + ck.invert_tokens(u) + ck.invert_tokens(v)).letters]

            def check(text, tokens=tokens):
                r = ck.parse_report(text)
                require(r.get("command") == "obstruction" and r["word"] == tokens,
                        "wrong obstruction report")
                expect = {str(e): c for e, c in ck.abelianization(ck.tokens_to_letters(tokens)).items()}
                require(r["abelianization"] == expect, "abelianization differs from the edge count")
                require(r["verdict"] == ("Obstructed" if not expect else "Unobstructed"),
                        "verdict contradicts the abelianization")

            jobs.append(Job(kind, ["obstruction", "--graph", gpath, path_arg(tokens)], check))
        return jobs
    desc = GROUPS[group]
    n = mg.dim(desc)
    cdoc = generalized_to_dict(random_generalized_connection(graph, desc, int(rng.integers(2**31))))
    cpath = inp.put(f"{command}-{group}.json", cdoc)
    values = edge_matrices(cdoc)
    length = QUOTIENT_WORD_LETTERS if group == "quotient" else WORD_LETTERS
    jobs = []
    for _ in range(count):
        tokens = random_walk(graph, rng, length, close=command == "wilson")
        h = canonical(ck.plain_holonomy(values, ck.tokens_to_letters(tokens), n), cdoc["group"])

        def check(text, tokens=tokens, h=h):
            r = ck.parse_report(text)
            require(r.get("command") == command and r["path"] == tokens, f"wrong {command} report")
            if command == "holonomy":
                err = ck.max_abs(ck.pairs_to_matrix(r["matrix"]), h)
                require(err <= ck.MATRIX_TOL, f"holonomy is {err:.3g} from the plain product")
                require(abs(complex(*r["trace"]) - np.trace(h)) <= ck.MATRIX_TOL, "wrong trace")
            else:
                err = abs(complex(*r["value"]) - np.trace(h) / n)
                require(err <= ck.MATRIX_TOL, f"Wilson value is {err:.3g} from the plain product")

        jobs.append(Job(kind, [command, "--graph", gpath, "--connection", cpath, path_arg(tokens)],
                        check))
    return jobs


def _gauged(cdoc, graph, rng, desc):
    """The connection document acted on by a random vertex gauge, in numpy."""
    gauge = dict(zip(graph.vertices, mg.haar_batch(desc, len(graph.vertices), rng)))
    center = center_of(cdoc["group"])
    out = {}
    for key, pairs in cdoc["values"].items():
        e = graph.edges[int(key)]
        m = gauge[e.dst].conj().T @ ck.pairs_to_matrix(pairs) @ gauge[e.src]
        if center is not None:
            m = ck.canonical_coset(m, center)
        out[key] = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return {"group": cdoc["group"], "values": out}


def _gauge_orbit_jobs(kind, count, rng, inp, reference_report):
    group = kind.split("/")[1]
    graph = fx.pentagon_chord_graph()
    gpath = inp.put("pentagon.json", graph_to_dict(graph))
    desc = GROUPS[group]
    fpath = inp.put(f"fn-orbit-{group}.json",
                    cyl_to_dict(wilson_loop(word_from_tokens(graph, [1, 2, 3, 4, 5]), mg.dim(desc))))
    jobs = []
    for _ in range(count):
        cdoc = generalized_to_dict(random_generalized_connection(graph, desc, int(rng.integers(2**31))))
        tag = int(rng.integers(2**31))
        cpath = inp.put(f"orbit-{group}-{tag}.json", cdoc)
        gauged = inp.put(f"orbit-{group}-{tag}-gauged.json", _gauged(cdoc, graph, rng, desc))
        seed = str(int(rng.integers(2**31)))
        tail = ["--function", fpath, "--seed", seed]
        ref_argv = ["gauge-orbit", "--graph", gpath, "--connection", gauged] + tail

        def check(text, cdoc=cdoc, ref_argv=ref_argv):
            r = ck.parse_report(text)
            require(r.get("command") == "gauge-orbit" and r.get("ok") is True,
                    "not an ok gauge-orbit report")
            _orbit_checks(r, cdoc["group"])
            ref = json.loads(reference_report(ref_argv))
            err = max(ck.max_abs(ck.pairs_to_matrix(a), ck.pairs_to_matrix(b))
                      for a, b in zip(r["representative"], ref["representative"]))
            require(err <= 1e-8, f"representative moved by {err:.3g} under a vertex gauge")

        jobs.append(Job(kind, ["gauge-orbit", "--graph", gpath, "--connection", cpath] + tail,
                        check))
    return jobs


def _theta_spider_jobs(kind, count, rng, inp):
    group = kind.split("/")[2]
    r = 8
    graph = fx.spider_graph(r)
    gpath = inp.put("spider8.json", graph_to_dict(graph))
    desc = GROUPS[group]
    n = mg.dim(desc)
    jobs = []
    for _ in range(count):
        cdoc = generalized_to_dict(random_generalized_connection(graph, desc, int(rng.integers(2**31))))
        cpath = inp.put(f"spider8-{group}-{int(rng.integers(2**31))}.json", cdoc)
        values = edge_matrices(cdoc)
        frames = {"o": np.eye(n)}
        for k in range(r):
            frames[f"u{k}"] = values[k + 1]
            frames[f"w{k}"] = values[r + k + 1] @ values[k + 1]

        def check(text, frames=frames):
            rep = ck.parse_report(text)
            require(rep.get("command") == "theta" and rep.get("ok") is True, "not an ok theta report")
            require(rep["loop_ids"] == [] and len(rep["tree_edges"]) == 2 * r,
                    "a spider is a tree: every edge is a tree edge")
            require(rep["roundtrip_error"] <= 1e-9, f"roundtrip error {rep['roundtrip_error']:.3g}")
            err = max(ck.max_abs(ck.pairs_to_matrix(rep["frames"][v]), m) for v, m in frames.items())
            require(err <= ck.MATRIX_TOL, f"tree frame is {err:.3g} from the plain product")

        jobs.append(Job(kind, ["theta", "--graph", gpath, "--connection", cpath], check))
    return jobs


# loops at v0 of the pentagon: a is the five-cycle, b runs the chord
_A = [1, 2, 3, 4, 5]
_B = [6, 3, 4, 5]


def _closure_jobs(kind, count, rng, inp):
    what = kind.split("/")[1]
    graph = fx.pentagon_chord_graph()
    gpath = inp.put("pentagon.json", graph_to_dict(graph))
    jobs = []
    for _ in range(count):
        if what.startswith("torus5"):
            member = what.endswith("-member")
            loops = [_A, _B, _A + _B, _A + _A + _B,
                     _A + _B + ck.invert_tokens(_A) + ck.invert_tokens(_B)]
            theta = rng.uniform(-np.pi, np.pi, size=(7, 2))
            phases = [np.exp(1j * sum(np.sign(t) * theta[abs(t)] for t in loop)) for loop in loops]
            if not member:
                # a nontrivial value on the commutator, which every torus connection fixes
                phases[-1] = phases[-1] * np.exp(1j * rng.uniform(0.3, 1.0, size=2))
            desc = GROUPS["t2"]
            mats = [np.diag(p) for p in phases]
        else:
            member = what.endswith("-member")
            loops = [_A, _B, _A + _B]
            desc = GROUPS["u2"]
            a, b = mg.haar_batch(desc, 2, rng)
            mats = [a, b, b @ a if member else a @ b]
        doc = {"group": mg.descriptor_to_dict(desc), "basepoint": "v0", "loops": loops,
               "values": [[[[float(x.real), float(x.imag)] for x in row] for row in m] for m in mats]}
        fpath = inp.put(f"closure-{what}-{int(rng.integers(2**31))}.json", doc)
        letters = [ck.tokens_to_letters(loop) for loop in loops]

        def check(text, member=member, mats=mats, letters=letters):
            r = ck.parse_report(text)
            require(r.get("command") == "closure", "not a closure report")
            require(r["member"] is member,
                    f"family built as {'member' if member else 'non-member'} got member={r['member']}")
            if not member and r["mode"] == "torus-abelianized":
                m = np.asarray(r["witness"], dtype=int)
                exps = [ck.abelianization(w) for w in letters]
                for eid in {e for x in exps for e in x}:
                    require(sum(c * x.get(eid, 0) for c, x in zip(m, exps)) == 0,
                            "witness has nonzero edge exponents")
                value = np.prod([np.diagonal(v) ** c for v, c in zip(mats, m)], axis=0)
                require(np.max(np.abs(value - 1.0)) > 1e-8, "witness word has trivial value")

        jobs.append(Job(kind, ["closure", "--graph", gpath, "--family", fpath,
                               "--bound", str(CLOSURE_BOUND)], check))
    return jobs


def build_kind(kind, count, rng, inp, reference_report):
    head = kind.split("/")[0]
    if head == "haar":
        return _haar_jobs(kind, count, rng, inp)
    if head == "orbit-invariance":
        return _orbit_invariance_jobs(kind, count, rng, inp)
    if head == "approx":
        return _approx_jobs(kind, count, rng, inp)
    if kind.split("/")[1].startswith(("smooth", "bouquet")):
        return _smooth_jobs(kind, count, rng, inp)
    if head == "gauge-orbit":
        return _gauge_orbit_jobs(kind, count, rng, inp, reference_report)
    if head == "theta":
        return _theta_spider_jobs(kind, count, rng, inp)
    if head == "closure":
        return _closure_jobs(kind, count, rng, inp)
    return _word_jobs(kind, count, rng, inp)


def build_cycle(workload, seed, workdir, reference_report):
    """Jobs of one cycle of ``workload``, kinds interleaved evenly.

    ``reference_report(argv)`` runs a command outside any timing and
    returns its stdout; checks that compare against another run use it.
    """
    mix = MIXES[workload]
    inp = Inputs(workdir)
    placed = []
    for k, (kind, count) in enumerate(mix.items()):
        rng = np.random.default_rng([seed, k, sum(map(ord, workload))])
        jobs = build_kind(kind, count, rng, inp, reference_report)
        for i, job in enumerate(jobs):
            placed.append(((i + 0.5 + k / len(mix)) / count, k, job))
    placed.sort(key=lambda item: item[:2])
    return [job for _, _, job in placed]


def first_of_each_kind(cycle):
    seen, out = set(), []
    for job in cycle:
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out
