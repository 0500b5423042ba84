"""Spans around the public functions of each ``holonomy_lab`` module.

``Tracer.install`` replaces module attributes (and a few methods) with
wrappers that record a span per call: name, start, end, parent span, job
id, plus a work count taken from the arguments (letters, samples,
segments) and one taken from the result.  The package itself is not
edited; ``uninstall`` puts the originals back.  Spans live in flat arrays
until the run ends and are then written out and reduced to per-layer
metrics.  A layer's self time is the duration of its spans minus the part
of each span that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "pathgroupoid", "matrixgroups", "connections", "cylindrical", "spectra")


def _group_tag(desc):
    name = type(desc).__name__
    if name == "CentralQuotient":
        return "quotient"
    if name == "ProductGroup":
        return "product"
    short = {"SpecialUnitary": "su", "Unitary": "u", "Torus": "t"}[name]
    return f"{short}{desc.n}"


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _length(tokens):
    return len(tokens) if hasattr(tokens, "__len__") else 0


# (module, attribute, units from the call, tag from the call, count from the result)
TARGETS = [
    ("cli", "_load_json", None, None, None),
    ("cli", "_emit", None, None, None),
    ("cli", "parse_group", None, None, None),
    ("pathgroupoid", "graph_from_dict", None, None, None),
    ("pathgroupoid", "word_from_tokens", lambda a, k: _length(_arg(a, k, 1, "tokens")), None, None),
    ("pathgroupoid", "word_to_tokens", None, None, None),
    ("pathgroupoid", "depends_on", None, None, None),
    ("pathgroupoid", "spanning_tree", None, None, None),
    ("pathgroupoid", "abelianize", None, None, None),
    ("matrixgroups", "haar_batch", lambda a, k: _arg(a, k, 1, "count"),
     lambda a, k: _group_tag(_arg(a, k, 0, "desc")), None),
    ("matrixgroups", "mul", None, None, None),
    ("matrixgroups", "inv", None, None, None),
    ("matrixgroups", "identity", None, None, None),
    ("matrixgroups", "distance", None, None, None),
    ("matrixgroups", "canonicalize_batch", lambda a, k: len(_arg(a, k, 1, "batch")), None, None),
    ("matrixgroups", "quotient_project", None, None, None),
    ("matrixgroups", "reunitarize", None, None, None),
    ("matrixgroups", "log_map", None, None, None),
    ("matrixgroups", "descriptor_from_dict", None, None, None),
    ("matrixgroups", "matrix_to_pairs", None, None, None),
    ("matrixgroups", "matrix_from_pairs", None, None, None),
    ("connections", "holonomy_general", lambda a, k: len(_arg(a, k, 1, "word").letters), None, None),
    ("connections", "transport",
     lambda a, k: max(len(np.atleast_2d(_arg(a, k, 1, "polyline"))) - 1, 0), None, None),
    ("connections", "holonomy_smooth", None, None, None),
    ("connections", "interpolate_connection", None, None, None),
    ("connections", "generalized_from_dict", None, None, None),
    ("connections", "smooth_from_dict", None, None, None),
    ("cylindrical", "HaarMean.estimate", lambda a, k: _arg(a, k, 2, "samples"), None, None),
    ("cylindrical", "invariance_check", None, None, None),
    ("cylindrical", "cyl_from_dict", None, None, None),
    ("cylindrical", "holonomy_stack", None, None, None),
    ("spectra", "closure_membership", None, None, None),
    ("spectra", "_abelian_check",
     lambda a, k: (2 * _arg(a, k, 2, "bound") + 1) ** len(_arg(a, k, 0, "loops")), None,
     lambda out: out.checked),
    ("spectra", "tree_basis", None, None, None),
    ("spectra", "tree_decompose", None, None, None),
    ("spectra", "tree_reconstruct", None, None, None),
    ("spectra", "orbit_representative", None,
     lambda a, k: _group_tag(_arg(a, k, 0, "descriptor")), None),
    ("spectra", "approximation_experiment", None, None, None),
    ("spectra", "abelian_obstruction_witness", None, None, None),
    ("spectra", "ObstructionWitness.abelian_defect", None, None, None),
    ("spectra", "loop_assignment_from_dict", None, None, None),
]


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.result = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.ok = array("b")
        self.kinds = []         # job kind by job id
        self.job_id = -1        # spans outside any job get -1
        self.root = -1          # span of the running job; parent of spans in worker threads
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name, units=0.0):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.start)
            self.name.append(self._name_id(name))
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.units.append(units)
            self.result.append(0.0)
            self.ok.append(0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx, ok=True, result=0.0):
        self.end[idx] = time.perf_counter()
        self.ok[idx] = 1 if ok else 0
        self.result[idx] = result
        self._local.stack.pop()

    def begin_job(self, kind):
        """Open the root span of a job; its id is its index in ``kinds``."""
        self.job_id = len(self.kinds)
        self.kinds.append(kind)
        self.root = self.open("job")

    def end_job(self, ok):
        self.close(self.root, ok)
        self.root = self.job_id = -1

    # -- installing --------------------------------------------------------

    def _wrap(self, fn, name, units, tag, result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}[{tag(args, kwargs)}]" if tag else name
            idx = tracer.open(label, float(units(args, kwargs)) if units else 0.0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, ok=False)
                raise
            tracer.close(idx, True, float(result(out)) if result else 0.0)
            return out

        return traced

    def _wrap_parser(self, build):
        tracer = self

        @functools.wraps(build)
        def traced_build():
            idx = tracer.open("cli.parse")
            parser = build()
            tracer.close(idx)
            parse_args = parser.parse_args

            def traced_parse(*args, **kwargs):
                j = tracer.open("cli.parse")
                try:
                    return parse_args(*args, **kwargs)
                finally:
                    tracer.close(j)

            parser.parse_args = traced_parse
            return parser

        return traced_build

    def install(self):
        pkg = importlib.import_module("holonomy_lab")
        modules = {m: importlib.import_module(f"holonomy_lab.{m}") for m in LAYERS}
        namespaces = [pkg] + list(modules.values())
        for layer, attr, units, tag, result in TARGETS:
            mod = modules[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, f"{layer}.{attr}", units, tag, result))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, f"{layer}.{attr}", units, tag, result)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patched.append((ns, key, orig))
                        setattr(ns, key, wrapped)
        cli = modules["cli"]
        build = cli._build_parser
        self._patched.append((cli, "_build_parser", build))
        cli._build_parser = self._wrap_parser(build)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
            "result": np.frombuffer(self.result, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }


def self_times(parent, start, end):
    """Duration of each span minus the union of its children's intervals."""
    dur = end - start
    covered = np.zeros_like(dur)
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi, total = -1, 0.0, 0.0, 0.0
    for i in order:
        p = parent[i]
        s, e = max(start[i], start[p]), min(end[i], end[p])
        if p != cur:
            if cur >= 0:
                covered[cur] = total + (hi - lo)
            cur, lo, hi, total = p, s, e, 0.0
        elif s > hi:
            total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] = total + (hi - lo)
    return dur - covered
