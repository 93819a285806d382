"""Tracing from outside the package: wrappers around its public functions.

:func:`install` patches each traced function everywhere the package can
reach it: the module attribute, every by-name alias another package module
imported, and the named methods on ``QSeries``, ``Mat2Z`` and ``GenWord``.
Three kinds of wrapper share one stack of open frames, so self time (a
span's duration minus the time its traced children cover) is exact for all:

* span: records name, start, end, parent span, op id and one integer
  argument (an order, a radius) in memory; :meth:`Tracer.dump` writes them
  out when the run ends;
* timed: calls, total and self time only, for functions called about 10^5
  times a run or more (the float evaluators, ``GenWord.evaluate``);
* counter: calls only, for the hottest functions (``mobius``,
  ``Mat2Z.__mul__``), where even a clock read would distort the run.

The four ``lru_cache`` tables of ``analytic`` are rebuilt with the same
policy around a timed builder, so a hit costs what it did and a miss is
timed as ``analytic.tables``.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("qseries", "numtheory", "forms", "modgroup", "analytic", "report", "cli")

FORMS_VERIFIERS = (
    "verify_jacobi", "verify_lagrange", "verify_full_jacobi", "verify_ramanujan_ode",
    "verify_psi_triple", "verify_sigma_lambert", "verify_final_proportionality",
)
EVALUATORS = ("theta_eval", "L_eval", "M_eval", "g_eval", "h_eval")
TABLES = ("_sigma_np", "_sigma3_np", "_psi_np", "_phi_np")


def _first_arg(args, result):
    return int(args[0])


def _radius(args, result):
    return args[1].lattice_radius if len(args) > 1 else 3000


def _out_order(args, result):
    return len(result) - 1 if hasattr(result, "coeffs") else -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_arg = array("q")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.sums: defaultdict = defaultdict(float)
        self.maxes: defaultdict = defaultdict(float)
        self.repeats: Counter = Counter()
        self._seen: defaultdict = defaultdict(set)
        # open frames: [span index or -1, time covered by traced children]
        self._stack: list[list] = [[-1, 0.0]]
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxes[key] = max(self.maxes[key], value)

    # ---------------------------------------------------------- wrappers

    def span(self, name, fn, arg=None, repeat=False, before=None, after=None):
        nid = self._id(name)
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.sp_start)
            self.sp_name.append(nid)
            self.sp_parent.append(stack[-1][0])
            self.sp_op.append(self.op)
            self.sp_arg.append(0)
            self.sp_end.append(0.0)
            token = before(args) if before else None
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.sp_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.sp_end[idx] = t1
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                stack[-1][1] += dur
            if arg is not None:
                self.sp_arg[idx] = value = arg(args, result)
                if repeat:
                    seen = self._seen[name]
                    if value in seen:
                        self.repeats[name] += 1
                    seen.add(value)
            if after:
                after(token, args, result)
            return result

        return wrapper

    def timed(self, name, fn):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                stack[-1][1] += dur

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- results

    def durations(self, name: str, arg: int | None = None, under: str | None = None):
        """(op id, duration) of the spans called `name`, optionally only those
        with that argument and with a span called `under` among their ancestors."""
        nid = self._ids.get(name)
        uid = self._ids.get(under) if under else None
        out = []
        for i, n in enumerate(self.sp_name):
            if n != nid or (arg is not None and self.sp_arg[i] != arg):
                continue
            if under is not None:
                p = self.sp_parent[i]
                while p >= 0 and self.sp_name[p] != uid:
                    p = self.sp_parent[p]
                if p < 0:
                    continue
            out.append((self.sp_op[i], self.sp_end[i] - self.sp_start[i]))
        return out

    def raw(self) -> dict:
        """Additive totals (and maxima, keyed `*.max`) to merge across processes."""
        out: dict = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            if name in self.total:
                out[f"{name}.total_s"] = self.total[name]
                out[f"{name}.self_s"] = self.self_time[name]
        for name, n in self.repeats.items():
            out[f"{name}.repeats"] = n
        out.update(self.sums)
        for key, value in self.maxes.items():
            out[f"{key}.max"] = value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "parent", "op", "arg", "start", "end"],
                "spans": [list(col) for col in (self.sp_name, self.sp_parent, self.sp_op,
                                                self.sp_arg, self.sp_start, self.sp_end)],
            }, fh)


def _patch_everywhere(pkg_modules, orig, wrapper) -> int:
    hits = 0
    for mod in pkg_modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer):
    """Import the package, wrap its traced functions and return its modules."""
    import importlib

    mods = {name: importlib.import_module(f"foursquares.{name}") for name in MODULES}
    pkg_modules = [importlib.import_module("foursquares"), *mods.values()]
    qs, nt, forms, mg, an = (mods[m] for m in ("qseries", "numtheory", "forms", "modgroup", "analytic"))

    def function(module, attr, wrapper_of):
        orig = getattr(module, attr)
        if not _patch_everywhere(pkg_modules, orig, wrapper_of(orig)):
            raise RuntimeError(f"could not patch {module.__name__}.{attr}")

    def method(cls, attr, wrapper):
        setattr(cls, attr, wrapper(getattr(cls, attr)))

    T = tracer
    method(qs.QSeries, "__mul__",
           lambda f: T.span("qseries.mul", f, arg=_out_order,
                            after=lambda _t, a, r: T.add("qseries.mul.out_coeffs", len(r))
                            if hasattr(r, "coeffs") else None))
    method(qs.QSeries, "__pow__", lambda f: T.span("qseries.pow", f))
    method(qs.QSeries, "__init__", lambda f: T.span("qseries.init", f))
    function(qs, "exp0", lambda f: T.span("qseries.exp0", f))
    function(qs, "format_golden", lambda f: T.span("qseries.golden_io", f))
    function(qs, "parse_golden", lambda f: T.span("qseries.golden_io", f))

    for name in ("sigma_table", "sigma3_table"):
        function(nt, name, lambda f, n=name: T.span(f"numtheory.{n}", f, arg=_first_arg, repeat=True))
    for name in ("partitions_table", "r4_bruteforce", "jacobi_count"):
        function(nt, name, lambda f, n=name: T.span(f"numtheory.{n}", f, arg=_first_arg))

    function(forms, "theta4", lambda f: T.span("forms.theta4", f, arg=_first_arg, repeat=True))
    for name in ("psi_by_recursion", "psi_by_sigma3_recursion", "phi_by_recursion",
                 "psi_by_exp", "psi_by_partition_square", *FORMS_VERIFIERS):
        function(forms, name, lambda f, n=name: T.span(f"forms.{n}", f, arg=_first_arg))

    for name in EVALUATORS:
        function(an, name, lambda f, n=name: T.timed(f"analytic.{n}", f))
    for name in ("check_ode_solution", "check_weight1_invariance"):
        function(an, name, lambda f: T.span("analytic.fd_checks", f))
    function(an, "G4_lattice", lambda f: T.span("analytic.G4_lattice", f, arg=_radius))
    function(an, "_row_sum_left", lambda f: T.span("analytic.row_sum", f))
    function(an, "check_cusp_boundedness", lambda f: T.span("analytic.cusp", f))
    for name in TABLES:
        cached = getattr(an, name)
        if cached.cache_info().currsize:
            raise RuntimeError(f"analytic.{name} was filled before tracing started")
        table = functools.lru_cache(maxsize=None)(T.timed("analytic.tables", cached.__wrapped__))
        _patch_everywhere(pkg_modules, cached, table)

    def reduce_after(steps_before, args, result):
        steps = T.calls["modgroup.mobius"] - steps_before
        letters = len(result[1])
        T.add("modgroup.reduce.steps", steps)
        T.peak("modgroup.reduce.steps", steps)
        T.add("modgroup.reduce.word_letters", letters)
        T.peak("modgroup.reduce.word_letters", letters)

    function(mg, "reduce_to_fundamental",
             lambda f: T.span("modgroup.reduce_to_fundamental", f,
                              before=lambda a: T.calls["modgroup.mobius"], after=reduce_after))
    function(mg, "decompose",
             lambda f: T.span("modgroup.decompose", f,
                              after=lambda _t, a, r: T.add("modgroup.decompose.word_letters", len(r))))
    method(mg.GenWord, "evaluate", lambda f: T.timed("modgroup.GenWord.evaluate", f))
    method(mg.Mat2Z, "__mul__", lambda f: T.counter("modgroup.Mat2Z.mul", f))
    function(mg, "mobius", lambda f: T.counter("modgroup.mobius", f))

    function(mods["cli"], "run", lambda f: T.span("cli.run", f))
    return mods


def table_info(mods) -> dict:
    """Hits and misses of the analytic tables, summed over the four caches."""
    infos = [getattr(mods["analytic"], name).cache_info() for name in TABLES]
    return {"analytic.tables.hits": sum(i.hits for i in infos),
            "analytic.tables.misses": sum(i.misses for i in infos)}


# ROADMAP open item 1 timed these calls on a 2-core machine with
# Python 3.11.7; the traced run reports the same calls where a workload
# makes them.  (label, seconds, span name, argument, ancestor span)
ROADMAP_CASES = (
    ("phi_by_recursion(300)", 0.49, "forms.phi_by_recursion", 300, None),
    ("L*L at order 1000", 1.7, "qseries.mul", 1000, "forms.verify_ramanujan_ode"),
    ("G4_lattice at R = 3000", 0.51, "analytic.G4_lattice", 3000, None),
    ("check_cusp_boundedness", 0.11, "analytic.cusp", None, None),
)


def roadmap_durations(tracer: Tracer) -> dict:
    """Per case, the durations of the matching spans.  With an ancestor
    given, the longest match in each op counts: under the ODE verifier the
    order-1000 products are L*L and the scalar 12 * qderiv(L)."""
    out = {}
    for label, _, name, arg, under in ROADMAP_CASES:
        pairs = tracer.durations(name, arg, under)
        if under is None:
            out[label] = [d for _, d in pairs]
        else:
            longest: dict = {}
            for op, d in pairs:
                longest[op] = max(d, longest.get(op, 0.0))
            out[label] = list(longest.values())
    return out
