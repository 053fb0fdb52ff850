"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each package module and rebinds
every module attribute that holds one of them (``neg_reciprocal``, say, is
bound in ``ratfun``, ``inverse`` and ``interior``), so calls between
modules go through the wrappers too.  A wrapped call records a span: name,
start, end, parent span, op id and the exception type it ended with.  Hot
leaves get a call counter only.  Self time is computed afterwards from the
spans.  Nothing in the library is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("forward", "ratfun", "inverse", "interior", "evolution", "serial", "measures")

# called thousands of times per op: a span each would swamp the timings;
# the small measures module is only counted too
COUNT_ONLY = {
    "forward.sign_changes", "forward.q_values", "forward.shoot_plus",
    "forward.shoot_minus", "ratfun.polyval", "ratfun.eval_scale",
    "ratfun.trim", "ratfun.coeffs", "ratfun.degree", "serial.fmt_float",
}

NAME, START, END, PARENT, OP, EXC = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _span(self, name, fn, label=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label(args) if label else name, clock(), 0.0,
                   stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        counts = self.counts
        if name == "cli.main":
            return self._span(name, fn, label=lambda a: f"cli.{a[0][0]}")
        if name.startswith("serial.dumps_"):
            return self._span(name, fn, on_result=lambda s: counts.update({"serial.bytes": len(s)}))
        if name == "interior.enumerate_solutions":
            def tally(fam):
                counts["interior.branches"] += len(fam.measures) + len(fam.errors)
                counts["interior.branches_ok"] += len(fam.measures)
            return self._span(name, fn, on_result=tally)
        if name in COUNT_ONLY or name.startswith("measures."):
            return self._counter(name, fn)
        return self._span(name, fn)

    def install(self, pkg_name: str):
        """Wrap every public function and rebind each module name holding it."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg_name}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        cli = sys.modules[f"{pkg_name}.cli"]
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != pkg_name and not mod_name.startswith(pkg_name + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    setattr(mod, attr, w)
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # ----------------------------------------------------------- metrics

    def per_layer(self, ops: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` attempted ops, as (value, unit).

        ``.calls`` are calls per op; ``.ms`` and ``.self_ms`` are inclusive
        and self milliseconds per call, multiplied by ``scale``.
        """
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += dur[i]
                children[s[PARENT]].append(i)
        calls, incl, self_t = Counter(), Counter(), Counter()
        for i, s in enumerate(spans):
            calls[s[NAME]] += 1
            incl[s[NAME]] += dur[i]
            self_t[s[NAME]] += dur[i] - child_time[i]
        c = self.counts

        def ids(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        def below(i, outer):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != outer:
                p = spans[p][PARENT]
            return p >= 0

        def nested_ms(outer, inner):
            return 1e3 * scale * sum(dur[i] for i in ids(inner) if below(i, outer))

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def per_op(name, count):
            out[name] = (ratio(count, ops), "count")

        def ms(name, total_s, per):
            out[name] = (ratio(1e3 * scale * total_s, per), "ms")

        for fn in ("forward.eigenvalues", "forward.spectral_data", "ratfun.neg_reciprocal",
                   "ratfun.cf_expand", "inverse.measure_from_spectral_data"):
            per_op(f"{fn}.calls", calls[fn])
            ms(f"{fn}.self_ms", self_t[fn], calls[fn])
        for fn in ("forward.sign_changes", "forward.q_values", "forward.shoot_plus",
                   "measures.validate"):
            per_op(f"{fn}.calls", c[fn])
        for fn in ("forward.eigenfunction_zero_count", "inverse.measure_from_weyl",
                   "evolution.measure_at"):
            per_op(f"{fn}.calls", calls[fn])
        for fn in ("forward.eigenfunction_zero_count", "forward.interior_data",
                   "inverse.measure_from_weyl", "interior.enumerate_solutions",
                   "evolution.measure_at", "evolution.collision_scan",
                   "cli.forward", "cli.inverse", "cli.interior", "cli.evolve",
                   "serial.dumps_json", "serial.dumps_csv"):
            ms(f"{fn}.ms", incl[fn], calls[fn])

        msd = ids("inverse.measure_from_spectral_data")
        # every reference point tried starts with a herglotz call made directly
        # from measure_from_spectral_data (through its private _attempt)
        attempts = sum(1 for i in msd for j in children[i] if spans[j][NAME] == "ratfun.herglotz")
        accepted = sum(1 for i in msd if spans[i][EXC] is None)
        verify = nested_ms("inverse.measure_from_spectral_data", "forward.spectral_data")
        out["inverse.attempts_per_call"] = (ratio(attempts, len(msd)), "count")
        out["inverse.accept_ratio"] = (ratio(accepted, attempts), "ratio")
        out["inverse.verify_ms"] = (ratio(verify, len(msd)), "ms")
        out["inverse.verify_share"] = (
            ratio(verify, 1e3 * scale * incl["inverse.measure_from_spectral_data"]), "ratio")

        n_enum = calls["interior.enumerate_solutions"]
        out["interior.branches_tried"] = (ratio(c["interior.branches"], n_enum), "count")
        out["interior.branch_ok_ratio"] = (
            ratio(c["interior.branches_ok"], c["interior.branches"]), "ratio")
        out["interior.verify_ms"] = (
            ratio(nested_ms("interior.enumerate_solutions", "forward.interior_data"), n_enum), "ms")

        measure_at = ids("evolution.measure_at")
        misses = sum(
            1 for i in measure_at
            if any(spans[j][NAME] == "inverse.measure_from_spectral_data" for j in children[i])
        )
        out["evolution.cache_hit_ratio"] = (ratio(len(measure_at) - misses, len(measure_at)), "ratio")
        sol = ids("evolution.solution_at")
        trace = sum(
            dur[i] - sum(dur[j] for j in children[i] if spans[j][NAME] == "evolution.measure_at")
            for i in sol
        )
        ms("evolution.trace_ms", trace, len(sol))
        out["serial.bytes_out"] = (ratio(c["serial.bytes"], ops), "B")
        return out
