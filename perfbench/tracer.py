"""Per-layer tracing of a finmon run, installed from outside the package.

Each public function of a layer is replaced, at the module attribute
where the program looks it up, by a wrapper that opens a span around
the call. Spans nest per thread. On exit a span adds its duration to
its parent's child time, so a layer's self time is its span time minus
the time covered by its child spans. Durations are CPU time of the
calling thread: with `--jobs 2` the worker threads take turns holding
the interpreter lock, and wall-clock spans would charge the wait for it
to whatever span happened to be open. Fine-grained spans (monad
operations, `mk_dist`, flows, value functions) are aggregated in memory
as (calls, total, self); coarse spans (config load, one check, report
building) are also kept whole as (name, start, end, parent, thread) and
written out at the end. Hash calls of `Dist` and `FnTable` are counted,
not timed, since they run inside dict lookups millions of times.

Nothing inside `src/finmon` changes: the wrappers are installed by
`child.py` before `finmon.cli.main` runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time

_cpu = time.thread_time
_wall = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "name")

    def __init__(self, name: str):
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.name = name


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._counters: dict[str, itertools.count] = {}
        self._sums = {"evals": 0, "enumerated_values": 0}

    # -- bookkeeping ------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def counter(self, name: str) -> itertools.count:
        # next() on itertools.count is atomic under the interpreter lock,
        # so counts stay exact when checks run on worker threads.
        return self._counters.setdefault(name, itertools.count())

    def _add(self, name: str, n: int) -> None:
        with self._lock:
            self._sums[name] += n

    def span(self, name: str, fn, keep: bool = False, after=None):
        """Wrap fn in a span called name; after(result) may post-process
        the result inside the span (used to consume generators)."""

        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            frame = [_cpu(), 0.0, name, _wall() if keep else 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(out)
                return out
            finally:
                end = _cpu()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if keep:
                    parent = stack[-1][2] if stack else None
                    st.spans.append((name, frame[3], _wall(), parent, st.name))

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import finmon.cli as cli
        import finmon.dp as dp
        import finmon.instances as instances
        import finmon.laws as laws
        import finmon.systems as systems
        import finmon.values as values

        span = self.span

        cli.load_config = span("cli.load_config", cli.load_config, keep=True)
        cli.build_report = span("cli.build_report", cli.build_report, keep=True)
        cli.render_json = span("cli.render_json", cli.render_json, keep=True)

        def count_evals(report):
            self._add("evals", report.checked)
            return report

        laws.check_law = span("laws.check_law", laws.check_law, keep=True,
                              after=count_evals)

        def count_values(out):
            self._add("enumerated_values", len(out))
            return out

        def drain(gen):
            items = list(gen)
            self._add("enumerated_values", len(items))
            return iter(items)

        for mod in (laws, systems, dp, instances):
            if hasattr(mod, "enumerate_carrier"):
                mod.enumerate_carrier = span(
                    "values.enumerate", mod.enumerate_carrier, after=count_values)
            if hasattr(mod, "enumerate_functions"):
                mod.enumerate_functions = span(
                    "values.enumerate", mod.enumerate_functions, after=drain)
        for mod in (instances, values):
            mod.mk_dist = span("values.mk_dist", mod.mk_dist)

        for cls, label in ((values.Dist, "values.dist_hash"),
                           (values.FnTable, "values.table_hash")):
            cls.__hash__ = self._counting_hash(cls.__hash__, self.counter(label))

        op_names = ("pure", "map", "join", "bind")
        orig_get_instance = cli.get_instance

        def traced_get_instance(*args, **kwargs):
            inst = orig_get_instance(*args, **kwargs)
            return dataclasses.replace(inst, **{
                op: span(f"instances.{op}", getattr(inst, op)) for op in op_names
            })

        cli.get_instance = traced_get_instance

        cli.run_system_check = span("systems.run_system_check",
                                    cli.run_system_check, keep=True)
        for fname in ("flow", "flow_mon_left", "flow_mon_right"):
            setattr(systems, fname, span("systems.flow", getattr(systems, fname)))
        systems.trj = span("systems.trj", systems.trj)

        cli.check_val_equiv = span("dp.check_val_equiv", cli.check_val_equiv,
                                   keep=True)
        dp.val = span("dp.val", dp.val)
        dp.rews = span("dp.rews", dp.rews)
        orig_get_measure = cli.get_measure

        def traced_get_measure(name):
            m = orig_get_measure(name)
            return dataclasses.replace(m, apply=span("dp.measure", m.apply))

        cli.get_measure = traced_get_measure

    @staticmethod
    def _counting_hash(orig, counter):
        def __hash__(self):
            next(counter)
            return orig(self)

        return __hash__

    # -- results ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            states = list(self._states)
        totals: dict[str, list] = {}
        for st in states:
            for name, agg in st.agg.items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += agg[i]
        doc = {
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(totals.items())},
            # next() returns how many times the counter was bumped
            "counters": {name: next(c) for name, c in sorted(self._counters.items())},
            **self._sums,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "thread": t}
                for st in states for (n, s, e, p, t) in st.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
