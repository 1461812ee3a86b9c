"""Layer tracing for the benchmark's traced run, done from outside ``src/``.

The tracer replaces public functions at the module attribute their caller
looks up (``theorems`` imports ``classify``, ``is_compatible`` and
``is_ideal_compact`` by name; ``search`` reaches the gates through the
``theorems`` module), so the package itself is never edited.  Hot
boundaries, about 10**7 gate calls in one certification, are aggregated
into a count and a time per name; coarse spans with a parent id are kept
around the search, check and star calls.  The search's row task,
``search._run_row``, is timed too, so that the scan loop's own time can be
told apart from the gate and conclusion calls it makes.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import idealtop.jsonio as jsonio_mod
import idealtop.search as search_mod
import idealtop.space as space_mod
import idealtop.star as star_mod
import idealtop.theorems as thm

FUNNEL_PAIR = (3, 3)  # the size pair whose gate funnel is reported

_clock = time.perf_counter


def write_spans(path: str, **runs: "Tracer") -> None:
    """Write each run's spans, keyed by run name, as one JSON file."""
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   **{name: tr.spans for name, tr in runs.items()}}, fh)


class NullTracer:
    """What the untraced run passes to a workload: no spans, no counters."""

    def span(self, name: str):
        return nullcontext()

    def new_op(self) -> None:
        pass


class Tracer:
    """Counters, samples and spans of one traced run."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.time: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._fresh = False

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  name, _clock(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = _clock()
            self._open.pop()

    def span_seconds(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    def new_op(self) -> None:
        """The next ``theorems.check`` call is the first on a new instance."""
        self._fresh = True

    # -- installing wrappers -------------------------------------------------

    def install(self, scan: bool) -> None:
        """Wrap the table-building layers; with ``scan``, also the search's
        gate and conclusion calls and its row task."""
        self._wrap(thm, "classify", "maps.classify")
        self._wrap(thm, "is_compatible", "star.is_compatible")
        self._wrap(star_mod, "is_compatible", "star.is_compatible")
        self._wrap(thm, "is_ideal_compact", "star.is_ideal_compact", keep=True)
        self._wrap(star_mod, "local_function", "star.local_function")
        self._wrap(star_mod, "star_topology", "star.star_topology")
        self._wrap(star_mod, "psi_topology", "star.psi_topology")
        self._wrap(space_mod, "generate_topology", "space.generate_topology")
        self._wrap(jsonio_mod, "parse_instance", "jsonio.parse_instance")
        self._patch(thm, "check", self._check_wrapper(thm.check))
        if scan:
            self._patch(thm, "hypotheses_pass",
                        self._gate_wrapper(thm.hypotheses_pass))
            self._patch(thm, "conclusions_violated",
                        self._conclusion_wrapper(thm.conclusions_violated))
            self._wrap(search_mod, "_run_row", "search.rows")

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _wrap(self, module, attr: str, metric: str, keep: bool = False) -> None:
        fn = getattr(module, attr)
        count, total = self.count, self.time
        samples = self.samples[metric] if keep else None

        def timed(*args, **kwargs):
            t = _clock()
            out = fn(*args, **kwargs)
            dt = _clock() - t
            count[metric] += 1
            total[metric] += dt
            if samples is not None:
                samples.append(dt)
            return out

        self._patch(module, attr, timed)

    def _check_wrapper(self, check):
        def traced_check(theorem_id, inst):
            with self.span("theorems.check"):
                t = _clock()
                verdict = check(theorem_id, inst)
                dt = _clock() - t
            key = "theorems.check_first" if self._fresh else "theorems.check_rest"
            self.samples[key].append(dt)
            self._fresh = False
            return verdict
        return traced_check

    def _gate_wrapper(self, gate):
        count, total = self.count, self.time
        names = {(tid, level): (f"theorems.l{level}_calls.{tid}",
                                f"theorems.l{level}_pass.{tid}")
                 for tid in thm.ALL_THEOREM_IDS for level in (1, 2)}
        n_dom, n_cod = FUNNEL_PAIR

        def hypotheses_pass(spec, ctx, dropped, level):
            t = _clock()
            ok = gate(spec, ctx, dropped, level)
            total["theorems.hypotheses"] += _clock() - t
            if ctx.sx.n == n_dom and ctx.sy.n == n_cod:
                calls, passed = names[spec.theorem_id, level]
                count[calls] += 1
                if ok:
                    count[passed] += 1
            return ok
        return hypotheses_pass

    def _conclusion_wrapper(self, conclusion):
        count, total = self.count, self.time

        def traced(spec, ctx):
            t = _clock()
            violated = conclusion(spec, ctx)
            total["theorems.conclusions"] += _clock() - t
            count["theorems.conclusion_calls"] += 1
            return violated
        return traced

    # -- results -----------------------------------------------------------

    def mean(self, metric: str, scale: float) -> float:
        calls = self.count[metric]
        return self.time[metric] / calls * scale if calls else 0.0


def median_or_zero(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0
