"""In-memory span tracing around the public functions of each icisim module.

The benchmark wraps the functions from its own files: every module that
binds a traced function (for example ``icisim.scenario.build_flow_matrix``
and ``icisim.experiments.generate``) gets the wrapper, so nested spans
appear without any change to the package.  Spans stay in memory and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import icisim
from icisim import cli, coverage, experiments, game, impact, power, scenario, traffic

MODULES = (icisim, traffic, coverage, power, impact, scenario, game, experiments, cli)

# (span name, defining module, attribute).  Every module in MODULES that
# binds the same function object is patched too.
TRACED = (
    ("traffic.build_flow_matrix", traffic, "build_flow_matrix"),
    ("traffic.network_from_matrix", traffic, "network_from_matrix"),
    ("coverage.build_coverage", coverage, "build_coverage"),
    ("coverage.coverage_from_lengths", coverage, "coverage_from_lengths"),
    ("power.build_assignment", power, "build_assignment"),
    ("impact.build_impact_model", impact, "build_impact_model"),
    ("scenario.generate", scenario, "generate"),
    ("scenario.dumps", scenario, "dumps"),
    ("scenario.loads", scenario, "loads"),
    ("game.stackelberg_equilibrium", game, "stackelberg_equilibrium"),
    ("game.solve_defender_lp", game, "solve_defender_lp"),
    ("game.attacker_best_response", game, "attacker_best_response"),
    ("game.evaluate_profile", game, "evaluate_profile"),
    ("game.equal_allocation", game, "equal_allocation"),
    ("experiments.run_experiment", experiments, "run_experiment"),
    ("experiments.emit", experiments, "emit"),
    ("experiments.pick_attack_source", experiments, "pick_attack_source"),
    ("cli.main", cli, "main"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: str
    info: Any = None


class Tracer:
    """Records spans and the computed counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._deferred: list[Callable[[], None]] = []

    def _parent(self) -> tuple[list[int], int | None]:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                return stack, stack[-1]
            # A pool worker's first span belongs to the span that is open
            # on the main thread, which waits for the pool.
            main = self._stacks.get(threading.main_thread().ident, [])
            return stack, (main[-1] if main else None)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        on_result: Callable[[Any, tuple], None] | None = None,
        keep_arg: bool = False,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack, parent = self._parent()
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, label, start, end, parent, self.op,
                            threading.current_thread().name,
                            args[0] if keep_arg and args else None)
                with self._lock:
                    self.spans.append(span)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def count_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def defer(self, job: Callable[[], None]) -> None:
        """Queue work (such as a residual) to run after the op, untimed."""
        with self._lock:
            self._deferred.append(job)

    def run_deferred(self) -> None:
        with self._lock:
            jobs, self._deferred = self._deferred, []
        for job in jobs:
            job()


def _level_name(level, *args, **kwargs) -> str:
    return f"game.stackelberg_equilibrium.{level.value}"


def _cli_name(argv=None, *args, **kwargs) -> str:
    command = argv[0] if argv else "none"
    return f"cli.main.{command}"


class install:
    """Context manager that patches the traced functions and restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        t = self.tracer
        hooks = {
            "traffic.build_flow_matrix": self._network_bytes,
            "traffic.network_from_matrix": self._network_bytes,
            "impact.build_impact_model": lambda model, _a: t.count_max(
                "impact.z_bytes", 8 * model.z_vectors.size),
            # The file format is ASCII, so characters are bytes.
            "scenario.dumps": lambda text, _a: t.count_max("scenario.file_bytes", len(text)),
        }
        names = {
            "game.stackelberg_equilibrium": _level_name,
            "cli.main": _cli_name,
        }
        for span, module, attr in TRACED:
            original = getattr(module, attr)
            wrapped = t.wrap(original, names.get(span, span), hooks.get(span),
                             keep_arg=span == "scenario.generate")
            for mod in MODULES:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)
        # Replica generation as called from the experiment runners (and
        # their pool), nested around the scenario.generate span.
        self._set(experiments, "generate",
                  t.wrap(experiments.generate, "experiments.generate", keep_arg=True))

        prop = traffic.FlowNetwork.__dict__["null_vector"]
        inner = t.wrap(prop.func, "traffic.null_vector", self._null_residual)
        replacement = type(prop)(inner)
        replacement.__set_name__(traffic.FlowNetwork, "null_vector")
        self._set(traffic.FlowNetwork, "null_vector", replacement)
        return t

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _network_bytes(self, net, _args) -> None:
        self.tracer.count_max("traffic.dense_bytes", 8 * (net.Q.size + net.A.size))

    def _null_residual(self, v, args) -> None:
        A = args[0].A

        def residual() -> None:
            self.tracer.count_max("traffic.null_vector.residual",
                                  float(np.linalg.norm(A @ v, ord=np.inf)))

        self.tracer.defer(residual)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def span_metrics(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds per call and self seconds per call."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, list[float]] = {}
    for s in spans:
        busy = s.end - s.start
        own = busy - _covered(children.get(s.id, []), s.start, s.end)
        entry = totals.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += busy
        entry[2] += own
    return {
        name: {"calls": calls, "s": busy / calls, "self_s": own / calls}
        for name, (calls, busy, own) in sorted(totals.items())
    }
