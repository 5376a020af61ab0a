"""Timing wrappers installed around the package's public functions.

The tracer patches every module attribute through which a traced function
is reached (``protocol``, ``adversary`` and ``harness`` import ``bell_core``
and ``protocol`` names directly, and the package re-exports them), records a
span per call and restores the originals on exit.  A span has a name, a
start, an end and a parent; self time is the span minus its children.
Aggregates (calls, total and self time per name) cover every call; raw spans
are kept only for the first ``span_cap`` calls, so memory stays bounded.
"""

from __future__ import annotations

import functools
import gc
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from qdialogue import bell_core
from qdialogue.adversary import AdversaryChannel
from qdialogue.bell_core import ALL_INDICES, TwoQubitState, bell_state, overlap

# (module, function) pairs timed as spans; names are "<module>.<function>"
FUNCTIONS = (
    ("bell_core", "apply_pauli"),
    ("bell_core", "bell_measure"),
    ("bell_core", "measure_computational"),
    ("bell_core", "random_code"),
    ("bell_core", "decode_bits"),
    ("protocol", "run_round_original"),
    ("protocol", "run_round_modified"),
    ("harness", "run_sessions"),
    ("harness", "summarize"),
    ("harness", "transcript_to_line"),
    ("harness", "write_transcripts"),
    ("harness", "parse_transcript_line"),
    ("cli", "main"),
)
GENERATORS = (("harness", "iter_rounds"),)
METHODS = (
    ("adversary", AdversaryChannel, "on_forward"),
    ("adversary", AdversaryChannel, "on_return"),
    ("adversary", AdversaryChannel, "observe_public"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS + GENERATORS) + tuple(
    f"{m}.{f}" for m, _, f in METHODS
)

# a Born sampling counts as deterministic when one outcome has probability 1
# up to the package's own normalization tolerance
_DETERMINISTIC = 1.0 - bell_core.NORM_ATOL


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "qdialogue" or name.startswith("qdialogue.")]


class Tracer:
    """Span recorder; install it with ``installed()`` around traced work."""

    def __init__(self, span_cap: int = 4096):
        self.span_cap = span_cap
        self.stats = {name: [0, 0, 0] for name in SPAN_NAMES}  # calls, total ns, self ns
        self.states_constructed = 0
        self.born_samplings = 0
        self.born_deterministic = 0
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self._stack: list[list] = []  # open spans: [child ns, id]
        self._next_id = 0
        self._gc_start = 0

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else None
        frame = [0, sid]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            agg = self.stats[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if len(self.spans) < self.span_cap:
                self.spans.append((sid, parent, name, start, end))

    def _exclude(self, ns: int) -> None:
        """Keep the tracer's own probing out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][0] += ns

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        self.gc_pause_ns += perf_counter_ns() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _generator(self, name, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        return functools.update_wrapper(wrapper, fn)

    def _bell_measure(self, name, fn):
        def wrapper(state, rng):
            t0 = perf_counter_ns()
            top = max(abs(overlap(bell_state(idx), state)) ** 2 for idx in ALL_INDICES)
            self.born_samplings += 1
            self.born_deterministic += top >= _DETERMINISTIC
            self._exclude(perf_counter_ns() - t0)
            return self.call(name, fn, (state, rng), {})

        return functools.update_wrapper(wrapper, fn)

    def _count_states(self, fn):
        def wrapper(state):
            self.states_constructed += 1
            return fn(state)

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Patch every reference to the traced functions; restore on exit."""
        modules = _package_modules()
        patched: list[tuple[object, str, object]] = []

        def patch_everywhere(original, replacement) -> None:
            hits = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, replacement)
                        hits += 1
            if not hits:
                raise RuntimeError(f"no module attribute refers to {original!r}")

        try:
            for mod_name, fn_name in FUNCTIONS:
                name = f"{mod_name}.{fn_name}"
                original = getattr(sys.modules[f"qdialogue.{mod_name}"], fn_name)
                make = self._bell_measure if name == "bell_core.bell_measure" else self._span
                patch_everywhere(original, make(name, original))
            for mod_name, fn_name in GENERATORS:
                original = getattr(sys.modules[f"qdialogue.{mod_name}"], fn_name)
                patch_everywhere(original, self._generator(f"{mod_name}.{fn_name}", original))
            for mod_name, cls, fn_name in METHODS:
                original = cls.__dict__[fn_name]
                patched.append((cls, fn_name, original))
                setattr(cls, fn_name, self._span(f"{mod_name}.{fn_name}", original))
            post_init = TwoQubitState.__dict__["__post_init__"]
            patched.append((TwoQubitState, "__post_init__", post_init))
            TwoQubitState.__post_init__ = self._count_states(post_init)
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def report(self) -> dict:
        return {
            "spans_by_name": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in self.stats.items()
            },
            "states_constructed": self.states_constructed,
            "born_samplings": self.born_samplings,
            "born_deterministic": self.born_deterministic,
            "gc_pause_ns": self.gc_pause_ns,
            "gc_gen2_collections": self.gc_gen2,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "sampled_spans": self.spans,
        }
