"""Host-time spans around calls into the program's layers.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
package with timing wrappers for the traced segments of a ``--trace 1``
run and puts the originals back afterwards; the program itself carries no
benchmark code.  Each span records its total time and its self time (total
minus the time of spans nested inside it on the same thread), so the layer
times of one operation add up without double counting.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Accumulates per-span host time, call counts and free-form counters."""

    def __init__(self) -> None:
        self.local = threading.local()
        self._lock = threading.Lock()
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, func, after=None):
        """``func`` timed as span ``name``; ``after(args, result)`` runs
        once the span has closed (for counters derived from the call)."""
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.total_ns[name] += elapsed
                    tracer.self_ns[name] += elapsed - nested
                    tracer.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation ----------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, after=None,
                     around=None) -> None:
        """Wrap ``cls.attr`` (a plain function defined on the class).

        ``around(original)``, when given, returns the function to time in
        place of the original (to set up per-call context around it).
        """
        original = cls.__dict__[attr]
        timed = around(original) if around is not None else original
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, timed, after))

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def ms(self, name: str, per: float, self_time: bool = False) -> float:
        """Milliseconds spent in span ``name`` per operation."""
        source = self.self_ns if self_time else self.total_ns
        return source.get(name, 0) / 1e6 / per if per else 0.0
