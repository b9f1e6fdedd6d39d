"""Span tracer that times calls into a program's public functions from outside.

The tracer replaces a module attribute, or a class attribute, with a wrapper
that records one span per call.  Every caller that looks the name up at call
time then goes through the wrapper; the program itself is not edited.

Spans are aggregated in memory per name (calls, total time, time spent in
child spans), so a long run costs constant memory; the first spans of a run
are also kept verbatim as a sample.  A name that no longer exists is
recorded in ``absent`` instead of raising, so the benchmark keeps working
when a refactor removes or renames a wrapped function.
"""

import importlib
import time


class Tracer:
    def __init__(self, sample_cap: int = 5000):
        # name -> [calls, total_ns, children_ns]
        self.stats = {}
        self.absent = []
        # (name, parent name, start_ns, end_ns) of the first sample_cap spans
        self.sample = []
        self._cap = sample_cap
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        sample = self.sample
        cap = self._cap
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(sample) < cap:
                    sample.append((name, stack[-1][0] if stack else None, start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self, module: str, path: str, name: str) -> bool:
        """Wrap ``module.path`` (``path`` may be ``Class.method``) as span ``name``.

        Returns False, and records ``name`` as absent, when the module or any
        part of the path does not exist.
        """
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            self.stats.setdefault(name, [0, 0, 0])
            return False
        setattr(owner, attr, self.wrap(name, original))
        self._patched.append((owner, attr, original))
        return True

    def install_all(self, table) -> None:
        """``install`` every (module, path, name) of ``table``."""
        for module, path, name in table:
            self.install(module, path, name)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        """Total time of ``name`` minus the time of its direct child spans."""
        calls, total, children = self.stats.get(name, [0, 0, 0])
        return total - children
