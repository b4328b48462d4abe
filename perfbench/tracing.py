"""Spans around the public functions of the tmadfrc modules, recorded from outside.

The package is not modified: a :class:`Tracer` rebinds every module attribute
that holds a traced function to a wrapper.  Every binding is rebound, not only
the defining one, because ``from .tma import scramble_symbols`` gives scene,
coarse, refine and comms a name of their own.  Internal calls that go through
a module global (``idft`` calling ``dft``, ``scramble_symbols`` reaching
``harmonic_coefficients``) are traced for the same reason.

Spans live in memory as tuples ``(name, start, end, parent, op, note)``;
``parent`` is the index of the enclosing span (-1 for a root) and ``note`` an
optional value a wrapper extracted from the call's result.
"""

import contextlib
import functools
import json
import time

_clock = time.perf_counter


class Tracer:
    """Records spans for ``targets`` while :meth:`active` has them rebound.

    Args:
        modules: every module whose namespace may hold a traced function.
        targets: ``(span_name, function, note)`` triples; ``note`` maps the
            call's result to a small value kept on the span, or is None.
    """

    def __init__(self, modules, targets):
        self.spans = []
        self._stack = []
        self.op = None
        self._bindings = []
        for name, function, note in targets:
            wrapper = self._wrap(name, function, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        self._bindings.append((module, attr, function, wrapper))

    def _wrap(self, name, function, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.op, note(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Rebind the traced names to their wrappers for the ``with`` body."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, function, _ in self._bindings:
                setattr(module, attr, function)

    @contextlib.contextmanager
    def root(self, name, op=None):
        """A root span opened by the benchmark itself, e.g. one operation."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, op, None)
            self.op = None

    def self_times(self):
        """Per root span name: ``(roots, layers)``.

        ``roots`` lists the durations of the root spans of that name;
        ``layers`` maps each span name under them to
        ``{"self_s", "calls", "notes"}``, where self time is the span's
        duration minus the time its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for index, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent < 0:
                root_of[index] = index
            else:
                root_of[index] = root_of[parent]
                covered[parent] += end - start
        summary = {}
        for index, (name, start, end, parent, _, note) in enumerate(self.spans):
            root_name = self.spans[root_of[index]][0]
            roots, layers = summary.setdefault(root_name, ([], {}))
            if parent < 0:
                roots.append(end - start)
                continue
            layer = layers.setdefault(name, {"self_s": 0.0, "calls": 0, "notes": []})
            layer["self_s"] += (end - start) - covered[index]
            layer["calls"] += 1
            if note is not None:
                layer["notes"].append(note)
        return summary

    def write(self, path):
        """Write every span as one JSON line; ``parent`` is a line index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                )
                fh.write("\n")
