"""In-memory spans around the public calls of stepspectra, recorded from outside.

The package's source is not touched: for the length of a traced pass its
public functions are replaced, in every module that holds a reference to
them, by wrappers that record a span (name, start, end, parent) or, for calls
made thousands of times per operation, add one call and its time to a tally
kept on the enclosing span.  Leaving the ``instrumented`` block restores the
originals, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import sys


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tallies", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.tallies = {}  # name -> [calls, seconds]
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "tallies": self.tallies,
                "attrs": self.attrs}


class Tracer:
    """Spans and tallies, timed on ``now`` (the benchmark's clock)."""

    def __init__(self, now):
        self.now = now
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, self.now())
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.now()
            self._stack.pop()

    def tally(self, name: str, seconds: float) -> None:
        if not self._stack:
            return
        entry = self._stack[-1].tallies.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def tallied(self, name: str, fn):
        """``fn`` wrapped so that each call adds to the enclosing span's tally."""
        now = self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tally(name, now() - t0)

        return wrapper


def _replace_everywhere(package: str, original, replacement, undo: list) -> None:
    """Point every module-level reference to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextlib.contextmanager
def instrumented(tracer: Tracer, ss):
    """Wrap the layer boundaries of the imported package ``ss`` for one pass."""
    undo = []
    pkg = ss.__name__

    def spanned(name, fn, on_result=None, wrap_args=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result)
                return result

        return wrapper

    def locate_args(args):
        # the handle passed to locate_zeros: every evaluation, as it sees them
        return (tracer.tallied("spectral_count.handle", args[0]),) + tuple(args[1:])

    def locate_result(sp, report):
        sp.attrs["zeros"] = sum(z.multiplicity for z in report.zeros)

    def census_result(sp, cen):
        sp.attrs["branches"] = len(cen.results)
        sp.attrs["unconverged"] = sum(1 for r in cen.results if not r.converged)
        sp.attrs["nan_energies"] = sum(1 for r in cen.results if cmath.isnan(r.energy))

    def traced_make_handle(make_handle):
        @functools.wraps(make_handle)
        def wrapper(pot):
            return tracer.tallied("schrodinger_1d.global_secular", make_handle(pot))

        return wrapper

    # (module, function, wrapper factory); a function the package no longer
    # has is skipped, and the metrics built on it read 0
    boundaries = [
        (ss.schrodinger_1d, "make_secular_handle", traced_make_handle),
        (ss.step_model, "radial_secular",
         lambda fn: tracer.tallied("step_model.radial_secular", fn)),
        (ss.spectral_count, "locate_zeros",
         lambda fn: spanned("spectral_count.locate_zeros", fn, locate_result, locate_args)),
        (ss.spectral_count, "imag_step_census",
         lambda fn: spanned("spectral_count.imag_step_census", fn, census_result)),
        (ss.spectral_count, "imag_step_seed",
         lambda fn: tracer.tallied("special_functions.lambert", fn)),
        (ss.sparse_builder, "choose_L", lambda fn: spanned("sparse_builder.choose_L", fn)),
        (ss.sparse_builder, "assemble_sparse",
         lambda fn: spanned("sparse_builder.assemble_sparse", fn)),
        (ss.step_model, "construct_bump", lambda fn: spanned("step_model.construct_bump", fn)),
    ]
    replacements = [(getattr(module, name), wrap(getattr(module, name)))
                    for module, name, wrap in boundaries if hasattr(module, name)]
    try:
        for original, replacement in replacements:
            _replace_everywhere(pkg, original, replacement, undo)
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
