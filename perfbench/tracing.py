"""Outside-in tracing of the wreathcells layers.

The package's modules import each other's functions by name
(``from .fock import canonical_basis``), so a wrapper only takes effect on the
module attribute that the caller looks up.  ``install`` replaces exactly those
attributes, and the arithmetic operators on their classes, and restores them
on exit.  Only the traced run installs anything; the untraced run measures
the unmodified code.

Two kinds of wrapper exist.  A *span* times a call and records how much of
that time was spent in spans opened inside it, which gives the layer's self
time.  A *counter* only counts calls: it wraps hot functions (one call per
tableau, per Laurent product), where timing each call would cost more than
the call itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Span times and call counts, kept in memory until the process reports.

    ``clock`` times the spans; the child passes one that leaves out the time
    its host-speed probes take.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._open: list[float] = []  # time covered by child spans, per open span

    def span(self, name, fn, inspect=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                rec = self.spans.setdefault(name, [0.0, 0.0, 0])
                rec[0] += elapsed
                rec[1] += elapsed - inner
                rec[2] += 1
            if inspect is not None:
                inspect(self, result)
            return result

        return wrapper

    def counter(self, name, fn, inspect=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if inspect is not None:
                inspect(self, result)
            return result

        return wrapper

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks": self.peaks}


def _jm_cells(tracer, decomposition):
    tracer.counts["jucys_murphy.cells"] += len(decomposition.cells)


def _symbols(tracer, component):
    tracer.counts["fock.symbols"] += sum(len(layer) for layer in component.by_height)


def _crystal_useful(tracer, child):
    if child is not None:
        tracer.counts["fock.crystal_f.useful"] += 1


def _support(tracer, basis):
    tracer.peak("fock.max_support", max((len(v.terms) for v in basis.values()), default=0))


# (module, attribute, wrapper kind, metric name, inspector).  Each entry is a
# name a caller looks up at call time, so wrapping it sees every such call.
_FUNCTIONS = [
    ("cli", "cli_main", "span", "cli.cli_main", None),
    ("cli", "check_conjecture", "span", "conjecture.check_conjecture", None),
    ("cli", "jm_cellular_characters", "span", "jucys_murphy.jm_cellular_characters", _jm_cells),
    ("cli", "canonical_basis", "span", "fock.canonical_basis", _support),
    ("cli", "enumerate_standard_symbols", "span", "fock.enumerate_standard_symbols", _symbols),
    ("cli", "lm_constructible", "span", "fock.lm_constructible", None),
    ("cli", "cm_cells_n2", "span", "gd12.cm_cells_n2", None),
    ("cli", "verify_gaudin_eigensystem", "span", "gd12.verify_gaudin_eigensystem", None),
    ("conjecture", "jm_cellular_characters", "span", "jucys_murphy.jm_cellular_characters", _jm_cells),
    ("conjecture", "lm_constructible", "span", "fock.lm_constructible", None),
    ("conjecture", "cm_cells_n2", "span", "gd12.cm_cells_n2", None),
    ("conjecture", "cm_cells_n2_family", "span", "gd12.cm_cells_n2", None),
    ("jucys_murphy", "tableau_spectrum", "counter", "jucys_murphy.tableau_spectrum.calls", None),
    ("jucys_murphy", "standard_tableaux", "span", "combinatorics.standard_tableaux", None),
    ("jucys_murphy", "enumerate_dpartitions", "span", "combinatorics.enumerate_dpartitions", None),
    ("fock", "canonical_basis", "span", "fock.canonical_basis", _support),
    ("fock", "enumerate_standard_symbols", "span", "fock.enumerate_standard_symbols", _symbols),
    ("fock", "intermediate_A", "span", "fock.intermediate_A", None),
    ("fock", "crystal_f", "counter", "fock.crystal_f.calls", _crystal_useful),
    ("fock", "divided_power_f", "counter", "fock.divided_power_f.calls", None),
    ("fock", "f_action", "counter", "fock.f_action.calls", None),
    ("fock", "bar_symmetric_head", "counter", "fock.correction.steps", None),
    ("gd12", "verify_gaudin_eigensystem", "span", "gd12.verify_gaudin_eigensystem", None),
    ("gd12", "gaudin_matrices", "span", "gd12.gaudin_matrices", None),
    ("gd12", "verify_frac_identity", "span", "gd12.verify_frac_identity", None),
]

# (module, class, method, counter name): operators are looked up on the class.
_METHODS = [
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul.calls"),
    ("laurent", "LaurentPoly", "__rmul__", "laurent.mul.calls"),
    ("laurent", "LaurentPoly", "__add__", "laurent.add.calls"),
    ("laurent", "LaurentPoly", "__radd__", "laurent.add.calls"),
    ("laurent", "LaurentPoly", "exact_div", "laurent.exact_div.calls"),
    ("gd12", "XYPoly", "__mul__", "gd12.xypoly_mul.calls"),
    ("gd12", "Cyclo", "__mul__", "gd12.cyclo_mul.calls"),
]


@contextmanager
def install(tracer: Tracer, sweep_module=None):
    """Wrap the traced names for the duration of the block.

    ``sweep_module`` is the loaded sweep script, whose ``check_conjecture`` was
    bound by ``from wreathcells import check_conjecture`` at load time.
    """
    import importlib

    patched = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for module, attr, kind, name, inspect in _FUNCTIONS:
        owner = importlib.import_module(f"wreathcells.{module}")
        make = tracer.span if kind == "span" else tracer.counter
        patch(owner, attr, make(name, getattr(owner, attr), inspect))
    for module, cls_name, attr, name in _METHODS:
        cls = getattr(importlib.import_module(f"wreathcells.{module}"), cls_name)
        patch(cls, attr, tracer.counter(name, cls.__dict__[attr]))
    if sweep_module is not None:
        patch(
            sweep_module,
            "check_conjecture",
            tracer.span("conjecture.check_conjecture", sweep_module.check_conjecture),
        )
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
