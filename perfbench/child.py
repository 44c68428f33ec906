"""Run a list of ops in this fresh interpreter and report one JSON line.

Reads ``{"ops": [...], "trace": bool, "setup_only": bool, "t0_ns": int}`` on
stdin.  ``t0_ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so the reported set-up time covers interpreter start,
importing wreathcells and building the ops' inputs.  Each op's time covers
only the op itself.  Output is captured and reported as its SHA-256, never
printed.  The report also carries the host-speed probe readings taken around
every op and on a timer while each op runs, which the parent uses to
normalise the op times.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_ROUNDS = 600
PROBES_PER_SLOT = 5
PROBE_INTERVAL_S = 0.1


def probe_s() -> float:
    """Time a fixed stdlib loop, a probe of the host's current speed.

    Fraction sums and dict updates, the package's own kind of work; the loop
    never touches wreathcells, so no change to the package can move it.  The
    child takes PROBES_PER_SLOT readings before and after every op, and one
    every PROBE_INTERVAL_S while an op runs (see ``Sampler``).
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, PROBE_ROUNDS):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 501, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class Sampler:
    """Probe readings taken on a timer while an op runs.

    The host's speed can change within one op, so readings around the op do
    not tell how fast the op ran.  A SIGALRM every PROBE_INTERVAL_S runs one
    probe between two bytecodes of the op.  The readings are evenly spaced in
    wall time, so their mean speed times the op's time estimates the op's work
    in probe units.  Time spent in probes is kept out of ``clock``, which
    times the ops and the trace spans.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside a slow probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the op's garbage is collected in the op's own time
        try:
            self.readings.append(probe_s())
        finally:
            if enabled:
                gc.enable()
            self.stolen += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def during_op(self):
        self.readings = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


def _gaudin_inputs(max_d, scale):
    """The acceptance battery's (d, i, j, params) points, c0 and ksharp scaled."""
    from wreathcells.jucys_murphy import CMParams

    points = []
    for d in range(2, max_d + 1):
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                if d % 2 == 0:
                    ks = [Fraction(0)] * d
                    points.append((d, i, j, CMParams.from_ksharp(d, scale, ks)))
                for sign in (1, -1):
                    ks = [Fraction(10 * (t + 1) * scale) for t in range(d)]
                    ks[i - 1] = Fraction(sign * scale)
                    ks[j - 1] = Fraction(0)
                    points.append((d, i, j, CMParams.from_ksharp(d, scale, ks)))
    return points


def _render_basis(basis) -> str:
    """The canonical basis in the layout of ``canonical-basis --format json``."""
    from wreathcells.fock import symbol_sort_key

    ordered = sorted(basis, key=lambda s: (s.height, symbol_sort_key(s)))
    return json.dumps(
        [
            {
                "symbol": sym.text(),
                "terms": [
                    {"symbol": s.text(), "coeff": basis[sym].coefficient(s).text()}
                    for s in basis[sym].support()
                ],
            }
            for sym in ordered
        ],
        indent=2,
    )


def prepare(op, sweep_module):
    """Build one op's inputs; return a callable that runs it -> (exit, text)."""
    import wreathcells.cli as cli
    import wreathcells.fock as fock
    import wreathcells.gd12 as gd12

    kind = op["kind"]
    if kind == "cli":
        argv = list(op["argv"])

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.cli_main(argv)
            return code, out.getvalue()

    elif kind == "sweep":
        argv = list(op["argv"])

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sweep_module.main(argv)
            text = out.getvalue()
            if not text.rstrip().endswith(", 0 hard failures"):
                raise AssertionError("sweep reported hard failures")
            return code, text

    elif op["call"] == "gaudin_battery":
        points = _gaudin_inputs(op["max_d"], op["scale"])

        def run():
            lines, ok = [], True
            for d, i, j, params in points:
                report = gd12.verify_gaudin_eigensystem(d, i, j, params)
                ok = ok and report.ok
                lines.append(json.dumps(report.to_json_obj(), sort_keys=True))
            return (0 if ok else 1), "\n".join(lines) + "\n"

    elif op["call"] == "frac_identity":
        pairs = [(d, l) for d in range(1, op["max_d"] + 1) for l in range(1, d + 1)]

        def run():
            results = [(d, l, gd12.verify_frac_identity(d, l)) for d, l in pairs]
            text = "".join(f"{d} {l} {ok}\n" for d, l, ok in results)
            return (0 if all(ok for _, _, ok in results) else 1), text

    elif op["call"] == "canonical_basis":
        charges, n, reverse = tuple(op["charges"]), op["n"], op["reverse_ties"]

        def run():
            basis = fock.canonical_basis(charges, n, reverse_ties=reverse)
            return 0, _render_basis(basis)

    else:
        raise ValueError(f"unknown op {op!r}")
    return run


def _load_sweep():
    path = ROOT / "scripts" / "sweep_conjecture.py"
    spec = importlib.util.spec_from_file_location("sweep_conjecture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    import wreathcells  # noqa: F401  (set-up includes the package import)

    ops = request["ops"]
    sweep_module = _load_sweep() if any(op["kind"] == "sweep" for op in ops) else None
    runners = [prepare(op, sweep_module) for op in ops]
    setup_s = (time.monotonic_ns() - request["t0_ns"]) / 1e9
    report = {"setup_s": setup_s, "slots": [], "ops": []}
    if request["setup_only"]:
        print(json.dumps(report))
        return 0

    # slots[0] comes before the first op and slots[k] after op k.
    report["slots"].append([probe_s() for _ in range(PROBES_PER_SLOT)])

    sampler = Sampler()
    tracer = None
    context = contextlib.nullcontext()
    if request["trace"]:
        from tracing import Tracer, install

        tracer = Tracer(sampler.clock)
        context = install(tracer, sweep_module)
    with context:
        for op, run in zip(ops, runners):
            with sampler.during_op():
                start = sampler.clock()
                try:
                    code, text = run()
                    error = None
                except Exception as exc:  # reported to the parent as a failed op
                    code, text, error = None, "", f"{type(exc).__name__}: {exc}"
                seconds = sampler.clock() - start
            report["slots"].append([probe_s() for _ in range(PROBES_PER_SLOT)])
            data = text.encode("utf-8")
            if tracer is not None and op["kind"] == "cli":
                tracer.counts["cli.output_bytes"] += len(data)
            report["ops"].append(
                {
                    "exit": code,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "seconds": seconds,
                    "probes": sampler.readings,
                    "error": error,
                }
            )
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from wreathcells.combinatorics import standard_tableaux

        info = standard_tableaux.cache_info()
        report["trace"] = tracer.report()
        report["trace"]["cache"] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
