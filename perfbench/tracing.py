"""Spans around calls into measurelab's public functions.

A traced process calls install() once, after importing measurelab and
before doing any work. install() replaces each function in TARGETS by a
wrapper in every measurelab module namespace that binds it (methods are
replaced on their class), so calls between package modules are recorded
too. Untraced processes never call install() and run the package as is.

Spans stay in memory as plain lists and are written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

MODULES = ("_linalg", "states", "algebra", "gns", "uhf", "instruments",
           "dilation", "sampling", "serialize", "scenarios", "cli")

# (module, attribute); "Class.method" attributes are replaced on the class.
# Spans are named "<module>.<function>", with _linalg written as linalg.
TARGETS = (
    ("_linalg", "haar_unitary"),
    ("_linalg", "unitary_completion"),
    ("_linalg", "trace_norm"),
    ("states", "fidelity"),
    ("algebra", "commutant"),
    ("algebra", "center"),
    ("algebra", "minimal_central_projections"),
    ("algebra", "intertwiner_space"),
    ("algebra", "commutant_dimension_bruteforce"),
    ("gns", "gns_intertwiner"),
    ("uhf", "gamma_step"),
    ("uhf", "EndomorphismStep.image_subalgebra"),
    ("uhf", "surrogate_commutant"),
    ("uhf", "unitary_path"),
    ("instruments", "Instrument.apply"),
    ("instruments", "Instrument.dual_apply"),
    ("instruments", "Instrument.outcome_weights"),
    ("instruments", "verify_axioms"),
    ("instruments", "instrument_distance"),
    ("instruments", "instrument_from_process"),
    ("instruments", "conditional_expectation"),
    ("instruments", "exact_observation_residual"),
    ("instruments", "central_decomposition"),
    ("dilation", "realize_instrument"),
    ("dilation", "instrument_of"),
    ("sampling", "sample_histogram"),
    ("sampling", "chi_square_pvalue"),
    ("serialize", "dumps"),
    ("serialize", "histogram_csv"),
    ("serialize", "instrument_from_json"),
    ("serialize", "read_json"),
    ("scenarios", "build_projective_scenario"),
    ("scenarios", "run_projective_check"),
    ("scenarios", "chi_ladder_report"),
    ("scenarios", "tensor_power_report"),
)

# span fields
NAME, START, END, PARENT, RUN, RSS_KB, AMOUNT = range(7)


def _array_bytes(obj) -> int:
    """Bytes held by the arrays a result carries at its top level."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(_array_bytes(getattr(obj, f)) for f in fields)
    return 0


def _shots(args, kwargs, out) -> int:
    return int(kwargs["shots"] if "shots" in kwargs else args[1])


def _text_bytes(args, kwargs, out) -> int:
    return len(out.encode("utf-8"))


def _out_bytes(args, kwargs, out) -> int:
    return _array_bytes(out)


# Per-call amounts summed into the named counter.
AMOUNTS = {
    "uhf.image_subalgebra": ("uhf.image_subalgebra.out_bytes", _out_bytes),
    "sampling.sample_histogram": ("sampling.shots", _shots),
    "serialize.dumps": ("serialize.bytes_written", _text_bytes),
    "serialize.histogram_csv": ("serialize.bytes_written", _text_bytes),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    index (-1 at top level), run id, rise of ru_maxrss in KiB and the
    call's amount (see AMOUNTS). One process, one thread, so a stack of
    open spans gives each call its parent."""

    def __init__(self, run: str = "setup"):
        self.run = run
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        amount = AMOUNTS.get(name, (None, None))[1]
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0, 0]
            spans.append(span)
            stack.append(idx)
            rss0 = _maxrss_kb()
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[RSS_KB] = _maxrss_kb() - rss0
            if amount is not None:
                span[AMOUNT] = amount(args, kwargs, out)
            return out

        return traced

    def write(self, path, **meta) -> None:
        selfs = self_times(self.spans)
        rows = [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "run": s[RUN], "self_s": selfs[i],
                 "rss_growth_kb": s[RSS_KB], "amount": s[AMOUNT]}
                for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Replace every TARGETS function by its traced wrapper."""
    mods = [importlib.import_module("measurelab")]
    mods += [importlib.import_module(f"measurelab.{m}") for m in MODULES]
    for modname, attr in TARGETS:
        mod = sys.modules[f"measurelab.{modname}"]
        owner_name, _, fname = attr.rpartition(".")
        name = f"{modname.lstrip('_')}.{fname}"
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, fname, tracer.wrap(name, getattr(owner, fname)))
            continue
        orig = getattr(mod, fname)
        wrapped = tracer.wrap(name, orig)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover. Spans of one
    thread nest, so the children of a span never overlap each other."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - covered[i] for i, s in enumerate(spans)]


def summarize(span_rows) -> dict:
    """Per-function calls, self_s and rss_growth_mb, plus the AMOUNTS
    counters, from written span rows (possibly of several processes)."""
    out: dict[str, float] = {}
    for row in span_rows:
        name = row["name"]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + row["self_s"]
        key = f"{name}.rss_growth_mb"
        out[key] = out.get(key, 0.0) + row["rss_growth_kb"] / 1024.0
        counter = AMOUNTS.get(name, (None, None))[0]
        if counter:
            out[counter] = out.get(counter, 0) + row["amount"]
    return out
