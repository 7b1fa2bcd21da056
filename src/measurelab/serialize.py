"""JSON and CSV interchange. Matrices are {"rows", "cols", "data"} with
data a row-major list of [re, im] pairs; JSON output is key-sorted with
two-space indent so equal inputs give byte-identical files.

The JSON text is the text of json.dumps(obj, indent=2, sort_keys=True),
written by one recursive emitter instead: it turns numpy scalars,
ndarrays and complex numbers into plain numbers and lists where it meets
them, and writes a list of [re, im] float pairs, the bulk of every matrix
payload, with one fixed template per pair and a single join (json.dumps
with indent set runs its pure-Python encoder, several times slower on
matrix payloads). Floats are written as json writes them: their repr,
or NaN, Infinity and -Infinity; keys and strings go through json.dumps,
so escaping is unchanged. A dilation's meter is written as it is held,
one outcome label per probe basis vector, and its interaction as its
(dK, d) Stinespring isometry; labels must be JSON strings."""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain

import numpy as np

from .dilation import kraus_rank
from .instruments import Instrument, MeasuringProcess
from .report import Report
from .sampling import Histogram
from .states import State

CSV_HEADER = "outcome_index,count,exact_probability"


def _json_int(obj, key: str) -> int:
    """obj[key] as a positive JSON integer; floats, bools and strings are
    refused, not rounded."""
    try:
        v = obj[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"payload has no {key} field") from exc
    if type(v) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {v!r}")
    if v < 1:
        raise ValueError(f"{key} must be at least 1, got {v}")
    return v


def _complex_pairs(a) -> list:
    """The entries of a, row-major, as [re, im] pairs of Python floats."""
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix payload must be two-dimensional")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": _complex_pairs(m)}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix payload must be an object")
    rows, cols = _json_int(obj, "rows"), _json_int(obj, "cols")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError("matrix payload has inconsistent shape")
    if rows != cols:
        raise ValueError("matrix payload must be square")
    return _entries(data).reshape(rows, cols)


def _entries(data: list) -> np.ndarray:
    """The [re, im] pairs of data as complex entries. A list of lists or
    tuples of two Python ints or floats is converted in one numpy call;
    anything else, and any refusal, goes through the entry-by-entry check,
    which names the first bad entry: not a pair of numbers (a bool is not a
    number here), out of float range, or not finite."""
    if (set(map(type, data)) <= {list, tuple} and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        try:
            pairs = np.array(data, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(pairs).all():
                return pairs.view(complex).reshape(-1)
    flat = np.empty(len(data), dtype=complex)
    for i, pair in enumerate(data):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair)):
            raise ValueError(f"matrix entry {i} is not an [re, im] pair")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError as exc:
            raise ValueError(f"matrix entry {i} is out of range") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"matrix entry {i} is not finite")
        flat[i] = complex(re, im)
    return flat


def state_from_json(obj) -> State:
    if not isinstance(obj, dict) or "density" not in obj:
        raise ValueError("state payload must carry a density field")
    density = matrix_from_json(obj["density"])
    if "dim" in obj and _json_int(obj, "dim") != density.shape[0]:
        raise ValueError("state payload dim does not match its density")
    s = State(density)
    s.validate()
    return s


def instrument_to_json(E: Instrument) -> dict:
    return {"dim": E.observed_dim,
            "outcomes": [{"label": E.labels[i],
                          "choi": matrix_to_json(E.chois[i])}
                         for i in range(E.outcomes)]}


def instrument_from_json(obj, validate: bool = True) -> Instrument:
    if not isinstance(obj, dict) or "outcomes" not in obj or "dim" not in obj:
        raise ValueError("instrument payload must carry dim and outcomes")
    d = _json_int(obj, "dim")
    chois, labels = [], []
    if not isinstance(obj["outcomes"], list) or not obj["outcomes"]:
        raise ValueError("instrument payload has no outcomes list")
    for i, entry in enumerate(obj["outcomes"]):
        if not isinstance(entry, dict) or "choi" not in entry:
            raise ValueError(f"outcome {i} missing its choi field")
        c = matrix_from_json(entry["choi"])
        if c.shape[0] != d * d:
            raise ValueError(f"outcome {i}: choi side {c.shape[0]} != dim^2")
        chois.append(c)
        label = entry.get("label", f"E{i + 1}")
        if type(label) is not str:
            raise ValueError(f"outcome {i} label must be a JSON string")
        labels.append(label)
    E = Instrument(observed_dim=d, chois=chois, labels=tuple(labels))
    if validate:
        E.validate()
    return E


def dilation_to_json(dil: MeasuringProcess) -> dict:
    """The process with its meter written as one outcome label per probe
    basis vector and its interaction as its isometry V = U (1 (x) omega).
    kraus_rank is written when the meter is a realization's slab meter
    repeat(arange(m), P // m), the only layout that has a Kraus rank."""
    out = {"observed_dim": dil.observed_dim,
           "probe_dim": dil.probe_dim,
           "labels": list(dil.labels),
           "meter": dil.meter.tolist(),
           "omega": matrix_to_json(dil.probe_vector.reshape(-1, 1)),
           "isometry": matrix_to_json(dil.isometry)}
    with suppress(ValueError):
        out["kraus_rank"] = kraus_rank(dil)
    return out


def report_to_json(rep: Report) -> dict:
    out = {"checks": [{"name": c.name,
                       "residual": float(c.residual),
                       "tolerance": float(c.tolerance),
                       "pass": bool(c.passed)} for c in rep.checks],
           "meta": dict(rep.meta)}
    if rep.derived:
        out["derived"] = dict(rep.derived)
    if rep.notes:
        out["meta"] = {**out["meta"], "notes": list(rep.notes)}
    return out


def _float(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _is_pairs(seq) -> bool:
    """Whether seq is a list of [re, im] pairs of Python floats."""
    return all(type(p) is list and len(p) == 2
               and type(p[0]) is float and type(p[1]) is float for p in seq)


def _emit(obj, ind: str, out: list) -> None:
    """Append the indent=2, sort_keys=True json text of obj to out, where
    ind is the indent of the line obj starts on. Numpy scalars become
    Python numbers, a complex number an [re, im] pair, and an ndarray the
    flat list of its entries as floats, or as [re, im] pairs if complex."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = _complex_pairs(obj)
        else:
            obj = np.asarray(obj, dtype=float).reshape(-1).tolist()
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, complex):
        obj = [float(obj.real), float(obj.imag)]

    if isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = ind + "  "
        sep = "{\n" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(sep + json.dumps(key) + ": ")
            _emit(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + ind + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = ind + "  "
        if _is_pairs(obj):
            # one fixed template per pair; the repr of a float contains an
            # "n" only as nan or inf, which json spells NaN and Infinity
            pair = "[\n" + inner + "  %r,\n" + inner + "  %r\n" + inner + "]"
            text = (",\n" + inner).join([pair % (re, im) for re, im in obj])
            if "n" in text:
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            out.append("[\n" + inner + text + "\n" + ind + "]")
            return
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _emit(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + ind + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    out = []
    _emit(obj, "", out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def histogram_csv(hist: Histogram) -> str:
    lines = [CSV_HEADER]
    for i in range(hist.counts.size):
        lines.append(f"{i},{int(hist.counts[i])},{float(hist.probabilities[i])!r}")
    return "\n".join(lines) + "\n"


def write_histogram_csv(path, hist: Histogram) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(histogram_csv(hist))
