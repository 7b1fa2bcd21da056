import json
import os
import subprocess
import sys

import pytest

import tracing
from conftest import BENCH


def _span(name, start, end, parent):
    return [name, start, end, parent, "run", 0, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("leaf", 2.0, 3.0, 1),
             _span("b", 5.0, 9.0, 0),
             _span("root", 10.0, 12.0, -1)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    assert sum(selfs) == pytest.approx(12.0)


def test_summary_adds_up_per_function():
    rows = [{"name": "m.f", "self_s": 1.5, "rss_growth_kb": 1024, "amount": 0},
            {"name": "m.f", "self_s": 0.5, "rss_growth_kb": 0, "amount": 0},
            {"name": "sampling.sample_histogram", "self_s": 0.25,
             "rss_growth_kb": 0, "amount": 100}]
    got = tracing.summarize(rows)
    assert got["m.f.calls"] == 2
    assert got["m.f.self_s"] == pytest.approx(2.0)
    assert got["m.f.rss_growth_mb"] == pytest.approx(1.0)
    assert got["sampling.shots"] == 100


def test_wrapped_calls_record_their_parent():
    tracer = tracing.Tracer("pass0")
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans] == [
        ("m.outer", -1), ("m.inner", 0)]
    outer_s = tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(outer_s)


def test_install_reaches_calls_between_package_modules(tmp_path):
    code = (
        "import measurelab as ml, tracing\n"
        "t = tracing.Tracer('pass0'); tracing.install(t)\n"
        "ml.surrogate_commutant(ml.gamma_step(2, 2).image_subalgebra())\n"
        f"t.write({str(tmp_path / 'spans.json')!r})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH), str(BENCH.parent / "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = [s["name"] for s in spans]
    assert names[:3] == ["uhf.gamma_step", "uhf.image_subalgebra",
                         "uhf.surrogate_commutant"]
    commutant = spans[names.index("algebra.commutant")]
    assert spans[commutant["parent"]]["name"] == "uhf.surrogate_commutant"
    assert spans[1]["amount"] > 0
