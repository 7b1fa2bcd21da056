import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import measurelab as ml
from measurelab import serialize as sz
from measurelab._linalg import basis_vector, random_density
from measurelab.states import State

from helpers import assert_payload_holds


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = sz.matrix_from_json(sz.matrix_to_json(m))
    assert np.abs(back - m).max() < 1e-15


def test_matrix_json_layout():
    obj = sz.matrix_to_json(np.array([[1.0 + 2.0j]]))
    assert obj["rows"] == 1 and obj["cols"] == 1
    assert obj["data"] == [[1.0, 2.0]]


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        sz.matrix_from_json({"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]})
    with pytest.raises(ValueError):
        sz.matrix_from_json({"rows": 2, "cols": 1, "data": [[0.0, 0.0]]})


def _refusal(data):
    # padded with zero entries to a square 3 x 3 payload
    with pytest.raises(ValueError) as info:
        sz.matrix_from_json({"rows": 3, "cols": 3,
                             "data": data + [[0.0, 0.0]] * (9 - len(data))})
    return str(info.value)


@pytest.mark.parametrize("bad, why", [
    ([True, 0.0], "is not an [re, im] pair"),
    ([0.0, False], "is not an [re, im] pair"),
    ([0.0], "is not an [re, im] pair"),
    ([0.0, 1.0, 2.0], "is not an [re, im] pair"),
    ("ab", "is not an [re, im] pair"),
    (1.0, "is not an [re, im] pair"),
    (None, "is not an [re, im] pair"),
    ({"re": 0.0, "im": 0.0}, "is not an [re, im] pair"),
    (["1.0", 0.0], "is not an [re, im] pair"),
    ([0.0, [1.0]], "is not an [re, im] pair"),
    ([10 ** 400, 0.0], "is out of range"),
    ([0.0, -10 ** 400], "is out of range"),
    ([float("nan"), 0.0], "is not finite"),
    ([0.0, float("-inf")], "is not finite"),
])
@pytest.mark.parametrize("at", [0, 3])
def test_matrix_refusals_name_the_first_bad_entry(bad, why, at):
    data = [[0.5, -1.0], [2, 3], (0.0, -0.0), [1e308, -1e-308], [7, 8.5]]
    data[at] = bad
    assert _refusal(data) == f"matrix entry {at} {why}"
    # a later entry of another kind does not displace the first
    data.append([float("inf"), True])
    assert _refusal(data) == f"matrix entry {at} {why}"


def test_matrix_accepts_ints_tuples_and_float_subclasses():
    data = [[1, -2], (0.0, -0.0), [np.float64(0.25), 2 ** 70], [1e308, -1e-308]]
    got = sz.matrix_from_json({"rows": 2, "cols": 2, "data": data})
    want = np.array([complex(float(re), float(im)) for re, im in data])
    assert got.shape == (2, 2)
    assert got.reshape(-1).tobytes() == want.tobytes()


def test_matrix_expect_square():
    obj = sz.matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="matrix payload must be square"):
        sz.matrix_from_json(obj)


def test_state_round_trip_and_validation():
    rng = np.random.default_rng(1)
    phi = State(random_density(3, rng))
    back = sz.state_from_json({"density": sz.matrix_to_json(phi.density)})
    assert np.abs(back.density - phi.density).max() < 1e-15
    bad = {"density": sz.matrix_to_json(np.diag([1.5, -0.5]))}
    with pytest.raises(ValueError):
        sz.state_from_json(bad)


def test_instrument_round_trip():
    rng = np.random.default_rng(2)
    E = ml.instrument_from_process(ml.random_measuring_process(2, 2, rng))
    obj = sz.instrument_to_json(E)
    assert obj["dim"] == 2
    assert [o["label"] for o in obj["outcomes"]] == list(E.labels)
    back = sz.instrument_from_json(obj)
    assert back.observed_dim == 2
    for a, b in zip(back.chois, E.chois):
        assert np.abs(a - b).max() < 1e-15


def test_instrument_from_json_validates():
    rng = np.random.default_rng(3)
    E = ml.instrument_from_process(ml.random_measuring_process(2, 2, rng))
    obj = sz.instrument_to_json(E)
    obj["outcomes"][0]["choi"]["data"][0][0] -= 0.5
    with pytest.raises(ValueError):
        sz.instrument_from_json(obj)
    sz.instrument_from_json(obj, validate=False)


def test_dilation_round_trip():
    rng = np.random.default_rng(4)
    E = ml.instrument_from_process(ml.random_measuring_process(2, 2, rng))
    dil = ml.realize_instrument(E)
    obj = sz.dilation_to_json(dil)
    assert "projections" not in obj and "unitary" not in obj
    assert obj["kraus_rank"] == ml.kraus_rank(dil)
    text = sz.dumps(obj)
    assert_payload_holds(json.loads(text), dil)
    assert sz.dumps(json.loads(text)) == text


def test_only_a_slab_meter_carries_a_kraus_rank():
    # the digit-class meter [0, 1, 1, 0] splits its probe evenly but is no
    # Kraus layout, and two outcomes on a 5-dimensional probe split it not
    # at all: both are written with no kraus_rank
    p = ml.random_measuring_process(2, 2, np.random.default_rng(0))
    odd = ml.MeasuringProcess(observed_dim=1, probe_vector=basis_vector(0, 5),
                              meter=np.array([0, 0, 1, 1, 1]),
                              isometry=basis_vector(0, 5).reshape(-1, 1),
                              labels=("a", "b"))
    for proc, why in ((p, "slab meter"), (odd, "do not divide probe dimension 5")):
        with pytest.raises(ValueError, match=why):
            ml.kraus_rank(proc)
        obj = sz.dilation_to_json(proc)
        assert "kraus_rank" not in obj
        assert_payload_holds(obj, proc)


@pytest.mark.parametrize("label", [1, None, True, ["a"], {"x": 1}])
def test_instrument_labels_must_be_json_strings(label):
    obj = sz.instrument_to_json(ml.instrument_from_process(
        ml.build_projective_scenario(2, 1)))
    obj["outcomes"][1]["label"] = label
    with pytest.raises(ValueError, match="outcome 1 label must be a JSON string"):
        sz.instrument_from_json(obj)
    # an outcome with no label field is named by its position
    del obj["outcomes"][1]["label"]
    assert sz.instrument_from_json(obj).labels == ("E1", "E2")


def test_dilation_json_keeps_an_outcome_no_basis_vector_reads():
    # an outcome that no basis vector reads stays an outcome, named by its
    # label
    rng = np.random.default_rng(6)
    p = ml.random_measuring_process(2, 2, rng)
    wide = ml.MeasuringProcess(observed_dim=2, probe_vector=p.probe_vector,
                               meter=p.meter, isometry=p.isometry,
                               labels=("a", "b", "never"))
    obj = json.loads(sz.dumps(sz.dilation_to_json(wide)))
    assert 2 not in obj["meter"]
    assert obj["labels"] == ["a", "b", "never"]
    assert_payload_holds(obj, wide)


def test_report_json_layout():
    rng = np.random.default_rng(5)
    rep = ml.verify_axioms(ml.instrument_from_process(
        ml.random_measuring_process(2, 2, rng)))
    obj = sz.report_to_json(rep)
    for c in obj["checks"]:
        assert set(c) == {"name", "residual", "tolerance", "pass"}
        assert c["pass"] is True
    assert "meta" in obj


def test_report_notes_fold_into_meta():
    rep = ml.chi_ladder_report(2, levels=2)
    obj = sz.report_to_json(rep)
    assert isinstance(obj["meta"]["notes"], list)
    assert obj["meta"]["notes"]


def test_dumps_is_byte_deterministic():
    a = sz.dumps({"b": 1, "a": [1.5, 2.5], "c": {"y": 0, "x": 1}})
    b = sz.dumps({"c": {"x": 1, "y": 0}, "a": [1.5, 2.5], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, 2.5], "b": 1, "c": {"x": 1, "y": 0}}


def test_dumps_handles_numpy_scalars():
    txt = sz.dumps({"n": np.int64(3), "x": np.float64(0.25),
                    "z": np.complex128(1 + 2j), "v": np.arange(3)})
    obj = json.loads(txt)
    assert obj == {"n": 3, "x": 0.25, "z": [1.0, 2.0], "v": [0.0, 1.0, 2.0]}


def plain(obj):
    """Reference conversion to json-ready Python data: numpy scalars to
    Python numbers, complex numbers to [re, im], ndarrays to flat lists."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [plain(complex(v)) for v in obj.reshape(-1)]
        return [plain(float(v)) for v in obj.reshape(-1)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    return obj


def reference_dumps(obj) -> str:
    return json.dumps(plain(obj), indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1e308, -1e308, float("nan"), float("inf"), float("-inf")]
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_scalars = (st.none() | st.booleans() | st.integers() | _floats
            | st.text(max_size=8)
            | st.complex_numbers(allow_nan=True, allow_infinity=True)
            | _floats.map(np.float64) | st.floats(width=32).map(np.float32)
            | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_arrays = hnp.arrays(st.sampled_from([np.complex128, np.float64, np.int64]),
                     hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                      max_side=4))
_pair_lists = st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=300)
_documents = st.recursive(
    _scalars | _arrays | _pair_lists,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6) | st.integers(-3, 3),
                                     inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_matches_the_json_module(obj):
    assert sz.dumps(obj) == reference_dumps(obj)


def test_dilation_text_matches_the_json_module():
    rng = np.random.default_rng(11)
    E = ml.instrument_from_process(ml.random_measuring_process(2, 2, rng))
    obj = sz.dilation_to_json(ml.realize_instrument(E))
    assert sz.dumps(obj) == reference_dumps(obj)


def test_write_read_json(tmp_path):
    path = tmp_path / "doc.json"
    sz.write_json(path, {"k": [1, 2]})
    assert sz.read_json(path) == {"k": [1, 2]}


def test_read_json_errors(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ValueError):
        sz.read_json(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"a": [1, 2')
    with pytest.raises(ValueError):
        sz.read_json(broken)


def test_histogram_csv_exact_bytes():
    h = ml.sample_histogram([0.3, 0.7], 10, 7)
    text = sz.histogram_csv(h)
    assert text == ("outcome_index,count,exact_probability\n"
                    "0,4,0.3\n"
                    "1,6,0.7\n")


def test_histogram_csv_round_trip(tmp_path):
    h = ml.sample_histogram([0.25, 0.75], 1000, 3)
    path = tmp_path / "hist.csv"
    sz.write_histogram_csv(path, h)
    lines = path.read_text().splitlines()
    assert lines[0] == sz.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == h.counts.tolist()
    assert [float(r[2]) for r in rows] == h.probabilities.tolist()
    # writing again produces identical bytes
    twin = tmp_path / "hist2.csv"
    sz.write_histogram_csv(twin, ml.sample_histogram([0.25, 0.75], 1000, 3))
    assert path.read_bytes() == twin.read_bytes()
