import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measurelab as ml
from measurelab import serialize as sz
from measurelab.cli import main
from measurelab._linalg import dagger, matrix_unit


def write_instrument(path, E):
    sz.write_json(path, sz.instrument_to_json(E))
    return str(path)


def read_counts(path):
    """The count and probability columns of a histogram CSV."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == sz.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return [int(r[1]) for r in rows], [float(r[2]) for r in rows]


def projective_instrument():
    return ml.instrument_from_process(ml.build_projective_scenario(2, 2))


def lueders_qubit():
    chois = []
    for i in range(2):
        proj = np.diag([1.0 - i, float(i)]).astype(complex)
        c = np.zeros((4, 4), dtype=complex)
        for p in range(2):
            for q in range(2):
                out = proj @ matrix_unit(p, q, 2) @ dagger(proj)
                for a in range(2):
                    for b in range(2):
                        c[p * 2 + a, q * 2 + b] = out[a, b]
        chois.append(c)
    return ml.instrument(chois)


def test_verify_valid_instrument(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    code = main(["verify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "cp-positivity" in out


def test_verify_writes_identical_reports(tmp_path):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    out1 = tmp_path / "rep1.json"
    out2 = tmp_path / "rep2.json"
    assert main(["verify", path, "--out", str(out1)]) == 0
    assert main(["verify", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert all(c["pass"] for c in doc["checks"])


def test_verify_probe_count_flag(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    assert main(["verify", path, "--probes", "4"]) == 0
    capsys.readouterr()


def test_verify_refuses_more_probes_than_there_are(tmp_path, capsys):
    # a qubit has 2 + 1 + 1 default probe states: the default report reads
    # all 4, as an explicit --probes 4 does, and --probes 1000 exits 2
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    default, four, many = (tmp_path / f"{name}.json" for name in ("default", "four", "many"))
    assert main(["verify", path, "--out", str(default)]) == 0
    assert main(["verify", path, "--probes", "4", "--out", str(four)]) == 0
    assert default.read_bytes() == four.read_bytes()
    assert json.loads(default.read_text())["meta"]["config"]["probes"] == 4
    capsys.readouterr()
    assert main(["verify", path, "--probes", "1000", "--out", str(many)]) == 2
    assert "at most 4" in capsys.readouterr().err
    assert not many.exists()


def test_verify_flags_negative_choi(tmp_path, capsys):
    E = projective_instrument()
    bad = [c.copy() for c in E.chois]
    bad[0] -= 0.05 * np.eye(4)
    bad[1] += 0.05 * np.eye(4)
    path = tmp_path / "bad.json"
    sz.write_json(path, sz.instrument_to_json(ml.instrument(bad)))
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    assert "cp-positivity" in out


def test_verify_truncated_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    full = sz.dumps(sz.instrument_to_json(projective_instrument()))
    path.write_text(full[: len(full) // 2])
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err


def _edited_instrument(tmp_path, edit):
    obj = sz.instrument_to_json(lueders_qubit())
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _set_entry(obj, value):
    obj["outcomes"][1]["choi"]["data"][3][0] = value


@pytest.mark.parametrize("edit, named", [
    (lambda o: _set_entry(o, 10 ** 400), "matrix entry 3 is out of range"),
    (lambda o: _set_entry(o, True), "matrix entry 3 is not an [re, im] pair"),
    (lambda o: o.update(dim=1.5), "dim must be a JSON integer"),
    (lambda o: o.update(dim=True), "dim must be a JSON integer"),
    (lambda o: o.update(dim="2"), "dim must be a JSON integer"),
    (lambda o: o["outcomes"][0]["choi"].update(rows=4.0),
     "rows must be a JSON integer"),
    (lambda o: o["outcomes"][0]["choi"].update(cols=-4),
     "cols must be at least 1"),
    (lambda o: o.update(outcomes=5), "no outcomes list"),
], ids=["huge-entry", "bool-entry", "float-dim", "bool-dim", "string-dim",
        "float-rows", "negative-cols", "outcomes-not-a-list"])
def test_verify_rejects_bad_numbers_with_exit_2(tmp_path, capsys, edit, named):
    code = main(["verify", _edited_instrument(tmp_path, edit)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_sample_rejects_a_float_state_dim(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", lueders_qubit())
    st = tmp_path / "state.json"
    sz.write_json(st, {"dim": 2.0,
                       "density": sz.matrix_to_json(np.diag([0.3, 0.7]))})
    code = main(["sample", path, "--state", str(st), "--shots", "100"])
    assert code == 2
    assert "dim must be a JSON integer" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    code = main(["verify", "no-such-file.json"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["demo", "chi", "--k", "2", "--levels", "2", "--out"],
    ["demo", "projective", "--k", "2", "--levels", "2", "--hist"],
])
def test_an_output_path_naming_a_directory_is_an_input_error(tmp_path, capsys,
                                                             argv):
    code = main(argv + [str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ")
    assert len(err.strip().splitlines()) == 1


FOREIGN_FLAGS = {
    "--flavor": ["--flavor", "generic"], "--state": ["--state", "diag:1,0"],
    "--shots": ["--shots", "10"], "--seed": ["--seed", "1"],
    "--identity-U": ["--identity-U"], "--hist": ["--hist", "h.csv"],
    "--copies": ["--copies", "3"],
}
DEMO_FLAGS = {
    "projective": {"--flavor", "--state", "--shots", "--seed", "--identity-U", "--hist"},
    "chi": set(),
    "tensor-power": {"--copies"},
}
FOREIGN = [(scenario, flag) for scenario, own in DEMO_FLAGS.items()
           for flag in FOREIGN_FLAGS if flag not in own]


@pytest.mark.parametrize("scenario, flag", FOREIGN,
                         ids=[f"{s}{f}" for s, f in FOREIGN])
def test_demo_refuses_a_flag_its_scenario_does_not_read(tmp_path, monkeypatch, capsys,
                                                        scenario, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["demo", scenario, "--k", "2", "--levels", "2", *FOREIGN_FLAGS[flag],
              "--out", "rep.json"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["--out", "--hist"])
def test_demo_writes_neither_file_when_one_cannot_be_written(tmp_path, capsys, bad):
    # either path naming a directory leaves the other file unwritten, a
    # fresh one absent and an existing one as it was
    argv = ["demo", "projective", "--k", "2", "--levels", "2", "--shots", "1000"]
    for existing in (False, True):
        good = tmp_path / ("rep.json" if bad == "--hist" else "h.csv")
        if existing:
            good.write_text("kept\n")
        paths = {"--out": str(good), "--hist": str(good), bad: str(tmp_path)}
        code = main(argv + ["--hist", paths["--hist"], "--out", paths["--out"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error: ")
        assert captured.out == ""
        if existing:
            assert good.read_text() == "kept\n"
        else:
            assert not good.exists()


def test_demo_projective_with_diagonal_state(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["demo", "projective", "--k", "2", "--levels", "3",
                 "--state", "diag:0.3,0.7", "--shots", "100000",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] weights-match-diagonal" in text
    doc = json.loads(out.read_text())
    weights = doc["derived"]["weights"]
    assert abs(weights[0] - 0.3) < 1e-10
    assert abs(weights[1] - 0.7) < 1e-10
    assert doc["meta"]["config"]["levels"] == 3


def test_demo_projective_identity_interaction(capsys):
    code = main(["demo", "projective", "--k", "2", "--levels", "2",
                 "--identity-U", "--shots", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no-information-first-outcome" in out


def test_demo_chi(capsys):
    code = main(["demo", "chi", "--k", "2", "--levels", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "disjointness-probe-power-1" in out


def test_demo_chi_at_k_5(capsys):
    # the level checks read index maps; only the level-2 symmetry check
    # solves densely, on 625-dimensional GNS spaces
    code = main(["demo", "chi", "--k", "5", "--levels", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    assert "disjointness-probe-power-4" in out


def test_demo_tensor_power(capsys):
    code = main(["demo", "tensor-power", "--k", "2", "--levels", "2",
                 "--copies", "2"])
    assert code == 0
    assert "surrogate-dimension" in capsys.readouterr().out


def test_demo_histogram_csv_is_reproducible(tmp_path, capsys):
    h1 = tmp_path / "a.csv"
    h2 = tmp_path / "b.csv"
    base = ["demo", "projective", "--k", "2", "--levels", "2",
            "--state", "diag:0.3,0.7", "--shots", "1000", "--seed", "7"]
    assert main(base + ["--hist", str(h1)]) == 0
    assert main(base + ["--hist", str(h2)]) == 0
    capsys.readouterr()
    assert h1.read_bytes() == h2.read_bytes()
    counts, probs = read_counts(h1)
    assert counts == [318, 682]
    assert np.allclose(probs, [0.3, 0.7])


def test_demo_histogram_is_the_reports_own_draw(tmp_path, capsys, monkeypatch):
    # the CSV carries the counts the sampling check drew; nothing samples twice
    def fail(*args, **kwargs):
        raise AssertionError("demo must not draw a second histogram")

    monkeypatch.setattr("measurelab.cli.sample_histogram", fail)
    hist = tmp_path / "h.csv"
    assert main(["demo", "projective", "--k", "2", "--levels", "2",
                 "--state", "diag:0.3,0.7", "--shots", "1000", "--seed", "7",
                 "--hist", str(hist)]) == 0
    capsys.readouterr()
    assert read_counts(hist)[0] == [318, 682]


def test_demo_histogram_refuses_zero_shots(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    code = main(["demo", "projective", "--k", "2", "--levels", "2",
                 "--shots", "0", "--hist", str(hist)])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error: shot count must be positive" in captured.err
    assert not hist.exists()


def test_demo_rejects_mismatched_state(capsys):
    code = main(["demo", "projective", "--k", "2", "--levels", "2",
                 "--state", "diag:0.2,0.3,0.5"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["chi", "tensor-power"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_demo_refuses_a_site_size_below_2(capsys, scenario, k):
    code = main(["demo", scenario, "--k", k])
    err = capsys.readouterr().err
    assert code == 2
    assert "need k >= 2" in err


BAD_FLAGS = [
    (["verify", "--probes", "0"], "need at least one probe"),
    (["verify", "--probes", "-1"], "need at least one probe"),
    (["verify", "--tol", "0"], "--tol must be finite and positive"),
    (["verify", "--tol", "-1"], "--tol must be finite and positive"),
    (["verify", "--tol", "inf"], "--tol must be finite and positive"),
    (["verify", "--tol", "nan"], "--tol must be finite and positive"),
    (["dilate", "--tol", "0"], "--tol must be finite and positive"),
    (["dilate", "--tol", "inf"], "--tol must be finite and positive"),
    (["dilate", "--tol", "nan"], "--tol must be finite and positive"),
]


@pytest.mark.parametrize("args, words", BAD_FLAGS,
                         ids=["_".join(args) for args, _ in BAD_FLAGS])
def test_verify_and_dilate_refuse_bad_counts_and_tolerances(tmp_path, capsys,
                                                            args, words):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    out = tmp_path / "out.json"
    code = main([args[0], path, *args[1:], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"input error: {words}" in captured.err
    assert not out.exists()


def test_demo_projective_shot_count(capsys):
    code = main(["demo", "projective", "--shots", "-5"])
    assert code == 2
    assert "shot count must not be negative" in capsys.readouterr().err
    # zero shots still means no sampling
    code = main(["demo", "projective", "--shots", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sampling-consistency" not in out


def test_demo_rejects_oversized_tensor_power(capsys):
    code = main(["demo", "tensor-power", "--k", "2", "--levels", "4",
                 "--copies", "4"])
    assert code == 2
    capsys.readouterr()


def test_demo_runs_a_one_level_tensor_power_past_64(capsys):
    code = main(["demo", "tensor-power", "--k", "8", "--levels", "1",
                 "--copies", "3"])
    assert code == 0
    capsys.readouterr()


def test_demo_tensor_power_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["demo", "tensor-power", "--k", "3", "--levels", "2",
                 "--copies", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0e07fea1738b4f0e2d9fcf3798e7f4218ace9bb72718266a279f8b58f57bc2b3")


def test_dilate_projective_qubit(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", lueders_qubit())
    out = tmp_path / "dil.json"
    code = main(["dilate", path, "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "round" in text.lower()
    # the file holds the realization at the default --tol, decoded field by
    # field: its isometry and omega pairs bit for bit
    dil = ml.realize_instrument(lueders_qubit(), psd_tol=1e-8)
    doc = json.loads(out.read_text())
    assert doc["observed_dim"] == 2 and doc["probe_dim"] == dil.probe_dim
    assert doc["meter"] == dil.meter.tolist() and doc["labels"] == list(dil.labels)
    assert doc["kraus_rank"] == ml.kraus_rank(dil)
    for key, a in (("isometry", dil.isometry), ("omega", dil.probe_vector)):
        pairs = np.array(doc[key]["data"], dtype=float)
        assert pairs.tobytes() == a.astype(complex).tobytes()
    assert out.read_text() == sz.dumps(doc)


def test_dilate_near_psd_violation(tmp_path, capsys):
    E = lueders_qubit()
    bad = [c.copy() for c in E.chois]
    bad[0] -= 1e-6 * np.eye(4)
    bad[1] += 1e-6 * np.eye(4)
    path = tmp_path / "near.json"
    sz.write_json(path, sz.instrument_to_json(ml.instrument(bad)))
    code = main(["dilate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "PSD tolerance" in err


def test_sample_to_stdout(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    code = main(["sample", path, "--state", "diag:0.3,0.7",
                 "--shots", "1000", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome_index,count,exact_probability" in out
    assert "0,318," in out
    assert "1,682," in out


def test_sample_to_file_and_vec_literal(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    out = tmp_path / "counts.csv"
    code = main(["sample", path, "--state", "vec:1,0", "--shots", "100",
                 "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    counts, probs = read_counts(out)
    assert counts == [100, 0]
    assert np.allclose(probs, [1.0, 0.0])


def test_sample_complex_vec_literal(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    code = main(["sample", path, "--state", "vec:0.6,0.8i", "--shots", "50",
                 "--seed", "1"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("literal, code, message", [
    ("vec:inf,1,0", 2, "must be finite"),
    ("vec:1,-infi,0", 2, "must be finite"),
    ("vec:1,2i,0", 0, ""),
])
def test_a_vec_literal_reads_i_only_as_the_imaginary_suffix(tmp_path, capsys, literal,
                                                            code, message):
    # inf keeps its i: the literal reaches the finiteness check, not complex()
    path = write_instrument(tmp_path / "inst.json",
                            ml.instrument_from_process(ml.build_projective_scenario(3, 2)))
    assert main(["sample", path, "--state", literal, "--shots", "50", "--seed", "1"]) == code
    assert message in capsys.readouterr().err


def test_sample_bad_state_literal(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    code = main(["sample", path, "--state", "diag:frog,0.7"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["diag:nan,1", "diag:0,0", "diag:inf,1",
                                     "vec:nan,1", "vec:1e400,1"])
def test_sample_rejects_degenerate_diagonal_state(tmp_path, capsys, literal):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    counts = tmp_path / "counts.csv"
    code = main(["sample", path, "--state", literal, "--out", str(counts)])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err
    assert not counts.exists()
    code = main(["sample", path, "--state", literal])
    captured = capsys.readouterr()
    assert code == 2
    assert "exact_probability" not in captured.out


def test_sample_refuses_shots_above_the_ceiling(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    counts = tmp_path / "counts.csv"
    code = main(["sample", path, "--state", "diag:0.3,0.7",
                 "--shots", "1000000000000", "--out", str(counts)])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err
    assert "exceeds the ceiling" in captured.err
    assert not counts.exists()


def test_sample_refuses_a_seed_outside_the_key_range(tmp_path, capsys):
    # every --seed is refused by argparse, before any work, naming the flag
    # and the range, where verify and demo projective without --state
    # printed numpy's bare "expected non-negative integer"
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    for argv in (["sample", path, "--state", "diag:0.3,0.7"], ["verify", path],
                 ["demo", "projective"]):
        for seed in ("-1", str(2**128), "1.5"):
            with pytest.raises(SystemExit) as exit_:
                main([*argv, "--seed", seed])
            captured = capsys.readouterr()
            assert exit_.value.code == 2
            assert (f"argument --seed: must be an integer in [0, 2**128), "
                    f"got '{seed}'") in captured.err
            assert captured.out == ""
        assert main([*argv, "--seed", str(2**128 - 1)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("error, words", [
    (MemoryError("Unable to allocate 4.00 GiB"), "resource error: out of memory"),
    (RuntimeError("commutant verification failed: residual 1.00e-03"),
     "solver error"),
])
def test_resource_and_solver_failures_exit_3(monkeypatch, capsys, error,
                                              words):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("measurelab.scenarios.build_projective_scenario", fail)
    code = main(["demo", "projective", "--k", "4", "--levels", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert words in captured.err
    assert str(error) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_state_json_file_input(tmp_path, capsys):
    path = write_instrument(tmp_path / "inst.json", projective_instrument())
    st = tmp_path / "state.json"
    sz.write_json(st, {"dim": 2,
                       "density": sz.matrix_to_json(np.diag([0.3, 0.7]))})
    code = main(["sample", path, "--state", str(st), "--shots", "1000",
                 "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0,318," in out


LEAN_RUN = """
import json, sys
def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)
import measurelab
from measurelab.cli import main
scipy = {"import": loaded("scipy")}
codes = [main(["verify", sys.argv[1], "--probes", "2"]),
         main(["sample", sys.argv[1], "--state", "diag:0.3,0.7", "--shots", "100"]),
         main(["dilate", sys.argv[1], "--out", sys.argv[2]])]
package = {"light": loaded("measurelab")}
scipy["light"] = loaded("scipy")
codes += [main(["demo", "tensor-power", "--k", "2", "--levels", "2", "--copies", "2"])]
package["demo"] = loaded("measurelab")
codes += [main(["demo", "projective", "--shots", "1000", "--hist", sys.argv[3]])]
scipy["run"] = loaded("scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "package": package}))
"""

DEMO_ONLY = {f"measurelab.{m}" for m in ("algebra", "uhf", "gns", "scenarios")}


def test_import_and_light_subcommands_load_no_scipy(tmp_path):
    # a subprocess, since the pytest process has scipy.linalg loaded by the
    # warning filters; verify, sample, dilate and demo projective --hist
    # need numpy only, and every scipy module costs each CLI call start-up
    # time. demo tensor-power takes the orbit route for its surrogates and
    # reads their centers off structure constants, both numpy only. The
    # package loads lazily, so verify, sample and dilate also leave the
    # modules only the demos run unloaded
    path = write_instrument(tmp_path / "inst.json", lueders_qubit())
    src = str(Path(ml.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out, hist = tmp_path / "dil.json", tmp_path / "hist.csv"
    proc = subprocess.run([sys.executable, "-c", LEAN_RUN, path, str(out),
                           str(hist)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["scipy"] == {"import": [], "light": [], "run": []}
    assert DEMO_ONLY.isdisjoint(doc["package"]["light"])
    assert DEMO_ONLY <= set(doc["package"]["demo"])
    assert out.exists() and hist.exists()


CENTER_RUN = """
import json, sys
from measurelab.algebra import center
from measurelab.uhf import gamma_step
dim = center(gamma_step(3, 4).image_subalgebra()).dim
print(json.dumps({"dim": dim, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_a_center_over_a_729_element_frame_loads_no_scipy():
    # the (3,4) image is not abelian, so center cuts its 729-element frame
    # by the null space of one Gram of the structure constants, with numpy's
    # eigh
    src = str(Path(ml.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", CENTER_RUN],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"dim": 1, "scipy": []}
