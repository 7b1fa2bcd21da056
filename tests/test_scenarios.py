import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import measurelab as ml
from measurelab import algebra, scenarios
from measurelab._linalg import random_density, unitary_residual
from measurelab.states import State, diagonal_state

PROJECTIVE_CHECKS = [
    "interaction-isometry",
    "meter-resolution",
    "surrogate-commutant-closed-form",
    "probe-normalized",
    "effects-are-diagonal-units",
    "branch-law-pinching",
    "weights-match-diagonal",
    "component-purity",
    "decomposition-reconstruction",
    "restriction-is-pinching",
    "exact-observation",
    "sampling-consistency",
]

IDENTITY_CHECKS = [
    "interaction-isometry",
    "meter-resolution",
    "surrogate-commutant-closed-form",
    "probe-normalized",
    "no-information-first-outcome",
    "effects-scalar",
    "sampling-consistency",
]


def test_projective_report_passes_across_configurations():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        p = ml.build_projective_scenario(k, n)
        rep = ml.run_projective_check(p, shots=20000)
        assert [c.name for c in rep.checks] == PROJECTIVE_CHECKS
        assert rep.all_pass, [c.name for c in rep.failures()]


def test_projective_report_generic_flavor():
    p = ml.build_projective_scenario(2, 2, flavor="generic")
    rep = ml.run_projective_check(p, shots=20000)
    assert rep.all_pass
    assert rep.meta["config"]["flavor"] == "generic"


def test_projective_scenario_solves_no_commutant(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the meter is W_j W_j*, read off the step")

    monkeypatch.setattr(algebra, "commutant", forbidden)
    monkeypatch.setattr(algebra, "minimal_central_projections", forbidden)
    for flavor in ("natural", "generic"):
        p = ml.build_projective_scenario(3, 3, flavor)
        rep = ml.run_projective_check(p, shots=0)
        assert rep.all_pass, [c.name for c in rep.failures()]


def _closed_form_check(p):
    rep = ml.run_projective_check(p, shots=0)
    return {c.name: c for c in rep.checks}["surrogate-commutant-closed-form"]


def test_closed_form_residual_fails_for_a_corrupted_step():
    p = ml.build_projective_scenario(2, 3)
    assert _closed_form_check(p).residual == 0.0
    st = p.step
    rows = st.rows.copy()
    rows[1, 0] = rows[0, 0]
    phases = st.phases.copy()
    phases[1, 2] = 1.5
    swapped = np.where(p.meter < 2, 1 - p.meter, p.meter)
    for bad in (dataclasses.replace(p, step=dataclasses.replace(st, rows=rows)),
                dataclasses.replace(p, step=dataclasses.replace(st, phases=phases)),
                dataclasses.replace(p, meter=swapped)):
        check = _closed_form_check(bad)
        assert not check.passed and check.residual >= 0.5


def test_projective_config_echo():
    p = ml.build_projective_scenario(2, 3)
    rep = ml.run_projective_check(p, shots=12345, seed=5)
    cfg = rep.meta["config"]
    assert cfg["k"] == 2 and cfg["levels"] == 3 and cfg["flavor"] == "natural"
    assert cfg["d"] == 2 and cfg["shots"] == 12345 and cfg["seed"] == 5
    assert cfg["identity_interaction"] is False
    assert rep.meta["seed"] == 5


def test_projective_weights_follow_the_diagonal():
    p = ml.build_projective_scenario(2, 3)
    rep = ml.run_projective_check(p, state=diagonal_state(np.array([0.3, 0.7])))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["weights-match-diagonal"].residual < 1e-10
    assert np.abs(np.asarray(rep.derived["weights"]) - [0.3, 0.7]).max() < 1e-10


def test_projective_histogram_in_derived():
    p = ml.build_projective_scenario(2, 2)
    rep = ml.run_projective_check(p, state=diagonal_state(np.array([0.3, 0.7])),
                                  shots=1000, seed=7)
    hist = rep.derived["histogram"]
    counts = np.asarray(hist["counts"])
    assert int(counts.sum()) == 1000
    assert counts.tolist() == [318, 682]


def test_identity_interaction_gives_no_information():
    p = ml.build_projective_scenario(2, 2, identity_interaction=True)
    rep = ml.run_projective_check(p, state=State(
        random_density(2, np.random.default_rng(3))))
    assert [c.name for c in rep.checks] == IDENTITY_CHECKS
    assert rep.all_pass
    assert rep.meta["config"]["identity_interaction"] is True
    w = np.asarray(rep.derived["weights"])
    assert abs(w[0] - 1.0) < 1e-12
    assert np.abs(w[1:]).max() < 1e-12


def test_projective_notes_mention_the_finite_truncation():
    p = ml.build_projective_scenario(2, 2)
    rep = ml.run_projective_check(p)
    assert rep.notes


def test_chi_ladder_report_passes():
    for k in (2, 3):
        rep = ml.chi_ladder_report(k, levels=3)
        assert rep.all_pass, [c.name for c in rep.failures()]
        names = [c.name for c in rep.checks]
        for j in range(1, k):
            assert f"twisted-overlap-power-{j}" in names
            assert f"disjointness-probe-power-{j}" in names
        for n in range(2, 4):
            assert f"state-invariance-level-{n}" in names
            assert f"ladder-cyclic-level-{n}" in names
            assert f"ladder-isometry-level-{n}" not in names
        assert "symmetry-implementing-unitary" in names
        assert "symmetry-unitary-order" in names
        assert len(rep.notes) >= 2


def test_ladder_level_residuals_read_the_index_map():
    step = ml.gamma_step(3, 3)
    cyc, inter = scenarios._ladder_level_residuals(step)
    assert inter == 0.0 and cyc < 1e-15
    # a phase off the unit circle breaks the relation (and the isometry)
    phases = step.phases.copy()
    phases[1, 4] *= 1.001
    _, inter = scenarios._ladder_level_residuals(
        dataclasses.replace(step, phases=phases))
    assert inter > 1e-9
    # unit phases keep a Cuntz family, so V stays an isometry that
    # intertwines, but it no longer carries chi_{n-1} to chi_n
    rng = np.random.default_rng(0)
    phases = np.exp(2j * np.pi * rng.random(step.phases.shape))
    cyc, inter = scenarios._ladder_level_residuals(
        dataclasses.replace(step, phases=phases))
    assert inter < 1e-15 and cyc > 0.1
    # an index map that is no permutation reads 1.0
    rows = step.rows.copy()
    rows[0, 0] = rows[1, 0]
    _, inter = scenarios._ladder_level_residuals(
        dataclasses.replace(step, rows=rows))
    assert inter == 1.0


def test_chi_ladder_refuses_a_step_that_breaks_the_relation(monkeypatch):
    def skewed(k, n, flavor):
        step = ml.gamma_step(k, n, flavor)
        return dataclasses.replace(step, phases=step.phases * 1.001)

    monkeypatch.setattr(scenarios, "gamma_step", skewed)
    with pytest.raises(ValueError, match="intertwining residual"):
        ml.chi_ladder_report(2, 3)


def test_chi_ladder_deeper_stack():
    rep = ml.chi_ladder_report(2, levels=4)
    assert rep.all_pass
    assert rep.meta["config"] == {"k": 2, "levels": 4, "flavor": "natural"}


@pytest.mark.parametrize("k, levels", [(2, 16), (3, 10)])
def test_state_invariance_residual_grows_as_the_root_of_the_pullback_size(k, levels):
    # the QR of the m x (k+1) columns [u_0 .. u_{k-1} chi_{n-1}], m = k^(n-1),
    # rounds to about sqrt(m) eps: the largest ratio read over these levels
    # is 5.95, at (2, 11); a residual growing like m eps passes 8 sqrt(m) eps
    # by level 8 at k = 2
    rep = ml.chi_ladder_report(k, levels)
    eps = np.finfo(float).eps
    ratios = {c.name: c.residual / (np.sqrt(k ** (int(c.name.rsplit("-", 1)[1]) - 1)) * eps)
              for c in rep.checks if c.name.startswith("state-invariance-level-")}
    assert len(ratios) == levels - 1
    assert max(ratios.values()) <= 8, ratios


def test_tensor_power_report_frozen_dimensions():
    rep = ml.tensor_power_report(2, 2, 2)
    assert rep.all_pass
    assert rep.derived["surrogate_dimension"] == 4
    assert rep.derived["projection_ranks"] == [4, 4, 4, 4]
    single = ml.tensor_power_report(3, 2, 1)
    assert single.all_pass
    assert single.derived["surrogate_dimension"] == 3
    assert single.derived["projection_ranks"] == [3, 3, 3]


def test_tensor_power_report_two_qutrit_copies():
    rep = ml.tensor_power_report(3, 2, 2)
    assert rep.all_pass
    assert rep.derived["surrogate_dimension"] == 9
    assert rep.derived["projection_ranks"] == [9] * 9
    assert rep.meta["config"] == {"k": 3, "levels": 2, "copies": 2}


def test_tensor_power_size_cap():
    with pytest.raises(ValueError, match="4096"):
        ml.tensor_power_report(2, 4, 4)


def test_tensor_power_refuses_a_huge_level_without_its_power():
    # 3^(2 * 10^7) as an exact integer takes seconds to form
    start = time.perf_counter()
    with pytest.raises(ValueError, match="4096"):
        ml.tensor_power_report(3, n=10 ** 7)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("k,copies", [(8, 3), (4, 4), (3, 5), (16, 2)])
def test_tensor_power_of_one_level_past_64(k, copies):
    # one level: the surrogate is the k^copies diagonal units, abelian, and
    # its center is read off their structure constants at any dimension
    rep = ml.tensor_power_report(k, 1, copies)
    assert rep.all_pass
    assert rep.derived["surrogate_dimension"] == k ** copies
    assert rep.derived["projection_ranks"] == [1] * k ** copies


@pytest.mark.parametrize("k,copies", [(4, 3), (2, 6)])
def test_tensor_power_of_one_level_at_the_pair_budget(k, copies):
    rep = ml.tensor_power_report(k, 1, copies)
    assert rep.all_pass
    assert rep.derived["surrogate_dimension"] == 64
    assert rep.derived["projection_ranks"] == [1] * 64


@pytest.mark.parametrize("k,n,copies,message", [
    (2, 0, 2, "level must be at least 1"),
    (2, 3, 0, "need at least one copy"),
    (2, 10 ** 7, 0, "need at least one copy"),
    (2, 13, 1, "4096"),
    (4097, 1, 1, "4096"),
])
def test_tensor_power_refusal_messages(k, n, copies, message):
    with pytest.raises(ValueError, match=message):
        ml.tensor_power_report(k, n, copies)


def test_scenario_reports_serialize():
    from measurelab import serialize as sz

    p = ml.build_projective_scenario(2, 2)
    rep = ml.run_projective_check(p)
    txt = sz.dumps(sz.report_to_json(rep))
    assert '"pass": true' in txt


REACH_RUN = """
import json, resource, sys
import measurelab as ml
cap = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
failed = {}
for k, n in ((2, 16), (4, 8)):
    rep = REPORT
    failed[f"{k},{n}"] = [c.name for c in rep.failures()]
print(json.dumps(failed))
"""


def _reach_failures(report: str) -> dict:
    """The failed checks of the report expression at (2, 16) and (4, 8),
    each built in a child process capped at 2 GiB of address space."""
    src = str(Path(ml.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", REACH_RUN.replace("REPORT", report)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_projective_check_reaches_n_65536_under_2_gib():
    # N = 2^16 and 4^8 in a child process capped at 2 GiB of address
    # space: the process holds its (dK, d) isometry and the report reads
    # thin factors of it, where a dense (dK)^2 interaction would take
    # 64 GiB at (2, 16)
    assert _reach_failures(
        "ml.run_projective_check(ml.build_projective_scenario(k, n), shots=0)"
    ) == {"2,16": [], "4,8": []}


def test_chi_ladder_reaches_n_65536_under_2_gib():
    # every level check reads the step's index map in O(N); a dense N x N
    # density of the top level alone would take 64 GiB at (2, 16)
    assert _reach_failures("ml.chi_ladder_report(k, n)") == {"2,16": [], "4,8": []}


def test_isometry_bound_does_not_grow_with_the_probe():
    # frob(V*V - 1) is a d x d residual: the report's interaction-isometry
    # check fails a defect of 1e-11 at (2, 16) as at any probe size
    p = ml.build_projective_scenario(2, 16)
    eps = 1e-11 / (2 * np.sqrt(2))  # frob((1 + eps)^2 1_2 - 1_2)
    bent = dataclasses.replace(p, isometry=p.isometry * (1 + eps))
    assert 0.9e-11 < unitary_residual(bent.isometry) < 1.1e-11
    for proc, passed in ((p, True), (bent, False)):
        rep = ml.run_projective_check(proc, shots=0)
        assert {c.name: c.passed for c in rep.checks}["interaction-isometry"] is passed
