"""End-to-end acceptance battery.

Each test prints exactly one verdict line of the form "[criterion N] PASS ..."
or "[criterion N] FAIL ..."; run with -s to see them on a green suite. The
battery re-derives every claimed quantity from package outputs and, where a
dimension or rank is claimed exactly, compares integers.
"""

import time

import numpy as np
import scipy.linalg as sla

from measurelab._linalg import (cyclic_shift, frob, matrix_unit, random_density,
                                tensor, trace_norm)
from measurelab.algebra import commutant_dimension_bruteforce
from measurelab.dilation import instrument_of, realize_instrument
from measurelab.instruments import (central_decomposition, instrument,
                                    instrument_distance, instrument_from_process,
                                    random_measuring_process, verify_axioms)
from measurelab.sampling import chi_square_pvalue, sample_histogram
from measurelab.serialize import histogram_csv
from measurelab.scenarios import (build_projective_scenario, chi_ladder_report,
                                  run_projective_check, tensor_power_report)
from measurelab.states import State, diagonal_state, fidelity, vector_state
from measurelab.uhf import (AdjointAction, gamma_step, innerness_residual,
                            surrogate_commutant, symmetry_unitary,
                            unitary_path)

SCENARIO_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
# ambient dimensions 256, 512 and 1024: the meter is read off the step's
# index map with no commutant solve, and every check reads the isometry or
# thin factors of it; (2, 10) guards the largest truncation the benchmark
# probes
LARGE_SCENARIOS = [(4, 4), (2, 9), (2, 10)]
STRUCTURE_GRID = [(k, n) for k in (2, 3) for n in (2, 3, 4)]


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def _kraus_choi(ops, d):
    c = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            out = sum(K @ matrix_unit(p, q, d) @ K.conj().T for K in ops)
            c[p * d:p * d + d, q * d:q * d + d] = out
    return c


def _projective_instrument(d):
    return instrument([_kraus_choi([np.diag(np.eye(d)[i]).astype(complex)], d)
                       for i in range(d)])


def _random_instrument(d, outcomes, rng):
    chois = []
    for _ in range(outcomes):
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        chois.append((g @ g.conj().T).reshape(d, d, d, d))
    R = sum(np.einsum("paqa->pq", c) for c in chois)
    X = np.asarray(sla.fractional_matrix_power(np.linalg.inv(R), 0.5))
    return instrument([np.einsum("pr,rasb,qs->paqb", X, c, X.conj())
                       .reshape(d * d, d * d) for c in chois])


def test_criterion_1_instrument_axioms_on_random_interactions():
    rng = np.random.default_rng(1010)
    worst, runs = 0.0, 0
    try:
        for k in (2, 3, 4):
            for n in (2, 3, 4):
                for _ in range(20):
                    p = random_measuring_process(k, n, rng)
                    rep = verify_axioms(instrument_from_process(p), tol=1e-9)
                    worst = max(worst, max(c.residual for c in rep.checks))
                    runs += 1
                    if not rep.all_pass:
                        break
    except BaseException:
        _verdict(1, False, "axiom verification raised")
        raise
    ok = runs == 180 and worst <= 1e-9
    _verdict(1, ok, f"max axiom residual {worst:.2e} over {runs} random processes")
    assert ok


def dense_components(p, rho):
    """The outcome-j blocks (1 (x) W_j*) V rho V* (1 (x) W_j) of the
    post-interaction state over their traces, from dense W_j built off the
    step's index map: W_j e_q = phases[j, q] e_{rows[j, q]}."""
    step = p.step
    W = (np.eye(step.target_dim, dtype=complex)[step.rows].swapaxes(1, 2)
         * step.phases[:, None, :])
    V = p.isometry
    post = V @ rho @ V.conj().T
    lifts = [np.kron(np.eye(p.observed_dim), w) for w in W]
    blocks = [lift.conj().T @ post @ lift for lift in lifts]
    return [b / np.trace(b).real for b in blocks]


def test_criterion_2_branch_law_and_decomposition():
    rng = np.random.default_rng(2020)
    law = wdev = purity = 0.0
    try:
        for k, n in SCENARIO_GRID:
            p = build_projective_scenario(k, n)
            E = instrument_from_process(p)
            for _ in range(100):
                rho = random_density(k, rng)
                st = State(rho)
                total = sum(E.apply(i, rho) for i in range(k))
                pinched = np.diag(np.real(np.diag(rho))).astype(complex)
                law = max(law, trace_norm(total - pinched))
                wdev = max(wdev, float(np.max(np.abs(
                    E.outcome_weights(st) - np.real(np.diag(rho))))))
                cd = central_decomposition(p, st)
                assert cd.weights.min() > 1e-8  # every component counts
                for comp in dense_components(p, rho):
                    lam = np.linalg.eigvalsh((comp + comp.conj().T) / 2)
                    purity = max(purity, float(lam[-2]))
                purity = max(purity, cd.purity_defect)
    except BaseException:
        _verdict(2, False, "branch-law sweep raised")
        raise
    ok = law <= 1e-9 and wdev <= 1e-10 and purity <= 1e-10
    _verdict(2, ok, f"law {law:.2e}, weights {wdev:.2e}, purity {purity:.2e} "
                    f"over {len(SCENARIO_GRID)}x100 states")
    assert ok


def test_large_projective_scenario_passes_its_checks():
    for k, n in LARGE_SCENARIOS:
        rep = run_projective_check(build_projective_scenario(k, n), shots=0)
        assert rep.all_pass, (k, n, [c.name for c in rep.failures()])


def test_criterion_3_identity_interaction_reads_nothing():
    first = scalar = 0.0
    try:
        for k, n in [(2, 2), (3, 2), (4, 2), (2, 3)]:
            p = build_projective_scenario(k, n, identity_interaction=True)
            povm = instrument_from_process(p).povm()
            first = max(first, frob(povm[0] - np.eye(k)))
            for e in povm[1:]:
                first = max(first, frob(e))
            for e in povm:
                t = np.trace(e) / k
                scalar = max(scalar, frob(e - t * np.eye(k)))
    except BaseException:
        _verdict(3, False, "identity-interaction sweep raised")
        raise
    ok = first <= 1e-12 and scalar <= 1e-12
    _verdict(3, ok, f"first-outcome residual {first:.2e}, "
                    f"scalar-effect residual {scalar:.2e}")
    assert ok


def test_criterion_4_symmetry_and_dimension_structure():
    order = 0.0
    dims_ok = True
    try:
        for k, n in STRUCTURE_GRID:
            order = max(order, frob(np.linalg.matrix_power(
                symmetry_unitary(k, n), k) - np.eye(k ** n)))
            expected_fixed = k * k ** (2 * (n - 1))
            # class ranks from the eigenvalue multiplicities of the symmetry,
            # the fixed-point dimension from their squares, both against
            # the digit classes of the step's meter
            lam = np.linalg.eigvals(symmetry_unitary(k, n))
            classes = np.mod(np.round(np.angle(lam) / (2 * np.pi / k)).astype(int), k)
            ranks = np.bincount(classes, minlength=k)
            step = gamma_step(k, n)
            dims_ok &= np.array_equal(ranks, np.bincount(step.meter(), minlength=k))
            dims_ok &= ranks.tolist() == [k ** (n - 1)] * k
            dims_ok &= int(np.sum(ranks ** 2)) == expected_fixed
            img = step.image_subalgebra()
            dims_ok &= surrogate_commutant(img).dim == k * k
            dims_ok &= surrogate_commutant(img, adjoin_symmetry=True).dim == k
        for k in (2, 3):
            for m in (1, 2):
                rep = tensor_power_report(k, n=2, copies=m)
                dims_ok &= rep.all_pass
                dims_ok &= rep.derived["surrogate_dimension"] == k ** m
    except BaseException:
        _verdict(4, False, "structure sweep raised")
        raise
    ok = order <= 1e-12 and dims_ok
    _verdict(4, ok, f"symmetry order residual {order:.2e}, "
                    f"all dimensions exact: {dims_ok}")
    assert ok


def test_criterion_5_endomorphism_suite_and_unitary_path():
    mult = fixedpt = consist = endpoint = 0.0
    exact_start = True
    try:
        for k, L in ((2, 3), (3, 3)):
            steps = [gamma_step(k, n) for n in range(2, L + 1)]
            for step in steps:
                m = step.source_dim
                units = [matrix_unit(i, j, m) for i in range(m) for j in range(m)]
                for x in units[: m * m]:
                    for y in (units[0], units[-1], cyclic_shift(m)):
                        mult = max(mult, frob(step(x @ y) - step(x) @ step(y)))
                mult = max(mult, frob(step(np.eye(m, dtype=complex))
                                      - np.eye(step.target_dim)))
                act = AdjointAction(symmetry_unitary(k, step.n))
                for x in (cyclic_shift(m), units[0], units[-1]):
                    fixedpt = max(fixedpt, frob(act(step(x)) - step(x)))
                if step.n > 2:
                    prev = steps[step.n - 3]
                    eye_k = np.eye(k, dtype=complex)
                    for x in (cyclic_shift(prev.source_dim),
                              matrix_unit(0, 0, prev.source_dim)):
                        consist = max(consist, frob(
                            step(np.kron(x, eye_k)) - np.kron(prev(x), eye_k)))
            path = unitary_path(steps)
            exact_start &= frob(path.value(0.0) - np.eye(path.dim)) == 0.0
            gens = [cyclic_shift(k), matrix_unit(0, 0, k)] + [
                matrix_unit(i, j, k) for i in range(k) for j in range(k)]
            for x in gens:
                endpoint = max(endpoint,
                               innerness_residual(path, x, float(L - 1)))
    except BaseException:
        _verdict(5, False, "endomorphism suite raised")
        raise
    step_res = max(mult, fixedpt, consist)
    ok = step_res <= 1e-10 and exact_start and endpoint <= 1e-9
    _verdict(5, ok, f"step residuals {step_res:.2e}, u(0)=1 exact: "
                    f"{exact_start}, endpoint conjugation {endpoint:.2e}")
    assert ok


def test_criterion_6_uniform_ladder_disjointness_probes():
    invariance = twisted = cyclic = 0.0
    try:
        for k, L in ((2, 4), (3, 3)):
            rep = chi_ladder_report(k, levels=L)
            by_name = {c.name: c for c in rep.checks}
            for n in range(2, L + 1):
                invariance = max(invariance,
                                 by_name[f"state-invariance-level-{n}"].residual)
                # the report raises unless V intertwines, which on a
                # permutation is also when V is an isometry
                cyclic = max(cyclic, by_name[f"ladder-cyclic-level-{n}"].residual)
            vec = np.ones(k, dtype=complex) / np.sqrt(k)
            site = vector_state(vec)
            v = symmetry_unitary(k, 1)
            for j in range(1, k):
                tw = vector_state(np.linalg.matrix_power(v, j) @ vec)
                twisted = max(twisted, fidelity(site, tw))
                twisted = max(twisted,
                              by_name[f"twisted-overlap-power-{j}"].residual)
    except BaseException:
        _verdict(6, False, "ladder report raised")
        raise
    ok = invariance <= 1e-12 and twisted <= 1e-12 and cyclic <= 1e-10
    _verdict(6, ok, f"pullback invariance {invariance:.2e}, twisted overlap "
                    f"{twisted:.2e}, intertwiner cyclicity {cyclic:.2e}")
    assert ok


def test_criterion_7_dilation_round_trip_under_ten_seconds():
    t0 = time.perf_counter()
    worst = 0.0
    verified = True
    try:
        targets = [_projective_instrument(d) for d in (2, 3, 4)]
        targets += [instrument_from_process(build_projective_scenario(k, 2))
                    for k in (2, 3)]
        rng = np.random.default_rng(7070)
        for d, outcomes in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2),
                            (4, 3), (2, 2), (3, 3), (4, 2), (4, 3)]:
            E = _random_instrument(d, outcomes, rng)
            verified &= verify_axioms(E).all_pass
            targets.append(E)
        for E in targets:
            dil = realize_instrument(E)
            worst = max(worst, instrument_distance(E, instrument_of(dil)))
        elapsed = time.perf_counter() - t0
    except BaseException:
        _verdict(7, False, "dilation round trip raised")
        raise
    ok = verified and worst <= 1e-8 and elapsed <= 10.0
    _verdict(7, ok, f"max round-trip distance {worst:.2e} over {len(targets)} "
                    f"instruments in {elapsed:.1f} s")
    assert ok


def test_criterion_8_seeded_sampling_is_faithful_and_reproducible():
    try:
        p = build_projective_scenario(2, 2)
        E = instrument_from_process(p)
        weights = E.outcome_weights(diagonal_state(np.array([0.3, 0.7])))
        h1 = sample_histogram(weights, 100_000, 42)
        h2 = sample_histogram(weights, 100_000, 42)
        stat, pval = chi_square_pvalue(h1.counts, h1.probabilities)
        identical = histogram_csv(h1).encode() == histogram_csv(h2).encode()
    except BaseException:
        _verdict(8, False, "sampling raised")
        raise
    ok = pval > 1e-3 and identical
    _verdict(8, ok, f"chi-square p={pval:.4f} at 1e5 shots, "
                    f"byte-identical rerun: {identical}")
    assert ok


def test_criterion_9_bruteforce_confirms_every_commutant_dimension():
    agree = True
    try:
        for k, n in STRUCTURE_GRID:
            img = gamma_step(k, n).image_subalgebra()
            m = img.step.source_dim
            gens = [img.step(cyclic_shift(m)), img.step(matrix_unit(0, 0, m))]
            plain = commutant_dimension_bruteforce(gens)
            agree &= plain == surrogate_commutant(img).dim == k * k
            sym = commutant_dimension_bruteforce(gens + [symmetry_unitary(k, n)])
            agree &= sym == surrogate_commutant(img, adjoin_symmetry=True).dim == k
        for k in (2, 3):
            for m in (1, 2):
                step = gamma_step(k, 2)
                N1 = step.target_dim
                placed = [step(cyclic_shift(k)), step(matrix_unit(0, 0, k)),
                          symmetry_unitary(k, 2)]
                cons = []
                for c in range(m):
                    left = np.eye(N1 ** c, dtype=complex)
                    right = np.eye(N1 ** (m - c - 1), dtype=complex)
                    cons.extend(tensor(left, g, right) for g in placed)
                bf = commutant_dimension_bruteforce(cons)
                rep = tensor_power_report(k, n=2, copies=m)
                agree &= bf == rep.derived["surrogate_dimension"] == k ** m
    except BaseException:
        _verdict(9, False, "bruteforce cross-check raised")
        raise
    _verdict(9, agree, f"dense null-space solver agrees exactly on "
                       f"{2 * len(STRUCTURE_GRID) + 4} generator sets")
    assert agree
