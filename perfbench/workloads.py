"""The benchmark's four workloads, each a closed loop of one client.

A workload is a pair of functions:

- setup(seed, workdir, toy) builds every input from the seed (and, for
  cli, writes the input files into workdir). toy=True gives a tiny
  version of the same operations for the benchmark's own tests.
- ops(inputs) lists the operations of one pass, in order. Each operation
  returns a list of problems; an empty list means every output checked
  out. Later passes repeat the first pass on the same inputs, and
  inputs["seen"] lets them check that seeded outputs repeat byte for byte.

Package functions are looked up on module objects at call time, so a
traced run records every call the workload makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.special

import measurelab as ml
from measurelab import algebra, serialize

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "cli_launcher.py"

# (k, n) points: the acceptance grids, two deeper k=2 levels and the
# largest pair the seed code builds, (5, 3) with N = 125.
LADDER_GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
               (2, 5), (2, 6), (5, 3))
# larger truncations tried, each in its own child, for reach_N
REACH_PROBES = ((2, 7), (3, 5), (4, 4), (2, 8), (2, 9), (2, 10))
REACH_CAP_BYTES = 2 << 30
REACH_BUDGET_S = 40.0

# (k, n, adjoin the phase symmetry): criterion-9 generator sets
ORACLE_CASES = ((2, 4, False), (2, 4, True), (3, 3, False), (3, 3, True),
                (3, 4, True))

INSTRUMENT_OPS = 200
# Passes take the stream a batch at a time: a short pass gives run_s a
# median over many samples, which keeps out the seconds-long slowdowns a
# shared machine has now and then.
INSTRUMENT_BATCH = 20
# ("choi", d, outcomes): random Choi instrument on M_d;
# ("process", k, n): instrument of random_measuring_process(k, n)
INSTRUMENT_KINDS = tuple(("choi", d, m) for d in (2, 3) for m in (2, 3, 4)) + \
    tuple(("process", k, n) for k in (2, 3) for n in (1, 2))
SHOTS = 100_000
BIG_SHOTS = 20_000_000
# The p-value check guards against a broken sampler, not a fluke: at 1e-9
# a correct sampler fails it about once in a billion operations.
P_FLOOR = 1e-9
# the chi-square approximation needs at least this many expected hits per bin
MIN_EXPECTED = 5.0
# counts pinned by the package's test suite: weights (0.3, 0.7), seed 42
PINNED_WEIGHTS = (0.3, 0.7)
PINNED_COUNTS = [30004, 69996]
CLI_TIMEOUT_S = 120.0


class Problems(list):
    """Failed output checks of one operation."""

    def eq(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, expected {want!r}")

    def at_most(self, what, got, bound):
        if not got <= bound:
            self.append(f"{what}: {got!r} exceeds {bound!r}")

    def at_least(self, what, got, bound):
        if not got >= bound:
            self.append(f"{what}: {got!r} is below {bound!r}")

    def passes(self, what, report):
        if not report.all_pass:
            self.append(f"{what}: failing checks "
                        f"{[c.name for c in report.failures()]}")

    def repeats(self, seen, key, blob: bytes):
        """The first pass records a digest; later passes must match it."""
        digest = hashlib.sha256(blob).hexdigest()
        if seen.setdefault(key, digest) != digest:
            self.append(f"{key}: output differs from the first pass")


def random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_chois(d, outcomes, rng):
    """Random Choi blocks C[(p,a),(q,b)], rescaled so the dual maps sum to
    the identity."""
    blocks = []
    for _ in range(outcomes):
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        blocks.append((g @ g.conj().T).reshape(d, d, d, d))
    r = sum(np.einsum("paqa->pq", c) for c in blocks)
    lam, v = np.linalg.eigh(r)
    x = (v / np.sqrt(lam)) @ v.conj().T
    return [np.einsum("pr,rasb,qs->paqb", x, c, x.conj()).reshape(d * d, d * d)
            for c in blocks]


def exact_weights(chois, rho):
    """Outcome probabilities tr(Lambda_i(rho)), computed without the package."""
    d = rho.shape[0]
    return np.array([np.einsum("pq,paqa->", rho, c.reshape(d, d, d, d)).real
                     for c in chois])


def pearson_pvalue(counts, weights):
    live = weights > 0
    expected = weights[live] * counts.sum()
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    return float(scipy.special.chdtrc(int(live.sum()) - 1, stat)), expected


def _rank(e) -> int:
    return int(round(float(np.real(np.trace(e)))))


# --------------------------------------------------------------------- ladder

def ladder_setup(seed, workdir, toy=False):
    rng = np.random.default_rng(seed)
    grid = ((2, 2), (3, 2)) if toy else LADDER_GRID
    points = [{"k": k, "n": n, "state": ml.State(random_density(k, rng)),
               "image_dim": k ** (2 * (n - 1)), "plain_dim": k * k,
               "sym_dim": k, "rank": k ** (n - 1)} for k, n in grid]
    return {"points": points,
            "chi": (2, 3) if toy else (3, 4),
            "tensor": (2, 2, 1) if toy else (3, 2, 2),
            "path": (2, 3) if toy else (3, 4)}


def _ladder_point(pt):
    k, n = pt["k"], pt["n"]
    p = Problems()
    img = ml.gamma_step(k, n).image_subalgebra()
    p.eq(f"({k},{n}) image dim", img.dim, pt["image_dim"])
    p.eq(f"({k},{n}) surrogate commutant dim",
         ml.surrogate_commutant(img).dim, pt["plain_dim"])
    sym = ml.surrogate_commutant(img, adjoin_symmetry=True)
    p.eq(f"({k},{n}) symmetric surrogate dim", sym.dim, pt["sym_dim"])
    del img
    projections = ml.minimal_central_projections(sym)
    p.eq(f"({k},{n}) central projection ranks", [_rank(e) for e in projections],
         [pt["rank"]] * pt["sym_dim"])
    del sym, projections
    proc = ml.build_projective_scenario(k, n)
    p.passes(f"({k},{n}) run_projective_check",
             ml.run_projective_check(proc, state=pt["state"], shots=0))
    return p


def _chi(k, levels):
    p = Problems()
    p.passes("chi_ladder_report", ml.chi_ladder_report(k, levels=levels))
    return p


def _tensor(k, n, copies):
    p = Problems()
    rep = ml.tensor_power_report(k, n=n, copies=copies)
    p.passes("tensor_power_report", rep)
    p.eq("tensor-power surrogate dim", rep.derived["surrogate_dimension"],
         k ** copies)
    p.eq("tensor-power projection ranks", rep.derived["projection_ranks"],
         [k ** (copies * (n - 1))] * k ** copies)
    return p


def _path(k, top):
    p = Problems()
    path = ml.unitary_path([ml.gamma_step(k, n) for n in range(2, top + 1)])
    start = path.value(0.0)
    p.eq("u(0) is exactly the identity",
         bool(np.array_equal(start, np.eye(path.dim))), True)
    for x in (ml.cyclic_shift(k), ml.matrix_unit(0, 0, k)):
        p.at_most("endpoint innerness residual",
                  ml.innerness_residual(path, x, float(top - 1)), 1e-9)
    return p


def point_name(pt) -> str:
    return f"({pt['k']},{pt['n']})"


def ladder_ops(inp):
    ops = [(point_name(pt), lambda pt=pt: _ladder_point(pt))
           for pt in inp["points"]]
    ops.append(("chi", lambda: _chi(*inp["chi"])))
    ops.append(("tensor", lambda: _tensor(*inp["tensor"])))
    ops.append(("path", lambda: _path(*inp["path"])))
    return ops


def _probe(k, n) -> bool:
    proc = ml.build_projective_scenario(k, n)
    return ml.run_projective_check(proc, shots=0).all_pass


def reach_probes() -> list:
    """Try each (k, n) of REACH_PROBES in a forked child limited to
    REACH_CAP_BYTES of address space, and return [k, n, outcome] for each.
    A probe passes when build_projective_scenario and run_projective_check
    complete with every check passing. All probes together get
    REACH_BUDGET_S seconds, so that probes which start to fit cannot push
    a run past its deadline."""
    deadline = time.monotonic() + REACH_BUDGET_S
    out = []
    for k, n in REACH_PROBES:
        if time.monotonic() >= deadline:
            out.append([k, n, "not tried"])
            continue
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                resource.setrlimit(resource.RLIMIT_AS,
                                   (REACH_CAP_BYTES, REACH_CAP_BYTES))
                code = 0 if _probe(k, n) else 1
            except MemoryError:
                code = 3
            finally:
                os._exit(code)
        out.append([k, n, _wait_probe(pid, deadline)])
    return out


def _wait_probe(pid, deadline) -> str:
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            code = os.waitstatus_to_exitcode(status)
            return {0: "pass", 1: "failed", 3: "out of memory"}.get(
                code, f"exit {code}")
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return "timeout"
        time.sleep(0.01)


def reach_n(points_passed, probes) -> int:
    """Largest N = k^n among the grid points and probes that passed."""
    passed = list(points_passed) + [
        (k, n) for k, n, outcome in probes if outcome == "pass"]
    return max((k ** n for k, n in passed), default=0)


# ---------------------------------------------------------------- instruments

def instruments_setup(seed, workdir, toy=False):
    """Cycles through INSTRUMENT_KINDS, so every seed and every batch gives
    the same mix of sizes and only the random entries change."""
    rng = np.random.default_rng(seed)
    items = []
    batch = len(INSTRUMENT_KINDS) if toy else INSTRUMENT_BATCH
    for i in range(batch if toy else INSTRUMENT_OPS):
        kind, d, size = INSTRUMENT_KINDS[i % len(INSTRUMENT_KINDS)]
        if kind == "choi":
            item = {"chois": random_chois(d, size, rng)}
        else:
            item = {"process": ml.random_measuring_process(d, size, rng)}
        item["state"] = ml.State(random_density(d, rng))
        item["seed"] = int(rng.integers(2 ** 31))
        items.append(item)
    return {"items": items, "batch": batch, "next": 0, "seen": {}}


def _instrument_op(item, seen, key):
    p = Problems()
    if "process" in item:
        E = ml.instrument_from_process(item["process"])
    else:
        E = ml.instrument(item["chois"])
    p.passes("verify_axioms", ml.verify_axioms(E))
    dil = ml.realize_instrument(E)
    p.at_most("dilation round trip",
              ml.instrument_distance(E, ml.instrument_of(dil)), 1e-8)
    text = serialize.dumps(serialize.instrument_to_json(E))
    back = serialize.instrument_from_json(json.loads(text), validate=True)
    p.at_most("json round trip", ml.instrument_distance(E, back), 1e-8)
    hist = ml.sample_histogram(E.outcome_weights(item["state"]), SHOTS,
                               item["seed"])
    p.eq("shots drawn", int(hist.counts.sum()), SHOTS)
    _, pval = ml.chi_square_pvalue(hist.counts, hist.probabilities)
    live = hist.probabilities[hist.probabilities > 0]
    if live.min() * SHOTS >= MIN_EXPECTED:
        p.at_least("chi-square p-value", pval, P_FLOOR)
    p.repeats(seen, key, hist.counts.tobytes())
    return p


def _pinned_sample():
    p = Problems()
    hist = ml.sample_histogram(np.array(PINNED_WEIGHTS), SHOTS, 42)
    p.eq("pinned counts", hist.counts.tolist(), PINNED_COUNTS)
    return p


def instruments_ops(inp):
    """One pass is the pinned sample and the next batch of the stream."""
    first = inp["next"]
    inp["next"] = (first + inp["batch"]) % len(inp["items"])
    ops = [("pinned", _pinned_sample)]
    ops += [(f"instrument{i}", lambda i=i: _instrument_op(
        inp["items"][i], inp["seen"], f"instrument{i}"))
        for i in range(first, first + inp["batch"])]
    return ops


# --------------------------------------------------------------------- oracle

def _step_generators(k, n):
    step = ml.gamma_step(k, n)
    m = step.source_dim
    return [step(ml.cyclic_shift(m)), step(ml.matrix_unit(0, 0, m))]


def _tensor_power_generators(k, n, copies):
    placed = _step_generators(k, n) + [ml.symmetry_unitary(k, n)]
    N1 = k ** n
    out = []
    for c in range(copies):
        left = np.eye(N1 ** c, dtype=complex)
        right = np.eye(N1 ** (copies - c - 1), dtype=complex)
        out += [ml.tensor(left, g, right) for g in placed]
    return out


def _relabel(mats, rng):
    """The same generator set in a seeded permutation of the basis: the
    commutant dimension is unchanged, and so are sparsity and diagonality."""
    perm = rng.permutation(mats[0].shape[0])
    return [np.ascontiguousarray(g[np.ix_(perm, perm)]) for g in mats]


def oracle_setup(seed, workdir, toy=False):
    rng = np.random.default_rng(seed)
    cases = []
    for k, n, sym in ((2, 2, False), (2, 2, True)) if toy else ORACLE_CASES:
        gens = _step_generators(k, n)
        if sym:
            gens.append(ml.symmetry_unitary(k, n))
        cases.append({"name": f"({k},{n}){' with symmetry' if sym else ''}",
                      "cons": _relabel(gens, rng), "expect": k if sym else k * k})
    cases.append({"name": "tensor power k=2 copies=2",
                  "cons": _relabel(_tensor_power_generators(2, 2, 2), rng),
                  "expect": 4})
    return {"cases": cases}


def _oracle_op(case):
    p = Problems()
    p.eq(f"{case['name']} brute-force dim",
         algebra.commutant_dimension_bruteforce(case["cons"]), case["expect"])
    p.eq(f"{case['name']} staged dim", algebra.commutant(case["cons"]).dim,
         case["expect"])
    return p


def oracle_ops(inp):
    return [(c["name"], lambda c=c: _oracle_op(c)) for c in inp["cases"]]


# ------------------------------------------------------------------------ cli

def cli_setup(seed, workdir, toy=False):
    """Writes a seeded 3-outcome instrument on M_3 (inst.json) and the
    pinching instrument on M_2 (pin.json); the seed also picks a diagonal
    state with every weight at least 1/30."""
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    chois = random_chois(3, 3, rng)
    serialize.write_json(workdir / "inst.json",
                         serialize.instrument_to_json(ml.instrument(chois)))
    pinch = [np.kron(np.diag(e), np.diag(e)).astype(complex) for e in np.eye(2)]
    serialize.write_json(workdir / "pin.json",
                         serialize.instrument_to_json(ml.instrument(pinch)))
    w = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
    rho = np.diag(w / w.sum()).astype(complex)
    return {"workdir": workdir, "chois": chois, "rho": rho,
            "state": "diag:" + ",".join(repr(float(x)) for x in np.diag(rho).real),
            "sample_seed": int(rng.integers(2 ** 31)),
            "big_shots": 10_000 if toy else BIG_SHOTS,
            "seen": {}, "walls": {}, "trace_dir": None, "calls": 0}


def _run_cli(inp, argv):
    """One whole-process measurelab call; its wall time is added to
    inp["walls"][subcommand]."""
    if inp["trace_dir"]:
        cmd = [sys.executable, str(LAUNCHER)]
        env = dict(os.environ, PERFBENCH_SPANS=str(
            Path(inp["trace_dir"]) / f"spans-cli{inp['calls']}.json"))
    else:
        cmd = [sys.executable, "-m", "measurelab.cli"]
        env = dict(os.environ)
    inp["calls"] += 1
    env["PERFBENCH_T0"] = repr(time.monotonic())
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + argv, cwd=inp["workdir"], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    inp["walls"][argv[0]] = inp["walls"].get(argv[0], 0.0) + (
        time.perf_counter() - t0)
    return proc


def cli_warmup(inp):
    """One untimed `measurelab --help` process before the passes, so that
    the first timed subcommand does not also pay for a cold start."""
    subprocess.run([sys.executable, "-m", "measurelab.cli", "--help"],
                   cwd=inp["workdir"], capture_output=True, check=True,
                   timeout=CLI_TIMEOUT_S)


def _exit_zero(p, what, proc):
    p.eq(f"{what} exit code", proc.returncode, 0)
    if proc.returncode != 0:
        p.append(f"{what} stderr: {proc.stderr.strip()[-300:]}")


def _report_passes(p, what, path):
    rep = json.loads(Path(path).read_text())
    failing = [c["name"] for c in rep["checks"] if not c["pass"]]
    if failing:
        p.append(f"{what}: failing checks {failing}")


def _csv_counts(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return (np.array([int(r[1]) for r in rows]),
            np.array([float(r[2]) for r in rows]))


def _cli_verify(inp):
    p = Problems()
    proc = _run_cli(inp, ["verify", "inst.json", "--out", "verify.json"])
    _exit_zero(p, "verify", proc)
    if not p:
        _report_passes(p, "verify report", inp["workdir"] / "verify.json")
    return p


def _cli_dilate(inp):
    p = Problems()
    proc = _run_cli(inp, ["dilate", "inst.json", "--out", "dilation.json"])
    _exit_zero(p, "dilate", proc)
    if not p:
        dist = float(proc.stdout.split("round_trip_distance=")[1].split()[0])
        p.at_most("dilate round trip", dist, 1e-8)
        dil = json.loads((inp["workdir"] / "dilation.json").read_text())
        p.eq("dilation observed_dim", dil["observed_dim"], inp["rho"].shape[0])
    return p


def _cli_sample_pinned(inp):
    p = Problems()
    proc = _run_cli(inp, ["sample", "pin.json", "--state", "diag:0.3,0.7",
                          "--shots", str(SHOTS), "--seed", "42"])
    _exit_zero(p, "sample", proc)
    if not p:
        p.eq("pinned counts", _csv_counts(proc.stdout)[0].tolist(), PINNED_COUNTS)
    return p


def _cli_sample_big(inp):
    p = Problems()
    proc = _run_cli(inp, ["sample", "inst.json", "--state", inp["state"],
                          "--shots", str(inp["big_shots"]),
                          "--seed", str(inp["sample_seed"]), "--out", "big.csv"])
    _exit_zero(p, "sample --out", proc)
    if not p:
        text = (inp["workdir"] / "big.csv").read_text()
        counts, probs = _csv_counts(text)
        p.eq("shots drawn", int(counts.sum()), inp["big_shots"])
        want = exact_weights(inp["chois"], inp["rho"])
        p.at_most("exact probabilities", float(np.abs(probs - want).max()), 1e-9)
        pval, expected = pearson_pvalue(counts, want)
        if expected.min() >= MIN_EXPECTED:
            p.at_least("chi-square p-value", pval, P_FLOOR)
        p.repeats(inp["seen"], "big.csv", text.encode())
    return p


def _cli_demo_projective(inp):
    p = Problems()
    proc = _run_cli(inp, ["demo", "projective", "--k", "2", "--levels", "3",
                          "--state", "diag:0.3,0.7", "--seed", "42",
                          "--hist", "hist.csv", "--out", "projective.json"])
    _exit_zero(p, "demo projective", proc)
    if not p:
        _report_passes(p, "projective report", inp["workdir"] / "projective.json")
        counts, _ = _csv_counts((inp["workdir"] / "hist.csv").read_text())
        p.eq("demo histogram counts", counts.tolist(), PINNED_COUNTS)
    return p


def _cli_demo(inp, argv):
    p = Problems()
    proc = _run_cli(inp, ["demo"] + argv)
    _exit_zero(p, f"demo {argv[0]}", proc)
    if not p and "[FAIL]" in proc.stdout:
        p.append(f"demo {argv[0]} printed a failing check")
    return p


def cli_ops(inp):
    return [("verify", lambda: _cli_verify(inp)),
            ("dilate", lambda: _cli_dilate(inp)),
            ("sample", lambda: _cli_sample_pinned(inp)),
            ("sample-big", lambda: _cli_sample_big(inp)),
            ("demo-projective", lambda: _cli_demo_projective(inp)),
            ("demo-chi", lambda: _cli_demo(inp, ["chi", "--k", "3",
                                                 "--levels", "3"])),
            ("demo-tensor-power", lambda: _cli_demo(
                inp, ["tensor-power", "--k", "2", "--levels", "2",
                      "--copies", "2"]))]


WORKLOADS = {
    "ladder": (ladder_setup, ladder_ops),
    "instruments": (instruments_setup, instruments_ops),
    "oracle": (oracle_setup, oracle_ops),
    "cli": (cli_setup, cli_ops),
}
