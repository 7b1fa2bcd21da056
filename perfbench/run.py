"""Benchmark of measurelab: four workloads against its public API.

    python3 perfbench/run.py --workload {ladder,instruments,oracle,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from src/.
Every run starts fresh worker processes (worker.py) with BLAS and OpenMP
pinned to one thread in their environment only. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: run_s is the median time of
one pass over the workload's operations (passes repeat until --seconds
have gone by), setup_s the median over fresh processes from spawn through
`import measurelab` and input generation (SETUP_EACH_SIDE before the
measuring process, that process, and SETUP_EACH_SIDE after), peak_rss_mb
the peak RSS of the working process (cli: of its largest child). setup_s,
and run_s on the SCALED workloads, are wall times divided by the host's
speed factor, read from the yardstick (yardstick.py) run next to them:
seconds at the reference speed. --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics from the traced one; see
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("ladder", "instruments", "oracle", "cli")
SETUP_EACH_SIDE = 2
# yardstick time before each setup process and after the last
SETUP_YARD_S = 0.25
# workloads whose run_s is scaled to the reference speed
SCALED = ("instruments", "cli")
DEADLINE_S = 170.0
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# The yardstick runs numpy in this process too: pinned before numpy loads,
# its BLAS starts no threads that would compete with the worker.
os.environ.update(BLAS_PIN)

import tracing  # noqa: E402
import yardstick  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("uhf.image_subalgebra.self_s", "s"),
    ("uhf.image_subalgebra.out_bytes", "B"),
    ("uhf.image_subalgebra.rss_growth_mb", "MB"),
    ("uhf.surrogate_commutant.self_s", "s"),
    ("uhf.gamma_step.self_s", "s"),
    ("uhf.unitary_path.self_s", "s"),
    ("algebra.commutant.calls", "count"),
    ("algebra.commutant.self_s", "s"),
    ("algebra.commutant.rss_growth_mb", "MB"),
    ("algebra.center.calls", "count"),
    ("algebra.center.self_s", "s"),
    ("algebra.minimal_central_projections.calls", "count"),
    ("algebra.minimal_central_projections.self_s", "s"),
    ("algebra.intertwiner_space.calls", "count"),
    ("algebra.intertwiner_space.self_s", "s"),
    ("algebra.commutant_dimension_bruteforce.calls", "count"),
    ("algebra.commutant_dimension_bruteforce.self_s", "s"),
    ("algebra.commutant_dimension_bruteforce.rss_growth_mb", "MB"),
    ("instruments.apply.calls", "count"),
    ("instruments.apply.self_s", "s"),
    ("instruments.dual_apply.calls", "count"),
    ("instruments.dual_apply.self_s", "s"),
    ("instruments.outcome_weights.calls", "count"),
    ("instruments.outcome_weights.self_s", "s"),
    ("instruments.verify_axioms.self_s", "s"),
    ("instruments.instrument_distance.self_s", "s"),
    ("instruments.instrument_from_process.self_s", "s"),
    ("instruments.conditional_expectation.calls", "count"),
    ("instruments.conditional_expectation.self_s", "s"),
    ("instruments.exact_observation_residual.calls", "count"),
    ("instruments.exact_observation_residual.self_s", "s"),
    ("instruments.central_decomposition.calls", "count"),
    ("instruments.central_decomposition.self_s", "s"),
    ("scenarios.build_projective_scenario.self_s", "s"),
    ("scenarios.run_projective_check.self_s", "s"),
    ("scenarios.chi_ladder_report.self_s", "s"),
    ("scenarios.tensor_power_report.self_s", "s"),
    ("gns.gns_intertwiner.calls", "count"),
    ("gns.gns_intertwiner.self_s", "s"),
    ("states.fidelity.calls", "count"),
    ("dilation.realize_instrument.self_s", "s"),
    ("dilation.instrument_of.self_s", "s"),
    ("linalg.unitary_completion.self_s", "s"),
    ("linalg.trace_norm.calls", "count"),
    ("linalg.haar_unitary.self_s", "s"),
    ("sampling.sample_histogram.self_s", "s"),
    ("sampling.chi_square_pvalue.self_s", "s"),
    ("sampling.shots", "count"),
    ("serialize.dumps.self_s", "s"),
    ("serialize.instrument_from_json.self_s", "s"),
    ("serialize.read_json.self_s", "s"),
    ("serialize.bytes_written", "B"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.verify.wall_s", "s"),
    ("cli.dilate.wall_s", "s"),
    ("cli.sample.wall_s", "s"),
    ("cli.demo.wall_s", "s"),
    ("trace.run_s", "s"),
    ("trace.gap_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _kill_group(proc) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def run_worker(workload, seed, deadline, *extra, yard=False) -> dict:
    """Start worker.py in its own process group and return its result. On
    timeout the whole group (forked probes, cli children) is killed. With
    yard, a thread of this process runs the yardstick for the worker."""
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    request_r, request_w = os.pipe() if yard else (None, None)
    answer_r, answer_w = os.pipe() if yard else (None, None)
    fds = (request_w, answer_r) if yard else ()
    if yard:
        extra += ("--yard-fds", f"{request_w},{answer_r}")
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--workdir", str(workdir),
           *extra]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True, pass_fds=fds)
    finally:
        for fd in fds:
            os.close(fd)
    server = None
    if yard:
        server = threading.Thread(target=yardstick.serve,
                                  args=(request_r, answer_w), daemon=True)
        server.start()
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError(f"{workload} worker ran past the deadline") from None
    except BaseException:
        _kill_group(proc)
        raise
    finally:
        if server:
            # the worker has ended, so its end of the request pipe is closed
            server.join()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile_lines(op_ms) -> list[str]:
    """Median and 90th percentile of per-operation latency, each only when
    at least ten samples lie beyond it."""
    n = len(op_ms)
    lines = []
    for name, q, need in (("op_p50_ms", 50, 20), ("op_p90_ms", 90, 100)):
        if n >= need:
            value = statistics.quantiles(op_ms, n=100)[q - 1]
            lines.append(f"{name:<13}{value:12.3f} ms   (n={n})")
        else:
            lines.append(f"{name:<13}{'n/a':>12}      (n={n}, needs {need})")
    return lines


def measure(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    yardstick.unit()  # the first unit allocates its buffers: keep it untimed
    setup_speed = yardstick.Speed()
    setups = []

    def setup_sample(*extra, yard=False):
        setup_speed.run(SETUP_YARD_S)
        res = run_worker(workload, seed, deadline, *extra, yard=yard)
        setups.append(res["setup_s"])
        return res

    for _ in range(SETUP_EACH_SIDE):
        setup_sample("--setup-only")
    extra = ("--reach-probes",) if workload == "ladder" else ()
    res = setup_sample("--seconds", str(seconds), *extra,
                       yard=workload in SCALED)
    for _ in range(SETUP_EACH_SIDE):
        setup_sample("--setup-only")
    setup_speed.run(SETUP_YARD_S)
    if workload in SCALED:
        run_s = statistics.median(
            w / f for w, f in zip(res["work_s"], res["speed"]))
        how = (f"at the reference speed; wall "
               f"{statistics.median(res['work_s']):.4f} s, speed factor "
               f"{statistics.median(res['speed']):.4f}")
    else:
        run_s = statistics.median(res["work_s"])
        how = "wall time"
    metrics = {"run_s": run_s,
               "setup_s": statistics.median(setups) / setup_speed.factor(),
               "peak_rss_mb": res["peak_rss_mb"]}
    lines = [f"run_s        {metrics['run_s']:12.4f} s    "
             f"(median of {len(res['work_s'])} passes, {how}; "
             f"CPU time {statistics.median(res['cpu_s']):.4f} s)",
             *percentile_lines(res["op_ms"]),
             f"peak_rss_mb  {metrics['peak_rss_mb']:12.1f} MB",
             f"setup_s      {metrics['setup_s']:12.4f} s    "
             f"(median of {len(setups)} processes at the reference speed; "
             f"wall {statistics.median(setups):.4f} s, speed factor "
             f"{setup_speed.factor():.4f})",
             f"fail_ratio   {res['failed'] / res['attempted']:12.4f}      "
             f"({res['failed']} of {res['attempted']} operations)"]
    if "reach_N" in res:
        probes = ", ".join(f"({k},{n}) {outcome}"
                           for k, n, outcome in res["reach_probes"])
        lines.append(f"reach_N      {res['reach_N']:12d}      (probes: {probes})")
    for sub, wall in sorted(res.get("cli_wall_s", {}).items()):
        lines.append(f"cli.{sub}.wall_s {wall:.4f} s per pass")
    return metrics, {"lines": lines, "worker": res, "setup_samples": setups,
                     "setup_speed": setup_speed.factor()}


def check_accounting(rows, windows, spans_self, window) -> list[str]:
    """Problems with the traced accounting: spans that lie outside the
    worker's input generation and passes, or more span self time than
    the window holds."""
    problems = []
    outside = [r["name"] for r in rows
               if not any(lo <= r["start"] <= r["end"] <= hi
                          for lo, hi in windows)]
    if outside:
        problems.append(f"accounting: {len(outside)} spans lie outside the "
                        f"traced window, first {outside[0]}")
    if spans_self > window:
        problems.append(f"accounting: span self time {spans_self:.6f} s "
                        f"exceeds the traced window {window:.6f} s")
    return problems


def trace(workload, seed, deadline) -> tuple[dict, dict]:
    plain = run_worker(workload, seed, deadline, "--seconds", "0")
    span_dir = OUT / f"spans-{workload}-seed{seed}"
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced = run_worker(workload, seed, deadline, "--seconds", "0",
                        "--trace-dir", str(span_dir))
    rows, children = [], []
    for path in sorted(span_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        rows += data["spans"]
        if path.name.startswith("spans-cli"):
            children.append(data["meta"])
    layer = tracing.summarize(rows)
    starts = children or [traced]
    layer["cli.interpreter_s"] = statistics.median(m["interpreter_s"] for m in starts)
    layer["cli.import_s"] = statistics.median(m["import_s"] for m in starts)
    for sub, wall in plain.get("cli_wall_s", {}).items():
        layer[f"cli.{sub}.wall_s"] = wall
    window = traced["gen_s"] + sum(traced["pass_s"])
    spans_self = sum(r["self_s"] for r in rows)
    layer["trace.run_s"] = window
    layer["trace.gap_s"] = window - spans_self
    layer["trace.overhead_s"] = window - (plain["gen_s"] + sum(plain["pass_s"]))
    metrics = {name: layer.get(name, 0) for name, _ in PER_LAYER}
    lines = [f"{name:<52} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    lines.append(f"accounting: traced input generation + pass {window:.4f} s "
                 f"= span self time {spans_self:.4f} s + untraced gap "
                 f"{window - spans_self:.4f} s ({len(rows)} spans)")
    if children:
        startup = sum(m["interpreter_s"] + m["import_s"] for m in children)
        lines.append(f"  the gap holds {startup:.4f} s of interpreter start "
                     f"and import in {len(children)} measurelab processes")
    lines.append("waiting: none; every process is single-threaded and has no "
                 "queue, so no layer has a wait time")
    problems = check_accounting(rows, traced["windows"], spans_self, window)
    return metrics, {"lines": lines, "untraced": plain, "traced": traced,
                     "accounting_problems": problems,
                     "spans": str(span_dir.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "measurelab" / "__init__.py").is_file():
        print(f"perfbench: no measurelab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # so that a terminated run still stops its workers (see run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, detail = trace(args.workload, args.seed, deadline)
            results = [detail["untraced"], detail["traced"]]
            units = dict(PER_LAYER)
        else:
            metrics, detail = measure(args.workload, args.seed, args.seconds,
                                      deadline)
            results = [detail["worker"]]
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = results[0]["env"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    if args.trace:
        # the accounting counts as one more operation of the traced run
        attempted += 1
        failed += bool(detail["accounting_problems"])
        problems += detail["accounting_problems"]
    print(f"measurelab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in detail["lines"]:
        print(line)
    for p in problems:
        print(f"FAILED {p}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
