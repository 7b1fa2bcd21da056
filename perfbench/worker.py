"""One benchmark process: import measurelab, build a workload's inputs from
the seed, run its passes, and print a JSON result as the last line of
standard output.

    python3 perfbench/worker.py --workload W --seed S --t0 T --workdir DIR
        [--setup-only] [--seconds X] [--reach-probes] [--yard-fds R,A]
        [--trace-dir DIR]

run.py starts it with src/ on PYTHONPATH and the BLAS thread pin in its
environment; T is time.monotonic() read just before the spawn, so setup_s
covers interpreter start, `import measurelab` and input generation. Passes
repeat until X seconds have gone by; with X = 0 there is exactly one.
--reach-probes (ladder only) tries the reach_N probes before the passes.
--yard-fds has run.py run the yardstick (yardstick.py) after each
operation for YARD_SHARE of the operation's time, through a request and
an answer pipe, and the worker reports each pass's speed factor.
"""

import time

T_SCRIPT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_PROBLEMS = 20
YARD_SHARE = 0.25
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Tally:
    """Operations attempted and failed, with per-operation latency."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[str] = set()
        self.problems: list[str] = []
        self.op_ms: list[float] = []


def run_pass(ops, tally: Tally, speed=None) -> float:
    """Run each operation once and return their summed time. One that
    raises, or reports any problem, counts as one failure. With a speed
    (yardstick.Speed), the yardstick runs after each operation."""
    work_s = 0.0
    for name, op in ops:
        t_op = time.perf_counter()
        try:
            found = op()
        except Exception as exc:
            found = [f"raised {type(exc).__name__}: {exc}"]
        op_s = time.perf_counter() - t_op
        work_s += op_s
        tally.op_ms.append(op_s * 1e3)
        if speed is not None:
            speed.run(YARD_SHARE * op_s)
        tally.attempted += 1
        if found:
            tally.failed += 1
            tally.failed_ops.add(name)
            tally.problems.extend(f"{name}: {msg}" for msg in found)
    return work_s


def cpu_time() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def environment(seed) -> dict:
    """What the numbers depend on besides the code: versions, the BLAS
    thread pin set in this process's environment, and the CPU count."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_pin": " ".join(f"{v}={os.environ.get(v)}" for v in PIN_VARS),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--reach-probes", action="store_true")
    ap.add_argument("--yard-fds")
    ap.add_argument("--trace-dir")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import measurelab
    import_s = time.perf_counter() - t_import
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(measurelab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported measurelab from {measurelab.__file__}, "
                         f"not from {src}")

    import tracing
    import workloads
    import yardstick
    setup, make_ops = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_dir:
        tracer = tracing.Tracer("setup")
        tracing.install(tracer)
    t_gen = time.perf_counter()
    inputs = setup(args.seed, args.workdir)
    gen_s = time.perf_counter() - t_gen
    result = {"setup_s": time.monotonic() - args.t0,
              "interpreter_s": T_SCRIPT - args.t0, "import_s": import_s,
              "gen_s": gen_s, "env": environment(args.seed)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.workload == "cli":
        inputs["trace_dir"] = args.trace_dir
        workloads.cli_warmup(inputs)
    if args.reach_probes:
        # forked before the passes, from a process that holds no results yet
        result["reach_probes"] = workloads.reach_probes()
    link = yardstick.Link(args.yard_fds) if args.yard_fds else None
    tally, pass_s, work_s, factors, cpu_s, walls = Tally(), [], [], [], [], []
    start = time.perf_counter()
    windows = [[t_gen, t_gen + gen_s]]
    while True:
        if tracer:
            tracer.run = f"pass{len(pass_s)}"
        speed = yardstick.Speed(link) if link else None
        t_pass, c_pass = time.perf_counter(), cpu_time()
        work_s.append(run_pass(make_ops(inputs), tally, speed))
        pass_s.append(time.perf_counter() - t_pass)
        if speed:
            factors.append(speed.factor())
        windows.append([t_pass, t_pass + pass_s[-1]])
        cpu_s.append(cpu_time() - c_pass)
        if args.workload == "cli":
            walls.append(inputs["walls"])
            inputs["walls"] = {}
        if time.perf_counter() - start >= args.seconds:
            break

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    result.update(pass_s=pass_s, work_s=work_s, speed=factors, cpu_s=cpu_s,
                  windows=windows,
                  op_ms=tally.op_ms,
                  attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems[:MAX_PROBLEMS],
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    if walls:
        result["cli_wall_s"] = {
            sub: statistics.median(w.get(sub, 0.0) for w in walls)
            for sub in walls[0]}
    if tracer:
        tracer.write(Path(args.trace_dir) / "spans-worker.json",
                     interpreter_s=result["interpreter_s"], import_s=import_s)
    if "reach_probes" in result:
        passed = [(pt["k"], pt["n"]) for pt in inputs["points"]
                  if workloads.point_name(pt) not in tally.failed_ops]
        result["reach_N"] = workloads.reach_n(passed, result["reach_probes"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
