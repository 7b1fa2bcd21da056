"""Traced stand-in for `python3 -m measurelab.cli`.

    PERFBENCH_SPANS=spans.json PERFBENCH_T0=<monotonic> \\
        python3 perfbench/cli_launcher.py SUBCOMMAND [ARGS...]

Installs the benchmark's span wrappers, runs measurelab.cli.main with the
given arguments, writes the spans and exits with main's exit code.
PERFBENCH_T0 is time.monotonic() read by the caller just before the spawn.
"""

import time

T_SCRIPT = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t_import = time.perf_counter()
    import measurelab.cli
    import_s = time.perf_counter() - t_import
    import tracing
    tracer = tracing.Tracer(run=sys.argv[1] if len(sys.argv) > 1 else "cli")
    tracing.install(tracer)
    try:
        return measurelab.cli.main(sys.argv[1:])
    finally:
        tracer.write(os.environ["PERFBENCH_SPANS"],
                     interpreter_s=T_SCRIPT - float(os.environ["PERFBENCH_T0"]),
                     import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
