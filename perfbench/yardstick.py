"""A fixed piece of work, timed next to the workload, that reads the host's
current speed.

The machines this benchmark runs on are shared, and their speed drifts by a
quarter or more for minutes at a time. A slow minute slows the yardstick
and the workload alike, so a time divided by the speed factor, the
yardstick's time per unit over REF_UNIT_S, reads about the same on a fast
minute and on a slow one. The yardstick calls nothing in measurelab: a
change to the package moves the workload's time and leaves the yardstick's
alone. A unit mixes, in about equal parts of its time, the kinds of work
the scaled workloads do: a copy through a 64 MiB buffer, a tall and a
small complex matmul, small einsums and eigensolves, and plain Python.

The units run in run.py, not in the worker, so that the yardstick's
buffers stay out of the worker's peak RSS: the worker sends the seconds
it wants run down one pipe (Link) and run.py answers with the units run
and their time (serve).
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# median time of unit() on the 2-vCPU VM the benchmark was tuned on
REF_UNIT_S = 1.95e-3
STREAM_CHUNKS = 32
CHUNK = 1 << 17  # complex128 entries: 2 MiB


@functools.cache
def _arrays():
    rng = np.random.default_rng(0)
    small = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    return {"stream": np.ones(STREAM_CHUNKS * CHUNK, dtype=complex),
            "sink": np.empty(CHUNK, dtype=complex),
            "tall": rng.normal(size=(320, 64)) + 1j * rng.normal(size=(320, 64)),
            "mid": rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96)),
            "small": small, "herm": small + small.conj().T, "next": [0]}


def unit() -> float:
    a = _arrays()
    i = a["next"][0] = (a["next"][0] + 1) % STREAM_CHUNKS
    np.copyto(a["sink"], a["stream"][i * CHUNK:(i + 1) * CHUNK])
    acc = float(a["sink"][-1].real)
    acc += float((a["tall"].conj().T @ a["tall"])[0, 0].real)
    acc += float((a["mid"] @ a["mid"] @ a["mid"])[0, 0].real)
    for _ in range(12):
        acc += float(np.einsum("ij,ji->", a["small"], a["small"]).real)
        acc += float(np.linalg.eigvalsh(a["herm"])[0])
    table: dict[int, float] = {}
    for k in range(1400):
        table[k % 97] = table.get(k % 97, 0.0) + k * 0.5
    return acc + table[0]


def run_units(seconds: float) -> tuple[int, float]:
    """Run whole units, at least one, until `seconds` have gone by; return
    how many ran and the time they took."""
    t0 = time.perf_counter()
    units = 0
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return units, elapsed


class Speed:
    """Yardstick units run, here or through a Link, and the time they took."""

    def __init__(self, runner=run_units):
        self.units = 0
        self.seconds = 0.0
        self._runner = runner

    def run(self, seconds: float) -> None:
        units, elapsed = self._runner(seconds)
        self.units += units
        self.seconds += elapsed

    def factor(self) -> float:
        """How much slower than the reference the host ran the units."""
        return self.seconds / self.units / REF_UNIT_S


class Link:
    """The worker's end of the pipes to serve(): called like run_units."""

    def __init__(self, fds: str):
        request, answer = (int(fd) for fd in fds.split(","))
        self._request = os.fdopen(request, "w")
        self._answer = os.fdopen(answer)

    def __call__(self, seconds: float) -> tuple[int, float]:
        self._request.write(f"{seconds!r}\n")
        self._request.flush()
        units, elapsed = self._answer.readline().split()
        return int(units), float(elapsed)


def serve(request_fd: int, answer_fd: int) -> None:
    """Answer each request a Link sends until the worker closes its end."""
    try:
        with os.fdopen(request_fd) as request:
            for line in request:
                units, elapsed = run_units(float(line))
                os.write(answer_fd, f"{units} {elapsed!r}\n".encode())
    except BrokenPipeError:
        pass
    finally:
        os.close(answer_fd)
