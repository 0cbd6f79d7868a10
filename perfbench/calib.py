"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU cloud VM (Intel Xeon) the speed flips between a
fast and a slow state every few hundred milliseconds and drifts by up
to 2x over minutes, so raw medians of runs made minutes apart disagree
by 20-40%.  Each timed unit is
therefore bracketed by a calibration of the same kind of work that runs
no etaint code, on the same pinned CPU, and reported at the reference
speed: raw seconds x reference / (mean of the two bracketing times).

* In-process verification calls are bracketed by `task_s`, a fixed
  task that is half bytecode loop and half math loops run in C.  The
  slow state slows C code less than bytecode, and etaint's compute mixes
  both (the Python quad driver and the kernel), so a pure bytecode task
  over-corrects the compiled backend.  Over one minute on the VM above,
  compiled suite compute samples scaled by a bytecode task spread 13%
  (IQR/median), by a C math task 11%, and by the geometric mean of the
  two 4.5%; pure mellin_sweep compute samples 8%, 10% and 6%.
* Processes (CLI runs, set-up) run back to back, with `spawn_s`, a bare
  interpreter start (``python -c pass``), and `task_s` between them.  A
  Python loop tracks process start-up badly, because start-up is mostly
  kernel and file work, so the share of a process's time that a bare
  start takes is scaled by the two starts around it, and the rest by
  the mean `task_s` over the whole batch, since a long process spans
  many speed flips (`scaled_process`).

The report prints the raw medians next to the scaled ones.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

TASK_REF_S = 0.0026  # `task_s` at the reference speed
SPAWN_REF_S = 0.060  # `spawn_s` at the reference speed


def task_s() -> float:
    """Seconds the fixed calibration task takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(3000):
        x = 1.0 + i * 1e-3
        acc += math.exp(-x) * math.cos(x) / (1.0 + x * x)
        table[i & 255] = (x, acc)
    xs = [1.0 + i * 1e-3 for i in range(2000)]
    for _ in range(6):
        acc += math.fsum(map(math.exp, xs)) + sum(map(math.cos, xs))
    return time.perf_counter() - t0


def spawn_s(env: dict) -> float:
    """Seconds to start and end a bare interpreter now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def scaled(raw_s: float, before_s: float, after_s: float, ref_s: float) -> float:
    """raw_s at the reference speed, given the bracketing calibration times."""
    return raw_s * ref_s * 2.0 / (before_s + after_s)


def scaled_process(raw_s: float, spawn: tuple[float, float], task_s: float) -> float:
    """A process's raw_s at the reference speed, given the interpreter
    starts around it and the mean calibration task time of its batch."""
    start_share = min(1.0, 0.5 * sum(spawn) / raw_s)
    return raw_s * (start_share * SPAWN_REF_S * 2.0 / sum(spawn)
                    + (1.0 - start_share) * TASK_REF_S / task_s)
