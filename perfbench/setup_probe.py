"""Time one benchmark set-up: import quadexp and generate a workload's
inputs.  As a script, it runs a set-up in a fresh interpreter and prints
its seconds and the speed factor to rescale them by:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# reference work run after the set-up, in seconds
AFTER_S = 0.1


def set_up(workload: str, seed: int):
    """Returns (inputs, seconds, speed factor).  The gauge ticks while the
    inputs are made, and its time is not counted in the set-up's; the
    import runs before the gauge can (it needs numpy), so a short sample
    after the set-up covers it."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import quadexp  # noqa: F401  (timed: part of set-up)
    import workloads

    imported = time.perf_counter() - t0
    import reference

    gauge = reference.Gauge()
    with gauge.ticking():
        ticked = gauge.seconds
        t1 = time.perf_counter()
        inputs = workloads.make_inputs(workload, seed)
        made = time.perf_counter() - t1 - (gauge.seconds - ticked)
    gauge.sample(AFTER_S)
    return inputs, imported + made, gauge.factor()


if __name__ == "__main__":
    _, seconds, factor = set_up(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds), repr(factor))
