"""The reference kernel that expresses step times in machine-speed units.

The 2-vCPU x86_64 virtual machine this benchmark was tuned on changed
speed by +-20% over tens of seconds, and by as much within a second, for
every process alike: a pure Python loop timed every second over 40 s
ranged from 15.5 to 24.7 ms.
Raw pass times of the same code at different moments spread by 20-26%.

So after every step the worker times this fixed kernel for about a tenth
of the step's duration, and divides the step's time by the kernel's mean
time per call measured right then.  The quotient is the step's cost in
kernel calls ("ref"), which moves with the program, not with the
machine's moment.  The kernel mixes interpreter dispatch with small-array
ufuncs, as the identity and radial workloads do.  It touches no emdenlab
code and no numpy state that a cold pass would otherwise set up.

Do not change the kernel in a change that claims a gain: every ``*_ref``
figure is in its units.
"""

import time

import numpy as np

SHARE = 0.1      # kernel time after a step, as a share of the step's time
MIN_S = 0.002    # kernel time after a step, at least
_X = np.linspace(0.5, 2.0, 750).reshape(250, 3)


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += (i % 7) * 0.5
    x = _X
    for _ in range(30):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    return s + float(x.sum())


def seconds_per_call(step_seconds: float) -> float:
    """Mean time of one kernel call, timed for a share of step_seconds."""
    budget = max(MIN_S, SHARE * step_seconds)
    calls = 0
    start = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= 2 and elapsed >= budget:
            return elapsed / calls
