"""The reference kernel: a fixed piece of work that measures machine speed.

On a shared host the same command can run 1.5 times slower for seconds at
a time while a neighbour is busy, so a raw time mixes the program's speed
with the neighbour's load.  The benchmark runs ``reference()`` in the same
interpreter just before and just after each timed step, and divides the
step's time by the mean of the two.  ``REF_S`` turns that ratio back into
seconds: a normalised time is the time the step would take on a machine
where the reference kernel takes ``REF_S``.

The kernel mixes the kinds of work monocert does: an interpreted Python
loop, element-wise numpy over arrays of 200,000 points, many small matrix
products, and in-place sweeps over a 2 MB matrix like the simplex pivots
of ``solve_lp``.  Code that streams through memory slows less in the slow
state than interpreted code (``solve_lp`` by about a sixth where the
interpreted parts slow by half); the sweeps take about a sixth of the
kernel's time, the share that gave the steadiest results over all three
workloads.  The kernel is part of the benchmark and must not change
between two commits that are compared.
"""

import time

# a round figure a little below the kernel's time on a 2-vCPU Intel Xeon
# virtual machine when no neighbour competes for the core (55-60 ms with
# Python 3.11, numpy 2.4); it only sets the scale of normalised times
REF_S = 0.050

_state = {}


def _work() -> float:
    # the large arrays are allocated once and written in place, so that the
    # kernel's time does not depend on the state of the program's heap
    import numpy as np
    if not _state:
        rng = np.random.default_rng(0)
        _state["a"] = rng.random((200, 200))
        _state["x"] = np.linspace(0.0, 1.0, 200_000)
        _state["u"] = np.empty(200_000)
        _state["v"] = np.empty(200_000)
        _state["t"] = rng.random((500, 500))
        _state["r"] = np.full(500, 1e-9)
    a, x, u, v, t, r = (_state[k] for k in "axuvtr")
    s = 0
    for i in range(180_000):
        s += i * i % 7
    acc = 0.0
    for _ in range(15):
        np.negative(x, out=u)
        np.exp(u, out=u)
        np.sin(x, out=v)
        np.multiply(u, v, out=u)
        np.multiply(x, x, out=v)
        np.add(u, v, out=u)
        acc += float(u[-1])
    for _ in range(900):
        acc += float((a[:8] @ a[:, :8])[0, 0])
    for _ in range(45):
        np.multiply(t, 0.9999999, out=t)
        np.add(t, r, out=t)
    return acc + s + float(t[0, 0])


def warm_up() -> None:
    """Allocate the kernel's arrays and load numpy's code paths, untimed."""
    _work()


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
