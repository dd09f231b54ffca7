"""Machine speed gauge: a fixed reference loop timed next to every measurement.

On a shared host the same work runs up to 1.7 times faster or slower from
one minute to the next as neighbours come and go, so the spread of raw wall
times over ten runs is wider than any useful regression bound. The benchmark
therefore times one pass of this loop right before and right after each
measured call and rescales the call's wall time to the speed at which a pass
takes ``NOMINAL_S``:

    reference seconds = wall seconds * NOMINAL_S / mean(pass before, pass after)

The loop does the same kind of work as morphoscope, pure-Python float
arithmetic on polynomial terms and small numpy matrix products, but never
calls into the package, so a change to the package moves the measured call
and not its gauge. Garbage collection is off during a pass, so garbage the
package leaves behind does not slow the gauge.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# One pass on a shared 2-vCPU Xeon host at 2.0 GHz, in its usual state with
# busy neighbours; reference times are wall times at that speed.
NOMINAL_S = 1.2e-3

_MATRIX = np.arange(16.0).reshape(4, 4) * 0.01 + np.eye(4)
_TERMS = [(i % 3, (i * 7) % 4, 0.5 / (i + 1)) for i in range(40)]


def pass_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0.0
        for k in range(80):
            x, y = 0.1 * k, 0.2
            for a, b, c in _TERMS:
                acc += c * x ** a * y ** b
            acc += float(np.trace(_MATRIX @ _MATRIX.T))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, gauge: float) -> float:
    """Wall ``seconds`` measured while a gauge pass took ``gauge`` seconds,
    rescaled to the nominal speed."""
    return seconds * NOMINAL_S / gauge
