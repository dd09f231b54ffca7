"""The ordered map that twistor evaluates its parameter grid through."""


def ordered_map(fn, items) -> list:
    """Map fn over items on the calling thread, in input order.

    A plain map, kept as a function of its own because the benchmark
    tracer (perfbench/tracer.py) wraps it as its fan-out point;
    tests/test_tracer_targets.py checks that the name resolves.
    """
    return [fn(x) for x in items]
