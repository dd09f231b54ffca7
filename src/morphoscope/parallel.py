"""An ordered map, kept only as a target of the benchmark tracer."""


def ordered_map(fn, items) -> list:
    """Map fn over items on the calling thread, in input order.

    No command calls it since the twistor readers read a lift stack by
    columns; it stays because the benchmark tracer (perfbench/tracer.py)
    wraps it as its fan-out point, until the tracer drops it, and
    tests/test_tracer_targets.py checks that the name resolves.
    """
    return [fn(x) for x in items]
