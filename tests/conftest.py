"""Shared fixtures."""

import numpy as np
import pytest

from morphoscope.geometry import ChartMetric

METRIC_EVALUATIONS = ("matrix", "first_derivatives", "second_derivatives")


def metric_classes() -> list:
    out, todo = [], [ChartMetric]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


@pytest.fixture
def metric_calls(monkeypatch) -> dict:
    """Chart-metric evaluations by method name, one (metric, point) key per
    evaluated point: one per call at a point, one per point of a stack.

    Wraps matrix, first_derivatives and second_derivatives on every
    ChartMetric class that defines them. The key holds the metric object
    itself, so points of two charts never coincide.
    """
    calls = {name: [] for name in METRIC_EVALUATIONS}

    def counted(log, fn):
        def wrapper(self, m, *args, **kwargs):
            log.extend((self, *row) for row in np.asarray(m, dtype=float).reshape(-1, 4).tolist())
            return fn(self, m, *args, **kwargs)
        return wrapper

    for cls in metric_classes():
        for name in METRIC_EVALUATIONS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counted(calls[name], vars(cls)[name]))
    return calls
