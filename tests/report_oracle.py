"""A written-out walk that turns report data into plain JSON values.

The report layer encodes its data in one json.dumps pass, with NumPy
values made plain by the encoder's fallback. `sanitize` is the walk it
replaced, kept as the oracle of that pass: node by node, every float
finite, NumPy scalars and arrays as Python values, tuples as lists and
dict keys as str.
"""

import math

import numpy as np

from morphoscope.errors import GeometryError


def sanitize(obj):
    """Convert nested report data to plain JSON types, strictly finite."""
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise GeometryError("report values must be finite")
        return obj
    if kind is str:
        return obj
    if kind is np.ndarray and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():
            raise GeometryError("report values must be finite")
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            raise GeometryError("report values must be finite")
        return v
    # ahead of the integers, because bool is a subclass of int
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dict_keys(obj):
    """Every key of every dict nested in obj, lists, tuples and object
    arrays included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from dict_keys(value)
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray)
                                             and obj.dtype == object):
        for value in obj:
            yield from dict_keys(value)
