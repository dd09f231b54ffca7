"""The benchmark's tracer wraps package functions by name.

perfbench/tracer.py lists every traced layer in FUNCTIONS as (layer, module,
target): a function, a Class.method, or None for the chart metric methods
named in METRIC_METHODS. A rename or a deletion in the package would break
`perfbench/run.py --trace 1`, so every target must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


def metric_classes(geometry):
    out, todo = [], [geometry.ChartMetric]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def resolves(layer, module_name, target) -> bool:
    try:
        module = importlib.import_module(f"{TRACER.PACKAGE}.{module_name}")
    except ImportError:
        return False
    if target is None:
        return all(any(method in vars(cls) for cls in metric_classes(module))
                   for method in TRACER.METRIC_METHODS[layer])
    if "." in target:
        cls_name, method = target.split(".")
        return method in vars(getattr(module, cls_name, object))
    return callable(getattr(module, target, None))


def test_every_traced_target_resolves():
    assert len(TRACER.FUNCTIONS) == len(TRACER.LAYERS)
    missing = [layer for layer, module_name, target in TRACER.FUNCTIONS
               if not resolves(layer, module_name, target)]
    assert missing == []
