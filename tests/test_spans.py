"""The benchmark tracer's layer list names functions that exist.

`perfbench/spans.py` wraps each (module, function) of SPANS by attribute
lookup and only records a name it cannot find, so a renamed layer function
would read 0 in the per-layer metrics without any error.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for module, attr in spans.SPANS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
