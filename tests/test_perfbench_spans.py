"""The traced benchmark wraps package functions by name; keep them there."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()
WRAPPED = sorted((layer, name)
                 for table in (SPANS.SPANS, SPANS.COUNTERS)
                 for layer, names in table.items() for name in names)


@pytest.mark.parametrize("layer,name", WRAPPED,
                         ids=["%s.%s" % pair for pair in WRAPPED])
def test_wrapped_name_resolves_in_its_module(layer, name):
    module = importlib.import_module("contactbetti." + layer)
    assert callable(getattr(module, name, None))
