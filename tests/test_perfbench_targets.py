"""Every function the benchmark's traced pass wraps still exists under its name.

``perfbench/spans.py`` names moluq functions in ``TARGETS``; a rename in
``src/`` would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, qual) for mod, names in module.TARGETS.items() for qual in names]


@pytest.mark.parametrize("mod_name, qual", _targets())
def test_span_target_resolves(mod_name, qual):
    mod = importlib.import_module(f"moluq.{mod_name}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, qual))
