"""Every function the benchmark tracer wraps must exist in the package.

`bench/tracer.py` patches functions by name when a run is traced; a name
that no longer resolves only shows up as a crash in a `--trace 1` run.
The tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
NAMES = [(layer, qual) for table in (_T.COUNT_ONLY, _T.SPANNED)
         for layer, quals in table.items() for qual in quals]


def test_layers_are_package_modules():
    assert set(_T.COUNT_ONLY) | set(_T.SPANNED) <= set(_T.MODULES)
    for layer in _T.MODULES:
        importlib.import_module(f"{_T.PACKAGE}.{layer}")


def test_named_ring_fills_the_catalog_cache():
    # Tracer._hooks reads catalog._cache to count named_ring hits
    catalog = importlib.import_module(f"{_T.PACKAGE}.catalog")
    assert isinstance(catalog._cache, dict)
    ring = catalog.named_ring(" F5 ")
    assert catalog._cache["F5"] is ring


@pytest.mark.parametrize("layer, qual", NAMES, ids=[f"{l}.{q}" for l, q in NAMES])
def test_traced_name_resolves(layer, qual):
    obj = importlib.import_module(f"{_T.PACKAGE}.{layer}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
