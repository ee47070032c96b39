"""The traced benchmark wraps library functions by name: bench/spans.py lists
them in TRACED and bench/worker.py patches experiment.gamma_for_half_kernel.
A rename would make ``bench/run.py --trace 1`` fail with AttributeError, and
bench/tests is not part of the tier-1 suite, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves_to_a_callable():
    names = _traced_names() + (("fillgap.experiment", "gamma_for_half_kernel"),)
    missing = [
        (module, name)
        for module, name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert names and not missing
