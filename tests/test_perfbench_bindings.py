"""perfbench wraps linnetcox's module-level names by ``getattr``; a renamed or
removed binding would first show in the benchmark run. This checks, in well
under a second, that every name it wraps exists and comes back on restore."""

import importlib.util
from pathlib import Path

from linnetcox import cli, envelopes, estimation, simulate, summaries

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_binding():
    spans = _load_spans()
    modules = (cli, envelopes, estimation, simulate, summaries)
    before = {m: dict(vars(m)) for m in modules}
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)  # AttributeError if a wrapped name is gone
        assert all(getattr(m, attr) is not original for m, attr, original in tracer._undo)
    finally:
        tracer.restore()
    for m in modules:
        after = vars(m)
        assert after.keys() == before[m].keys(), m.__name__
        changed = [k for k, v in before[m].items() if after[k] is not v]
        assert changed == [], (m.__name__, changed)
