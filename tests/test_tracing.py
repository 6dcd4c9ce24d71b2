"""The benchmark tracer finds every name it traces.

`perfbench/tracing.py` patches each traced function on every class or
module that may hold it and skips an owner that does not. So a traced name
that moves, say a method into a base class, would silently drop out of
traced runs and its metrics would read 0; this test makes that loud.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_found(monkeypatch):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    patch, missing = tracing.Tracer._patch, []

    def checked(self, attr, wrapper, *owners):
        if not any(attr in vars(owner) for owner in owners):
            missing.append(attr)
        return patch(self, attr, wrapper, *owners)

    monkeypatch.setattr(tracing.Tracer, "_patch", checked)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._patches
        assert missing == []
        tracer._patch("no_such_function", None, tracing.closures)
        assert missing == ["no_such_function"]
    finally:
        tracer.uninstall()
