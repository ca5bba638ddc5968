"""The benchmark's tracer wraps legcordial functions by name; a rename or a
removal of one of them has to fail here, not only in a traced benchmark run."""

from pathlib import Path

import legcordial
import legcordial.cli  # noqa: F401  (the tracer wraps cli.main)


def _targets(tracing):
    """(owner, attribute) of every function the tracer wraps, in its home module."""
    for mod_name, funcs in tracing.WRAPPED.items():
        home = getattr(legcordial, mod_name)
        for func in funcs:
            cls_name, _, attr = func.rpartition(".")
            yield (getattr(home, cls_name) if cls_name else home), attr, f"{mod_name}.{func}"


def test_tracer_wraps_every_listed_name_and_puts_the_originals_back(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    originals = {name: vars(owner)[attr] for owner, attr, name in _targets(tracing)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, name in _targets(tracing):
            assert vars(owner)[attr].__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    for owner, attr, name in _targets(tracing):
        assert vars(owner)[attr] is originals[name], name
