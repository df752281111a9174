"""The benchmark's tracer against the package.

``bench/tracing.py`` wraps public functions and methods by name from
outside ``src/``.  These checks fail as soon as a traced name disappears
from the package, instead of at the next traced benchmark run.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def _counted():
    """(owner, attribute) of every name the tracer wraps with a counter."""
    from cographic import orientations, semigroup
    return [(orientations, "is_totally_cyclic"),
            (semigroup.AffineSemigroup, "contains"),
            (semigroup, "hyperplane_through")]


def _targets(tracing):
    return [(owner, attribute) for owner, attribute, _ in tracing.SPANS] \
        + _counted()


def _bindings(tracing):
    """Every (owner, attribute) -> object the tracer may replace: the
    targets, and every ``cographic`` module's binding of their names."""
    targets = _targets(tracing)
    names = {attribute for _, attribute in targets}
    out = {(m, n): getattr(m, n) for m in tracing.MODULES for n in names
           if hasattr(m, n)}
    out.update({(o, a): getattr(o, a) for o, a in targets})
    return out


def test_every_traced_name_exists(tracing):
    for owner, attribute in _targets(tracing):
        assert callable(getattr(owner, attribute, None)), attribute


def _run_under_tracer(tracing, argv, spans):
    """Run the CLI on ``argv`` with the tracer installed and check that it
    exits 0, records ``spans`` among its span names, closes every span and
    that ``uninstall`` restores every binding.  Returns the stdout."""
    from cographic import cli

    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[cli, "main"]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    names = {name for name, *_ in tracer.spans}
    assert {"cli.main", "cli.emit"} | spans <= names
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    return out.getvalue()


def test_fan_runs_under_the_tracer_and_uninstall_restores(tracing):
    out = _run_under_tracer(tracing, ["fan", "B3"], {
        "fan.build", "fan.to_json", "orientations.poset",
        "circuits.compatible"})
    assert '"num_cones":13' in out


@pytest.mark.parametrize("argv, spans", [
    (["ring", "FIG-NG"], {"ring.present", "semigroup.hilbert_basis"}),
    (["analyze", "THETA2"], {"ring.present", "semigroup.hilbert_basis",
                             "semigroup.hs"}),
], ids=["ring-FIG-NG", "analyze-THETA2"])
def test_ring_and_analyze_run_under_the_tracer_and_uninstall_restores(
        tracing, argv, spans):
    _run_under_tracer(tracing, argv, spans)
