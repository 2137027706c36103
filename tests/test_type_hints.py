"""Every public annotation resolves: ``typing.get_type_hints`` succeeds on
each public function and class (and the methods defined on it) of the
packages whose signatures name classes from sibling modules."""

import importlib
import inspect
import typing

import pytest

PACKAGES = ("repro.sched", "repro.obs", "repro.runner", "repro.core")


def _public_callables(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("__"):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("package", PACKAGES)
def test_annotations_resolve(package):
    unresolved = []
    for name, obj in _public_callables(package):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{package}.{name}: {exc}")
    assert not unresolved


def test_fault_and_registry_annotations_name_their_classes():
    from repro.obs.runs import RunRegistry
    from repro.runner import run_sweep
    from repro.sched import FaultSimResult, compute_resilience_metrics

    hints = typing.get_type_hints(compute_resilience_metrics)
    assert hints["result"] is FaultSimResult
    assert typing.get_type_hints(run_sweep)["registry"] == RunRegistry | None
