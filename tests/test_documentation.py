"""Documentation-coverage meta-tests.

Deliverable (e) requires doc comments on every public item; these tests
make that property permanent by walking the package and asserting that
every public module, class, function and method carries a docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module.__name__} lacks a module docstring"


def _public_members():
    seen = set()
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").startswith("repro") is False:
                continue  # re-exported third-party objects
            key = (obj.__module__, getattr(obj, "__qualname__", name))
            if key in seen:
                continue
            seen.add(key)
            yield key, obj


PUBLIC = list(_public_members())


@pytest.mark.parametrize("key,obj", PUBLIC, ids=[f"{k[0]}.{k[1]}"
                                                 for k, _ in PUBLIC])
def test_public_object_has_docstring(key, obj):
    assert obj.__doc__ and obj.__doc__.strip(), \
        f"{key[0]}.{key[1]} lacks a docstring"


def test_public_methods_have_docstrings():
    missing = []
    for (module, qualname), obj in PUBLIC:
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_") or not callable(member):
                continue
            if isinstance(member, property):
                member = member.fget
            doc = inspect.getdoc(member)
            if not doc:
                missing.append(f"{module}.{qualname}.{name}")
    assert not missing, f"methods without docstrings: {missing}"


def test_public_properties_have_docstrings():
    missing = []
    for (module, qualname), obj in PUBLIC:
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_") or not isinstance(member, property):
                continue
            if not (member.fget and inspect.getdoc(member.fget)):
                missing.append(f"{module}.{qualname}.{name}")
    assert not missing, f"properties without docstrings: {missing}"
