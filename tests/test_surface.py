"""The table of the public surface (`surface.SURFACE`) against the code:
one entry per `__all__` name, and a guard that exists for each entry."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from circleqm import verify

from surface import MODULES, SURFACE

TESTS = Path(__file__).resolve().parent


def public_names():
    names = []
    for module_name in MODULES:
        module = importlib.import_module(f"circleqm.{module_name}")
        names += [f"{module_name}.{name}" for name in module.__all__]
    return names


@functools.cache
def _test_file_body(file_name: str) -> list:
    """The top-level statements of tests/<file_name>.py, [] if none."""
    source = TESTS / f"{file_name}.py"
    if not source.is_file():
        return []
    return ast.parse(source.read_text(encoding="utf-8")).body


def guard_exists(guard: str) -> bool:
    """Whether `guard` is a verify row id, or "test_file::Class::test" (or a
    prefix of it) names a class or function defined in tests/."""
    if "::" not in guard:
        return any(guard == row[0] for rows in verify._TABLE.values()
                   for row in rows)
    file_name, *path = guard.split("::")
    body = _test_file_body(file_name)
    for name in path:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_public_name_has_one_entry():
    names = public_names()
    assert len(names) == len(set(names))
    assert sorted(set(names) - set(SURFACE)) == []


def test_every_entry_names_a_public_name():
    assert sorted(set(SURFACE) - set(public_names())) == []


def test_package_root_binds_no_function_or_class():
    # the modules' `__all__` is the whole surface: `circleqm` itself
    # re-exports none of it
    package = importlib.import_module("circleqm")
    bound = [name for name, val in vars(package).items()
             if not name.startswith("_")
             and (inspect.isfunction(val) or inspect.isclass(val))]
    assert bound == []


def test_every_guard_exists():
    missing = {name: entry["guard"] for name, entry in SURFACE.items()
               if not guard_exists(entry["guard"])}
    assert missing == {}


def test_guard_lookup_refuses_what_is_not_there():
    assert guard_exists("bessel-sum-rule")
    assert guard_exists("test_surface::test_every_guard_exists")
    assert not guard_exists("bessel-sum-rules")
    assert not guard_exists("test_surface::test_every_guard_exist")
    assert not guard_exists("test_surface::public_names::names")
    assert not guard_exists("test_nowhere::TestAnything")
