"""Ratchet on the library's settable public parameters.

Counted are the parameters with a default of every public function and
of every public method of a public class, plus the dataclass fields with a
default, over the `__all__` of every module but `cli` (whose options are
its command line); a constant has none.  A new knob has to change the
pinned number in the same diff, and a removed one lets it fall.
"""

import dataclasses
import importlib
import inspect

from surface import MODULES

SETTABLE = 8


def _defaulted(fn):
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty]


def settable_parameters():
    found = []
    for module_name in MODULES:
        module = importlib.import_module(f"circleqm.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            where = f"{module_name}.{name}"
            if not callable(obj):   # a constant such as verify.SUITES
                continue
            if not inspect.isclass(obj):
                found += [f"{where}({p})" for p in _defaulted(obj)]
                continue
            if dataclasses.is_dataclass(obj):
                found += [f"{where}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
            for attr, val in vars(obj).items():
                if isinstance(val, (classmethod, staticmethod)):
                    val = val.__func__
                if not attr.startswith("_") and inspect.isfunction(val):
                    found += [f"{where}.{attr}({p})" for p in _defaulted(val)]
    return found


def test_settable_parameter_count_is_pinned():
    found = settable_parameters()
    assert len(found) == SETTABLE, found
