import importlib
import inspect
import pkgutil

import faultres
from faultres.errors import FaultresError
from faultres.reductions import NotApplicable


def test_every_error_derives_from_faultres_error():
    defined = []
    for info in pkgutil.iter_modules(faultres.__path__):
        module = importlib.import_module(f"faultres.{info.name}")
        defined += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, Exception) and cls.__module__ == module.__name__]
    names = [cls.__name__ for cls in defined]
    assert {"ArityMismatch", "CliError", "NotApplicable"} <= set(names)
    assert len(names) == len(set(names))  # no error class is defined twice
    # NotApplicable is control flow inside the reduction planner, never reported
    assert [cls for cls in defined
            if not issubclass(cls, FaultresError) and cls is not NotApplicable] == []
