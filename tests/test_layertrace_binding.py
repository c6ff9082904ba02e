"""The benchmark tracer's hold on the program.

``perfbench/layertrace.py`` wraps, from outside the program, every public
function of each layer module and the constructors and methods its
``METHODS`` table names, reading each of those from its class's own
``__dict__``; its ``GROUPS`` sum the per-layer metrics over wrapped names.
A method moved into a base class, or a function renamed or moved, would
break the install or leave a metric summing nothing.
"""

import importlib
import pathlib
import sys
import types

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402


def _modules():
    for layer in layertrace.LAYERS:
        importlib.import_module("ppchow." + layer)
    return {name: mod for name, mod in sys.modules.items() if name.startswith("ppchow.")}


def test_traced_methods_are_defined_on_their_own_classes():
    for layer, classes in layertrace.METHODS.items():
        mod = importlib.import_module("ppchow." + layer)
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert isinstance(cls.__dict__.get(meth), types.FunctionType), \
                    f"{layer}.{cls_name}.{meth} is not in {cls_name}.__dict__"


def test_every_grouped_name_is_wrapped_and_unwrapped_again():
    modules = _modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = layertrace.Tracer()
    try:
        tracer.install(modules)
        wrapped = set(tracer.calls)
        for prefix, names in layertrace.GROUPS.items():
            for name in names:
                assert name in wrapped, f"{prefix}: {name} is not a live function or method"
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before
    # the module the tracer wrapped: a run that reloaded ppchow (as
    # perfbench/run.py does) leaves another module under the package's name
    assert modules["ppchow.specialfiber"].alpha is before["ppchow.specialfiber"]["alpha"]
