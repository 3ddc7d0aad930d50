"""perfbench's tracer rebinds package names from outside the package.

Names such as ``kendall.generator_inverse_derivative_log`` look unused
inside the package but are the bindings the tracer swaps; dropping one
breaks every traced benchmark run. The perfbench tests are not part of
the main suite, so this guard installs the tracer here.
"""

import importlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", SCRIPT)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_tracer_patches_existing_names_and_restores_them():
    modules = {name: importlib.import_module(f"hierkendall.{name}") for name in tracing.LAYERS}
    before = {}
    for caller, pairs in tracing.PATCHES.items():
        for layer, fname in pairs:
            assert hasattr(modules[layer], fname), f"hierkendall.{layer}.{fname}"
            assert hasattr(modules[caller], fname), f"hierkendall.{caller}.{fname}"
            before[(caller, fname)] = getattr(modules[caller], fname)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for (caller, fname), fn in before.items():
            assert getattr(modules[caller], fname) is not fn, f"{caller}.{fname} not patched"
    finally:
        tracer.remove()
    for (caller, fname), fn in before.items():
        assert getattr(modules[caller], fname) is fn, f"{caller}.{fname} not restored"
