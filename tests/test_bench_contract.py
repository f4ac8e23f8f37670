"""The moelab names that the benchmark under perfbench/ patches and reads.

perfbench/tracer.py rebinds moelab entry points by module attribute and
perfbench/run.py records ``_kernels.USE_NUMBA`` in its run manifest. Deleting
or renaming one of those names fails here, not in every benchmark run.
"""

import importlib.util
from pathlib import Path

import moelab

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_install_and_uninstall():
    tracer = _load_tracer()
    patches = tracer.Patches(tracer.Tracer(), moelab)
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _ in patches.targets]
    patches.install()
    try:
        for owner, attr, new in patches.targets:
            assert _current(owner, attr) is new
    finally:
        patches.uninstall()
    for owner, attr, old in originals:
        assert _current(owner, attr) is old, f"{owner}.{attr} was not restored"


def test_kernel_backend_flag_is_readable():
    assert moelab._kernels.USE_NUMBA is False
