"""Package-level quality gates: exports, version, docstring coverage."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.topology",
    "repro.routing",
    "repro.netsim",
    "repro.measurement",
    "repro.datasets",
    "repro.core",
    "repro.experiments",
    "repro.overlay",
    "repro.viz",
    "repro.obs",
]


def test_version():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    """Every name in __all__ must actually exist in the package."""
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_sorted(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert exported == sorted(exported), f"{name}.__all__ is unsorted"


def _walk_public_members():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for module_info in pkgutil.iter_modules(package.__path__ if hasattr(package, "__path__") else []):
            full = f"{package_name}.{module_info.name}"
            module = importlib.import_module(full)
            for attr_name in dir(module):
                if attr_name.startswith("_"):
                    continue
                obj = getattr(module, attr_name)
                if getattr(obj, "__module__", None) != full:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    yield full, attr_name, obj


def test_every_public_item_is_documented():
    """Deliverable (e): doc comments on every public item."""
    undocumented = [
        f"{module}.{name}"
        for module, name, obj in _walk_public_members()
        if not (obj.__doc__ or "").strip()
    ]
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_functions_have_annotations():
    """Public functions carry type annotations on their signatures."""
    missing = []
    for module, name, obj in _walk_public_members():
        if not inspect.isfunction(obj):
            continue
        signature = inspect.signature(obj)
        if signature.return_annotation is inspect.Signature.empty:
            missing.append(f"{module}.{name}")
    assert not missing, f"missing return annotations: {missing}"


def test_entry_points_import_neither_scipy_stats_nor_networkx():
    """scipy.stats, scipy.spatial and networkx are heavy and only needed on
    first use; a fresh import of the package's entry points must not load
    them."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.service, repro.scenario\n"
        "import repro.experiments.reproduce\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.spatial', 'networkx')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
