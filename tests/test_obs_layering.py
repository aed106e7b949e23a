"""``repro.obs`` is the bottom layer: it imports nothing it observes.

Harnesses that drive the serving stack under telemetry live with the
code they drive (:mod:`repro.bench`, :mod:`repro.serve`), so the
telemetry package stays importable on its own, without numpy.  The same
holds one layer up: ``repro.resilience`` is a dependency of the serving
stack, so the serve-side chaos plans live in :mod:`repro.serve`.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
OBS = REPO / "src" / "repro" / "obs"
RESILIENCE = REPO / "src" / "repro" / "resilience"
#: The layers above telemetry.
ABOVE = ("serve", "resilience", "daemon", "affect", "datasets", "video",
         "android", "core", "dsp", "nn", "hw")


def _imported_layers(path: Path, layers: tuple[str, ...]) -> list[str]:
    """Every module of ``layers`` that ``path`` imports, at any depth."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ["repro", path.parent.name]
            parts = package[:3 - node.level] if node.level else []
            if node.module:
                parts.append(node.module)
            module = ".".join(parts)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return sorted(
        name for name in names for layer in layers
        if name == f"repro.{layer}" or name.startswith(f"repro.{layer}.")
    )


@pytest.mark.parametrize("path", sorted(OBS.glob("*.py")),
                         ids=lambda p: p.name)
def test_obs_module_imports_no_layer_above(path):
    assert _imported_layers(path, ABOVE) == []


@pytest.mark.parametrize("path", sorted(RESILIENCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_resilience_module_imports_no_serving_layer(path):
    assert _imported_layers(path, ("serve", "daemon")) == []


def test_obs_imports_without_numpy():
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro.obs\n"
        "for module in pkgutil.iter_modules(repro.obs.__path__):\n"
        "    importlib.import_module('repro.obs.' + module.name)\n"
        "print('obs-ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=REPO,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "obs-ok" in result.stdout
