"""``repro.obs`` is the bottom layer: it imports nothing it observes.

Harnesses that drive the serving stack under telemetry live with the
code they drive (:mod:`repro.bench`, :mod:`repro.serve`), so the
telemetry package stays importable on its own, without numpy.
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
#: The layers above telemetry.
ABOVE = ("serve", "resilience", "daemon", "affect", "datasets", "video",
         "android", "core", "dsp", "nn", "hw")


def _imported_names(tree: ast.AST) -> set[str]:
    """Every module an import statement names, at any depth."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = ["repro", "obs"][:3 - node.level] if node.level else []
            if node.module:
                parts.append(node.module)
            module = ".".join(parts)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(OBS.glob("*.py")),
                         ids=lambda p: p.name)
def test_obs_module_imports_no_layer_above(path):
    names = _imported_names(ast.parse(path.read_text(), str(path)))
    above = sorted(
        name for name in names for layer in ABOVE
        if name == f"repro.{layer}" or name.startswith(f"repro.{layer}.")
    )
    assert above == []


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
