"""Export hygiene: the package imports, every advertised name exists, and
scipy.integrate loads only where something integrates."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import emdenlab

MODULES = ["emdenlab"] + sorted(
    f"emdenlab.{m.name}" for m in pkgutil.iter_modules(emdenlab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


_LAZY_INTEGRATE = """
import contextlib, io, json, sys
import emdenlab, emdenlab.identities, emdenlab.cli
from emdenlab.identities import Campaign, check_decomposition

rep = check_decomposition(Campaign(model_name="euclidean", dim=2, samples=20, seed=3))
with contextlib.redirect_stdout(io.StringIO()):
    code = emdenlab.cli.run(["classify", "--n", "3", "--p", "2", "--alpha", "1.0"])
before = "scipy.integrate" in sys.modules
out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
print(json.dumps({"pass": rep.passed, "code": code, "before": before,
                  "after": "scipy.integrate" in sys.modules,
                  "kind": out.kind, "r_cross": out.r_cross}))
"""


def test_scipy_integrate_loads_at_the_first_solve():
    # the identity campaigns and the non-integrating commands never
    # integrate, so they must not pay scipy.integrate's import
    src = str(Path(emdenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LAZY_INTEGRATE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["pass"] and child["code"] == 0
    assert not child["before"] and child["after"]
    out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
    assert (child["kind"], child["r_cross"]) == (out.kind, out.r_cross)
