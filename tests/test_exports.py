"""Export hygiene: the package imports, every advertised name exists, and
no scipy module loads at run time."""

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


_NO_SCIPY = """
import contextlib, io, json, sys
from pathlib import Path
import emdenlab, emdenlab.cli
from emdenlab import estimates
from emdenlab.identities import Campaign, check_decomposition

tmp = Path(sys.argv[1])
rep = check_decomposition(Campaign(model_name="euclidean", dim=2, samples=20, seed=3))
out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
commands = {
    "scan": ["--n", "3", "--p", "2", "--alpha", "4.0", "--u0", "1"],
    "bubble": ["--n", "3", "--p", "2", "--lam", "1", "--rmax", "10"],
    "bv-sphere": ["--n", "3", "--q", "2", "--lam", "1", "--u0", "0.5,1,2"],
    "volume": ["--model", "sphere", "--dim", "3", "--radii", "1,2"],
    "harnack": ["--profile", "inverse_sqrt", "--q", "1", "--radii", "1,2"],
}
codes = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for name, flags in commands.items():
        codes[name] = emdenlab.cli.run([name, *flags, "--out", str(tmp / (name + ".json"))])
ratio = estimates.weak_harnack_ratio("smoothed_cap", 3, 2.0, 1.0, radii=(1, 2))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"pass": rep.passed, "codes": codes, "ratio_pass": ratio["pass"],
                  "scipy": scipy, "kind": out.kind, "r_cross": out.r_cross}))
"""


def test_no_scipy_module_loads(tmp_path):
    # numpy is the only runtime dependency: an identity campaign, a
    # shoot, every integrating command and a quadrature load no scipy
    src = str(Path(emdenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NO_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["pass"] and child["ratio_pass"]
    assert child["codes"] == {name: 0 for name in
                              ("scan", "bubble", "bv-sphere", "volume", "harnack")}
    assert child["scipy"] == []
    out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
    assert (child["kind"], child["r_cross"]) == (out.kind, out.r_cross)
