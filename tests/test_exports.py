"""Export hygiene: the package imports, every advertised name exists and
has a reader, no scipy module loads at run time, and numpy.random loads
only at the first campaign draw."""

import ast
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import emdenlab
from emdenlab.divergence import View
from emdenlab.fields import FieldTerm, RadialProfile, ScalarField
from emdenlab.identities import Campaign
from emdenlab.jets import FluxBlock, JetBlock

MODULES = ["emdenlab"] + sorted(
    f"emdenlab.{m.name}" for m in pkgutil.iter_modules(emdenlab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


#: classes whose public methods must each have a reader
READ_CLASSES = (View, JetBlock, FluxBlock, ScalarField, RadialProfile, FieldTerm)

#: public names that no code in src/emdenlab or perfbench/ reads, each kept
#: for the ROADMAP item or acceptance criterion that will read it
KEPT_UNREAD = {
    "emdenlab.exponents.is_subcritical": "item 3",
    "emdenlab.exponents.minimal_delta0": "item 3",
    "emdenlab.geometry.warped_from_config": "item 4",
    "emdenlab.shooting.shoot": "item 4, and the package's one-solve entry point",
    "emdenlab.identities.check_solution_identity_special": "item 7",
    "emdenlab.exponents.bubble_coefficient_audit": "item 7",
    "emdenlab.estimates.local_scaling_check": "criterion 8",
}


def _read_names():
    """Every name the code in src/emdenlab and perfbench/ reads, as a
    variable or as an attribute.  A definition, an import and an
    __all__ entry read nothing."""
    root = Path(emdenlab.__file__).resolve().parents[2]
    files = [*(root / "src" / "emdenlab").glob("*.py"), *(root / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _public_api():
    """(qualified name, bare name) of every __all__ entry and every public
    method or property of READ_CLASSES."""
    for name in MODULES:
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", ()):
            yield f"{name}.{n}", n
    for cls in READ_CLASSES:
        for n, value in vars(cls).items():
            if not n.startswith("_") and (
                inspect.isfunction(value)
                or isinstance(value, (property, functools.cached_property))
            ):
                yield f"{cls.__module__}.{cls.__qualname__}.{n}", n


def test_public_api_has_readers():
    # about 0.15 s, most of it one ast.parse of src/emdenlab and perfbench/
    read = _read_names()
    unread = {qual for qual, n in _public_api() if n not in read}
    assert unread - set(KEPT_UNREAD) == set()
    # a kept name that gained a reader leaves the list
    assert set(KEPT_UNREAD) - unread == set()


_NO_SCIPY = """
import contextlib, io, json, sys
from pathlib import Path
import emdenlab, emdenlab.cli
from emdenlab import estimates
from emdenlab.identities import (Campaign, check_decomposition, check_log_gradient_pointwise,
                                 check_solution_identity)
from emdenlab.shooting import solve_dense

def sampler():
    return sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random."))

tmp = Path(sys.argv[1])
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
sol = solve_dense(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(2.0), 2.0,
                  horizon=100.0)
solution_pass = check_solution_identity(sol).passed
log_pass = check_log_gradient_pointwise(sol, delta0=0.0, lam=2.0).passed
radial_sampler = sampler()
camp = Campaign(model_name="euclidean", dim=2, samples=20, seed=3)
rep = check_decomposition(camp)
batch = camp.batch
drawn = {name: [str(a.dtype), a.tobytes().hex()] for name, a in
         (("u", batch.u), ("g", batch.jets.g), ("h", batch.jets.h), ("t", batch.engine.jet.t))}
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"pass": rep.passed, "codes": codes, "ratio_pass": ratio["pass"],
                  "solution_pass": solution_pass, "log_pass": log_pass,
                  "scipy": scipy, "kind": out.kind, "r_cross": out.r_cross,
                  "radial_sampler": radial_sampler, "drawn_sampler": sampler(),
                  "drawn": drawn}))
"""


def test_no_scipy_module_loads(tmp_path):
    # numpy is the only runtime dependency: an identity campaign, a
    # shoot, every integrating command and a quadrature load no scipy.
    # numpy.random loads at the first campaign draw and not before: the
    # radial commands and the checks on a radial solution never load it,
    # and the draw after them is the campaign drawn here, bit for bit
    src = str(Path(emdenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NO_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["pass"] and child["ratio_pass"]
    assert child["solution_pass"] and child["log_pass"]
    assert child["codes"] == {name: 0 for name in
                              ("scan", "bubble", "bv-sphere", "volume", "harnack")}
    assert child["scipy"] == []
    out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
    assert (child["kind"], child["r_cross"]) == (out.kind, out.r_cross)
    assert child["radial_sampler"] == []
    assert "numpy.random" in child["drawn_sampler"]
    batch = Campaign(model_name="euclidean", dim=2, samples=20, seed=3).batch
    assert child["drawn"] == {
        name: [str(a.dtype), a.tobytes().hex()] for name, a in
        (("u", batch.u), ("g", batch.jets.g), ("h", batch.jets.h), ("t", batch.engine.jet.t))}


def test_no_module_level_sampler_import():
    # numpy.random loads inside identities._rng only: an import of it
    # that runs with its module, outside every function, would load it
    # in every radial run
    src = Path(emdenlab.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in in_functions:
                continue
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module}.{alias.name}" for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "numpy.random" or name.startswith("numpy.random.")]
    assert found == []


#: every name the package exported before its names were loaded lazily
PACKAGE_EXPORTS = {
    "errors": ("DomainError", "EmdenLabError", "InputError", "NumericalError",
               "PreconditionError", "SingularJetError"),
    "exponents": ("ReactionTerm", "classify_liouville", "critical_exponent",
                  "emden_bubble", "emden_residual", "threshold_table"),
    "geometry": ("ManifoldModel", "ball_volume", "bishop_gromov_check", "euclidean",
                 "hyperbolic", "sphere"),
    "reports": ("IdentityReport", "InequalityReport", "RunReport"),
    "shooting": ("ShootOutcome", "bubble_match", "bv_sphere_scan", "liouville_scan",
                 "shoot"),
}

_IDENTITIES_ONLY = """
import importlib, json, sys
import emdenlab.identities as I

rep = I.check_bochner_vector(I.Campaign(model_name="sphere", dim=2, samples=20, seed=3))
loaded = sorted(m for m in sys.modules if m.startswith("emdenlab."))
exports = json.loads(sys.argv[1])
import emdenlab
wrong = [name for module, names in exports.items() for name in names
         if getattr(emdenlab, name)
         is not getattr(importlib.import_module("emdenlab." + module), name)]
if emdenlab.__version__ != importlib.import_module("emdenlab.reports").TOOL_VERSION:
    wrong.append("__version__")
listed = set(dir(emdenlab))
missing = [name for names in exports.values() for name in names if name not in listed]
print(json.dumps({"pass": rep.passed, "loaded": loaded, "wrong": wrong,
                  "missing": missing}))
"""


def test_identities_load_no_integrator_or_classifier():
    # an identity campaign loads only the modules its checks run; every
    # name the package exports still resolves, to its submodule's object
    src = str(Path(emdenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IDENTITIES_ONLY, json.dumps(PACKAGE_EXPORTS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["pass"]
    assert set(child["loaded"]).isdisjoint(
        {"emdenlab.shooting", "emdenlab.exponents", "emdenlab.estimates", "emdenlab.cli"})
    assert child["wrong"] == [] and child["missing"] == []
