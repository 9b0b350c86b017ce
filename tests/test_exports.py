"""Export hygiene: the package imports, every advertised name exists and
has a reader, no scipy module loads at run time, numpy.random loads only
at the first campaign draw, and no code calls LAPACK or BLAS, loads
numpy.polynomial or sorts with numpy."""

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
from emdenlab import estimates, identities
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
from emdenlab import estimates, identities
from emdenlab.identities import (Campaign, check_decomposition, check_log_gradient_pointwise,
                                 check_solution_identity)
from emdenlab.shooting import solve_dense

def sampler():
    return sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random."))

tmp = Path(sys.argv[1])
out = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(3.0), 1.0)
tail = emdenlab.shoot(emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(6.0),
                      1.0).tail_exponent
limit = estimates.hn_p_harmonic_profile(3, 2.0, 1.0).limit_estimate
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
radial_polynomial = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
camp = Campaign(model_name="euclidean", dim=2, samples=20, seed=3)
kept, first_kept = [], identities._first_kept
identities._first_kept = lambda *args: kept.append(first_kept(*args)) or kept[-1]
rep = check_decomposition(camp)
batch, [[*_, t]] = camp.batch, kept  # one field; the engine keeps no t
drawn = {name: [str(a.dtype), a.tobytes().hex()] for name, a in
         (("u", batch.u), ("g", batch.jets.g), ("h", batch.jets.h), ("t", t))}
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"pass": rep.passed, "codes": codes, "ratio_pass": ratio["pass"],
                  "solution_pass": solution_pass, "log_pass": log_pass,
                  "scipy": scipy, "kind": out.kind, "r_cross": out.r_cross,
                  "tail": tail, "limit": limit, "radial_polynomial": radial_polynomial,
                  "radial_sampler": radial_sampler, "drawn_sampler": sampler(),
                  "drawn": drawn}))
"""


def test_no_scipy_module_loads(monkeypatch, tmp_path):
    # numpy is the only runtime dependency: an identity campaign, a
    # shoot, every integrating command and a quadrature load no scipy.
    # numpy.random loads at the first campaign draw and not before: the
    # radial commands and the checks on a radial solution never load it,
    # and the draw after them is the campaign drawn here, bit for bit.
    # numpy.polynomial never loads: the quadrature rules are literals and
    # the tail fits are line_fit
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
    assert child["radial_polynomial"] == []
    assert child["tail"] == emdenlab.shoot(
        emdenlab.euclidean(3), 2.0, emdenlab.ReactionTerm.pure_power(6.0), 1.0).tail_exponent
    assert child["limit"] == estimates.hn_p_harmonic_profile(3, 2.0, 1.0).limit_estimate
    assert child["radial_sampler"] == []
    assert "numpy.random" in child["drawn_sampler"]
    kept, first_kept = [], identities._first_kept
    monkeypatch.setattr(identities, "_first_kept",
                        lambda *args: kept.append(first_kept(*args)) or kept[-1])
    batch, [[*_, t]] = Campaign(model_name="euclidean", dim=2, samples=20, seed=3).batch, kept
    assert child["drawn"] == {
        name: [str(a.dtype), a.tobytes().hex()] for name, a in
        (("u", batch.u), ("g", batch.jets.g), ("h", batch.jets.h), ("t", t))}


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


#: name parts that reach LAPACK or BLAS, or load numpy.polynomial
_DENSE_ALGEBRA = frozenset({"polyfit", "lstsq", "leggauss", "polynomial", "dot", "matmul"})


def _dotted_names(tree):
    """(line, dotted name) of every import, bare name and outermost
    attribute chain in the tree; a chain on a call or subscript keeps the
    attributes after it (``f(x).dot`` reads ``dot``)."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
            yield node.lineno, ".".join(reversed(parts))


def test_no_blas_lapack_or_polynomial_in_src():
    # radial runs start no LAPACK, no BLAS and no numpy.polynomial: line
    # fits are geometry.line_fit, the quadrature rules are literals and
    # sums are elementwise.  Only np.linalg.norm, and @ on the Grad duals
    # of divergence.py (einsum), are allowed.  About 0.1 s
    src = Path(emdenlab.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for line, name in _dotted_names(tree):
            parts = name.split(".")
            linalg = [parts[i + 1:i + 2] for i, part in enumerate(parts) if part == "linalg"]
            if _DENSE_ALGEBRA.intersection(parts) or any(rest != ["norm"] for rest in linalg):
                found.append(f"{path.name}:{line}: {name}")
        if path.name != "divergence.py":
            found += [f"{path.name}:{node.lineno}: @" for node in ast.walk(tree)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.MatMult)]
    assert found == []


#: numpy's sorts and the reductions that sort (partition) to answer
_SORTS = frozenset({"unique", "sort", "argsort", "lexsort", "partition", "argpartition",
                    "median", "percentile", "quantile"})


def test_no_numpy_sort_in_src():
    # no run loads numpy's sort kernels: the dense output finds its steps
    # by marking them (dop853._DenseOutput.__call__).  An attribute or an
    # import from a module so named counts, whatever it is called on (a
    # Python list sorts with sorted, which stays allowed); a bare local
    # name does not.  About 0.1 s, one ast.parse of src/emdenlab
    src = Path(emdenlab.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for line, name in _dotted_names(ast.parse(path.read_text())):
            if _SORTS.intersection(name.split(".")[1:]):
                found.append(f"{path.name}:{line}: {name}")
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
        {"emdenlab.shooting", "emdenlab.dop853", "emdenlab.exponents", "emdenlab.estimates",
         "emdenlab.cli"})
    assert child["wrong"] == [] and child["missing"] == []
