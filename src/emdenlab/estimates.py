"""Quantitative estimate experiments: log-gradient bounds and Harnack ratios.

The global bound under test:  for positive solutions of -lap_p u = f(u)
on a manifold with Ric >= -(n-1) kappa g and f satisfying the
delta0-condition,

    sup |grad ln u|  <=  (n-1)/(p-1) * sqrt(kappa / (1 - delta0+)).

Its extremal on hyperbolic space is the explicit radial p-harmonic
profile u(r) = int_r^inf sinh(sqrt(kappa) s)^{-(n-1)/(p-1)} ds, whose
log-gradient increases to the bound at infinity; the local counterpart
is the scale-invariant quantity R * sup_{B_{R/4}} |grad ln u| tested on
dilation-coherent p-harmonic families.  The weak Harnack inequality and
the local maximum principle are tested as ratio stability bands, since
their constants are existence-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .exponents import GradientEstimateParams, HarnackConfig
from .geometry import line_fit, quad, unit_sphere_area

__all__ = [
    "LogGradientProfile",
    "hn_p_harmonic_profile",
    "global_bound_check",
    "harmonic_family",
    "local_scaling_check",
    "RadialProfileSpec",
    "named_profile",
    "certify_p_superharmonic",
    "weak_harnack_ratio",
    "local_max_principle_ratio",
]


@dataclass(frozen=True)
class LogGradientProfile:
    """Radial profile with its log-gradient magnitude along a grid."""

    grid: np.ndarray
    u: np.ndarray
    g: np.ndarray
    sup_g: float
    limit_estimate: float
    certified: bool
    residual_max: float


def _radial_p_laplacian(p, du, ddu, drift):
    """Radial p-Laplacian |u'|^{p-2} ((p-1) u'' + drift) and its scale.

    ``drift`` is the first-order part (n-1) (psi'/psi) u', in whatever
    form the caller holds it; the scale |u'|^{p-2} (|(p-1) u''| + |drift|)
    is what a residual is measured against.  Where u' = 0 and p < 2 both
    are non-finite (computed without warnings); callers mask or reject
    those points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gn = np.abs(du) ** (p - 2.0)
        lead = (p - 1.0) * ddu
        return gn * (lead + drift), gn * (np.abs(lead) + np.abs(drift))


#: terms of the extremal's series before it fails closed (see
#: hn_p_harmonic_profile)
_SERIES_MAX_TERMS = 4000


def _extremal_series(beta: float, sq: float, grid):
    """int_r^inf sinh(sq s)^{-beta} ds at each radius of the grid, by the
    series of hn_p_harmonic_profile."""
    x = sq * grid
    q = np.exp(-2.0 * x)
    total = np.zeros_like(x)
    coef = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term = coef * np.exp(-(beta + 2.0 * k) * x) / (beta + 2.0 * k)
        total += term
        rho = q * max(1.0, (beta + k) / (k + 1.0))
        done = (rho < 1.0) & (term * rho <= 1e-16 * total * (1.0 - rho))
        if done.all():
            break
        coef *= (beta + k) / (k + 1.0)
    else:
        raise NumericalError(
            f"extremal series not converged in {_SERIES_MAX_TERMS} terms at "
            f"r={float(grid[~done].min()):.6g}")
    if not np.all(np.isfinite(total) & (total > 0)):
        raise NumericalError("extremal series is not finite and positive")
    return total * (2.0**beta / sq)


def hn_p_harmonic_profile(n: int, p: float, kappa: float,
                          r_tail: float = None) -> LogGradientProfile:
    """The explicit radial p-harmonic extremal on hyperbolic space.

    u(r) = int_r^inf sinh(sqrt(kappa) s)^{-beta} ds with
    beta = (n-1)/(p-1); the flux sinh^{n-1} |u'|^{p-2} u' is constant,
    so p-harmonicity is exact and the plug-in residual only measures
    roundoff.  g = |u'|/u decreases to (n-1) sqrt(kappa)/(p-1), the
    global bound, approaching it like e^{-2 sqrt(kappa) r}.

    The profile is singular at the pole (p-harmonic on the punctured
    space only), so its grid is 160 geometric radii in the tail regime
    [9/sqrt(kappa), 30/sqrt(kappa)], where it proxies an entire solution
    to within ~1e-7 of the bound (r_tail, which must exceed 9/sqrt(kappa),
    moves the end).

    u is summed in closed form, vectorized over the grid: with
    x = sqrt(kappa) r and (beta)_k the rising factorial,

        u(r) = (2^beta / sqrt(kappa)) sum_k (beta)_k / k!
                   e^{-(beta+2k) x} / (beta + 2k),

    the binomial series of (1 - e^{-2x})^{-beta} integrated term by term.
    Every term is positive, and the sum stops once the geometric bound
    term * rho / (1 - rho), rho = e^{-2x} max(1, (beta+k)/(k+1)), on the
    remainder is below 1e-16 of the sum.  It needs about 20/x terms and
    is capped at _SERIES_MAX_TERMS, which covers sqrt(kappa) r >= 0.01
    for beta <= 10, far inside the grid's start at 9.  Past the cap, or
    where u underflows (an r_tail far out), the series raises
    NumericalError.

    ``limit_estimate`` extrapolates g to r = inf: the intercept of
    ``line_fit`` through (1/r, g) on the last 10 radii.
    """
    if kappa <= 0 or p <= 1 or n < 2:
        raise PreconditionError("need kappa > 0, p > 1, n >= 2")
    if r_tail is not None and not r_tail > 0:
        raise PreconditionError("r_tail must be positive")
    beta = (n - 1.0) / (p - 1.0)
    sq = math.sqrt(kappa)
    if r_tail is not None and r_tail <= 9.0 / sq:
        raise PreconditionError(
            f"r_tail must exceed the grid start 9/sqrt(kappa) = {9.0 / sq:g}")
    grid = np.geomspace(9.0 / sq, 30.0 / sq if r_tail is None else r_tail, 160)
    u = _extremal_series(beta, sq, grid)
    du = -np.sinh(sq * grid) ** (-beta)
    ddu = beta * sq * np.cosh(sq * grid) * np.sinh(sq * grid) ** (-beta - 1.0)
    coth = np.cosh(sq * grid) / np.sinh(sq * grid)
    plap, scale = _radial_p_laplacian(p, du, ddu, (n - 1) * sq * coth * du)
    res_max = float((np.abs(plap) / scale).max())
    g = np.abs(du) / u
    sup_g = float(g.max())
    # tail extrapolation of the increasing log-gradient on 1/r
    _, intercept = line_fit(1.0 / grid[-10:], g[-10:])
    return LogGradientProfile(
        grid=grid,
        u=u,
        g=g,
        sup_g=sup_g,
        limit_estimate=intercept,
        certified=res_max <= 1e-9,
        residual_max=res_max,
    )


#: a profile is sharp when its tail extrapolation reaches this share of the bound
_SHARP_FRAC = 0.99


def global_bound_check(profile: LogGradientProfile, n: int, p: float,
                       kappa: float, delta0: float = 0.0) -> dict:
    """sup g against (n-1)/(p-1) sqrt(kappa/(1-delta0+)).

    The profile must be certified (plug-in residual passed); the
    sharpness flag fires when the tail extrapolation reaches 99% of the
    bound (the extremal attains it only asymptotically).
    """
    if not profile.certified:
        raise PreconditionError("profile is not certified as a solution")
    d0p = GradientEstimateParams(delta0, p).delta0_plus
    bound = (n - 1.0) / (p - 1.0) * math.sqrt(kappa / (1.0 - d0p))
    passed = profile.sup_g <= bound * (1.0 + 1e-6)
    return {
        "bound": bound,
        "sup_g": profile.sup_g,
        "limit_estimate": profile.limit_estimate,
        "margin": bound - profile.sup_g,
        "pass": bool(passed),
        "sharp": bool(profile.limit_estimate >= _SHARP_FRAC * bound),
        "sharp_frac": _SHARP_FRAC,
    }


# ----------------------------------------------------------------------
# local scaling structure
# ----------------------------------------------------------------------


def _sorted_radii(radii) -> list:
    """The radii in increasing order; a sweep needs at least one, and
    each must be positive."""
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise PreconditionError("need at least one radius")
    if not all(r > 0 for r in radii):
        raise PreconditionError("radii must be positive")
    return radii


def harmonic_family(n: int, p: float):
    """The documented p-harmonic families for the local scaling check.

    * dilation-coherent affine members u_R(x) = 1 + x1/R on B_R
      (affine functions are p-harmonic for every p);
    * the power profile |x - x0|^{(p-n)/(p-1)} with x0 = 3R e1 (the
      radial p-harmonic exponent; singularity kept outside B_{2R}),
      included when p != n.
    """
    members = [{"kind": "affine_dilated", "n": n, "p": p}]
    if p != n:
        members.append({"kind": "fundamental", "n": n, "p": p})
    return members


#: largest |log-log slope| of R * sup |grad ln u| that counts as no trend
_SLOPE_TOL = 0.05


def _member_quantity(member: dict, radius: float):
    """R * sup_{B_{R/4}} |grad ln u|, read at the end of the extremal
    segment [-R/4, R/4] e1 where it is attained: |grad ln u| decreases
    along e1 for the affine member, 1/(R + t), and increases for the
    fundamental one, |beta|/(3R - t), so the sup sits at t = -R/4 and
    t = R/4 respectively."""
    n = member["n"]
    p = member["p"]
    quarter = radius / 4.0
    if member["kind"] == "affine_dilated":
        h = (1.0 / radius) / (1.0 - quarter / radius)
        certified = True  # hessian vanishes identically
    elif member["kind"] == "fundamental":
        beta = (p - n) / (p - 1.0)
        h = abs(beta) / abs(3.0 * radius - quarter)
        core = (p - 1.0) * beta * (beta - 1.0) + (n - 1) * beta
        certified = abs(core) <= 1e-12 * (abs(beta) + 1.0) * (n + p)
    else:
        raise InputError(f"unknown family member kind {member['kind']!r}")
    if not certified:
        raise PreconditionError("member failed p-harmonicity certification")
    return radius * h


def local_scaling_check(n: int, p: float, radii=(1.0, 2.0, 4.0, 8.0)) -> dict:
    """Finiteness and R-stability of R * sup_{B_{R/4}} |grad ln u|.

    The constant itself is not pinned anywhere, so this is a structure
    check: the quantity must be finite and show no growth trend in R
    (log-log slope within +-_SLOPE_TOL for each family member, by
    ``line_fit``).  A slope needs two distinct radii: fewer raise
    PreconditionError, and a quantity that is not finite NumericalError.
    """
    radii = _sorted_radii(radii)
    out = {"n": n, "p": p, "radii": radii, "members": [], "pass": True,
           "slope_tol": _SLOPE_TOL}
    for member in harmonic_family(n, p):
        q_vals = [_member_quantity(member, r) for r in radii]
        slope, _ = line_fit(np.log(radii), np.log(q_vals))
        ok = abs(slope) <= _SLOPE_TOL
        out["members"].append(
            {
                "kind": member["kind"],
                "quantities": q_vals,
                "log_slope": slope,
                "pass": bool(ok),
            }
        )
        out["pass"] = out["pass"] and ok
    return out


# ----------------------------------------------------------------------
# weak Harnack / local maximum principle ratios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfileSpec:
    """A closed-form radial profile with analytic first two derivatives."""

    name: str
    u: Callable
    du: Callable
    ddu: Callable


def named_profile(name: str) -> RadialProfileSpec:
    """The certified profile library for the ratio experiments.

    constant       u = 1
    inverse_sqrt   u = (1 + r^2)^{-1/2}   (superharmonic for n >= 3, p = 2)
    smoothed_cap   u = (1 + r^4)^{-1/4}   (smooth cap of min(1, 1/r), n = 3)

    Each is non-increasing in r, so its infimum on B_R is u(R) (_ball_min).
    """
    if name == "constant":
        one = lambda r: np.ones_like(np.asarray(r, dtype=float))
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return RadialProfileSpec("constant", one, zero, zero)
    if name == "inverse_sqrt":
        return RadialProfileSpec(
            "inverse_sqrt",
            lambda r: (1.0 + r**2) ** -0.5,
            lambda r: -r * (1.0 + r**2) ** -1.5,
            lambda r: (2.0 * r**2 - 1.0) * (1.0 + r**2) ** -2.5,
        )
    if name == "smoothed_cap":
        return RadialProfileSpec(
            "smoothed_cap",
            lambda r: (1.0 + r**4) ** -0.25,
            lambda r: -(r**3) * (1.0 + r**4) ** -1.25,
            lambda r: (2.0 * r**6 - 3.0 * r**2) * (1.0 + r**4) ** -2.25,
        )
    raise InputError(f"unknown profile {name!r}")


#: superharmonicity certificate: radial grid size and normalized slack
_CERTIFY_POINTS = 2000
_CERTIFY_TOL = 1e-10


def certify_p_superharmonic(spec: RadialProfileSpec, n: int, p: float,
                            r_max: float) -> dict:
    """Pointwise check that -lap_p u >= -_CERTIFY_TOL * scale on the
    radial grid.

    Profiles failing anywhere are rejected (never clipped).
    """
    r = np.linspace(1e-6, r_max, _CERTIFY_POINTS)
    du = spec.du(r)
    plap, scale = _radial_p_laplacian(p, du, spec.ddu(r), (n - 1) * du / r)
    plap = np.where(np.abs(du) > 0, plap, 0.0)
    scale = np.where(np.abs(du) > 0, scale, 1.0)
    margin = -plap / np.maximum(scale, 1e-30)
    ok = bool(np.all(margin >= -_CERTIFY_TOL))
    return {
        "profile": spec.name,
        "n": n,
        "p": p,
        "certified": ok,
        "worst_margin": float(margin.min()),
        "tol": _CERTIFY_TOL,
    }


#: the ball norms' quadrature tolerance, echoed by the ratio reports
_QUAD_EPSREL = 1e-11


def _ball_lq_norm(spec: RadialProfileSpec, power: float, q: float, radius: float,
                  n: int) -> float:
    """(int_{B_R} (u^power)^q dV)^{1/q} on Euclidean space by quadrature."""

    def integrand(s):
        return spec.u(s) ** (power * q) * s ** (n - 1)

    val, err = quad(integrand, 0.0, radius, epsabs=1e-13, epsrel=_QUAD_EPSREL)
    if err > 1e-8 * max(abs(val), 1e-30):
        raise NumericalError("ball norm quadrature did not converge")
    return (unit_sphere_area(n) * val) ** (1.0 / q)


def _ball_min(spec: RadialProfileSpec, radius: float) -> float:
    """inf_{B_R} u = u(R): every named profile is non-increasing in r."""
    return float(spec.u(np.asarray(radius, dtype=float)))


#: largest max/min spread of a ratio across the R sweep
_RATIO_BAND = 1e3


def _ratio_sweep(kind: str, key: str, profile, n: int, p: float, q: float,
                 radii, check_q: Callable, row: Callable) -> dict:
    """The R sweep of a ratio experiment on a certified p-superharmonic
    profile: ``check_q()`` enforces its q rule and ``row(spec, R)`` gives
    a row, whose ratio is ``key``.  It passes iff every ratio is positive
    and their spread stays within _RATIO_BAND (the constants are
    existence-only)."""
    spec = named_profile(profile)
    check_q()
    radii = _sorted_radii(radii)
    cert = certify_p_superharmonic(spec, n, p, r_max=2.0 * radii[-1])
    if not cert["certified"]:
        raise PreconditionError(
            f"profile {spec.name!r} failed superharmonicity certification"
        )
    rows = [{"R": radius, **row(spec, radius)} for radius in radii]
    vals = np.array([r[key] for r in rows])
    return {
        "kind": kind,
        "quad_epsrel": _QUAD_EPSREL,
        "profile": spec.name,
        "n": n,
        "p": p,
        "q": q,
        "rows": rows,
        "band": float(vals.max() / vals.min()),
        "band_limit": _RATIO_BAND,
        "certification": cert,
        "pass": bool(vals.min() > 0 and vals.max() / vals.min() <= _RATIO_BAND),
    }


def weak_harnack_ratio(profile: str, n: int, p: float,
                       q: float, radii=(1, 2, 4, 8, 16, 32)) -> dict:
    """rho(R) = inf_{B_R} u / (R^{-n/q} ||u||_{L^q(B_2R)}) across radii,
    for q inside (0, (p-1) chi); the report adds the least rho as min_rho."""

    def row(spec, radius):
        inf_u = _ball_min(spec, radius)
        norm = _ball_lq_norm(spec, 1.0, q, 2.0 * radius, n)
        return {"inf_u": inf_u, "norm": norm,
                "rho": inf_u / (radius ** (-n / q) * norm)}

    out = _ratio_sweep("weak_harnack", "rho", profile, n, p, q, radii,
                       lambda: HarnackConfig(n=n, p=p, q=q), row)
    return {**out, "min_rho": float(np.min([r["rho"] for r in out["rows"]]))}


def local_max_principle_ratio(profile: str, n: int, p: float,
                              q: float, radii=(1, 2, 4, 8, 16)) -> dict:
    """sup_{B_{R/2}} u^{-1} / (V_R^{-1/q} ||u^{-1}||_{L^q(B_R)}) stability,
    with V_R = omega_{n-1} R^n / n the volume of the Euclidean ball."""

    def check_q():
        if q <= 0:
            raise PreconditionError("q must be positive")

    def row(spec, radius):
        sup_inv = 1.0 / _ball_min(spec, radius / 2.0)
        norm = _ball_lq_norm(spec, -1.0, q, radius, n)
        vol = unit_sphere_area(n) * radius**n / n
        return {"sup_inv": sup_inv, "norm": norm,
                "ratio": sup_inv / (vol ** (-1.0 / q) * norm)}

    return _ratio_sweep("local_max_principle", "ratio", profile, n, p, q, radii,
                        check_q, row)
