"""Verification of the descent/cost-to-go/rate inequalities along traces,
the sampled calmness modulus, KL-exponent estimation, and stationarity.

A PG step x^{k+1} solves S_PG(p) at p = x^k - x^{k+1}, so the error-bound
constant along a trace and calmness.estimate_calmness_modulus's oracle
estimate are one modulus sampled at two sources of (x, p): sampled_modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import IterateTrace, ProblemSpec, StationarySetApprox, distance_to_set

EPS = float(np.finfo(float).eps)
# a sampled ratio this close (relative) to the largest names the same worst
# sample: on an exactly linear trace the ratios agree but for rounding
RATIO_REL_TOL = 1e-9


def kappa1(gamma: float, L: float) -> float:
    """Sufficient-descent constant 1/(2 gamma) - L/2 (valid for gamma < 1/L)."""
    return 0.5 / gamma - 0.5 * L


def kappa2(gamma: float, L: float) -> float:
    """Cost-to-go constant max{1/gamma + (L+1)/2, L/2 + 1/(2 gamma)}."""
    return max(1.0 / gamma + (L + 1.0) / 2.0, L / 2.0 + 0.5 / gamma)


@dataclass
class InequalityReport:
    name: str
    constant: float
    checked: int
    violations: list = field(default_factory=list)  # (k, slack) with slack > 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {"name": self.name, "constant": self.constant,
                "checked": self.checked, "violations": self.violations,
                "ok": self.ok}


def verify_sufficient_descent(trace: IterateTrace, gamma: float, L: float) -> InequalityReport:
    """F(x^{k+1}) - F(x^k) <= -kappa1 ||x^{k+1} - x^k||^2 at every step."""
    k1 = kappa1(gamma, L)
    rep = InequalityReport("sufficient-descent", k1, 0)
    for k in range(1, len(trace)):
        p2 = float(np.dot(trace.perturbations[k], trace.perturbations[k]))
        lhs = trace.objectives[k] - trace.objectives[k - 1]
        tol = 1e-9 * (1.0 + abs(trace.objectives[k - 1]))
        rep.checked += 1
        slack = lhs + k1 * p2
        if slack > tol:
            rep.violations.append((k, slack))
    return rep


def verify_cost_to_go(prob: ProblemSpec, trace: IterateTrace, gamma: float,
                      L: float, probe_points) -> InequalityReport:
    """F(x^{k+1}) - F(x) <= kappa2 (||x - x^{k+1}||^2 + ||p_{k+1}||^2) for probes x."""
    k2 = kappa2(gamma, L)
    rep = InequalityReport("cost-to-go", k2, 0)
    probes = np.asarray(probe_points, dtype=float).reshape(-1, prob.n)
    probe_F = prob.loss.value_many(probes) + prob.penalty.value_many(probes)
    # one iterate at a time: all at once would hold iterates x probes x n doubles
    for k in range(1, len(trace)):
        D = probes - trace.points[k]
        p2 = float(np.dot(trace.perturbations[k], trace.perturbations[k]))
        tol = 1e-9 * (1.0 + abs(trace.objectives[k]))
        slack = (trace.objectives[k] - probe_F) - k2 * (np.einsum("ij,ij->i", D, D) + p2)
        rep.checked += len(probes)
        rep.violations += [(k, float(s)) for s in slack[slack > tol]]
    return rep


def residual(prob: ProblemSpec, x, gamma: float) -> float:
    """Proximal residue dist(x, Prox_g^gamma(x - gamma grad f(x)))."""
    x = np.asarray(x, dtype=float)
    u = x - gamma * prob.loss.gradient(x)
    return prob.penalty.prox_distance(x, u, gamma)


@dataclass
class ModulusEstimate:
    kappa_hat: float
    samples: int
    max_ratio_point: np.ndarray | None
    max_ratio_perturbation: np.ndarray | None
    note: str = ""

    def to_json(self):
        """kappa_hat to the 5 significant digits that the oracle's rounding leaves."""
        return {"kappa_hat": _significant(self.kappa_hat), "samples": self.samples,
                "max_ratio_point": None if self.max_ratio_point is None
                else np.asarray(self.max_ratio_point).tolist(),
                "max_ratio_perturbation": None if self.max_ratio_perturbation is None
                else np.asarray(self.max_ratio_perturbation).tolist(),
                "note": self.note}


def sampled_modulus(samples) -> ModulusEstimate | None:
    """The largest d / ||p|| over samples (x, p, d), x a solution of the map
    perturbed by p and d = dist(x, S), naming the first sample within
    RATIO_REL_TOL of it; None without samples."""
    taken = [(d / float(np.linalg.norm(p)), x, p) for x, p, d in samples]
    if not taken:
        return None
    top = max(ratio for ratio, _, _ in taken)
    _, x, p = next(t for t in taken if t[0] >= top - RATIO_REL_TOL * top)
    return ModulusEstimate(kappa_hat=top, samples=len(taken),
                           max_ratio_point=x, max_ratio_perturbation=p)


def estimate_error_bound_constant(trace: IterateTrace, S: StationarySetApprox,
                                  window: float) -> ModulusEstimate:
    """Empirical kappa in dist(x^{k+1}, S) <= kappa ||x^{k+1} - x^k||, S_PG's
    modulus at the trace's own perturbations.

    Only steps with x^{k+1} within `window` of the trace limit count;
    steps with ||p|| below 100 machine epsilons, or within 3 S.radius of S
    (its certified localization resolution), are excluded.
    """
    x_ref = trace.final
    steps = ((x, p, d) for x, p in zip(trace.points[1:], trace.perturbations[1:])
             if float(np.linalg.norm(p)) >= 1e2 * EPS
             and float(np.linalg.norm(x - x_ref)) <= window
             and (d := distance_to_set(x, S)) > 3.0 * S.radius)
    est = sampled_modulus(steps)
    if est is None:
        return ModulusEstimate(kappa_hat=math.nan, samples=0,
                               max_ratio_point=None, max_ratio_perturbation=None,
                               note="no informative steps")
    return est


@dataclass
class RateFit:
    sigma_hat: float
    rho_hat: float
    burn_in: int
    r_squared: float
    n_points: int
    predicted_sigma: float | None = None
    within_prediction: bool | None = None

    def to_json(self):
        """Fitted and predicted factors and r^2 to the 5 significant digits that
        rounding in F and kappa_hat leaves them; the attributes keep all."""
        return {"sigma_hat": _significant(self.sigma_hat),
                "rho_hat": _significant(self.rho_hat),
                "burn_in": self.burn_in, "r_squared": _significant(self.r_squared),
                "n_points": self.n_points, "predicted_sigma": _significant(self.predicted_sigma),
                "within_prediction": self.within_prediction}


def _significant(x: float | None, digits: int = 5) -> float | None:
    return None if x is None else float("%.*g" % (digits, x))


def _log_linear_fit(ks, logs):
    ks = np.asarray(ks, dtype=float)
    logs = np.asarray(logs, dtype=float)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return math.exp(slope), r2


def fit_linear_rate(trace: IterateTrace, F_star: float, x_bar, burn_in=None,
                    gamma=None, L=None, kappa_hat=None, tail=None) -> RateFit:
    """Geometric factors of F(x^k) - F* and ||x^k - x_bar|| by log-linear fit.

    With gamma, L and a measured error-bound constant, the predicted factor
    sigma = 1/(1 + kappa1/(kappa2 (kappa^2 + 1))) is attached and the fitted
    sigma is compared against it (slack 0.05).
    """
    x_bar = np.asarray(x_bar, dtype=float)
    gaps = np.array(trace.objectives) - F_star
    floor = 1e3 * EPS * (1.0 + abs(F_star))
    usable = [k for k in range(len(trace)) if gaps[k] > floor]
    if burn_in is None:
        burn_in = max(1, len(trace) // 5)
    usable = [k for k in usable if k >= burn_in]
    if tail is not None:
        usable = usable[-tail:]
    if len(usable) < 10:
        raise ValueError("fewer than 10 usable points for the rate fit")
    sigma_hat, r2 = _log_linear_fit(usable, np.log(gaps[usable]))
    dists = np.array([float(np.linalg.norm(trace.points[k] - x_bar)) for k in usable])
    pos = dists > 1e2 * EPS * (1.0 + float(np.linalg.norm(x_bar)))
    if np.count_nonzero(pos) >= 10:
        ks = np.array(usable)[pos]
        rho_hat, _ = _log_linear_fit(ks, np.log(dists[pos]))
    else:
        rho_hat = 0.0
    fit = RateFit(sigma_hat=sigma_hat, rho_hat=rho_hat, burn_in=burn_in,
                  r_squared=r2, n_points=len(usable))
    if gamma is not None and L is not None and kappa_hat is not None:
        fit.predicted_sigma = predicted_sigma(gamma, L, kappa_hat)
        fit.within_prediction = bool(sigma_hat <= fit.predicted_sigma + 0.05)
    return fit


def predicted_sigma(gamma: float, L: float, kappa_hat: float) -> float:
    k1, k2 = kappa1(gamma, L), kappa2(gamma, L)
    return 1.0 / (1.0 + k1 / (k2 * (kappa_hat ** 2 + 1.0)))


# ---------------------------------------------------------------------------
# KL property with exponent 1/2

@dataclass
class KLReport:
    kappa_min: float          # minimal feasible kappa over the sample
    violation_fraction: float  # fraction violating at the supplied kappa (0 if none given)
    samples_used: int
    epsilon: float

    def to_json(self):
        return {"kappa_min": self.kappa_min,
                "violation_fraction": self.violation_fraction,
                "samples_used": self.samples_used, "epsilon": self.epsilon}


def subdiff_distance(prob: ProblemSpec, x) -> float:
    """dist(0, grad f(x) + limiting-subdiff g(x)) via the separable sum rule."""
    x = np.asarray(x, dtype=float)
    gr = prob.loss.gradient(x)
    return float(np.linalg.norm(prob.penalty.subdiff_distances(x, -gr, limiting=True)))


def check_kl_half(value_fn, subdist_fn, x_bar, epsilon: float, samples: int,
                  seed: int = 0, kappa: float | None = None,
                  gap_floor: float | None = None) -> KLReport:
    """Sample-based check of kappa (F(x)-F(x_bar))^{-1/2} dist(0, dF(x)) >= 1.

    Samples sit on a fixed relative grid scaled by epsilon (same unit-ball
    offsets for every epsilon), so the minimal feasible kappa is comparable
    across radii.  gap_floor guards the gap F(x) - F(x_bar) against
    cancellation noise; pass 0 for exactly-computed objectives to test the
    definitional strict inequality.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    n = x_bar.size
    rng = np.random.default_rng(seed)
    offs = rng.standard_normal((samples, n))
    radii = rng.random(samples) ** (1.0 / n)
    offs = offs / np.linalg.norm(offs, axis=1, keepdims=True) * radii[:, None]
    F0 = value_fn(x_bar)
    kmin = 0.0
    used = 0
    violations = 0
    floor = gap_floor if gap_floor is not None else 1e3 * EPS * (1.0 + abs(F0))
    for o in offs:
        x = x_bar + epsilon * o
        F = value_fn(x)
        if not (F0 + floor < F < math.inf):
            continue
        used += 1
        d = subdist_fn(x)
        gap = math.sqrt(F - F0)
        needed = math.inf if d <= 0.0 else gap / d
        kmin = max(kmin, needed)
        if kappa is not None and (d <= 0.0 or kappa * d / gap < 1.0):
            violations += 1
    frac = violations / used if used else 0.0
    return KLReport(kappa_min=kmin, violation_fraction=frac,
                    samples_used=used, epsilon=epsilon)


def check_kl_half_problem(prob: ProblemSpec, x_bar, epsilon, samples,
                          seed=0, kappa=None) -> KLReport:
    return check_kl_half(prob.objective, lambda x: subdiff_distance(prob, x),
                         x_bar, epsilon, samples, seed, kappa)


# ---------------------------------------------------------------------------
# stationarity

def check_proper_separation(S: StationarySetApprox, prob: ProblemSpec, x_bar,
                            eps: float, tol: float = 1e-8) -> bool:
    """All stationary points within eps of x_bar share the value F(x_bar)."""
    x_bar = np.asarray(x_bar, dtype=float)
    F0 = prob.objective(x_bar)
    for p in S.points:
        if float(np.linalg.norm(p - x_bar)) <= eps:
            if abs(prob.objective(p) - F0) > tol:
                return False
    return True


def is_proximal_stationary(prob: ProblemSpec, x, tol: float) -> bool:
    """0 in grad f(x) + prox-subdiff g(x), coordinate/block-wise within tol."""
    x = np.asarray(x, dtype=float)
    return bool(np.max(prob.penalty.subdiff_distances(x, -prob.loss.gradient(x))) <= tol)


def classify_stationarity(prob: ProblemSpec, x, tol: float) -> str:
    """'proximal', 'limiting-only', or 'none' for the point x.

    Each coordinate (each group, for the group lasso) must be within tol.
    """
    if is_proximal_stationary(prob, x, tol):
        return "proximal"
    x = np.asarray(x, dtype=float)
    gap = np.max(prob.penalty.subdiff_distances(x, -prob.loss.gradient(x), limiting=True))
    return "limiting-only" if gap <= tol else "none"
