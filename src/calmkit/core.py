"""Problem model, solver configuration, iterate traces and file formats."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import losses as losses_mod
from . import penalties as penalties_mod


class ConfigError(ValueError):
    """Invalid problem or solver configuration (CLI exit code 2)."""


class NumericAbort(RuntimeError):
    """Non-finite objective or iterate left its admissible region (CLI exit code 3)."""


@dataclass(frozen=True)
class ProblemSpec:
    """The composite objective F = f + g in dimension n."""

    n: int
    loss: losses_mod.SmoothLoss
    penalty: penalties_mod.Penalty

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigError("dimension must be positive")
        if self.loss.n != self.n:
            raise ConfigError("loss dimension %d != n=%d" % (self.loss.n, self.n))
        if isinstance(self.penalty, penalties_mod.GroupLasso):
            size = sum(len(g) for g in self.penalty.groups)
            if size != self.n:
                raise ConfigError("group partition covers %d of %d coordinates" % (size, self.n))

    def objective(self, x) -> float:
        return self.loss.value(x) + self.penalty.value(x)

    def to_json(self) -> dict:
        return {"n": self.n, "loss": self.loss.to_json(),
                "penalty": self.penalty.to_json()}


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    max_iter: int
    stop_tol: float = 1e-10
    lipschitz_L: float = 0.0
    theory_mode: bool = True
    lipschitz_box: losses_mod.Box | None = None

    def validate(self, prob: ProblemSpec | None = None):
        if self.gamma <= 0:
            raise ConfigError("step size gamma must be positive")
        self.validate_iterations()
        if prob is not None and self.gamma >= prob.penalty.gamma_max:
            raise ConfigError("gamma >= prox-boundedness threshold of the penalty")
        if self.theory_mode:
            if self.lipschitz_L <= 0:
                raise ConfigError("theory mode needs a positive Lipschitz bound L")
            if not self.gamma < 1.0 / self.lipschitz_L:
                raise ConfigError(
                    "theory mode requires gamma < 1/L (gamma=%g, 1/L=%g)"
                    % (self.gamma, 1.0 / self.lipschitz_L))

    def validate_iterations(self):
        """The checks every solver applies; ADMM and PDHG apply only these."""
        if self.max_iter <= 0:
            raise ConfigError("max_iter must be positive")
        if self.stop_tol < 0:
            raise ConfigError("stop_tol must be nonnegative")


class IterateTrace:
    """Iterates with objectives, perturbations p_k = x^{k-1} - x^k and residuals."""

    def __init__(self, n: int):
        self.n = n
        self.points: list[np.ndarray] = []
        self.objectives: list[float] = []
        self.perturbations: list[np.ndarray | None] = []   # slot k=0 is None
        self.residuals: list[float] = []

    def append(self, x, objective: float, residual: float):
        x = np.array(x, dtype=float)
        if self.points:
            self.perturbations.append(self.points[-1] - x)
        else:
            self.perturbations.append(None)
        self.points.append(x)
        self.objectives.append(float(objective))
        self.residuals.append(float(residual))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]

    def pnorms(self) -> np.ndarray:
        return np.array([0.0] + [float(np.linalg.norm(p))
                                 for p in self.perturbations[1:]])

    def check_reconstruction(self) -> bool:
        """p_k is exactly the stored difference x^{k-1} - x^k, for every k >= 1.

        This is the representable direction of the reconstruction identity:
        re-adding p_k recovers x^{k-1} to within one rounding (bitwise
        whenever consecutive iterates share magnitude).
        """
        for k in range(1, len(self.points)):
            if not np.array_equal(self.perturbations[k],
                                  self.points[k - 1] - self.points[k]):
                return False
        return True

    # -- CSV round trip ------------------------------------------------------

    def write_csv(self, path):
        cols = ["k"] + ["x_%d" % i for i in range(self.n)] + ["F", "pnorm", "residual"]
        pn = self.pnorms()
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k, x in enumerate(self.points):
                row = [str(k)] + ["%.17g" % v for v in x]
                row += ["%.17g" % self.objectives[k], "%.17g" % pn[k],
                        "%.17g" % self.residuals[k]]
                fh.write(",".join(row) + "\n")

    @staticmethod
    def read_csv(path) -> "IterateTrace":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            n = sum(1 for c in header if c.startswith("x_"))
            tr = IterateTrace(n)
            for line in fh:
                parts = line.strip().split(",")
                if not parts or parts == [""]:
                    continue
                x = np.array([float(v) for v in parts[1:1 + n]])
                tr.append(x, float(parts[1 + n]), float(parts[3 + n]))
        return tr


@dataclass
class StationarySetApprox:
    """Finite certified approximation of the proximal stationary set."""

    points: np.ndarray          # (k, n)
    radius: float               # localization radius per point
    method: str                 # 'oracle-grid' | 'analytic'
    warnings: list = field(default_factory=list)   # oracle scan notes

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0


def distance_to_set(x, S: StationarySetApprox) -> float:
    """Euclidean distance from x to the nearest stored stationary point."""
    if S.is_empty:
        raise ValueError("empty stationary set")
    x = np.asarray(x, dtype=float)
    return float(np.min(np.linalg.norm(S.points - x[None, :], axis=1)))


# ---------------------------------------------------------------------------
# problem files

def problem_from_json(d: dict) -> ProblemSpec:
    try:
        n = int(d["n"])
        loss = losses_mod.loss_from_json(d["loss"])
        penalty = penalties_mod.penalty_from_json(d["penalty"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad problem description: %s" % exc) from exc
    return ProblemSpec(n=n, loss=loss, penalty=penalty)


def load_problem(path) -> ProblemSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read problem file %s: %s" % (path, exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("problem file %s is not JSON: %s" % (path, exc)) from exc
    return problem_from_json(raw)


def save_problem(prob: ProblemSpec, path):
    with open(path, "w") as fh:
        json.dump(prob.to_json(), fh, indent=2)
