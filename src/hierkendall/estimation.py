"""Estimation of hierarchical Kendall copula models.

Two-step estimation fits each cluster copula on its own columns, maps the
data through the fitted Kendall transforms V = K(C(.)), and fits the
nesting copula on the V matrix (recursively for deeper models), all on the
model's own bottom-up pass. The two-step estimates then seed a joint
maximum-likelihood pass over all Archimedean parameters (and a Student-t
nesting degrees-of-freedom). Both search unconstrained transforms, on the
same finite intervals:

    clayton  theta = exp(eta)        gumbel    theta = 1 + exp(eta)
    frank    theta = eta (0 banned)  student-t nu    = 2 + exp(eta)

the one parameter of each two-step node by bounded Brent, the joint pass by
bounded L-BFGS-B. The joint objective forms its own forward-difference
gradient: one base pass keeps every node's (V, summed log c) in a dict by
node path, and the probe of a parameter re-runs only the nodes on its
ancestor chain. A probe that fails leaves its gradient component at 0.

Correlation matrices are never searched: they come from pairwise
empirical Kendall's tau inversion rho = sin(pi tau / 2) followed by a
nearest-positive-definite projection, and stay fixed during joint MLE.
Elliptical *cluster* copulas carry Monte Carlo Kendall functions whose
sampling error would contaminate a joint likelihood, so joint MLE refuses
them unless explicitly forced to treat those clusters as frozen.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, stats

from .copulas import (
    ArchimedeanCopula,
    CopulaSpec,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    copula_logpdf,
    elliptical_corr_from_tau,
    elliptical_tau_from_corr,
)
from .errors import ConfigError, DataError, EvaluationError, ParameterError
from .generators import ArchimedeanGenerator, tau_from_theta, theta_from_tau
from .hierarchical import (
    DEFAULT_KENDALL_MC,
    HierarchicalModel,
    InnerNode,
    LeafNode,
    Node,
    child_path,
    iter_nodes,
    kendall_for_copula,
    model_loglik,
    model_n_params,
    model_sample,
    validate,
)
from .hierarchical import _post_order as post_order
from .kendall import KendallFunction
from .rngutil import STREAM_KENDALL, STREAM_REPLICATION, substream

ARCHIMEDEAN_FAMILIES = ("independence", "clayton", "gumbel", "frank")
ELLIPTICAL_FAMILIES = ("gaussian", "student_t")
ALL_FAMILIES = ARCHIMEDEAN_FAMILIES + ELLIPTICAL_FAMILIES


# ---------------------------------------------------------------------------
# model templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSpec:
    """Declarative node of a model: a family plus columns or children."""

    name: str
    family: str
    columns: tuple | None = None
    children: tuple | None = None
    params: dict | None = None  # fixed parameters: theta | corr, nu

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ConfigError(f"node {self.name!r}: unknown family {self.family!r}")
        if (self.columns is None) == (self.children is None):
            raise ConfigError(
                f"node {self.name!r}: exactly one of columns/children required")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        else:
            object.__setattr__(self, "children", tuple(self.children))

    @property
    def dim(self) -> int:
        return len(self.columns) if self.columns is not None else len(self.children)


def copula_from_spec(spec: NodeSpec) -> CopulaSpec:
    """Instantiate the copula of a fully parameterized NodeSpec."""
    d = spec.dim
    params = spec.params or {}
    if d == 1:
        return IndependenceCopula(1)
    if spec.family == "independence":
        return IndependenceCopula(d)
    if spec.family in ("clayton", "gumbel", "frank"):
        if "theta" in params:
            gen = ArchimedeanGenerator(spec.family, float(params["theta"]))
        elif "tau" in params:
            gen = theta_from_tau(spec.family, float(params["tau"]))
        else:
            raise ConfigError(f"node {spec.name!r}: needs theta or tau")
        return ArchimedeanCopula(gen, d)
    if "corr" not in params:
        raise ConfigError(f"node {spec.name!r}: needs a correlation matrix")
    corr = np.asarray(params["corr"], dtype=float)
    if spec.family == "gaussian":
        return GaussianCopula(corr)
    if "nu" not in params:
        raise ConfigError(f"node {spec.name!r}: needs degrees of freedom nu")
    return StudentTCopula(corr, float(params["nu"]))


def build_model(spec: NodeSpec, n_vars: int, kendall_mode: str = "auto",
                kendall_mc: int = DEFAULT_KENDALL_MC, seed: int = 0) -> HierarchicalModel:
    """Build a fully parameterized HierarchicalModel from a template tree."""
    counter = itertools.count()

    def rec(node: NodeSpec):
        idx, cop = next(counter), copula_from_spec(node)
        children = tuple(rec(ch) for ch in node.children or ())
        return _model_node(node, cop, children, idx, kendall_mode, kendall_mc, seed)

    model = HierarchicalModel(root=rec(spec), n_vars=n_vars)
    validate(model)
    return model


def _model_node(spec: NodeSpec, cop: CopulaSpec, children: tuple, idx: int,
                kendall_mode: str, kendall_mc: int, seed: int) -> Node:
    """Model node of template ``spec`` at preorder index ``idx``. Its Kendall
    function (none at the root, index 0) draws from the stream of ``idx``,
    so a fit and the model built from its report carry the same one."""
    kf = None if idx == 0 else kendall_for_copula(
        cop, kendall_mode, kendall_mc, substream(seed, STREAM_KENDALL, idx))
    if spec.columns is not None:
        return LeafNode(spec.name, spec.columns, cop, kf)
    return InnerNode(spec.name, children, cop, kf)


# ---------------------------------------------------------------------------
# pseudo-observations and tau helpers
# ---------------------------------------------------------------------------

def pseudo_observations(x) -> np.ndarray:
    """Column-wise rank transform rank/(N+1) with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("need a 2-d array with at least two rows")
    n = x.shape[0]
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        if np.all(col == col[0]):
            raise DataError(f"column {j} is constant; ranks are undefined")
        out[:, j] = stats.rankdata(col, method="average") / (n + 1.0)
    return out


def empirical_tau_matrix(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    d = u.shape[1]
    taus = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            t = stats.kendalltau(u[:, i], u[:, j]).statistic
            taus[i, j] = taus[j, i] = 0.0 if np.isnan(t) else t
    return taus


def nearest_corr(mat) -> np.ndarray:
    """Clip eigenvalues at 1e-6 and rescale to unit diagonal."""
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    fixed = (vecs * np.maximum(vals, 1e-6)) @ vecs.T
    scale = np.sqrt(np.diag(fixed))
    out = fixed / np.outer(scale, scale)
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    return out


# ---------------------------------------------------------------------------
# unconstrained parameter transforms
# ---------------------------------------------------------------------------

_FRANK_DEADZONE = 1e-8


def eta_from_theta(family: str, theta: float) -> float:
    if family == "clayton":
        return math.log(theta)
    if family == "gumbel":
        return math.log(max(theta - 1.0, 1e-12))
    if family == "frank":
        return theta
    raise ParameterError(f"no unconstrained transform for family {family!r}")


def theta_from_eta(family: str, eta: float) -> float:
    if family == "clayton":
        return math.exp(eta)
    if family == "gumbel":
        return 1.0 + math.exp(eta)
    if family == "frank":
        if abs(eta) < _FRANK_DEADZONE:
            return _FRANK_DEADZONE if eta >= 0.0 else -_FRANK_DEADZONE
        return eta
    raise ParameterError(f"no unconstrained transform for family {family!r}")


def nu_from_eta(eta: float) -> float:
    return 2.0 + math.exp(eta)


def eta_from_nu(nu: float) -> float:
    return math.log(max(nu - 2.0, 1e-8))


# ---------------------------------------------------------------------------
# per-cluster fitting
# ---------------------------------------------------------------------------

@dataclass
class ClusterFit:
    copula: CopulaSpec
    method: str
    loglik: float
    converged: bool = True
    n_evals: int = 0


_PENALTY = 1e12  # objective value of a failed or non-finite evaluation
_CLUSTER_MAX_EVALS = 500  # likelihood evaluations of one per-cluster fit
# eta intervals from near independence (Gumbel: theta - 1 = 1e-12 by the floor
# of eta_from_theta) up to tau = 0.98; Frank at d = 2 also down to tau = -0.98
_ETA_BOUNDS = {f: (eta_from_theta(f, lo), eta_from_theta(f, theta_from_tau(f, 0.98).theta))
               for f, lo in (("clayton", 1e-12), ("gumbel", 1.0), ("frank", _FRANK_DEADZONE))}
_ETA_BOUNDS["student_t"] = (math.log(1e-2), math.log(1e3))  # nu - 2 in [1e-2, 1e3]


def _eta_bounds(family: str, d: int) -> tuple:
    lo, hi = _ETA_BOUNDS[family]
    return (-hi, hi) if family == "frank" and d == 2 else (lo, hi)


def _fit_one_parameter(make_copula, u, bounds, method, what) -> ClusterFit:
    """Maximum likelihood over one eta in ``bounds`` by bounded Brent, which
    stops short of an optimum on an interval end by about its tolerance; so
    the end nearest its result is evaluated too, and the better one kept."""
    def neg_ll(eta):
        try:
            val = float(np.sum(copula_logpdf(make_copula(float(eta)), u)))
        except (ParameterError, ArithmeticError):
            return _PENALTY
        return -val if np.isfinite(val) else _PENALTY

    lo, hi = bounds
    res = optimize.minimize_scalar(neg_ll, bounds=bounds, method="bounded",
                                   options=dict(xatol=1e-6, maxiter=_CLUSTER_MAX_EVALS - 1))
    end = lo if res.x - lo <= hi - res.x else hi
    eta, fun = min((float(res.x), float(res.fun)), (end, neg_ll(end)), key=lambda p: p[1])
    if fun >= _PENALTY:
        raise EvaluationError(f"{what}: no parameter in eta [{lo:.6g}, {hi:.6g}] "
                              "gives a finite log-likelihood")
    return ClusterFit(make_copula(eta), method, -fun, bool(res.success),
                      int(res.nfev) + 1)


def fit_cluster(family: str, u_block) -> ClusterFit:
    """Fit one copula of the given family to pseudo-observations.

    Archimedean families use maximum likelihood over the unconstrained
    parameter transform; elliptical families invert the pairwise empirical
    tau matrix (plus a one-dimensional MLE for the Student-t degrees of
    freedom), with at most ``_CLUSTER_MAX_EVALS`` likelihood evaluations.
    """
    u = np.asarray(u_block, dtype=float)
    d = u.shape[1]
    if family not in ALL_FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    if d == 1:
        return ClusterFit(IndependenceCopula(1), "identity", 0.0)
    if family == "independence":
        return ClusterFit(IndependenceCopula(d), "fixed", 0.0)
    if family in ("clayton", "gumbel", "frank"):
        return _fit_one_parameter(
            lambda eta: ArchimedeanCopula(
                ArchimedeanGenerator(family, theta_from_eta(family, eta)), d),
            u, _eta_bounds(family, d), "mle", f"{family} fit at d = {d}")
    # elliptical: correlation by tau inversion
    taus = empirical_tau_matrix(u)
    corr = nearest_corr(elliptical_corr_from_tau(taus))
    if family == "gaussian":
        cop = GaussianCopula(corr)
        ll = float(np.sum(copula_logpdf(cop, u)))
        return ClusterFit(cop, "tau-inversion", ll)
    return _fit_one_parameter(
        lambda eta: StudentTCopula(corr, nu_from_eta(eta)), u,
        _ETA_BOUNDS["student_t"], "tau-inversion+mle(nu)",
        f"student_t nu fit at d = {d}")


# ---------------------------------------------------------------------------
# two-step estimation
# ---------------------------------------------------------------------------

@dataclass
class NodeFit:
    name: str
    family: str
    dim: int
    params: dict
    method: str
    kendall: str
    loglik: float
    converged: bool
    n_evals: int


@dataclass
class FitOptions:
    kendall_mode: str = "auto"  # auto | closed_form | empirical
    kendall_mc: int = DEFAULT_KENDALL_MC
    seed: int = 0
    # joint MLE likelihood passes, k + 1 per L-BFGS-B evaluation with k free
    # parameters (maxfun = joint_max_evals // (k + 1)); checked once per
    # iteration, so the last iteration's line search may run past it
    joint_max_evals: int = 5000
    force_frozen_kendall: bool = False


@dataclass
class FitReport:
    nodes: list
    loglik_two_step: float
    loglik_joint: float | None
    n_params: int
    n_obs: int
    aic: float
    bic: float
    clamped_two_step: int
    clamped_joint: int
    converged: bool
    joint_evals: int
    model: HierarchicalModel = field(repr=False, default=None)
    joint_status: str | None = None  # the joint search's stopping message
    joint_node_evals: int = 0  # nodes the joint search ran, memo hits excluded
    joint_failed_probes: int = 0  # gradient probes that failed, each left at 0

    def best_loglik(self) -> float:
        return self.loglik_two_step if self.loglik_joint is None else self.loglik_joint


def copula_params(cop: CopulaSpec) -> dict:
    if isinstance(cop, IndependenceCopula):
        return {}
    if isinstance(cop, ArchimedeanCopula):
        if cop.generator.family == "independence":
            return {}
        return {"theta": cop.generator.theta,
                "tau": tau_from_theta(cop.generator)}
    if isinstance(cop, GaussianCopula):
        return {"corr": cop.corr.tolist()}
    return {"corr": cop.corr.tolist(), "nu": cop.nu}


def _kendall_tag(kf: KendallFunction | None) -> str:
    if kf is None:
        return "none"
    if kf.kind == "closed_form":
        return "identity" if kf.dim == 1 else "closed_form"
    return f"empirical({kf.sorted_values.size})"


def fit_two_step(spec: NodeSpec, u, options: FitOptions | None = None) -> FitReport:
    """Sequential estimation: clusters first, then nesting copulas level by level.

    Each node is fitted to its data columns or to the V columns of its
    fitted children, which the model's bottom-up pass fills into one memo;
    the final ``model_loglik`` pass over it adds only the root.
    """
    options = options or FitOptions()
    u = np.asarray(u, dtype=float)
    if options.kendall_mode == "closed_form" and _has_elliptical_cluster(spec):
        raise ParameterError(
            "closed-form Kendall functions require Archimedean clusters; "
            "use kendall_mode='empirical' or 'auto'")
    counter = itertools.count()
    node_fits: list[NodeFit] = []
    memo = {}

    def rec(node: NodeSpec, path: str):
        idx = next(counter)
        children = tuple(rec(ch, child_path(path, ch, i))
                         for i, ch in enumerate(node.children or ()))
        if node.columns is not None:
            block = u[:, list(node.columns)]
        else:
            block = np.column_stack([post_order(ch, u, memo, child_path(path, ch, i))[0]
                                     for i, ch in enumerate(children)])
        fit = fit_cluster(node.family, block)
        fitted = _model_node(node, fit.copula, children, idx, options.kendall_mode,
                             options.kendall_mc, options.seed)
        node_fits.append(NodeFit(
            name=node.name, family=node.family, dim=node.dim,
            params=copula_params(fit.copula), method=fit.method,
            kendall=_kendall_tag(fitted.kendall), loglik=fit.loglik,
            converged=fit.converged, n_evals=fit.n_evals))
        return fitted

    model = HierarchicalModel(root=rec(spec, "root"), n_vars=u.shape[1])
    validate(model)
    ll = model_loglik(model, u, memo)
    k = model_n_params(model)
    n = u.shape[0]
    return FitReport(
        nodes=node_fits, loglik_two_step=ll.value, loglik_joint=None,
        n_params=k, n_obs=n, aic=2.0 * k - 2.0 * ll.value,
        bic=k * math.log(n) - 2.0 * ll.value, clamped_two_step=ll.n_clamped,
        clamped_joint=0, converged=all(nf.converged for nf in node_fits),
        joint_evals=0, model=model)


def _has_elliptical_cluster(spec: NodeSpec) -> bool:
    if spec.columns is not None:
        return spec.family in ELLIPTICAL_FAMILIES and spec.dim > 1
    return any(_has_elliptical_cluster(ch) for ch in spec.children)


# ---------------------------------------------------------------------------
# joint maximum likelihood
# ---------------------------------------------------------------------------

def _collect_free_params(model: HierarchicalModel, force_frozen: bool):
    """Free parameters in preorder: (node path, family, eta bounds, eta at the
    model's value); the family "student_t" stands for the root's nu."""
    free = []
    for path, node, depth in iter_nodes(model):
        cop = node.copula
        if isinstance(cop, ArchimedeanCopula) and cop.generator.family != "independence":
            family = cop.generator.family
            free.append((path, family, _eta_bounds(family, cop.dim),
                         eta_from_theta(family, cop.generator.theta)))
        elif isinstance(cop, StudentTCopula) and depth == 0:
            free.append((path, "student_t", _ETA_BOUNDS["student_t"], eta_from_nu(cop.nu)))
        elif isinstance(cop, (GaussianCopula, StudentTCopula)) and depth and not force_frozen:
            raise ParameterError(
                "joint MLE refuses elliptical cluster copulas: their Monte Carlo "
                "Kendall functions make the likelihood noisy; pass "
                "force_frozen_kendall=True to keep them fixed at the two-step "
                "estimates")
    return free


def _rebuild_with_eta(model: HierarchicalModel, free, eta) -> HierarchicalModel:
    """The model at parameters ``eta``; subtrees without a free parameter are
    the original node objects."""
    values = {path: (family, float(e)) for (path, family, *_), e in zip(free, eta)}

    def rec(node, path):
        cop, kf = node.copula, node.kendall
        if path in values:
            family, e = values[path]
            if family == "student_t":
                cop = StudentTCopula(cop.corr, nu_from_eta(e))
            else:
                cop = ArchimedeanCopula(
                    ArchimedeanGenerator(family, theta_from_eta(family, e)), cop.dim)
                if kf is not None:  # the root has none
                    kf = kendall_for_copula(cop, "closed_form")
        if isinstance(node, LeafNode):
            return node if cop is node.copula else LeafNode(node.name, node.columns, cop, kf)
        children = tuple(rec(ch, child_path(path, ch, i)) for i, ch in enumerate(node.children))
        if cop is node.copula and all(a is b for a, b in zip(children, node.children)):
            return node
        return InnerNode(node.name, children, cop, kf)

    return HierarchicalModel(root=rec(model.root, "root"), n_vars=model.n_vars)


_FD_STEP = 1e-8  # scipy's absolute step for L-BFGS-B's own two-point gradient


class _JointObjective:
    """-loglik(eta) and its forward-difference gradient, for L-BFGS-B with
    ``jac=True``; every pass goes through ``model_loglik`` with a dict memo.

    The base pass at eta keeps its memo. The probe of parameter j passes a
    copy without j's ancestor chain (the prefixes of its path), so it
    re-runs only those nodes. A new base point keeps only the subtrees
    without a free parameter, which thus run once per fit, and no node holds
    more than two entries. The step is scipy's: 1e-8, negated where it would
    pass the upper bound. A failed probe leaves its component at 0; a failed
    base pass gives the penalty and a zero gradient.
    """

    def __init__(self, model: HierarchicalModel, free, u):
        self.model, self.free, self.u = model, free, u
        self.chains = [{p[:i] for i, ch in enumerate(p + "/") if ch == "/"} for p, *_ in free]
        self.moving = set().union(*self.chains)
        self.eta, self.memo = None, {}
        self.evals = self.node_evals = self.failed_probes = 0

    def _pass(self, model, memo):
        """The LogLikelihood of ``model`` through ``memo``, None if it fails."""
        self.evals += 1
        before = len(memo)
        try:
            ll = model_loglik(model, self.u, memo)
        except (ParameterError, ArithmeticError):
            return None
        finally:
            self.node_evals += len(memo) - before
        return ll if np.isfinite(ll.value) else None

    def base(self, eta):
        """(LogLikelihood or None, model) at ``eta``; a repeated point runs nothing."""
        if not np.array_equal(eta, self.eta):
            self.memo = {p: e for p, e in self.memo.items() if p not in self.moving}
            self.eta, self.at = eta.copy(), _rebuild_with_eta(self.model, self.free, eta)
            self.ll = self._pass(self.at, self.memo)
        return self.ll, self.at

    def __call__(self, eta):
        ll, at = self.base(eta)
        grad = np.zeros(eta.size)
        if ll is None:
            return _PENALTY, grad
        for j, (param, chain) in enumerate(zip(self.free, self.chains)):
            probe = eta[j] + (_FD_STEP if eta[j] + _FD_STEP <= param[2][1] else -_FD_STEP)
            ll_j = self._pass(_rebuild_with_eta(at, [param], [probe]),
                              {p: e for p, e in self.memo.items() if p not in chain})
            self.failed_probes += ll_j is None
            grad[j] = 0.0 if ll_j is None else (ll.value - ll_j.value) / (probe - eta[j])
        return -ll.value, grad


def fit_joint_mle(report: FitReport, u, options: FitOptions | None = None) -> FitReport:
    """Joint MLE over all free dependence parameters from the two-step start:
    bounded L-BFGS-B on the eta transforms, inside the intervals of the
    one-parameter fits, on ``_JointObjective``. The result never falls below
    the two-step start.
    """
    options = options or FitOptions()
    u = np.asarray(u, dtype=float)
    free = _collect_free_params(report.model, options.force_frozen_kendall)
    if not free:
        out = dataclasses.replace(report, loglik_joint=report.loglik_two_step,
                                  clamped_joint=report.clamped_two_step,
                                  joint_status="no free parameters")
        _finalize_ic(out)
        return out

    eta0 = np.array([eta for *_, eta in free])
    objective = _JointObjective(report.model, free, u)
    res = optimize.minimize(objective, eta0, jac=True, method="L-BFGS-B",
                            bounds=[bounds for _, _, bounds, _ in free],
                            options=dict(maxfun=options.joint_max_evals // (len(free) + 1),
                                         ftol=1e-14))
    evals = objective.evals
    ll, final = objective.base(res.x if res.fun <= -report.loglik_two_step else eta0)
    if ll is None:
        raise EvaluationError("joint MLE: no finite log-likelihood at the two-step estimates")
    out = dataclasses.replace(
        report, nodes=_refresh_node_fits(report.nodes, final), loglik_joint=ll.value,
        clamped_joint=ll.n_clamped, converged=report.converged and bool(res.success),
        joint_evals=evals, joint_status=str(res.message), joint_node_evals=objective.node_evals,
        joint_failed_probes=objective.failed_probes, model=final)
    _finalize_ic(out)
    return out


def _refresh_node_fits(node_fits, model) -> list:
    by_name = {node.name: node for _, node, _ in iter_nodes(model)}
    return [dataclasses.replace(nf, params=copula_params(by_name[nf.name].copula))
            for nf in node_fits]


def _finalize_ic(report: FitReport) -> None:
    ll = report.best_loglik()
    report.aic = 2.0 * report.n_params - 2.0 * ll
    report.bic = report.n_params * math.log(report.n_obs) - 2.0 * ll


# ---------------------------------------------------------------------------
# simulation study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    cluster_families: tuple = ("clayton", "gumbel")
    cluster_taus: tuple = (0.4, 0.4)
    nesting_family: str = "frank"
    nesting_taus: tuple = (0.4, 0.7)
    sample_sizes: tuple = (250, 500, 1000)
    replications: int = 100
    methods: tuple = ("two_step_closed", "two_step_empirical", "joint_mle")
    # 25k Monte Carlo values keep the Kendall-function error an order of
    # magnitude below the estimation noise at these sample sizes
    kendall_mc: int = 25_000
    seed: int = 20240


@dataclass
class StudyCell:
    nesting_tau: float
    n: int
    method: str
    mse: float
    bias: float
    sd: float
    n_ok: int
    n_fail: int
    fail_reason: str = ""  # the most frequent failure, "<count>x <type>: <message>"


STUDY_CSV_HEADER = "nesting_tau,n,method,mse,bias,sd,n_ok,n_fail,fail_reason"


def study_csv_line(cell: StudyCell) -> str:
    """One study CSV row; ``fail_reason`` is quoted, with inner quotes doubled."""
    reason = '"' + cell.fail_reason.replace('"', '""') + '"' if cell.fail_reason else ""
    return (f"{cell.nesting_tau!r},{cell.n},{cell.method},{cell.mse!r},{cell.bias!r},"
            f"{cell.sd!r},{cell.n_ok},{cell.n_fail},{reason}")


def _study_spec(config: StudyConfig, tau0: float) -> NodeSpec:
    leaves = tuple(
        NodeSpec(name=f"c{i + 1}", family=fam, columns=(2 * i, 2 * i + 1),
                 params={"tau": float(t)})
        for i, (fam, t) in enumerate(zip(config.cluster_families,
                                         config.cluster_taus)))
    return NodeSpec(name="nest", family=config.nesting_family, children=leaves,
                    params={"tau": float(tau0)})


def _fitted_nesting_tau(report: FitReport) -> float:
    root = report.model.root.copula
    if isinstance(root, ArchimedeanCopula):
        return tau_from_theta(root.generator)
    if isinstance(root, IndependenceCopula):
        return 0.0
    off = root.corr[np.triu_indices(root.corr.shape[0], 1)]
    return float(np.mean(elliptical_tau_from_corr(off)))


def _study_replication(args):
    """{method: (fitted nesting tau, None) or (None, "<type>: <message>")}
    for one replication."""
    config, cell_idx, rep, tau0, n = args
    rng = substream(config.seed, STREAM_REPLICATION, cell_idx, rep)
    spec = _study_spec(config, tau0)
    true_model = build_model(spec, n_vars=2 * len(config.cluster_families),
                             seed=config.seed)
    u = model_sample(true_model, n, rng, method="exact")
    fit_spec = _strip_params(spec)
    out = {}
    base = None
    for method in config.methods:
        try:
            if method == "two_step_closed":
                base = fit_two_step(fit_spec, u, FitOptions(
                    kendall_mode="closed_form", seed=config.seed))
                fitted = base
            elif method == "two_step_empirical":
                fitted = fit_two_step(fit_spec, u, FitOptions(
                    kendall_mode="empirical", kendall_mc=config.kendall_mc,
                    seed=config.seed + rep))
            elif method == "joint_mle":
                if base is None:
                    base = fit_two_step(fit_spec, u, FitOptions(
                        kendall_mode="closed_form", seed=config.seed))
                fitted = fit_joint_mle(base, u, FitOptions())
            else:
                raise ParameterError(f"unknown study method {method!r}")
            out[method] = (_fitted_nesting_tau(fitted), None)
        except Exception as exc:  # any failure is counted, with its reason
            out[method] = (None, " ".join(f"{type(exc).__name__}: {exc}".split()))
    return out


def _strip_params(spec: NodeSpec) -> NodeSpec:
    if spec.columns is not None:
        return dataclasses.replace(spec, params=None)
    return dataclasses.replace(
        spec, params=None, children=tuple(_strip_params(ch) for ch in spec.children))


def simulation_study(config: StudyConfig, workers: int = 1) -> list:
    """Monte Carlo study of nesting-parameter recovery; returns StudyCell rows.

    Deterministic for a given config seed regardless of worker count:
    every replication draws from its own counter-derived substream.
    """
    cells = [(ci, tau0, n)
             for ci, (tau0, n) in enumerate(
                 (t, n) for t in config.nesting_taus for n in config.sample_sizes)]
    jobs = [(config, ci, rep, tau0, n)
            for ci, tau0, n in cells for rep in range(config.replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_study_replication, jobs, chunksize=4))
    else:
        results = [_study_replication(j) for j in jobs]
    rows: list[StudyCell] = []
    per_cell = config.replications
    for ci, tau0, n in cells:
        chunk = results[ci * per_cell:(ci + 1) * per_cell]
        for method in config.methods:
            vals = np.array([r[method][0] for r in chunk if r[method][0] is not None],
                            dtype=float)
            n_fail = per_cell - vals.size
            reasons = Counter(r[method][1] for r in chunk if r[method][0] is None)
            top = ""
            if reasons:
                why, k = reasons.most_common(1)[0]
                top = f"{k}x {why}"
            if vals.size == 0:
                rows.append(StudyCell(tau0, n, method, math.nan, math.nan,
                                      math.nan, 0, n_fail, top))
                continue
            err = vals - tau0
            rows.append(StudyCell(
                nesting_tau=tau0, n=n, method=method,
                mse=float(np.mean(err ** 2)), bias=float(np.mean(err)),
                sd=float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
                n_ok=int(vals.size), n_fail=int(n_fail), fail_reason=top))
    return rows
