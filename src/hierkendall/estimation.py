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
node object, and the probe of a parameter re-runs only the nodes its
rebuild replaces, those on its ancestor chain. A probe that fails leaves
its gradient component at 0.

Correlation matrices are never searched: they come from pairwise
empirical Kendall's tau inversion rho = sin(pi tau / 2) followed by a
nearest-positive-definite projection, and stay fixed during joint MLE.
Joint MLE moves only the nodes on a free parameter's ancestor chain;
the rest, elliptical clusters among them, keep their two-step estimates.
It refuses a Monte Carlo Kendall function on such a chain.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, stats
from scipy.stats._stats import _kendall_dis

from .copulas import (
    ArchimedeanCopula,
    CopulaSpec,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    copula_logpdf,
    elliptical_corr_from_tau,
)
from .errors import (ConfigError, DataError, EvaluationError, HierKendallError,
                     ModelStructureError, ParameterError)
from .generators import FAMILIES, ArchimedeanGenerator, tau_from_theta, theta_from_tau
from .hierarchical import (
    DEFAULT_KENDALL_MC,
    HierarchicalModel,
    InnerNode,
    LeafNode,
    Node,
    iter_nodes,
    kendall_for_copula,
    model_loglik,
    model_n_params,
    model_sample,
    structure_problems,
)
from .hierarchical import _post_order as post_order
from .kendall import MIN_KENDALL_MC, KendallFunction
from .rngutil import STREAM_KENDALL, STREAM_REPLICATION, substream

ELLIPTICAL_FAMILIES = ("gaussian", "student_t")
ALL_FAMILIES = FAMILIES + ELLIPTICAL_FAMILIES


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
            object.__setattr__(self, "columns", tuple(self.columns))
        else:
            object.__setattr__(self, "children", tuple(self.children))
        if not self.dim:
            raise ConfigError(f"node {self.name!r}: empty "
                              f"{'columns' if self.children is None else 'children'}")

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
            raise ConfigError("needs theta or tau")
        return ArchimedeanCopula(gen, d)
    if "corr" not in params:
        raise ConfigError("needs a correlation matrix")
    corr = np.asarray(params["corr"], dtype=float)
    if corr.shape != (d, d):
        raise ConfigError(f"'corr' of a node of {d} variables must be {d} x {d}, "
                          f"got shape {corr.shape}")
    if spec.family == "gaussian":
        return GaussianCopula(corr)
    if "nu" not in params:
        raise ConfigError("needs degrees of freedom nu")
    return StudentTCopula(corr, float(params["nu"]))


def build_model(spec: NodeSpec, n_vars: int, kendall_mc: int = DEFAULT_KENDALL_MC,
                seed: int = 0) -> HierarchicalModel:
    """Build a fully parameterized HierarchicalModel from a template tree."""
    return _build_tree(spec, n_vars, lambda node, children: copula_from_spec(node),
                       "auto", kendall_mc, seed)


def _build_tree(spec: NodeSpec, n_vars: int, copula_for, kendall_mode: str,
                kendall_mc: int, seed: int) -> HierarchicalModel:
    """The model of template ``spec``, built children first: at each node,
    ``copula_for(spec, children)`` gives its copula once its model
    ``children`` exist. A node's Kendall function (none at the root) draws
    from the stream of its preorder index, so a fit and the model built
    from its report carry the same one. The template's shape
    (``structure_problems``) is checked before any node is fitted or drawn,
    as a ``ModelStructureError``; each copula and Kendall function then
    has its node's dimension by construction. An error raised while a
    node's copula or Kendall function is made is re-raised, class and
    attributes kept, with ``node '<name>': `` in front of its message."""
    problems = structure_problems(spec, n_vars)
    if problems:
        raise ModelStructureError(problems)
    counter = itertools.count()

    def rec(node: NodeSpec) -> Node:
        idx = next(counter)
        children = tuple(rec(ch) for ch in node.children or ())
        try:
            cop = copula_for(node, children)
            kf = None if idx == 0 else kendall_for_copula(
                cop, kendall_mode, kendall_mc, substream(seed, STREAM_KENDALL, idx))
        except (HierKendallError, ValueError) as exc:
            message = exc.args[0] if exc.args else ""
            exc.args = (f"node {node.name!r}: {message}", *exc.args[1:])
            raise
        if node.columns is not None:
            return LeafNode(node.name, node.columns, cop, kf)
        return InnerNode(node.name, children, cop, kf)

    return HierarchicalModel(root=rec(spec), n_vars=n_vars)


# ---------------------------------------------------------------------------
# pseudo-observations and tau helpers
# ---------------------------------------------------------------------------

def pseudo_observations(x) -> np.ndarray:
    """Column-wise rank transform rank/(N+1) with average ranks for ties."""
    x = data_rows(x)
    constant = np.all(x == x[0], axis=0)
    if constant.any():
        raise DataError(f"column {np.argmax(constant)} is constant; ranks are undefined")
    return stats.rankdata(x, method="average", axis=0) / (x.shape[0] + 1.0)


def data_rows(x) -> np.ndarray:
    """``x`` as a float array if it is a finite 2-d array of at least two rows,
    the data rule of a fit; else a ``DataError`` naming a non-finite cell."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError(f"need a 2-d array with at least two rows, got shape {x.shape}")
    bad = ~np.isfinite(x)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(f"column {col} holds {x[row, col]} at row {row}; data must be finite")
    return x


def _pairs(sizes) -> int:
    """Pairs within groups of the given sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


def empirical_tau_matrix(u) -> np.ndarray:
    """Pairwise empirical Kendall's tau-b of the columns of ``u``, ties
    counted as ``scipy.stats.kendalltau`` counts them: entry (i, j), i < j,
    equals ``kendalltau(u[:, i], u[:, j]).statistic`` bit for bit, and
    (j, i) mirrors it. Each column is ranked once (dense ranks by a
    stable sort, its tied pairs by a bincount) and the rows are ordered by it
    once; a pair then costs one O(n log n) merge count of its discordant
    pairs (Knight 1966), scipy's own ``_kendall_dis``, so the matrix costs
    O(d^2 n log n). A constant column, which has no tau, reads 0. ``u`` must
    meet the fit data rule, ``data_rows``."""
    u = data_rows(u)
    n, d = u.shape
    order = np.empty((d, n), dtype=np.intp)
    ranks = np.empty((d, n), dtype=np.intp)
    tied = []
    for i in range(d):
        order[i] = np.argsort(u[:, i], kind="stable")
        col = u[order[i], i]
        dense = np.cumsum(np.r_[True, col[1:] != col[:-1]], dtype=np.intp)
        ranks[i, order[i]] = dense
        tied.append(_pairs(np.bincount(dense)))
    tot = n * (n - 1) // 2
    taus = np.eye(d)
    for i in range(d - 1):
        x = ranks[i, order[i]]  # ascending, as the merge count needs
        for j, y in enumerate(ranks[i + 1:, order[i]], start=i + 1):
            if tot in (tied[i], tied[j]):  # a constant column: scipy's NaN
                continue
            joint = 0  # pairs tied in both columns
            if tied[i] and tied[j]:
                k = np.lexsort((y, x))
                xs, ys = x[k], y[k]
                runs = np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]), True]
                joint = _pairs(np.diff(np.flatnonzero(runs)))
            con_minus_dis = tot - tied[i] - tied[j] + joint - 2 * _kendall_dis(x, y)
            tau = con_minus_dis / np.sqrt(tot - tied[i]) / np.sqrt(tot - tied[j])
            taus[i, j] = taus[j, i] = min(1.0, max(-1.0, tau))
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
# joint MLE likelihood passes, k + 1 per L-BFGS-B evaluation with k free
# parameters (maxfun = _JOINT_MAX_EVALS // (k + 1)); checked once per
# iteration, so the last iteration's line search may run past it
_JOINT_MAX_EVALS = 5000
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
    ``u_block`` must meet the fit data rule, ``data_rows``.
    """
    u = data_rows(u_block)
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


@dataclass
class FitReport:
    nodes: list
    loglik_two_step: float
    loglik_joint: float | None
    n_params: int
    n_obs: int
    clamped_two_step: int
    clamped_joint: int
    converged: bool
    joint_evals: int
    model: HierarchicalModel = field(repr=False, default=None)
    joint_status: str | None = None  # the joint search's stopping message
    joint_node_evals: int = 0  # nodes the joint search ran, memo hits excluded
    joint_failed_probes: int = 0  # gradient probes that failed, each left at 0

    @property
    def aic(self) -> float:
        return 2.0 * self.n_params - 2.0 * self._loglik

    @property
    def bic(self) -> float:
        return self.n_params * math.log(self.n_obs) - 2.0 * self._loglik

    @property
    def _loglik(self) -> float:
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
    """Sequential estimation, node by node, children first.

    Each node is fitted to its data columns or to the V columns of its
    fitted children, which the model's bottom-up pass fills into one memo;
    the final ``model_loglik`` pass over it adds only the root. The
    template's ``params`` are not read. ``FitReport.nodes`` is in post-order.
    ``u`` must pass ``data_rows``.
    """
    options = options or FitOptions()
    u = data_rows(u)
    fits = []  # (template, ClusterFit) in post-order
    memo = {}

    def fit_node(node: NodeSpec, children: tuple) -> CopulaSpec:
        if node.columns is not None:
            block = u[:, list(node.columns)]
        else:
            block = np.column_stack([post_order(ch, u, memo)[0] for ch in children])
        fit = fit_cluster(node.family, block)
        fits.append((node, fit))
        return fit.copula

    model = _build_tree(spec, u.shape[1], fit_node, options.kendall_mode,
                        options.kendall_mc, options.seed)
    kendalls = {node.name: node.kendall for _, node in iter_nodes(model)}
    node_fits = [NodeFit(
        name=node.name, family=node.family, dim=node.dim, params=copula_params(fit.copula),
        method=fit.method, kendall=_kendall_tag(kendalls[node.name]), loglik=fit.loglik,
        converged=fit.converged, n_evals=fit.n_evals) for node, fit in fits]
    ll = model_loglik(model, u, memo)
    return FitReport(
        nodes=node_fits, loglik_two_step=ll.value, loglik_joint=None,
        n_params=model_n_params(model), n_obs=u.shape[0], clamped_two_step=ll.n_clamped,
        clamped_joint=0, converged=all(nf.converged for nf in node_fits),
        joint_evals=0, model=model)


# ---------------------------------------------------------------------------
# joint maximum likelihood
# ---------------------------------------------------------------------------

def _collect_free_params(model: HierarchicalModel):
    """Free parameters in preorder: (node name, family, eta bounds, eta at the
    model's value); the family "student_t" stands for the root's nu."""
    free = []
    for _, node in iter_nodes(model):
        cop = node.copula
        if isinstance(cop, ArchimedeanCopula) and cop.generator.family != "independence":
            family = cop.generator.family
            free.append((node.name, family, _eta_bounds(family, cop.dim),
                         eta_from_theta(family, cop.generator.theta)))
        elif isinstance(cop, StudentTCopula) and node is model.root:
            free.append((node.name, "student_t", _ETA_BOUNDS["student_t"], eta_from_nu(cop.nu)))
    return free


def _rebuild_with_eta(model: HierarchicalModel, free, eta) -> HierarchicalModel:
    """The model at parameters ``eta``; subtrees without a free parameter are
    the original node objects."""
    values = {name: (family, float(e)) for (name, family, *_), e in zip(free, eta)}

    def rec(node):
        cop, kf = node.copula, node.kendall
        if node.name in values:
            family, e = values[node.name]
            if family == "student_t":
                cop = StudentTCopula(cop.corr, nu_from_eta(e))
            else:
                cop = ArchimedeanCopula(
                    ArchimedeanGenerator(family, theta_from_eta(family, e)), cop.dim)
                if kf is not None:  # the root has none
                    kf = kendall_for_copula(cop, "closed_form")
        if isinstance(node, LeafNode):
            return node if cop is node.copula else LeafNode(node.name, node.columns, cop, kf)
        children = tuple(rec(ch) for ch in node.children)
        if cop is node.copula and all(a is b for a, b in zip(children, node.children)):
            return node
        return InnerNode(node.name, children, cop, kf)

    return HierarchicalModel(root=rec(model.root), n_vars=model.n_vars)


_FD_STEP = 1e-8  # scipy's absolute step for L-BFGS-B's own two-point gradient
# L-BFGS-B stops once an iteration lowers the objective by this share of it.
# Near the optimum the forward-difference gradient is rounding noise, and at
# 1e-13 or 1e-14 the search could end in line-search failures ("ABNORMAL")
# there, with an evaluation count set by the data's last bits.
_JOINT_FTOL = 1e-12


class _JointObjective:
    """-loglik(eta) and its forward-difference gradient, for L-BFGS-B with
    ``jac=True``; every pass goes through ``model_loglik`` with a dict memo.

    A pass reuses what the rebuild (``_rebuild_with_eta``) shares: the memo
    is keyed by node. A new base point keeps only its own model's nodes, so
    subtrees without a free parameter run once per fit. The probe of j
    rebuilds j's ancestor chain and runs on a copy of the base memo, so no
    node holds more than two entries. The step is scipy's: 1e-8, negated
    where it would pass the upper bound. A failed probe leaves its component
    at 0; a failed base pass gives the penalty and a zero gradient. A chain
    with a Monte Carlo Kendall function is refused: above a free parameter V
    would be a step function of it, and a free node's rebuild takes the
    closed form.
    """

    def __init__(self, model: HierarchicalModel, free, u):
        self.model, self.free, self.u = model, free, u
        start = _rebuild_with_eta(model, free, [eta for *_, eta in free])
        shared = {node for _, node in iter_nodes(start)}
        stepped = [repr(path) for path, node in iter_nodes(model) if node not in shared
                   and node.kendall is not None and node.kendall.kind == "empirical"]
        if stepped:
            raise ParameterError("joint MLE cannot move a parameter whose chain holds a "
                                 f"Monte Carlo Kendall function: {', '.join(stepped)}")
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
            self.eta, self.at = eta.copy(), _rebuild_with_eta(self.model, self.free, eta)
            self.memo = {n: self.memo[n] for _, n in iter_nodes(self.at) if n in self.memo}
            self.ll = self._pass(self.at, self.memo)
        return self.ll, self.at

    def __call__(self, eta):
        ll, at = self.base(eta)
        grad = np.zeros(eta.size)
        if ll is None:
            return _PENALTY, grad
        for j, param in enumerate(self.free):
            probe = eta[j] + (_FD_STEP if eta[j] + _FD_STEP <= param[2][1] else -_FD_STEP)
            ll_j = self._pass(_rebuild_with_eta(at, [param], [probe]), dict(self.memo))
            self.failed_probes += ll_j is None
            grad[j] = 0.0 if ll_j is None else (ll.value - ll_j.value) / (probe - eta[j])
        return -ll.value, grad


def fit_joint_mle(report: FitReport, u, options: FitOptions | None = None) -> FitReport:
    """Joint MLE over all free dependence parameters from the two-step start:
    bounded L-BFGS-B on the eta transforms, inside the intervals of the
    one-parameter fits, on ``_JointObjective``, which names the nodes it
    refuses, in at most ``_JOINT_MAX_EVALS`` likelihood passes. The result
    never falls below the two-step start. ``options`` is not read.
    """
    u = np.asarray(u, dtype=float)
    free = _collect_free_params(report.model)
    if not free:
        return dataclasses.replace(report, loglik_joint=report.loglik_two_step,
                                   clamped_joint=report.clamped_two_step,
                                   joint_status="no free parameters")

    eta0 = np.array([eta for *_, eta in free])
    objective = _JointObjective(report.model, free, u)
    res = optimize.minimize(objective, eta0, jac=True, method="L-BFGS-B",
                            bounds=[bounds for _, _, bounds, _ in free],
                            options=dict(maxfun=_JOINT_MAX_EVALS // (len(free) + 1),
                                         ftol=_JOINT_FTOL))
    evals = objective.evals
    ll, final = objective.base(res.x if res.fun <= -report.loglik_two_step else eta0)
    if ll is None:
        raise EvaluationError("joint MLE: no finite log-likelihood at the two-step estimates")
    return dataclasses.replace(
        report, nodes=_refresh_node_fits(report.nodes, final), loglik_joint=ll.value,
        clamped_joint=ll.n_clamped, converged=report.converged and bool(res.success),
        joint_evals=evals, joint_status=str(res.message), joint_node_evals=objective.node_evals,
        joint_failed_probes=objective.failed_probes, model=final)


def _refresh_node_fits(node_fits, model) -> list:
    by_name = {node.name: node for _, node in iter_nodes(model)}
    return [dataclasses.replace(nf, params=copula_params(by_name[nf.name].copula))
            for nf in node_fits]


# ---------------------------------------------------------------------------
# simulation study
# ---------------------------------------------------------------------------

STUDY_METHODS = ("two_step_closed", "two_step_empirical", "joint_mle")


@dataclass(frozen=True)
class StudyConfig:
    cluster_families: tuple = ("clayton", "gumbel")
    cluster_taus: tuple = (0.4, 0.4)
    nesting_family: str = "frank"
    nesting_taus: tuple = (0.4, 0.7)
    sample_sizes: tuple = (250, 500, 1000)
    replications: int = 100
    methods: tuple = STUDY_METHODS
    # 25k Monte Carlo values keep the Kendall-function error an order of
    # magnitude below the estimation noise at these sample sizes
    kendall_mc: int = 25_000
    seed: int = 20240

    def __post_init__(self):
        """Check each field against the type of its default, element by
        element for the tuple fields, which also take lists and keep them as
        tuples, and each tau by the rule of the copula the study builds from
        it. A bad field raises ``ConfigError`` naming it."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"study setting {f.name!r} must be a list, "
                                      f"got {value!r}")
                items, kind = tuple(value), type(f.default[0])
                object.__setattr__(self, f.name, items)
            else:
                items, kind = (value,), type(f.default)
            want = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
            for item in items:
                if isinstance(item, bool) or not isinstance(item, want):
                    raise ConfigError(f"study setting {f.name!r} takes {kind.__name__} "
                                      f"values, got {item!r}")
        for name, ok, need in (
                # the nesting copula joins the clusters: one alone leaves it 1-d
                ("cluster_families", len(self.cluster_families) >= 2,
                 "name at least two clusters"),
                *((name, len(getattr(self, name)) > 0, "be nonempty")
                  for name in ("nesting_taus", "sample_sizes", "methods")),
                ("methods", set(self.methods) <= set(STUDY_METHODS),
                 f"be drawn from {STUDY_METHODS}"),
                ("cluster_taus", len(self.cluster_taus) == len(self.cluster_families),
                 "have one value per cluster family"),
                ("replications", self.replications >= 1, "be positive"),
                ("seed", self.seed >= 0, "be non-negative"),
                ("sample_sizes", all(n >= 2 for n in self.sample_sizes), "be at least 2"),
                ("kendall_mc", self.kendall_mc >= MIN_KENDALL_MC,
                 f"be at least {MIN_KENDALL_MC}"),
                ("nesting_family", self.nesting_family in ("clayton", "gumbel", "frank"),
                 "be clayton, gumbel or frank"),
                ("cluster_families", set(self.cluster_families) <= set(FAMILIES),
                 f"be drawn from {FAMILIES}")):
            if not ok:
                raise ConfigError(f"study setting {name!r} must {need}, "
                                  f"got {getattr(self, name)!r}")
        for tau0 in self.nesting_taus:  # an independence cluster reads no tau
            nest = _study_spec(self, tau0)
            for node in (*nest.children, nest):
                try:
                    copula_from_spec(node)
                except ParameterError as exc:
                    name = "nesting_taus" if node is nest else "cluster_taus"
                    raise ConfigError(f"study setting {name!r}: {exc}") from None


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


def _study_replication(args):
    """{method: (fitted nesting tau, None) or (None, "<type>: <message>")}
    for one replication."""
    config, cell_idx, rep, tau0, n = args
    rng = substream(config.seed, STREAM_REPLICATION, cell_idx, rep)
    spec = _study_spec(config, tau0)
    true_model = build_model(spec, n_vars=2 * len(config.cluster_families),
                             seed=config.seed)
    u = model_sample(true_model, n, rng, method="exact")
    out = {}
    closed = None  # the closed-form two-step fit, made once for both its users
    if {"two_step_closed", "joint_mle"} & set(config.methods):
        try:
            closed = fit_two_step(spec, u, FitOptions(kendall_mode="closed_form",
                                                      seed=config.seed))
        except Exception as exc:  # counted below under each method that needs it
            closed = exc
    for method in config.methods:
        try:
            if method == "two_step_empirical":
                fitted = fit_two_step(spec, u, FitOptions(
                    kendall_mode="empirical", kendall_mc=config.kendall_mc,
                    seed=config.seed + rep))
            elif isinstance(closed, Exception):
                raise closed
            else:
                fitted = closed if method == "two_step_closed" else fit_joint_mle(closed, u)
            out[method] = (tau_from_theta(fitted.model.root.copula.generator), None)
        except Exception as exc:  # any failure is counted, with its reason
            out[method] = (None, " ".join(f"{type(exc).__name__}: {exc}".split()))
    return out


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
