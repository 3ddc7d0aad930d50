"""Hierarchical Kendall copula models.

A model is a tree: leaf nodes group raw variables (clusters) under one
copula each, inner nodes join the Kendall-transformed summaries
V = K(C(...)) of their children, and the root carries the nesting copula.
Size-1 clusters pass their variable through unchanged (identity copula
and identity Kendall function).

The joint density factorizes into the nesting density evaluated at the
V-values times the product of all cluster densities. One bottom-up pass
(``_post_order``) applies ``node_transform`` at every node and yields both
the V columns and that product; the density, the probability integral
transform and the two-step fit all run it. At an Archimedean node with its
closed-form Kendall function, V and log c both come from one generator sum
s = sum_i phi(u_i) (``archimedean_node_step``). A pass may take a memo, a
dict from node path to the (V, summed log c) of the node's subtree: it
runs only the nodes the memo lacks and adds them to it. The two-step fit
fills one memo as it climbs; the joint MLE hands each pass the entries
whose subtree it did not change.

Simulation is one top-down walk from a sample of the root copula: each
child's column goes through K^-1 to its Kendall level, the child is sampled
on that level set (exactly for Archimedean clusters, by rejection
otherwise), and the walk recurses.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .copulas import (
    ArchimedeanCopula,
    CopulaSpec,
    GaussianCopula,
    StudentTCopula,
    clamp_interior,
    copula_bivariate_margin,
    copula_cdf,
    copula_generator,
    copula_logpdf,
    copula_pdf,
    copula_sample,
    copula_sample_conditional,
    is_archimedean_kind,
)
from .errors import ModelStructureError, ParameterError, SameClusterError
from .kendall import (
    KendallFunction,
    archimedean_node_step,
    closed_form_kendall,
    empirical_kendall_build,
    identity_kendall,
    kendall_cdf,
    kendall_inverse,
    open_unit,
)
from .levelset import (
    DEFAULT_EPSILON_RULE,
    DEFAULT_MAX_ATTEMPTS,
    EpsilonRule,
    sample_levelset_conditional_batch,
    sample_levelset_rejection_batch,
)
from .rngutil import STREAM_KENDALL, as_rng, substream

DEFAULT_KENDALL_MC = 100_000

_LOGLIK_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class LeafNode:
    name: str
    columns: tuple
    copula: CopulaSpec
    kendall: KendallFunction

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))


@dataclass(frozen=True)
class InnerNode:
    name: str
    children: tuple
    copula: CopulaSpec
    kendall: KendallFunction | None = None  # not needed at the root

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


Node = LeafNode | InnerNode


@dataclass(frozen=True)
class HierarchicalModel:
    root: InnerNode
    n_vars: int


@dataclass
class LogLikelihood:
    value: float
    n_clamped: int


def leaf(name, columns, copula, kendall=None) -> LeafNode:
    """Leaf cluster; builds the identity/closed-form Kendall function if omitted."""
    if kendall is None:
        kendall = kendall_for_copula(copula)
    return LeafNode(name=name, columns=columns, copula=copula, kendall=kendall)


def inner(name, children, copula, kendall=None, nested=False) -> InnerNode:
    """Inner (nesting) node; pass nested=True to auto-build its Kendall function."""
    if kendall is None and nested:
        kendall = kendall_for_copula(copula)
    return InnerNode(name=name, children=children, copula=copula, kendall=kendall)


def kendall_for_copula(copula: CopulaSpec, mode: str = "auto",
                       m: int = DEFAULT_KENDALL_MC, rng=None) -> KendallFunction:
    """Kendall function for a copula: identity (d=1), closed form, or empirical.

    mode "auto" prefers the closed form; "closed_form" requires an
    Archimedean kind; "empirical" always simulates (m values), by default
    from a fixed stream of seed 0.
    """
    if copula.dim == 1:
        return identity_kendall()
    if mode == "closed_form" and not is_archimedean_kind(copula):
        raise ParameterError("closed-form Kendall function requires an Archimedean copula")
    if mode in ("auto", "closed_form") and is_archimedean_kind(copula):
        return closed_form_kendall(copula_generator(copula), copula.dim)
    return empirical_kendall_build(
        copula, m, substream(0, STREAM_KENDALL) if rng is None else as_rng(rng))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def iter_nodes(model: HierarchicalModel):
    """Depth-first preorder iteration over (path, node, depth); the root has depth 0."""
    stack = [("root", model.root, 0)]
    while stack:
        path, node, depth = stack.pop()
        yield path, node, depth
        if isinstance(node, InnerNode):
            for i, ch in reversed(list(enumerate(node.children))):
                stack.append((child_path(path, ch, i), ch, depth + 1))


def child_path(path: str, child: Node, idx: int) -> str:
    """Path of the ``idx``-th child of the node at ``path``, as ``iter_nodes`` gives it."""
    return f"{path}/{child.name or idx}"


def _node_dim(node: Node) -> int:
    return len(node.columns) if isinstance(node, LeafNode) else len(node.children)


def validate_model(model: HierarchicalModel, n_vars: int | None = None) -> list:
    """Check all structural invariants; returns a list of problems (empty = ok)."""
    problems = []
    n_vars = model.n_vars if n_vars is None else n_vars
    if not isinstance(model.root, InnerNode):
        return ["root must be an inner node carrying the nesting copula"]
    seen_names = set()
    covered: dict[int, str] = {}
    leaf_depths = set()
    per_depth = Counter()  # node count per depth below the root
    for path, node, depth in iter_nodes(model):
        if node.name in seen_names:
            problems.append(f"{path}: duplicate node name {node.name!r}")
        if "/" in node.name:
            problems.append(f"{path}: node name {node.name!r} contains '/', the path separator")
        seen_names.add(node.name)
        dim = _node_dim(node)
        if node.copula.dim != dim:
            problems.append(
                f"{path}: copula dimension {node.copula.dim} != "
                f"{'column' if isinstance(node, LeafNode) else 'child'} count {dim}")
        if isinstance(node, LeafNode):
            leaf_depths.add(depth)
            for c in node.columns:
                if c in covered:
                    problems.append(
                        f"{path}: variable {c} overlaps with cluster {covered[c]!r}")
                elif not 0 <= c < n_vars:
                    problems.append(f"{path}: variable {c} outside 0..{n_vars - 1}")
                covered[c] = node.name
        if node is not model.root:
            per_depth[depth] += 1
            if node.kendall is None:
                problems.append(f"{path}: nested node lacks a Kendall function")
            elif node.kendall.dim != node.copula.dim:
                problems.append(
                    f"{path}: Kendall dimension {node.kendall.dim} != copula "
                    f"dimension {node.copula.dim}")
    missing = sorted(set(range(n_vars)) - set(covered))
    if missing:
        problems.append(f"root: variables {missing} not covered by any cluster")
    if len(leaf_depths) > 1:
        problems.append(
            "root: leaves at mixed depths "
            f"{sorted(leaf_depths)}; insert size-1 pass-through clusters")
    else:
        widths = [per_depth[k] for k in sorted(per_depth, reverse=True)]  # leaves first
        for j in range(1, len(widths)):
            if widths[j] > widths[j - 1]:
                problems.append(
                    f"root: level width increases toward the root "
                    f"({widths[j - 1]} -> {widths[j]})")
    return problems


def validate(model: HierarchicalModel, n_vars: int | None = None) -> None:
    problems = validate_model(model, n_vars)
    if problems:
        raise ModelStructureError(problems)


def model_n_params(model: HierarchicalModel) -> int:
    """Number of free dependence parameters (size-1 clusters contribute none)."""
    total = 0
    for _, node, _ in iter_nodes(model):
        c = node.copula
        if c.dim <= 1:
            continue
        if isinstance(c, ArchimedeanCopula):
            total += 0 if c.generator.family == "independence" else 1
        elif isinstance(c, GaussianCopula):
            total += c.dim * (c.dim - 1) // 2
        elif isinstance(c, StudentTCopula):
            total += c.dim * (c.dim - 1) // 2 + 1
    return total


# ---------------------------------------------------------------------------
# the bottom-up pass: probability integral transform and density
# ---------------------------------------------------------------------------

def node_transform(node: Node, inputs: np.ndarray):
    """One bottom-up step on a node's N x dim input block (its data columns,
    or the stacked V columns of its children).

    Returns (v, log_c): v = K(C(clamp(inputs))), None at the root, which
    has no Kendall function, and log c the node's copula log-density. C is
    moved into (0, 1) only as far as float range requires (``open_unit``).
    A size-1 node passes its input through with log c = 0. An Archimedean
    node whose Kendall function is the closed form of its own generator
    takes both from one generator sum (``archimedean_node_step``).
    """
    if inputs.shape[1] == 1:
        return inputs[:, 0], np.zeros(inputs.shape[0])
    inputs = clamp_interior(inputs)
    c, K = node.copula, node.kendall
    if (isinstance(c, ArchimedeanCopula) and K is not None and K.kind == "closed_form"
            and K.generator == c.generator):
        return archimedean_node_step(c.generator, inputs)
    log_c = copula_logpdf(c, inputs)
    if K is None:
        return None, log_c
    return kendall_cdf(K, open_unit(copula_cdf(c, inputs))), log_c


# module-level rather than a recursive closure: a closure that calls itself is
# a reference cycle, which would keep each pass's arrays alive until the next
# garbage collection (joint MLE runs one pass per likelihood evaluation)
def _post_order(node: Node, rows: np.ndarray, memo: dict | None = None, path: str = "root"):
    """(V, summed log c of the subtree) of ``node`` at ``path``. A ``memo``
    (node path -> that pair) supplies the pairs it holds and receives the
    ones computed, in post-order."""
    if memo is not None and path in memo:
        return memo[path]
    if isinstance(node, LeafNode):
        inputs, below = rows[:, list(node.columns)], 0.0
    else:
        vs, accs = zip(*(_post_order(ch, rows, memo, child_path(path, ch, i))
                         for i, ch in enumerate(node.children)))
        inputs, below = np.column_stack(vs), np.sum(accs, axis=0)
    v, log_c = node_transform(node, inputs)
    out = v, below + log_c
    if memo is not None:
        memo[path] = out
    return out


def _pit_levels(model: HierarchicalModel, rows: np.ndarray) -> list:
    """The V matrices per depth from one post-order pass below the root,
    leaves first; the last entry feeds the root. The pass fills its memo in
    post-order, which keeps each depth's nodes left to right."""
    memo = {}
    for i, ch in enumerate(model.root.children):
        _post_order(ch, rows, memo, child_path("root", ch, i))
    by_depth = defaultdict(list)
    for path, (v, _) in memo.items():
        by_depth[path.count("/")].append(v)
    return [np.column_stack(by_depth[k]) for k in sorted(by_depth, reverse=True)]


def nesting_pit(model: HierarchicalModel, u) -> np.ndarray:
    """V matrix feeding the nesting copula: one column per root child.

    Each column is K_i(C_i(...)) of the child's inputs, uniform under a
    correctly specified model; size-1 clusters pass through unchanged.
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    levels = _pit_levels(model, u[None, :] if single else u)
    return levels[-1][0] if single else levels[-1]


def nesting_pit_levels(model: HierarchicalModel, u) -> list:
    """V matrices per level, leaves first; the last entry feeds the root."""
    return _pit_levels(model, np.asarray(u, dtype=float))


def model_logdensity(model: HierarchicalModel, u, memo: dict | None = None) -> np.ndarray:
    """Row-wise log of the model density.

    ``memo`` maps node paths (as ``iter_nodes`` gives them) to the (V,
    summed log c) of their subtrees on the same rows; the pass takes the
    subtrees it holds from it and adds the ones it computes.
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    rows = u[None, :] if single else u
    if rows.shape[1] != model.n_vars:
        raise ModelStructureError(
            [f"data has {rows.shape[1]} columns, model expects {model.n_vars}"])
    _, out = _post_order(model.root, rows, memo)
    return float(out[0]) if single else out


def model_density(model: HierarchicalModel, u):
    """Model density c(u); exactly 1 under full independence."""
    out = model_logdensity(model, u)
    return float(np.exp(out)) if np.isscalar(out) else np.exp(out)


def loglik_from_logdensity(ld) -> LogLikelihood:
    """Sum of row log-densities with a 1e-300 density floor.

    ``n_clamped`` counts floored rows; surfacing it keeps optimizer runs
    honest about boundary trouble instead of hiding it.
    """
    ld = np.atleast_1d(ld)
    clamped = int(np.sum(ld < _LOGLIK_FLOOR))
    return LogLikelihood(float(np.sum(np.maximum(ld, _LOGLIK_FLOOR))), clamped)


def model_loglik(model: HierarchicalModel, u, memo: dict | None = None) -> LogLikelihood:
    """Floored log-likelihood of the data, see ``loglik_from_logdensity``;
    ``memo`` as in ``model_logdensity``."""
    return loglik_from_logdensity(model_logdensity(model, u, memo))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def model_is_exactly_samplable(model: HierarchicalModel) -> bool:
    """True when every non-root node has an Archimedean-kind copula."""
    return all(is_archimedean_kind(node.copula)
               for _, node, _ in iter_nodes(model) if node is not model.root)


def _sample_node(node: Node, block: np.ndarray, rng, method, eps_rule, max_attempts,
                 out: np.ndarray):
    """Fill the columns of ``out`` under ``node`` given its copula sample
    ``block``: each child's column goes through K^-1 to its Kendall level,
    the child's copula is sampled on that level set, and the walk recurses."""
    if isinstance(node, LeafNode):
        out[:, list(node.columns)] = block
        return
    for i, ch in enumerate(node.children):
        z = kendall_inverse(ch.kendall, clamp_interior(block[:, i]))
        dim = _node_dim(ch)
        if dim == 1:
            child_block = np.asarray(z, dtype=float)[:, None]
        elif is_archimedean_kind(ch.copula) and method == "exact":
            child_block = sample_levelset_conditional_batch(
                copula_generator(ch.copula), dim, z, rng)
        else:
            child_block, _ = sample_levelset_rejection_batch(
                ch.copula, z, eps_rule, rng, max_attempts)
        _sample_node(ch, child_block, rng, method, eps_rule, max_attempts, out)


def model_sample(model: HierarchicalModel, n: int, rng, method: str = "auto",
                 eps_rule: EpsilonRule = DEFAULT_EPSILON_RULE,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> np.ndarray:
    """Simulate n rows from the model.

    method "exact" uses conditional-inverse level-set sampling and
    requires Archimedean cluster (and inner) copulas; "rejection" works
    for any kinds; "auto" picks exact when possible.
    """
    rng = as_rng(rng)
    if method not in ("auto", "exact", "rejection"):
        raise ParameterError(f"unknown sampling method {method!r}")
    if method == "auto":
        method = "exact" if model_is_exactly_samplable(model) else "rejection"
    if method == "exact" and not model_is_exactly_samplable(model):
        raise ParameterError(
            "exact sampling requires Archimedean cluster copulas; use rejection")
    out = np.empty((n, model.n_vars))
    if n == 0:
        return out
    _sample_node(model.root, copula_sample(model.root.copula, n, rng), rng, method,
                 eps_rule, max_attempts, out)
    return out


# ---------------------------------------------------------------------------
# cross-cluster bivariate margin
# ---------------------------------------------------------------------------

def _find_leaf_for(model, var):
    for i, ch in enumerate(model.root.children):
        if isinstance(ch, LeafNode) and var in ch.columns:
            return i, ch
    raise ModelStructureError(
        [f"variable {var} is not in a leaf cluster directly under the root; "
         "cross-cluster margins are available for two-level models only"])


def _companion_v(node: LeafNode, var: int, u_val: float, mc: int, rng):
    if len(node.columns) == 1:
        return np.full(mc, float(u_val))
    pos = node.columns.index(var)
    w = copula_sample_conditional(node.copula, pos, u_val, mc, rng)
    return node_transform(node, w)[0]


def cross_cluster_margin_pdf(model: HierarchicalModel, k: int, l: int,
                             u_k: float, u_l: float, mc: int, rng):
    """Monte Carlo estimate of the bivariate margin density of (U_k, U_l)
    for variables in two different clusters.

    Averages the nesting-margin density over within-cluster companions
    drawn from the cluster-conditional laws. Returns (estimate, standard
    error); the error is zero when both clusters have size one.
    """
    rng = as_rng(rng)
    i_idx, leaf_i = _find_leaf_for(model, k)
    j_idx, leaf_j = _find_leaf_for(model, l)
    if i_idx == j_idx:
        raise SameClusterError(
            f"variables {k} and {l} share cluster {leaf_i.name!r}; "
            "use the cluster copula margin directly")
    root_cop = model.root.copula
    if root_cop.dim == 1:
        raise ModelStructureError(["root copula must join at least two clusters"])
    v_i = _companion_v(leaf_i, k, u_k, mc, rng)
    v_j = _companion_v(leaf_j, l, u_l, mc, rng)
    margin = copula_bivariate_margin(root_cop, i_idx, j_idx)
    vals = copula_pdf(margin, clamp_interior(np.column_stack([v_i, v_j])))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(mc)) if mc > 1 else 0.0
    return est, se
