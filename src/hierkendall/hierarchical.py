"""Hierarchical Kendall copula models.

A model is a tree: leaf nodes group raw variables (clusters) under one
copula each, inner nodes join the Kendall-transformed summaries
V = K(C(...)) of their children, and the root carries the nesting copula.
A one-variable node is an ordinary node whose copula is
``IndependenceCopula(1)`` and whose Kendall function is the identity. A leaf
may sit at any depth: every pass works node by node, on a tree whose rules
were checked when its ``HierarchicalModel`` was built.

The joint density factorizes into the nesting density evaluated at the
V-values times the product of all cluster densities. One bottom-up pass
(``_post_order``) applies ``node_transform`` at every node and yields both
the V columns and that product; the density, the probability integral
transform and the two-step fit all run it. At an Archimedean node with its
closed-form Kendall function, V and log c both come from one generator sum
s = sum_i phi(u_i) (``archimedean_node_step``). A pass may take a memo, a
dict from node object to the (V, summed log c) of the node's subtree: it
runs only the nodes the memo lacks and adds them to it. Nodes hash by
identity, so a model rebuilt around unchanged subtrees finds their entries.
The two-step fit fills one memo as it climbs; the joint MLE hands each pass
the entries of the subtrees its rebuild shares.

Simulation is one top-down walk from a sample of the root copula: each
child's column goes through K^-1 to its Kendall level, the child is sampled
on that level set by its own copula's method (exactly for Archimedean
clusters, by rejection otherwise), and the walk recurses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import (
    ArchimedeanCopula,
    CopulaSpec,
    GaussianCopula,
    StudentTCopula,
    _prep_rows,
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
from .errors import (ModelStructureError, ParameterError, SameClusterError, check_count,
                     check_probability, is_count)
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
    EpsilonRule,
    sample_levelset_conditional_batch,
    sample_levelset_rejection_batch,
)
from .rngutil import STREAM_KENDALL, substream

DEFAULT_KENDALL_MC = 100_000

_LOGLIK_FLOOR = math.log(1e-300)


# eq=False: nodes compare and hash by identity, the memo key of the tree pass
@dataclass(frozen=True, eq=False)
class LeafNode:
    name: str
    columns: tuple
    copula: CopulaSpec
    kendall: KendallFunction

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))


@dataclass(frozen=True, eq=False)
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
    """A tree over variables 0..n_vars-1, checked when built: ``n_vars`` passes
    ``check_count``, the tree the rules of ``structure_problems``, each copula
    has its node's column or child count as dimension and each node below the
    root a Kendall function of that dimension, else a ``ModelStructureError``."""

    root: InnerNode
    n_vars: int

    def __post_init__(self):
        check_count("n_vars", self.n_vars, 1)
        problems = structure_problems(self.root, self.n_vars)
        for path, node in _walk(self.root):
            kind, dim = (("column", len(node.columns)) if isinstance(node, LeafNode)
                         else ("child", len(node.children)))
            if node.copula.dim != dim:
                problems.append(f"{path}: copula dimension {node.copula.dim} != "
                                f"{kind} count {dim}")
            if node is not self.root and node.kendall is None:
                problems.append(f"{path}: nested node lacks a Kendall function")
            elif node is not self.root and node.kendall.dim != node.copula.dim:
                problems.append(f"{path}: Kendall dimension {node.kendall.dim} != copula "
                                f"dimension {node.copula.dim}")
        if problems:
            raise ModelStructureError(problems)


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
    from a fixed stream of seed 0. Any other mode is a ``ParameterError``.
    """
    modes = ("auto", "closed_form", "empirical")
    if mode not in modes:
        raise ParameterError(f"unknown Kendall mode {mode!r}; use one of {modes}")
    if copula.dim == 1:
        return identity_kendall()
    if mode == "closed_form" and not is_archimedean_kind(copula):
        raise ParameterError("closed-form Kendall function requires an Archimedean "
                             "copula; use mode 'auto' or 'empirical'")
    if mode in ("auto", "closed_form") and is_archimedean_kind(copula):
        return closed_form_kendall(copula_generator(copula), copula.dim)
    return empirical_kendall_build(
        copula, m, substream(0, STREAM_KENDALL) if rng is None else rng)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def iter_nodes(model: HierarchicalModel):
    """Depth-first preorder iteration over (path, node). A path such as
    ``root/m1/c1`` labels a node in messages."""
    return _walk(model.root)


def _walk(root):
    """``iter_nodes`` from ``root``, a model node or a template
    (``estimation.NodeSpec``): a node with children is inner."""
    stack = [("root", root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i, ch in reversed(list(enumerate(getattr(node, "children", None) or ()))):
            stack.append((f"{path}/{ch.name or i}", ch))


def structure_problems(root, n_vars: int) -> list:
    """The shape rules of a tree, checked on a model's root node or on a
    template (``estimation.NodeSpec``): the root is an inner node, node
    names are unique, every column is an integer (``errors.is_count``), and
    the clusters partition the variables 0..n_vars-1. Returns a list of
    problems (empty = ok)."""
    if getattr(root, "columns", None) is not None:
        return ["root must be an inner node carrying the nesting copula"]
    problems = []
    seen_names = set()
    covered: dict[int, str] = {}
    for path, node in _walk(root):
        if node.name in seen_names:
            problems.append(f"{path}: duplicate node name {node.name!r}")
        seen_names.add(node.name)
        for c in getattr(node, "columns", None) or ():
            if not is_count(c):
                problems.append(f"{path}: column {c!r} is not a variable index")
                continue
            if c in covered:
                problems.append(f"{path}: variable {c} overlaps with cluster {covered[c]!r}")
            elif not 0 <= c < n_vars:
                problems.append(f"{path}: variable {c} outside 0..{n_vars - 1}")
            covered[c] = node.name
    missing = sorted(set(range(n_vars)) - set(covered))
    if missing:
        problems.append(f"root: variables {missing} not covered by any cluster")
    return problems


def model_n_params(model: HierarchicalModel) -> int:
    """Number of free dependence parameters (independence copulas have none)."""
    total = 0
    for _, node in iter_nodes(model):
        c = node.copula
        if isinstance(c, ArchimedeanCopula):
            total += 0 if c.generator.family == "independence" else 1
        elif isinstance(c, (GaussianCopula, StudentTCopula)):
            total += c.dim * (c.dim - 1) // 2 + isinstance(c, StudentTCopula)
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
    An Archimedean node whose Kendall function is the closed form of its own
    generator takes both from one generator sum (``archimedean_node_step``).
    """
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
def _post_order(node: Node, rows: np.ndarray, memo: dict | None = None):
    """(V, summed log c of the subtree) of ``node``. A ``memo`` (node ->
    that pair) supplies the pairs it holds and receives the ones computed,
    in post-order."""
    if memo is not None and node in memo:
        return memo[node]
    if isinstance(node, LeafNode):
        inputs, below = rows[:, list(node.columns)], 0.0
    else:
        vs, accs = zip(*(_post_order(ch, rows, memo) for ch in node.children))
        inputs, below = np.column_stack(vs), np.sum(accs, axis=0)
    v, log_c = node_transform(node, inputs)
    out = v, below + log_c
    if memo is not None:
        memo[node] = out
    return out


def nesting_pit(model: HierarchicalModel, u) -> np.ndarray:
    """V matrix feeding the nesting copula: one column per root child.

    Each column is K_i(C_i(...)) of the child's inputs, uniform under a
    correctly specified model; a one-variable child passes its variable,
    clamped to [1e-12, 1 - 1e-12].
    """
    rows, single = _prep_rows(u, model.n_vars)
    v = np.column_stack([_post_order(ch, rows)[0] for ch in model.root.children])
    return v[0] if single else v


def model_logdensity(model: HierarchicalModel, u, memo: dict | None = None) -> np.ndarray:
    """Row-wise log of the model density.

    ``memo`` maps node objects to the (V, summed log c) of their subtrees
    on the same rows; the pass takes the subtrees it holds from it and adds
    the ones it computes.
    """
    rows, single = _prep_rows(u, model.n_vars)
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

def _sample_node(node: Node, block: np.ndarray, rng, method, eps_rule, out: np.ndarray):
    """Fill the columns of ``out`` under ``node`` given its copula sample
    ``block``: each child's column goes through K^-1 to its Kendall level,
    the child is sampled on that level set by its own copula's method
    (``model_sample``), and the walk recurses."""
    if isinstance(node, LeafNode):
        out[:, list(node.columns)] = block
        return
    for i, ch in enumerate(node.children):
        z = kendall_inverse(ch.kendall, clamp_interior(block[:, i]))
        # a one-variable node (identity K) is its level z: the exact sampler draws nothing
        if is_archimedean_kind(ch.copula) and (method != "rejection" or ch.kendall.dim == 1):
            child_block = sample_levelset_conditional_batch(
                copula_generator(ch.copula), ch.copula.dim, z, rng)
        else:
            child_block, _ = sample_levelset_rejection_batch(ch.copula, z, eps_rule, rng)
        _sample_node(ch, child_block, rng, method, eps_rule, out)


def model_sample(model: HierarchicalModel, n: int, rng, method: str = "auto",
                 eps_rule: EpsilonRule = DEFAULT_EPSILON_RULE) -> np.ndarray:
    """Simulate n rows from the model.

    "auto" samples each Archimedean-kind node exactly on its level set
    (conditional inverse) and any other by rejection; "rejection" samples
    by rejection every node of two or more variables (a one-variable node
    is its level, which the exact sampler returns); "exact" refuses, before
    any draw and naming it, a non-Archimedean node below the root. An ``n``
    that is not an integer >= 0 is a ``ParameterError`` naming it; a
    rejection batch that exhausts ``levelset.MAX_ATTEMPTS`` candidates is a
    ``RejectionCapError``.
    """
    check_count("n", n, 0)
    if method not in ("auto", "exact", "rejection"):
        raise ParameterError(f"unknown sampling method {method!r}")
    if method == "exact":
        for path, node in iter_nodes(model):
            if node is not model.root and not is_archimedean_kind(node.copula):
                raise ParameterError(
                    "exact sampling requires Archimedean copulas below the root; "
                    f"{path} ({type(node.copula).__name__}) is not: use auto or rejection")
    out = np.empty((n, model.n_vars))
    if n == 0:
        return out
    _sample_node(model.root, copula_sample(model.root.copula, n, rng), rng, method,
                 eps_rule, out)
    return out


# ---------------------------------------------------------------------------
# cross-cluster bivariate margin
# ---------------------------------------------------------------------------

def _find_leaf_for(model, var):
    for i, ch in enumerate(model.root.children):
        if isinstance(ch, LeafNode) and var in ch.columns:
            return i, ch
    raise ModelStructureError(
        ["cross-cluster margins are available for leaf clusters directly under "
         f"the root only; variable {var} is not in one"])


def _companion_v(node: LeafNode, var: int, u_val: float, mc: int, rng):
    pos = node.columns.index(var)
    w = copula_sample_conditional(node.copula, pos, u_val, mc, rng)
    return node_transform(node, w)[0]


def cross_cluster_margin_pdf(model: HierarchicalModel, k: int, l: int,
                             u_k: float, u_l: float, mc: int, rng):
    """Monte Carlo estimate of the bivariate margin density of (U_k, U_l)
    for variables in two different clusters.

    Averages the nesting-margin density over within-cluster companions
    drawn from the cluster-conditional laws. Returns (estimate, standard
    error); the error is zero when both clusters have size one. An ``mc``
    below 1, a ``k``/``l`` that is not a variable 0..n_vars-1, or a
    ``u_k``/``u_l`` outside [0, 1] is a ``ParameterError`` naming it.
    """
    check_count("mc", mc, 1)
    for name, var in (("k", k), ("l", l)):
        check_count(name, var, 0)
        if var >= model.n_vars:
            raise ParameterError(f"{name} must be below n_vars = {model.n_vars}, got {var}", name)
    check_probability("u_k", u_k, closed=True)
    check_probability("u_l", u_l, closed=True)
    i_idx, leaf_i = _find_leaf_for(model, k)
    j_idx, leaf_j = _find_leaf_for(model, l)
    if i_idx == j_idx:
        raise SameClusterError(
            f"variables {k} and {l} share cluster {leaf_i.name!r}; "
            "use the cluster copula margin directly")
    v_i = _companion_v(leaf_i, k, u_k, mc, rng)
    v_j = _companion_v(leaf_j, l, u_l, mc, rng)
    margin = copula_bivariate_margin(model.root.copula, i_idx, j_idx)
    vals = copula_pdf(margin, clamp_interior(np.column_stack([v_i, v_j])))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(mc)) if mc > 1 else 0.0
    return est, se
