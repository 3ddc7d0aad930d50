"""Model configuration files, fit reports, and the CSV dialect.

Config files are JSON with a flat node list; nodes reference data columns
by name or other nodes by name, and exactly one node (the root) is never
referenced as a child:

    {
      "nodes": [
        {"name": "c1", "family": "clayton", "columns": ["A", "B"],
         "theta": 2.0},
        {"name": "c2", "family": "gumbel", "columns": ["C", "D"],
         "tau": 0.5},
        {"name": "nest", "family": "frank", "children": ["c1", "c2"],
         "theta": 5.0}
      ],
      "kendall_mc_size": 100000,
      "epsilon_rule": {"mode": "rel", "value": 0.01},
      "seed": 1234
    }

Fit reports are JSON documents tagged ``hierkendall-report/1`` whose
``model`` member is itself a valid config, so reports can be fed back to
``simulate``/``density``/``backtest``. The CSV dialect is rigid for
byte-level reproducibility: comma separators, one header row, plain
decimal floats, no quoting, no missing values.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .estimation import FitReport, NodeSpec
from .levelset import EpsilonRule

REPORT_FORMAT = "hierkendall-report/1"

DEFAULT_KENDALL_MC_SIZE = 100_000


@dataclass
class ModelConfig:
    """Parsed configuration: node templates plus global settings."""

    nodes: list          # raw node dicts, root last
    root_name: str
    column_names: list   # referenced data columns in first-appearance order
    kendall_mc_size: int
    epsilon_rule: EpsilonRule
    seed: int


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_model_config(doc: dict) -> ModelConfig:
    """Validate a config document (or the model member of a report)."""
    if isinstance(doc, dict) and doc.get("format") == REPORT_FORMAT:
        doc = doc["model"]
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ConfigError("config must be an object with a 'nodes' list")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("'nodes' must be a nonempty list")
    names = []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "name" not in node:
            raise ConfigError(f"node #{i}: every node needs a 'name'")
        if node["name"] in names:
            raise ConfigError(f"duplicate node name {node['name']!r}")
        names.append(node["name"])
        has_cols = "columns" in node
        has_children = "children" in node
        if has_cols == has_children:
            raise ConfigError(
                f"node {node['name']!r}: exactly one of 'columns'/'children' required")
        if "family" not in node:
            raise ConfigError(f"node {node['name']!r}: missing 'family'")
    referenced = set()
    by_name = {n["name"]: n for n in nodes}
    for node in nodes:
        for ch in node.get("children", []):
            if ch not in by_name:
                raise ConfigError(
                    f"node {node['name']!r}: unknown child {ch!r}")
            if ch in referenced:
                raise ConfigError(f"node {ch!r} referenced by two parents")
            referenced.add(ch)
    roots = [n["name"] for n in nodes if n["name"] not in referenced]
    if len(roots) != 1:
        raise ConfigError(f"config must have exactly one root node, found {roots}")
    root = roots[0]
    # reachability doubles as the acyclicity check
    order, stack, seen = [], [root], set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            raise ConfigError(f"cycle through node {cur!r}")
        seen.add(cur)
        order.append(cur)
        stack.extend(by_name[cur].get("children", []))
    unreachable = set(names) - seen
    if unreachable:
        raise ConfigError(f"nodes {sorted(unreachable)} not reachable from the root")
    columns = []
    for node in nodes:
        for col in node.get("columns", []):
            if col in columns:
                raise ConfigError(
                    f"column {col!r} appears in more than one cluster")
            columns.append(col)
    eps_doc = doc.get("epsilon_rule", {"mode": "rel", "value": 0.01})
    try:
        eps = EpsilonRule(str(eps_doc.get("mode", "rel")),
                          float(eps_doc.get("value", 0.01)))
    except Exception as exc:
        raise ConfigError(f"bad epsilon_rule: {exc}") from exc
    return ModelConfig(
        nodes=nodes, root_name=root, column_names=columns,
        kendall_mc_size=int(doc.get("kendall_mc_size", DEFAULT_KENDALL_MC_SIZE)),
        epsilon_rule=eps, seed=int(doc.get("seed", 0)))


def _node_params(node: dict) -> dict | None:
    params = {}
    for key in ("theta", "tau", "nu"):
        if key in node:
            params[key] = float(node[key])
    if "corr" in node:
        params["corr"] = node["corr"]
    return params or None


def config_to_spec(config: ModelConfig, header: list | None = None) -> NodeSpec:
    """Resolve column names to indices and build the NodeSpec tree.

    With a data header, columns map to header positions and every header
    column must belong to some cluster; without one, the config's own
    column order defines the indices.
    """
    if header is None:
        header = config.column_names
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in config.column_names if c not in index]
    if missing:
        raise ConfigError(f"columns {missing} not present in the data header")
    uncovered = [c for c in header if c not in set(config.column_names)]
    if uncovered:
        raise ConfigError(f"data columns {uncovered} not assigned to any cluster")
    by_name = {n["name"]: n for n in config.nodes}

    def rec(name: str) -> NodeSpec:
        node = by_name[name]
        if "columns" in node:
            return NodeSpec(name=name, family=node["family"],
                            columns=tuple(index[c] for c in node["columns"]),
                            params=_node_params(node))
        return NodeSpec(name=name, family=node["family"],
                        children=tuple(rec(ch) for ch in node["children"]),
                        params=_node_params(node))

    return rec(config.root_name)


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------

def report_document(report: FitReport, method: str, columns: list,
                    config: ModelConfig) -> dict:
    """Serializable fit-report document; its 'model' member is a config."""
    model_nodes = []
    for nf in report.nodes:
        src = next(n for n in config.nodes if n["name"] == nf.name)
        entry = {"name": nf.name, "family": nf.family}
        if "columns" in src:
            entry["columns"] = list(src["columns"])
        else:
            entry["children"] = list(src["children"])
        for key, val in nf.params.items():
            entry[key] = val
        entry["fit_method"] = nf.method
        entry["kendall"] = nf.kendall
        model_nodes.append(entry)
    return {
        "format": REPORT_FORMAT,
        "command": "fit",
        "method": method,
        "n_obs": report.n_obs,
        "n_params": report.n_params,
        "loglik_two_step": report.loglik_two_step,
        "loglik_joint": report.loglik_joint,
        "aic": report.aic,
        "bic": report.bic,
        "converged": report.converged,
        "diagnostics": {
            "clamped_two_step": report.clamped_two_step,
            "clamped_joint": report.clamped_joint,
            "joint_evals": report.joint_evals,
            "joint_status": report.joint_status,
            "joint_node_evals": report.joint_node_evals,
            "joint_failed_probes": report.joint_failed_probes,
            "node_evals": {nf.name: nf.n_evals for nf in report.nodes},
            "node_converged": {nf.name: nf.converged for nf in report.nodes},
        },
        "columns": list(columns),
        "model": {
            "nodes": model_nodes,
            "kendall_mc_size": config.kendall_mc_size,
            "epsilon_rule": {"mode": config.epsilon_rule.mode,
                             "value": config.epsilon_rule.value},
            "seed": config.seed,
        },
    }


def _finite_or_null(obj):
    """``obj`` with every NaN or infinite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as strict JSON: non-finite numbers become ``null``."""
    _atomic_write(path, json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n")


def load_model_document(path: str) -> tuple:
    """Load a config or report file; returns (ModelConfig, columns or None)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    columns = doc.get("columns") if doc.get("format") == REPORT_FORMAT else None
    return parse_model_config(doc), columns


# ---------------------------------------------------------------------------
# CSV dialect
# ---------------------------------------------------------------------------

def read_csv(path: str):
    """Strict CSV reader: header row + all-numeric body, no missing cells."""
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            raise DataError(f"{path}: line {lineno}: blank line")
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            bad = next(c for c in cells if not _is_float(c))
            raise DataError(
                f"{path}: line {lineno}: non-numeric value {bad.strip()!r}") from None
    if not rows:
        return header, np.empty((0, len(header)))
    return header, np.asarray(rows, dtype=float)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_csv(path: str, header: list, matrix) -> None:
    """Atomic CSV writer with shortest-round-trip float formatting."""
    lines = [",".join(header)]
    # one row at a time: the whole matrix as Python floats would hold 4.5 MB
    # more at 10k x 30 than the text itself
    lines.extend(",".join(map(repr, row.tolist()))
                 for row in np.asarray(matrix, dtype=float))
    _atomic_write(path, "\n".join(lines) + "\n")
