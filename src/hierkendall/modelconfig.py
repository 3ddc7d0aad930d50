"""Model documents, fit reports, and the CSV dialect.

A model document (a config) is JSON with a flat node list; nodes reference
data columns by name or other nodes by name, and exactly one node (the
root) is never referenced as a child:

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

``parse_model_config`` reads a document once, against a data header, into
a ``ModelConfig``: the ``NodeSpec`` template, whose leaves hold header
positions, and the settings ``kendall_mc_size``, ``epsilon_rule`` and
``seed``. The settings are read from the document only: no command-line
flag overrides them in a model built from it. Fit reports are JSON
documents tagged ``hierkendall-report/1`` whose ``columns`` is the fit's
data header and whose ``model`` member is itself a valid config carrying
the fit's settings, so a report fed back to
``simulate``/``density``/``backtest`` builds the fitted model, Monte Carlo
Kendall functions included. The CSV dialect is rigid for byte-level
reproducibility: comma separators, one header row, plain decimal floats,
no quoting, no missing values.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParameterError, is_count
from .estimation import FitReport, NodeSpec
from .hierarchical import DEFAULT_KENDALL_MC, LeafNode, iter_nodes
from .kendall import MIN_KENDALL_MC
from .levelset import DEFAULT_EPSILON_RULE, EpsilonRule

REPORT_FORMAT = "hierkendall-report/1"


@dataclass
class ModelConfig:
    """A model document read against a data header: the template ``spec``,
    whose leaves hold positions in ``header``, and the document's settings."""

    spec: NodeSpec
    header: list
    kendall_mc_size: int
    epsilon_rule: EpsilonRule
    seed: int


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a renamed temporary file, with the
    mode a plain ``open(path, "w")`` gives: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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

def _names(value) -> bool:
    """True for a nonempty JSON list of strings."""
    return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)


def _number(value) -> bool:
    """True for a JSON number that a float holds; booleans and integers
    beyond float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _whole(value, lo: int) -> bool:
    """True for a JSON integer >= ``lo``."""
    return is_count(value) and value >= lo


def parse_model_config(doc: dict, header: list | None = None) -> ModelConfig:
    """Validate a config document (or a fit report) and read it against the
    data ``header``: by default a report's ``columns``, else the document's
    columns in first-appearance order. A value of the wrong JSON type, a
    column the header lacks, a header column in no cluster and, checked
    last, a node that the walk building the template from the root does not
    reach each raise ``ConfigError`` naming it."""
    report = isinstance(doc, dict) and doc.get("format") == REPORT_FORMAT
    if report and "model" not in doc:
        raise ConfigError("report has no 'model' member")
    model = doc["model"] if report else doc
    if not isinstance(model, dict) or "nodes" not in model:
        raise ConfigError("config must be an object with a 'nodes' list")
    nodes = model["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("'nodes' must be a nonempty list")
    by_name = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or not isinstance(node.get("name"), str):
            raise ConfigError(f"node #{i}: every node needs a string 'name'")
        name = node["name"]
        if name in by_name:
            raise ConfigError(f"duplicate node name {name!r}")
        by_name[name] = node
        if ("columns" in node) == ("children" in node):
            raise ConfigError(f"node {name!r}: exactly one of 'columns'/'children' required")
        key = "columns" if "columns" in node else "children"
        if not _names(node[key]):
            raise ConfigError(f"node {name!r}: {key!r} must be a nonempty list of names, "
                              f"got {node[key]!r}")
        if not isinstance(node.get("family"), str):
            raise ConfigError(f"node {name!r}: missing 'family' or not a string")
        for param in ("theta", "tau", "nu"):
            if not _number(node.get(param, 0.0)):
                raise ConfigError(f"node {name!r}: {param!r} must be a number, "
                                  f"got {node[param]!r}")
        corr = node.get("corr", [])
        if not (isinstance(corr, list) and all(
                isinstance(row, list) and len(row) == len(corr) and all(map(_number, row))
                for row in corr)):
            raise ConfigError(f"node {name!r}: 'corr' must be a square list of rows of "
                              f"numbers, got {corr!r}")
    referenced = set()
    for node in nodes:
        for ch in node.get("children", []):
            if ch not in by_name:
                raise ConfigError(
                    f"node {node['name']!r}: unknown child {ch!r}")
            if ch in referenced:
                raise ConfigError(f"node {ch!r} referenced by two parents")
            referenced.add(ch)
    roots = [name for name in by_name if name not in referenced]
    if len(roots) != 1:
        raise ConfigError(f"config must have exactly one root node, found {roots}")
    columns = []
    for node in nodes:
        for col in node.get("columns", []):
            if col in columns:
                raise ConfigError(
                    f"node {node['name']!r}: column {col!r} appears in more than one cluster")
            columns.append(col)
    eps_doc = model.get("epsilon_rule", {})
    if not (isinstance(eps_doc, dict) and isinstance(eps_doc.get("mode", ""), str)
            and _number(eps_doc.get("value", 0.0))):
        raise ConfigError(f"'epsilon_rule' must be an object with a string 'mode' and a "
                          f"number 'value', got {eps_doc!r}")
    try:
        eps = EpsilonRule(eps_doc.get("mode", DEFAULT_EPSILON_RULE.mode),
                          float(eps_doc.get("value", DEFAULT_EPSILON_RULE.value)))
    except ParameterError as exc:
        raise ConfigError(f"bad epsilon_rule: {exc}") from exc
    mc, seed = model.get("kendall_mc_size", DEFAULT_KENDALL_MC), model.get("seed", 0)
    if not _whole(mc, MIN_KENDALL_MC):
        raise ConfigError(f"'kendall_mc_size' must be an integer >= {MIN_KENDALL_MC}, "
                          f"got {mc!r}")
    if not _whole(seed, 0):
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    if report and not _names(doc.get("columns")):
        raise ConfigError(f"report 'columns' must be a nonempty list of names, "
                          f"got {doc.get('columns')!r}")
    header = list((doc["columns"] if report else columns) if header is None else header)
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in index]
    if missing:
        raise ConfigError(f"columns {missing} not present in the data header")
    uncovered = [c for c in header if c not in set(columns)]
    if uncovered:
        raise ConfigError(f"data columns {uncovered} not assigned to any cluster")
    reached = set()

    def build(name: str) -> NodeSpec:
        # no node has two parents and the root has none, so no cycle is
        # reachable from the root and this walk ends
        reached.add(name)
        node = by_name[name]
        if "columns" in node:
            links = {"columns": tuple(index[c] for c in node["columns"])}
        else:
            links = {"children": tuple(build(ch) for ch in node["children"])}
        return NodeSpec(name=name, family=node["family"], params=_node_params(node), **links)

    spec = build(roots[0])
    unreachable = set(by_name) - reached
    if unreachable:
        raise ConfigError(f"nodes {sorted(unreachable)} not reachable from the root")
    return ModelConfig(spec=spec, header=header, kendall_mc_size=mc, epsilon_rule=eps,
                       seed=seed)


def _node_params(node: dict) -> dict | None:
    params = {}
    for key in ("theta", "tau", "nu"):
        if key in node:
            params[key] = float(node[key])
    if "corr" in node:
        params["corr"] = node["corr"]
    return params or None


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------

def report_document(report: FitReport, method: str, config: ModelConfig) -> dict:
    """Serializable fit-report document; its 'model' member is a config with
    the fitted model's topology, columns named after ``config.header``."""
    fitted = {node.name: node for _, node in iter_nodes(report.model)}
    model_nodes = []
    for nf in report.nodes:
        node = fitted[nf.name]
        entry = {"name": nf.name, "family": nf.family}
        if isinstance(node, LeafNode):
            entry["columns"] = [config.header[c] for c in node.columns]
        else:
            entry["children"] = [ch.name for ch in node.children]
        entry.update(nf.params)
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
        "columns": list(config.header),
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


def read_json(path: str, what: str):
    """The JSON document in ``path``. A missing file is a ``ConfigError``
    "<what> file not found: <path>", invalid JSON one naming the path and line."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_model_document(path: str, header: list | None = None) -> ModelConfig:
    """``parse_model_config`` of the config or report file at ``path``."""
    return parse_model_config(read_json(path, "model"), header)


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


def csv_text(header: list, matrix) -> str:
    """The dialect's text of ``matrix`` under ``header``: shortest round-trip floats."""
    lines = [",".join(header)]
    # one row at a time: the whole matrix as Python floats would hold 4.5 MB
    # more at 10k x 30 than the text itself
    lines.extend(",".join(map(repr, row.tolist()))
                 for row in np.asarray(matrix, dtype=float))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list, matrix) -> None:
    """Atomic CSV writer of ``csv_text``."""
    _atomic_write(path, csv_text(header, matrix))
