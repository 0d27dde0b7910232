"""File formats: network JSON, dataset CSV, fit and online trace CSV.

The readers and writers of these formats live here.  Two other modules
touch files: `harness` makes an experiment's output directories and
hashes the datasets it wrote, and `cli` reads an experiment config
(parsed by `harness.ExperimentConfig.from_json`).  Everything here is a
pure function of its input, so concurrent callers are safe.

Network file (UTF-8 JSON)::

    {
      "name": "example",
      "variables": [{"name": "A", "states": ["a0", "a1"]}, ...],
      "parents": {"B": ["A"], ...},
      "cpt": {"A": [[0.3, 0.7]], "B": [[0.9, 0.1], [0.2, 0.8]], ...}
    }

CPT rows follow the model module's lexicographic parent ordering (first
parent most significant).  Dataset files are comma-separated CSV with a
header of variable names; cells are state names or "?" for missing.  An
empty cell is a parse error, never treated as missing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .model import (
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
)

MISSING = -1
MISSING_TOKEN = "?"

# Rows whose sum is off by more than this are rejected; smaller deviations
# are silently renormalized.
PARSE_ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class DataCase:
    """A (possibly partial) assignment: state index per variable, -1 missing."""

    states: np.ndarray

    def __post_init__(self):
        a = _state_indices(self.states, "the case")
        a.setflags(write=False)
        object.__setattr__(self, "states", a)


def _state_indices(values, where: str) -> np.ndarray:
    """`values` as an int64 array, refusing any value the conversion would
    change (a fraction, NaN, a value out of int64 range) and strings and
    booleans, which are no state indices."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise ValidationError(f"{where} holds {raw.dtype} values, not state indices")
    with np.errstate(invalid="ignore"):
        a = raw.astype(np.int64, copy=False)
    if raw.dtype.kind != "i" and not np.all(a == raw):
        raise ValidationError(f"{where} holds values that are not integers in the int64 range")
    return a


def _check_states(structure: NetworkStructure, values: np.ndarray, where: str) -> None:
    """Raise ValidationError naming `where` unless each row of `values` is a case of `structure`."""
    if values.ndim != 2 or values.shape[1] != structure.n_vars:
        raise ValidationError(f"{where} does not have one entry per variable")
    bad = (values < MISSING) | (values >= [v.arity for v in structure.variables])
    if bad.any():
        name = structure.variables[int(np.argmax(bad.any(axis=0)))].name
        raise ValidationError(f"{where} has out-of-range states for variable {name!r}")


@dataclass(frozen=True)
class DataSet:
    """An ordered list of cases over one structure, stored as an (N, V) matrix."""

    structure: NetworkStructure
    values: np.ndarray

    def __post_init__(self):
        a = _state_indices(self.values, "dataset")
        _check_states(self.structure, a, "dataset")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    def __len__(self) -> int:
        return self.values.shape[0]

    def case(self, l: int) -> DataCase:
        return DataCase(self.values[l])

    def cases(self) -> list[DataCase]:
        return [self.case(l) for l in range(len(self))]


# -- network files -------------------------------------------------------


def parse_network(text: str) -> Network:
    """Parse a network JSON document into a validated Network."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer of more digits than Python converts
        raise ValidationError(f"network file is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValidationError("network file must be a JSON object")
    for key in ("variables", "parents", "cpt"):
        if key not in doc:
            raise ValidationError(f"network file missing key {key!r}")

    var_entries = doc["variables"]
    if not isinstance(var_entries, list) or not var_entries:
        raise ValidationError("'variables' must be a nonempty list")
    names = []
    variables = []
    for i, entry in enumerate(var_entries):
        if not isinstance(entry, dict) or "name" not in entry or "states" not in entry:
            raise ValidationError("each variable needs 'name' and 'states'")
        name = entry["name"]
        if name in names:
            raise ValidationError(f"duplicate variable name {name!r}")
        names.append(name)
        variables.append(Variable(i, name, tuple(entry["states"])))
    index_of = {v.name: v.index for v in variables}

    parents_doc = doc["parents"]
    if not isinstance(parents_doc, dict):
        raise ValidationError("'parents' must be an object")
    for key in parents_doc:
        if key not in index_of:
            raise ValidationError(f"'parents' names unknown variable {key!r}")
    parent_ids = []
    for v in variables:
        plist = parents_doc.get(v.name, [])
        ids = []
        for pname in plist:
            if pname not in index_of:
                raise ValidationError(
                    f"unknown parent {pname!r} of variable {v.name!r}"
                )
            ids.append(index_of[pname])
        parent_ids.append(tuple(ids))
    structure = NetworkStructure(tuple(variables), tuple(parent_ids))

    cpt_doc = doc["cpt"]
    if not isinstance(cpt_doc, dict):
        raise ValidationError("'cpt' must be an object")
    tables = []
    for v in variables:
        if v.name not in cpt_doc:
            raise ValidationError(f"missing CPT for variable {v.name!r}")
        rows = np.asarray(cpt_doc[v.name], dtype=np.float64)
        q, r = structure.table_shape(v.index)
        if rows.ndim != 2 or rows.shape[0] != q:
            raise ValidationError(
                f"CPT for {v.name!r} must have {q} rows, got shape {rows.shape}"
            )
        if rows.shape[1] != r:
            raise ValidationError(
                f"CPT row length {rows.shape[1]} != arity {r} for {v.name!r}"
            )
        if np.any(rows < 0) or np.any(rows > 1):
            raise ValidationError(f"CPT for {v.name!r} has entries outside [0, 1]")
        sums = rows.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > PARSE_ROW_SUM_TOL):
            j = int(np.argmax(off))
            raise ValidationError(
                f"CPT row {j} of {v.name!r} sums to {sums[j]!r}, not 1"
            )
        # A row whose sum is 1 up to the rounding of the sum is kept as
        # written, so a serialized network parses back to the same floats.
        exact = off <= r * np.finfo(np.float64).eps
        tables.append(np.where(exact[:, None], rows, rows / sums[:, None]))
    return Network(structure, ParameterVector(tables))


def serialize_network(network: Network, name: str = "network") -> str:
    """Canonical text form: declared order, 17 significant digits.

    parse_network(serialize_network(n)) reproduces n's structure and its
    parameters exactly: 17 digits round-trip every float, and the parser
    keeps rows whose sum is 1 up to rounding.
    """
    s = network.structure
    lines = ["{"]
    lines.append(f'  "name": {json.dumps(name)},')
    lines.append('  "variables": [')
    for i, v in enumerate(s.variables):
        states = ", ".join(json.dumps(x) for x in v.states)
        comma = "," if i + 1 < s.n_vars else ""
        lines.append(f'    {{"name": {json.dumps(v.name)}, "states": [{states}]}}{comma}')
    lines.append("  ],")
    lines.append('  "parents": {')
    for i, v in enumerate(s.variables):
        plist = ", ".join(json.dumps(s.variables[p].name) for p in s.parents[i])
        comma = "," if i + 1 < s.n_vars else ""
        lines.append(f'    {json.dumps(v.name)}: [{plist}]{comma}')
    lines.append("  },")
    lines.append('  "cpt": {')
    for i, v in enumerate(s.variables):
        rows = network.theta.tables[i]
        row_texts = []
        for row in rows:
            row_texts.append("[" + ", ".join(f"{p:.17g}" for p in row) + "]")
        comma = "," if i + 1 < s.n_vars else ""
        lines.append(f'    {json.dumps(v.name)}: [' + ", ".join(row_texts) + f"]{comma}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as f:
        return parse_network(f.read())


def write_text(path: str, text: str) -> None:
    """Write text as UTF-8 with newlines untranslated."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_network(network: Network, path: str, name: str = "network") -> None:
    write_text(path, serialize_network(network, name=name))


# -- dataset files --------------------------------------------------------


def load_dataset(text: str, structure: NetworkStructure) -> DataSet:
    """Parse a dataset CSV against a structure.

    The header may be any permutation or subset of the variables;
    variables absent from the header are missing in every case.  A UTF-8
    byte order mark before the header and blank lines at the end are
    ignored; a blank line anywhere else is a short row.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ValidationError("dataset file is empty")
    header = lines[0].split(",")
    cols = []
    seen = set()
    for name in header:
        v = structure.by_name(name)  # raises on unknown variable
        if v.index in seen:
            raise ValidationError(f"duplicate column {name!r} in header")
        seen.add(v.index)
        cols.append(v)

    n_rows = len(lines) - 1
    values = np.full((n_rows, structure.n_vars), MISSING, dtype=np.int64)
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValidationError(
                f"row {r + 1} has {len(cells)} cells, header has {len(cols)}"
            )
        for v, cell in zip(cols, cells):
            if cell == MISSING_TOKEN:
                continue
            if cell == "":
                raise ValidationError(f"row {r + 1}: empty cell for {v.name!r}")
            values[r, v.index] = v.state_index(cell)
    return DataSet(structure, values)


def read_dataset(path: str, structure: NetworkStructure) -> DataSet:
    with open(path, "r", encoding="utf-8") as f:
        return load_dataset(f.read(), structure)


def format_dataset(dataset: DataSet) -> str:
    """Dataset -> CSV text with all variables in declared order."""
    s = dataset.structure
    out = [",".join(v.name for v in s.variables)]
    for row in dataset.values:
        cells = []
        for i, v in enumerate(s.variables):
            st = int(row[i])
            cells.append(MISSING_TOKEN if st == MISSING else v.states[st])
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def write_dataset(dataset: DataSet, path: str) -> None:
    write_text(path, format_dataset(dataset))


# -- trace files ----------------------------------------------------------

TRACE_HEADER = "iter,train_ll,test_ll,max_param_delta,l2_step,wall_ms"
ONLINE_TRACE_HEADER = "t,case_ll,step_l2,skipped"


def _fmt(x: float | int | None) -> str:
    """A float to 17 significant digits, an int or bool as an integer, None as empty."""
    return "" if x is None else f"{x:.17g}"


def _format_records(header: str, records: Iterable) -> str:
    """Dataclass records -> CSV under `header`, one column per field in declared order."""
    lines = [header]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f.name)) for f in fields(rec)))
    return "\n".join(lines) + "\n"


def format_trace(records: Iterable) -> str:
    """Fit trace (`estimation.TraceRecord`s) -> CSV."""
    return _format_records(TRACE_HEADER, records)


def write_trace(records: Iterable, path: str) -> None:
    write_text(path, format_trace(records))


def format_online_trace(records: Iterable) -> str:
    """Online trace (`online.OnlineTraceRecord`s) -> CSV; a skipped case has no case_ll."""
    return _format_records(ONLINE_TRACE_HEADER, records)


def write_online_trace(records: Iterable, path: str) -> None:
    write_text(path, format_online_trace(records))
