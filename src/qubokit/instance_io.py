"""Reading and writing instance files (text and JSON) and certificates.

Text format: the first non-comment line is ``n m d`` (variable count, term
count, domain tag ``spin`` or ``binary``), followed by m term lines with
1-based indices.  Quadratic files use ``i j v`` lines where ``i == j`` means
a linear term (Ising field / QUBO diagonal).  HUBO files use the extended
``k i1 ... ik v`` form, where k is the term order (k = 0 holds a constant).
``#`` starts a comment.  Writers emit ``# format:`` and ``# offset:`` comment
lines so files are self-describing.  Such a settings line counts wherever
it stands and the last of each kind wins; the body is scanned for them only
when it holds a ``#``.  A format other than ``quadratic`` or ``hubo``, an
offset that is not a number, and a non-zero offset on a HUBO (its constant
is an order-0 term; in JSON too) are ValidationErrors.  Without the format
comment a file is HUBO when its first term line (trailing comment cut) has
other than three fields, else quadratic when every term line has three
fields, else HUBO.  The reader decodes the file once, as UTF-8, and finds
the header, the settings and the first term line by position in that text,
copying no part of it.  A quadratic body is parsed by one ``np.loadtxt``
call that reads the file again line by line, skipping the lines up to and
including the header, so no second copy of the text is held; HUBO bodies
are parsed in one call per order.  Repeated lines are summed in
line order (fields into ``h``, pairs and terms as in ``from_arrays``), and a
malformed line, an index out of range (field lines included) or a term count
that differs from the header is a ValidationError.  The writers format
``_WRITE_LINES`` term lines at a time in one ``%`` call, so the text of a
whole model is never held at once.

The JSON mirror carries the same schema:
``{"format", "n", "domain", "offset", "terms"}`` with 1-based integer
indices.  Every instance and JSON file is read and written as UTF-8,
whatever the locale.  An instance file that is not UTF-8 text, and a JSON
file (instance, certificate, suite, reference, records or solver parameters)
that does not decode, is a ValidationError naming the file.
"""

from __future__ import annotations

import json
import numbers
import re
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ValidationError, check_finite_real
from .generators import PlantedInstance
from .model import (BINARY_DOMAIN, SPIN_DOMAIN, TERM_DTYPE, HuboModel, IsingModel, QuboModel,
                    _as_indices, _term_blocks, as_spins)

Model = Union[IsingModel, QuboModel, HuboModel]

FORMAT_QUADRATIC = "quadratic"
FORMAT_HUBO = "hubo"

_TERM_LINE = re.compile(r"^[ \t]*[^\s#].*$", re.MULTILINE)  # a line that is not blank or a comment
# a "# format: ..." or "# offset: ..." comment line, as (key, value)
_SETTING = re.compile(r"^[^\S\n]*#[^\S\n]*(format|offset):(.*)$", re.MULTILINE)
# term lines formatted per write
_WRITE_LINES = 2 ** 14
_HUBO_OFFSET = "a HUBO has no offset; its constant is an order-0 term"


def model_to_dict(model: Model) -> dict:
    """JSON-ready dict mirror of the text schema (1-based indices)."""
    if isinstance(model, (IsingModel, QuboModel)):
        domain, runs = _quadratic_runs(model)
        terms = []
        for rows, cols, values in runs:
            terms += map(list, zip((rows + 1).tolist(), (cols + 1).tolist(), values.tolist()))
        return {"format": FORMAT_QUADRATIC, "n": model.n, "domain": domain,
                "offset": model.offset, "terms": terms}
    if isinstance(model, HuboModel):
        terms = []
        for idx, c in model.blocks:
            terms += map(list, zip((idx + 1).tolist(), c.tolist()))
        return {"format": FORMAT_HUBO, "n": model.n, "domain": model.domain,
                "max_order": model.max_order, "terms": terms}
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def _quadratic_runs(model: IsingModel | QuboModel) -> tuple[str, list[tuple[np.ndarray, ...]]]:
    """Domain tag and the runs of term lines as 0-based (i, j, v) columns:
    an Ising model's non-zero fields first, as ``i i h_i`` lines, then its
    couplings; a QUBO's terms."""
    pairs = (model.rows, model.cols, model.values)
    if isinstance(model, QuboModel):
        return BINARY_DOMAIN, [pairs]
    fields = np.flatnonzero(model.h != 0.0)
    return SPIN_DOMAIN, [(fields, fields, model.h[fields]), pairs]


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ValidationError("instance needs a JSON object")
    fmt = data.get("format")
    if fmt not in (FORMAT_QUADRATIC, FORMAT_HUBO):
        raise ValidationError(f"unknown instance format {fmt!r}")
    for key in ("n", "domain", "terms"):
        if key not in data:
            raise ValidationError(f"instance missing field {key!r}")
    n, domain = data["n"], data["domain"]
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValidationError(f"instance 'n' needs an integer, got {n!r}")
    n = int(n)
    if fmt == FORMAT_QUADRATIC:
        try:
            offset = float(data.get("offset", 0.0))
        except (TypeError, ValueError):
            raise ValidationError(f"offset {data['offset']!r} is not a number") from None
        try:
            t = np.fromiter(map(tuple, data["terms"]), dtype=np.dtype((np.float64, 3)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"quadratic terms need [i, j, v]: {exc}") from None
        pairs, non_integer = _as_indices(t[:, :2])
        if non_integer.any():
            raise ValidationError(f"term index pair {tuple(t[non_integer.argmax(), :2].tolist())} "
                                  "is not a pair of integers")
        return _quadratic_model(n, domain, pairs[:, 0] - 1, pairs[:, 1] - 1, t[:, 2], offset)
    if data.get("offset", 0.0) != 0.0:
        raise ValidationError(_HUBO_OFFSET)
    try:
        blocks = [(idx - 1, c) for idx, c in _term_blocks(data["terms"])]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"HUBO terms need [[i1, ..., ik], v]: {exc}") from None
    return HuboModel.from_arrays(n, domain, blocks, max_order=data.get("max_order"))


def _quadratic_model(n: int, domain: str, rows, cols, values, offset: float) -> Model:
    """Ising (spin) or QUBO (binary) model from 0-based term columns; in
    the spin domain i == j terms are fields, summed in line order."""
    if domain == SPIN_DOMAIN:
        diag = rows == cols
        fields = rows[diag]
        bad = (fields < 0) | (fields >= n)
        if bad.any():
            i = int(fields[bad.argmax()])
            raise ValidationError(f"field index {i} out of range for n={n}")
        h = np.zeros(n)
        np.add.at(h, fields, values[diag])
        off = ~diag
        return IsingModel.from_arrays(n, rows[off], cols[off], values[off], h=h, offset=offset)
    if domain == BINARY_DOMAIN:
        return QuboModel.from_arrays(n, rows, cols, values, offset=offset)
    raise ValidationError(f"unknown domain tag {domain!r}")


def write_instance(path, model: Model) -> Path:
    """Write a model to ``path``; ``.json`` suffix selects the JSON mirror."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8")
        return path

    with path.open("w", encoding="utf-8") as f:
        if isinstance(model, (IsingModel, QuboModel)):
            domain, runs = _quadratic_runs(model)
            f.write(f"# format: {FORMAT_QUADRATIC}\n")
            if model.offset != 0.0:
                f.write(f"# offset: {model.offset!r}\n")
            f.write(f"{model.n} {sum(run[2].size for run in runs)} {domain}\n")
            for run in runs:
                _write_lines(f, "%d %d %r\n", run)
        else:
            f.write(f"# format: {FORMAT_HUBO}\n{model.n} {model.num_terms} {model.domain}\n")
            for idx, c in model.blocks:
                k = idx.shape[1]
                _write_lines(f, f"{k}{' %d' * k} %r\n", [*idx.T, c])
    return path


def _write_lines(f, line: str, columns) -> None:
    """Write one ``line % (row of columns)`` per row of the equal-length
    ``columns``: 0-based index columns, written 1-based, then the values.
    ``_WRITE_LINES`` rows go at a time: a block's cells, its indices plus 1,
    are interleaved as Python ints and floats into one object array and
    formatted in one ``%`` call (``%d`` of an int is ``str``, ``%r`` of a
    float is ``repr``), so no 1-based copy of a whole column is made."""
    width, m = len(columns), columns[-1].size
    cells = np.empty(width * min(m, _WRITE_LINES), dtype=object)
    for a in range(0, m, _WRITE_LINES):
        k = min(_WRITE_LINES, m - a)
        for c, column in enumerate(columns[:-1]):
            cells[c:width * k:width] = column[a:a + k] + 1
        cells[width - 1:width * k:width] = columns[-1][a:a + k]
        f.write((line * k) % tuple(cells[:width * k]))


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _read_json(path):
    """The decoded JSON file at ``path``; a file that is not UTF-8 JSON is a
    ValidationError naming it."""
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None


def read_instance(path) -> Model:
    """Read a model written by :func:`write_instance` (text or JSON)."""
    path = Path(path)
    if path.suffix == ".json":
        return model_from_dict(_read_json(path))

    text = _read_text(path)
    head = _TERM_LINE.search(text)
    header = head.group().split() if head is not None else []
    if len(header) != 3:
        raise ValidationError(f"{path}: missing or malformed 'n m d' header line")
    try:
        n, m, domain = int(header[0]), int(header[1]), header[2]
    except ValueError:
        raise ValidationError(f"{path}: header 'n m d' needs integer n and m, "
                              f"got {' '.join(header)!r}") from None
    start = head.end()
    settings = dict(_SETTING.findall(text, 0, head.start()))
    if text.find("#", start) >= 0:  # settings comments count wherever they stand
        settings.update(_SETTING.findall(text, start))
    fmt = settings["format"].strip() if "format" in settings else None
    if fmt not in (None, FORMAT_QUADRATIC, FORMAT_HUBO):
        raise ValidationError(f"{path}: unknown instance format {fmt!r}")
    try:
        offset = float(settings.get("offset", 0.0))
    except ValueError:
        raise ValidationError(f"{path}: offset {settings['offset'].strip()!r} "
                              "is not a number") from None
    first = _TERM_LINE.search(text, start)
    if fmt is None and first and len(first.group().split("#", 1)[0].split()) != 3:
        fmt = FORMAT_HUBO

    if fmt in (None, FORMAT_QUADRATIC):
        try:  # loadtxt warns on a body without term lines
            if first:
                # the file read again line by line: no second copy of its text
                with path.open(encoding="utf-8") as f:
                    t = _loadtxt(f, TERM_DTYPE, skiprows=text.count("\n", 0, start) + 1)
            else:
                t = np.empty(0, dtype=TERM_DTYPE)
        except (ValueError, DeprecationWarning) as exc:
            if fmt is not None or all(len(line.split("#", 1)[0].split()) == 3
                                      for line in _TERM_LINE.findall(text, start)):
                raise ValidationError(f"{path}: quadratic line needs 'i j v': {exc}") from None
        else:
            if t.size != m:
                raise ValidationError(f"{path}: header declares {m} terms, found {t.size}")
            return _quadratic_model(n, domain, t["i"] - 1, t["j"] - 1, t["v"], offset)

    if offset != 0.0:
        raise ValidationError(f"{path}: {_HUBO_OFFSET}")
    lines = _TERM_LINE.findall(text, start)
    if len(lines) != m:
        raise ValidationError(f"{path}: header declares {m} terms, found {len(lines)}")
    return HuboModel.from_arrays(n, domain, _hubo_blocks(lines, path))


def _loadtxt(lines, dtype, usecols=None, skiprows=0) -> np.ndarray:
    """``np.loadtxt`` of term lines (an open text file or a list of lines)
    with ``#`` comments, after the first ``skiprows`` lines; ValueError (or
    DeprecationWarning) on a field that does not parse as ``dtype`` and on a
    line with the wrong number of fields."""
    with warnings.catch_warnings():
        # numpy releases that only deprecate parsing "1.5" as an integer
        # truncate it; the warning as an error rejects it on all of them
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1, usecols=usecols,
                          skiprows=skiprows, encoding="utf-8")


def _hubo_blocks(lines: list[str], path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(0-based index matrix, coefficients) of the ``k i1 ... ik v`` term
    lines of each order k, parsed in one ``np.loadtxt`` call per order."""
    if not lines:
        return []
    try:
        order = _loadtxt(lines, np.int64, usecols=0)
        # a line of order k has at least 2k + 3 characters
        misfit = (order < 0) | (order > max(map(len, lines)))
        if misfit.any():
            raise ValueError(f"order {order[misfit.argmax()]} does not fit its line")
        lines = np.array(lines, dtype=object)
        blocks = []
        for k in np.unique(order):
            dtype = np.dtype([("k", np.int64), ("idx", np.int64, (k,)), ("v", np.float64)])
            t = _loadtxt(lines[order == k].tolist(), dtype)
            blocks.append((t["idx"] - 1, t["v"]))
    except (ValueError, DeprecationWarning) as exc:
        raise ValidationError(f"{path}: HUBO line needs 'k i1 ... ik v' with integer "
                              f"order and indices: {exc}") from None
    return blocks


def write_certificate(path, planted: PlantedInstance) -> Path:
    """Write the sidecar certificate of a planted instance."""
    path = Path(path)
    payload = {
        "planted_energy": float(planted.planted_energy),
        "planted_state": [int(s) for s in planted.planted_state],
        "family": planted.family,
        "hardness": planted.hardness,
        "seed": planted.seed,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def read_certificate(path) -> dict:
    """The certificate at ``path``, its ``planted_state`` as an int8 spin
    vector; a missing field, an energy that is not a finite real or a state
    that is not a vector of ±1 is a ValidationError."""
    data = _read_json(Path(path))
    for key in ("planted_energy", "planted_state", "family"):
        if not isinstance(data, dict) or key not in data:
            raise ValidationError(f"{path}: certificate missing field {key!r}")
    check_finite_real(f"{path}: planted_energy", data["planted_energy"])
    data["planted_state"] = as_spins(data["planted_state"])
    return data
