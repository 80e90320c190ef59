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
other than three fields; else it is read as quadratic, and read again as
HUBO when the first line that fails to parse as quadratic has other than
three fields.  Repeated lines are summed in line order (fields into ``h``,
pairs and terms as in ``from_arrays``), and a malformed line, an index out
of range (field lines included) or a term count that differs from the
header is a ValidationError.  A malformed line's error names the file, the
line's 1-based number in the file and its text, for the first malformed
term line in file order; a term count that differs from the header is
reported once the body has parsed.

The reader makes two passes over a text file and never holds its whole
text or a string for each of its lines.  Pass 1 decodes the file in
pieces of whole lines and keeps the header, the settings, the first term
line and the number of lines up to the header.  Pass 2 reopens the file, skips those lines and
parses the body ``_BLOCK_LINES`` lines at a time, one ``np.loadtxt`` call
per block (per block and order for a HUBO).  A quadratic block's fields go
into ``h`` and its pairs, swapped to i <= j, into (rows, cols, values)
columns allocated once from the header's m; when every pair is valid and
the pairs' keys strictly increase, as in written files, those columns are
the model's.  The read of a complete n=1000 file thus peaks at about 30 B
per term line (the model's 24 B and one block), a HUBO of ``gen_mw3s``
n=10^5 at about 95 B per term.  Every split into blocks reads to the model
of a whole-body parse.  Only once a block fails to parse are its lines
read again and parsed one at a time, to find the first malformed one; the
read stops there.  The writers format ``_BLOCK_LINES`` term lines at a
time in one ``%`` call, so the text of a whole model is never held at
once either.

The JSON mirror carries the same schema:
``{"format", "n", "domain", "offset", "terms"}`` with 1-based integer
indices.  Every instance and JSON file is read and written as UTF-8,
whatever the locale; a byte-order mark opening one is skipped, and the
writers emit none.  An instance file that is not UTF-8 text, and a JSON
file (instance, certificate, suite, reference, records or solver parameters)
that does not decode, is a ValidationError naming the file.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
import re
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ValidationError, check_finite_real, is_finite_real
from .generators import PlantedInstance
from .model import (BINARY_DOMAIN, SPIN_DOMAIN, TERM_DTYPE, HuboModel, IsingModel, QuboModel,
                    _as_indices, _bad_pairs, _pair_keys, _term_blocks, as_spins)

Model = Union[IsingModel, QuboModel, HuboModel]

FORMAT_QUADRATIC = "quadratic"
FORMAT_HUBO = "hubo"

_TERM_LINE = re.compile(r"^[ \t]*[^\s#].*$", re.MULTILINE)  # a line that is not blank or a comment
# a "# format: ..." or "# offset: ..." comment line, as (key, value)
_SETTING = re.compile(r"^[^\S\n]*#[^\S\n]*(format|offset):(.*)$", re.MULTILINE)
# lines formatted per write, and read per np.loadtxt call
_BLOCK_LINES = 2 ** 14
# characters of text decoded per piece in the reader's first pass
_SCAN_CHARS = 2 ** 16
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
        offset = data.get("offset", 0.0)
        if not is_finite_real(offset):
            raise ValidationError(f"offset {offset!r} is not a number")
        try:
            t = np.fromiter(map(tuple, data["terms"]), dtype=np.dtype((np.float64, 3)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"quadratic terms need [i, j, v]: {exc}") from None
        pairs, non_integer = _as_indices(t[:, :2])
        if non_integer.any():
            raise ValidationError(f"term index pair {tuple(t[non_integer.argmax(), :2].tolist())} "
                                  "is not a pair of integers")
        return _quadratic_model(n, domain, [(pairs[:, 0] - 1, pairs[:, 1] - 1, t[:, 2])],
                                len(t), offset)
    if data.get("offset", 0.0) != 0.0:
        raise ValidationError(_HUBO_OFFSET)
    try:
        blocks = [(idx - 1, c) for idx, c in _term_blocks(data["terms"])]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"HUBO terms need [[i1, ..., ik], v]: {exc}") from None
    return HuboModel.from_arrays(n, domain, blocks, max_order=data.get("max_order"))


def _quadratic_model(n: int, domain: str, blocks, size: int, offset: float) -> Model:
    """Ising (spin) or QUBO (binary) model from blocks of 0-based (i, j, v)
    term columns, at most ``size`` terms in all; in the spin domain i == j
    terms are fields, summed into ``h`` in line order.

    The pairs, swapped to i <= j, are written into columns allocated once
    and checked block by block: when every pair is in range, finite, not a
    diagonal coupling and keyed above the one before, as in written files,
    the columns are the model's.  Otherwise ``from_arrays`` canonicalises
    them, naming the first bad term in line order.  Field and pair errors
    are raised once ``blocks`` is exhausted, so an error it raises comes
    first."""
    spin = domain == SPIN_DOMAIN
    rows, cols = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    values = np.empty(size)
    h = np.zeros(max(n, 0)) if spin else None  # from_arrays refuses n < 1 below
    pairs, canonical, last, bad_field = 0, True, -1, None
    for i, j, v in blocks:
        if spin:
            diag = i == j
            fields = i[diag]
            bad = (fields < 0) | (fields >= n)
            if bad.any():
                bad_field = int(fields[bad.argmax()]) if bad_field is None else bad_field
            elif bad_field is None:
                np.add.at(h, fields, v[diag])
            off = ~diag
            i, j, v = i[off], j[off], v[off]
        k = pairs + v.size
        lo, hi = np.minimum(i, j, out=rows[pairs:k]), np.maximum(i, j, out=cols[pairs:k])
        values[pairs:k] = v
        pairs = k
        if canonical and v.size:
            keys = _pair_keys(n, lo, hi)
            canonical = (keys[0] > last and not _bad_pairs(n, lo, hi, v, not spin).any()
                         and bool(np.all(keys[1:] > keys[:-1])))
            last = keys[-1]
    lo = hi = None  # no view of the columns outlives the loop: they shrink below
    if bad_field is not None:
        raise ValidationError(f"field index {bad_field} out of range for n={n}")
    if domain not in (SPIN_DOMAIN, BINARY_DOMAIN):
        raise ValidationError(f"unknown domain tag {domain!r}")
    for column in (rows, cols, values):
        column.resize(pairs, refcheck=False)  # field lines took no pair
    cls, scalars = (IsingModel, {"h": h}) if spin else (QuboModel, {})
    if not canonical:
        return cls.from_arrays(n, rows, cols, values, offset=offset, **scalars)
    values += 0.0  # each sum is 0.0 + v, which turns -0.0 into 0.0
    # from_arrays on no pairs checks n, the offset and h
    model = cls.from_arrays(n, rows[:0], cols[:0], values[:0], offset=offset, **scalars)
    return dataclasses.replace(model, rows=rows, cols=cols, values=values)


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
    ``_BLOCK_LINES`` rows go at a time: a block's cells, its indices plus 1,
    are interleaved as Python ints and floats into one object array and
    formatted in one ``%`` call (``%d`` of an int is ``str``, ``%r`` of a
    float is ``repr``), so no 1-based copy of a whole column is made."""
    width, m = len(columns), columns[-1].size
    cells = np.empty(width * min(m, _BLOCK_LINES), dtype=object)
    for a in range(0, m, _BLOCK_LINES):
        k = min(_BLOCK_LINES, m - a)
        for c, column in enumerate(columns[:-1]):
            cells[c:width * k:width] = column[a:a + k] + 1
        cells[width - 1:width * k:width] = columns[-1][a:a + k]
        f.write((line * k) % tuple(cells[:width * k]))


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
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


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; a file holding any other
    JSON value is a ValidationError naming the file and ``what`` it holds."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object, "
                              f"got {type(data).__name__}")
    return data


def read_instance(path) -> Model:
    """Read a model written by :func:`write_instance` (text or JSON).

    A text file without a ``# format:`` comment whose first term line has
    three fields is read as quadratic, and read again as HUBO when the
    first term line that fails to parse has other than three fields.  A
    malformed term line is a ValidationError naming the file, the line's
    1-based number in the file and its text."""
    path = Path(path)
    if path.suffix == ".json":
        return model_from_dict(_read_json(path))

    n, m, domain, fmt, offset, skip = _read_head(path)
    if fmt in (None, FORMAT_QUADRATIC):
        # a line "i j v" takes at least 6 bytes with its newline: a header
        # declaring more lines than the file holds allocates no more
        size = max(0, min(m, (path.stat().st_size + 1) // 6))
        try:
            return _quadratic_model(n, domain, _quadratic_blocks(path, skip, m), size, offset)
        except _BadLine as exc:
            number, line = exc.args
            # a valid HUBO line of three fields, "1 i v", parses as quadratic
            if fmt is not None or len(line.split("#", 1)[0].split()) == 3:
                raise ValidationError(f"{path}: line {number}: quadratic line needs 'i j v', "
                                      f"got {line!r}") from None
    if offset != 0.0:
        raise ValidationError(f"{path}: {_HUBO_OFFSET}")
    return _read_hubo(path, skip, n, m, domain)


def _read_head(path: Path):
    """Pass 1 over a text instance, holding one piece of its text at a
    time: n, m, domain, format (None when the file leaves it open), offset
    and the number of lines up to and including the header.  A file that
    is not UTF-8 is a ValidationError naming its first bad byte, as a
    decode of the whole file does, before any other error."""
    head = first = None
    settings: dict[str, str] = {}
    skip = 0
    try:
        with path.open(encoding="utf-8-sig") as f:
            for text in _pieces(f):
                start = 0
                if head is None:
                    line = _TERM_LINE.search(text)
                    settings.update(_SETTING.findall(text, 0, line.start() if line else len(text)))
                    if line is None:
                        skip += text.count("\n")
                        continue
                    head, start = line.group(), line.end()
                    skip += text.count("\n", 0, start) + 1
                if first is None:
                    line = _TERM_LINE.search(text, start)
                    first = line.group() if line else None
                if text.find("#", start) >= 0:  # settings comments count wherever they stand
                    settings.update(_SETTING.findall(text, start))
    except UnicodeDecodeError:
        _read_text(path)  # raises the ValidationError for the first bad byte
        raise
    header = head.split() if head is not None else []
    if len(header) != 3:
        raise ValidationError(f"{path}: missing or malformed 'n m d' header line")
    try:
        n, m, domain = int(header[0]), int(header[1]), header[2]
    except ValueError:
        raise ValidationError(f"{path}: header 'n m d' needs integer n and m, "
                              f"got {' '.join(header)!r}") from None
    fmt = settings["format"].strip() if "format" in settings else None
    if fmt not in (None, FORMAT_QUADRATIC, FORMAT_HUBO):
        raise ValidationError(f"{path}: unknown instance format {fmt!r}")
    try:
        offset = float(settings.get("offset", 0.0))
    except ValueError:
        raise ValidationError(f"{path}: offset {settings['offset'].strip()!r} "
                              "is not a number") from None
    if fmt is None and first and len(first.split("#", 1)[0].split()) != 3:
        fmt = FORMAT_HUBO
    return n, m, domain, fmt, offset, skip


def _pieces(f):
    """The text of the open file ``f`` in pieces of about ``_SCAN_CHARS``
    characters that end at a line end (the last one where the text ends)."""
    tail = ""
    for chunk in iter(lambda: f.read(_SCAN_CHARS), ""):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        yield text[:cut]
        tail = text[cut:]
    yield tail


def _body_blocks(path: Path, skip: int):
    """Pass 2: the lines after the first ``skip`` of the text file at
    ``path``, in lists of ``_BLOCK_LINES``, read as pass 1 decoded them."""
    with path.open(encoding="utf-8-sig") as f:
        body = itertools.islice(f, skip, None)
        # holds no block once it is handed over, so a reader can drop it
        yield from iter(lambda: list(itertools.islice(body, _BLOCK_LINES)), [])


def _term_lines(block: list[str]) -> list[str]:
    """The lines of ``block`` that are neither blank nor comments."""
    return _TERM_LINE.findall("".join(block))


class _BadLine(Exception):
    """The file line number and text of a quadratic body's first line that
    does not parse."""


def _first_bad_line(path: Path, skip: int, b: int, parse) -> tuple[int, str]:
    """The file line number and text of the first line of body block ``b``
    (0-based, as ``_body_blocks`` yields them) on which ``parse`` raises a
    ValueError or DeprecationWarning.  The block is read again, so a reader
    need not keep its lines."""
    block = next(itertools.islice(_body_blocks(path, skip), b, None))
    for i, line in enumerate(block):
        try:
            parse(line)
        except (ValueError, DeprecationWarning):
            return skip + b * _BLOCK_LINES + i + 1, line.rstrip("\n")


def _quadratic_blocks(path: Path, skip: int, m: int):
    """0-based (i, j, v) columns of each block of a quadratic body while
    the term lines number at most the header's m.  A block that does not
    parse raises ``_BadLine`` for its first line that does not parse alone
    (blank and comment lines parse to nothing), and a count other than m
    is a ValidationError once the body is parsed."""
    found = b = 0  # b counts blocks: enumerate's tuple would keep the last one alive
    for block in _body_blocks(path, skip):
        try:
            t = _loadtxt(block, TERM_DTYPE)
        except (ValueError, DeprecationWarning):
            raise _BadLine(*_first_bad_line(path, skip, b,
                                            lambda line: _loadtxt([line], TERM_DTYPE))) from None
        del block  # the lines go before the block's columns are made
        found += t.size
        b += 1
        if found <= m:
            yield t["i"] - 1, t["j"] - 1, t["v"]
    if found != m:
        raise ValidationError(f"{path}: header declares {m} terms, found {found}")


def _read_hubo(path: Path, skip: int, n: int, m: int, domain: str) -> HuboModel:
    """Parse a HUBO body block by block with ``_hubo_parts`` into parts for
    ``from_arrays``.  The first block that does not parse is a
    ValidationError naming its first term line that does not parse alone;
    a term count that differs from the header is one once the body has
    parsed."""
    parts, found, b = [], 0, 0  # b counts blocks, as in _quadratic_blocks
    for block in _body_blocks(path, skip):
        lines = _term_lines(block)
        del block
        try:
            parts += _hubo_parts(lines)
        except (ValueError, DeprecationWarning):
            number, line = _first_bad_line(path, skip, b,
                                           lambda line: _hubo_parts(_term_lines([line])))
            raise ValidationError(f"{path}: line {number}: HUBO line needs 'k i1 ... ik v' with "
                                  f"integer order and indices, got {line!r}") from None
        found += len(lines)
        b += 1
    if found != m:
        raise ValidationError(f"{path}: header declares {m} terms, found {found}")
    return HuboModel.from_arrays(n, domain, parts)


def _hubo_parts(lines: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(0-based index matrix, coefficients) of the HUBO term ``lines`` per
    order present, from one ``np.loadtxt`` call for the order column and
    one per order.  A ValueError (or DeprecationWarning) when a line's
    order k does not parse or is negative, when it has other than k + 2
    fields or when a field does not parse."""
    order = _loadtxt(lines, np.int64, usecols=0)
    # a line of order k has at least 2k + 3 characters: an order no line
    # can hold fails before it sizes a record
    if lines and (order.min() < 0 or order.max() > max(map(len, lines))):
        raise ValueError
    parts = []
    for k in np.unique(order).tolist():
        dtype = np.dtype([("k", np.int64), ("idx", np.int64, (k,)), ("v", np.float64)])
        t = _loadtxt(list(itertools.compress(lines, order == k)), dtype)
        parts.append((t["idx"] - 1, t["v"].copy()))
    return parts


def _loadtxt(lines, dtype, usecols=None) -> np.ndarray:
    """``np.loadtxt`` of term lines with ``#`` comments; ValueError (or
    DeprecationWarning) on a field that does not parse as ``dtype`` and on a
    line with the wrong number of fields.  Lines without data give an empty
    array."""
    with warnings.catch_warnings():
        # numpy releases that only deprecate parsing "1.5" as an integer
        # truncate it; the warning as an error rejects it on all of them
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1, usecols=usecols,
                          encoding="utf-8")


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
