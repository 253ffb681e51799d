"""Matrix serialization: JSON schema and Matrix Market (complex general).

JSON schema: ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with the
pairs in row-major order. Matrix Market support covers the ``array`` and
``coordinate`` variants of ``complex general``. Floats are written with
``repr``, so writers round-trip with readers bit-exactly for finite
values.
"""

from __future__ import annotations

import json

from .cmatrix import CMatrix

__all__ = [
    "to_json", "from_json", "to_matrix_market", "from_matrix_market",
    "matrix_to_dict", "matrix_from_dict", "read_matrix_text", "write_file",
    "read_file",
]


def matrix_to_dict(m: CMatrix) -> dict:
    data = [[float(v.real), float(v.imag)] for v in m.data.ravel()]
    return {"rows": m.rows, "cols": m.cols, "data": data}


def matrix_from_dict(obj: dict) -> CMatrix:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    for name, value in (("rows", rows), ("cols", cols)):
        # A JSON integer only: not 1.9, true or "1", which int() would take.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"malformed matrix object: {name} must be an "
                             f"integer, got {value!r}")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not isinstance(data, (list, tuple)):
        raise ValueError("malformed matrix object: data must be a list")
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    values = []
    for pair in data:
        # JSON numbers only: not true or "2", which float() would take.
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in pair):
            raise ValueError("malformed matrix object: each entry must be "
                             f"an [re, im] pair of numbers, got {pair!r}")
        try:
            values.append(complex(float(pair[0]), float(pair[1])))
        except OverflowError as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
    entries = [values[r * cols:(r + 1) * cols] for r in range(rows)]
    return CMatrix(entries)


def to_json(m: CMatrix) -> str:
    return json.dumps(matrix_to_dict(m), sort_keys=True)


def from_json(text: str) -> CMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return matrix_from_dict(obj)


def to_matrix_market(m: CMatrix) -> str:
    """Dense 'array complex general' output (column-major per the format)."""
    lines = ["%%MatrixMarket matrix array complex general",
             f"{m.rows} {m.cols}"]
    for j in range(m.cols):
        for i in range(m.rows):
            v = m.data[i, j]
            lines.append(f"{float(v.real)!r} {float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def from_matrix_market(text: str) -> CMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5:
        raise ValueError(f"malformed header: {lines[0]!r}")
    _, obj, layout, field, symmetry = header[:5]
    if obj.lower() != "matrix" or field.lower() != "complex" \
            or symmetry.lower() != "general":
        raise ValueError("only 'matrix ... complex general' is supported")
    layout = layout.lower()
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError("missing size line")
    size_fields = body[0].split()
    if layout == "array":
        if len(size_fields) != 2:
            raise ValueError("array format expects 'rows cols' size line")
        rows, cols = int(size_fields[0]), int(size_fields[1])
        entries = body[1:]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} value lines, "
                             f"got {len(entries)}")
        values = []
        for ln in entries:
            re_s, im_s = ln.split()
            values.append(complex(float(re_s), float(im_s)))
        mat = [[values[j * rows + i] for j in range(cols)] for i in range(rows)]
        return CMatrix(mat)
    if layout == "coordinate":
        if len(size_fields) != 3:
            raise ValueError("coordinate format expects 'rows cols nnz' size line")
        rows, cols, nnz = (int(x) for x in size_fields)
        entries = body[1:]
        if len(entries) != nnz:
            raise ValueError(f"expected {nnz} entry lines, got {len(entries)}")
        mat = [[0.0 + 0.0j] * cols for _ in range(rows)]
        seen = set()
        for ln in entries:
            i_s, j_s, re_s, im_s = ln.split()
            i, j = int(i_s) - 1, int(j_s) - 1
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"index out of range in line {ln!r}")
            if (i, j) in seen:
                raise ValueError(f"entry ({i_s}, {j_s}) listed twice")
            seen.add((i, j))
            mat[i][j] = complex(float(re_s), float(im_s))
        return CMatrix(mat)
    raise ValueError(f"unsupported layout {layout!r}")


def read_matrix_text(text: str) -> CMatrix:
    """Parse either format, sniffing the Matrix Market header."""
    if text.lstrip().startswith("%%MatrixMarket"):
        return from_matrix_market(text)
    return from_json(text)


def write_file(m: CMatrix, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = to_json(m)
    elif fmt == "mm":
        text = to_matrix_market(m)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_file(path: str) -> CMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix_text(fh.read())
