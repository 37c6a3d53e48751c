"""Instance, tour, and TSPLIB file formats, plus atomic file writes.

Native instance format, line oriented and diff-able:

    # optional comment lines
    n d p
    x_1 ... x_d [label]     (one line per point, repr() precision)

Coordinates are written with ``repr()`` so a write/parse round trip is
bit-exact.  Labels are optional but all-or-nothing across the file.

TSPLIB export uses explicit FULL_MATRIX edge weights with integer cost
floor(1000 * distance); coordinate-based TSPLIB types cannot represent
scaled-and-floored rectilinear costs in three dimensions, the full matrix
can.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from typing import Sequence

import numpy as np

from ..core import Instance, NormSpec, Tour


class FormatError(ValueError):
    """Raised for unreadable or invalid instance/tour/TSPLIB text."""


def check_distinct_paths(paths: Sequence[str]) -> None:
    """FormatError if two of the output paths name one file (by `os.path.realpath`)."""
    named: dict[str, str] = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in named:
            raise FormatError(f"outputs {named[real]!r} and {path!r} name one file")
        named[real] = path


def atomic_write_texts(texts: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) via a temp file in the path's directory,
    all temp files before the first rename, so a failed write changes no
    path.  Two paths that name one file are a FormatError before any write
    (`check_distinct_paths`).  An OSError, after the temp files left are
    removed, becomes a FormatError.  A rename that fails does not undo
    earlier renames."""
    check_distinct_paths([path for path, _ in texts])
    tmps: dict[str, str] = {}
    try:
        for path, text in texts:
            fd, tmps[path] = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tspgap-", suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for path, tmp in list(tmps.items()):
            os.replace(tmp, path)
            del tmps[path]
    except OSError as exc:
        raise FormatError(f"cannot write {path!r}: {exc.strerror}") from None
    finally:
        for tmp in tmps.values():
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_texts([(os.fspath(path), text)])


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format_float(v: float) -> str:
    # repr() emits the shortest string that parses back to the same float64.
    return repr(float(v))


def format_instance(inst: Instance, comment: str | None = None) -> str:
    lines = []
    if comment:
        for raw in comment.splitlines():
            lines.append(f"# {raw}" if raw else "#")
    lines.append(f"{inst.n} {inst.dim} {_format_float(inst.norm.p)}")
    for idx in range(inst.n):
        row = " ".join(_format_float(c) for c in inst.points[idx])
        if inst.labels is not None:
            row += f" {inst.labels[idx]}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _content_rows(text: str) -> list[str]:
    """The stripped lines of text that are neither blank nor a # comment."""
    return [row for row in (ln.strip() for ln in text.splitlines()) if row and not row.startswith("#")]


def parse_instance(text: str) -> Instance:
    rows = _content_rows(text)
    if not rows:
        raise FormatError("empty instance file")
    head = rows[0].split()
    if len(head) != 3:
        raise FormatError(f"header must be 'n d p', got {rows[0]!r}")
    try:
        n, d, p = int(head[0]), int(head[1]), float(head[2])
    except ValueError as exc:
        raise FormatError(f"bad header {rows[0]!r}: {exc}") from None
    if len(rows) - 1 != n:
        raise FormatError(f"header says {n} points, file has {len(rows) - 1}")
    if d < 1:
        raise FormatError(f"dimension d must be >= 1, got {d}")
    lines = [row.split() for row in rows[1:]]
    for idx, tokens in enumerate(lines):
        if len(tokens) < d:
            raise FormatError(f"point line {idx} has {len(tokens)} fields, need {d}")
    points = np.empty((n, d), dtype=float)
    labels: list[str] = []
    for idx, tokens in enumerate(lines):
        try:
            points[idx] = [float(t) for t in tokens[:d]]
        except ValueError as exc:
            raise FormatError(f"bad coordinate on point line {idx}: {exc}") from None
        label = " ".join(tokens[d:])
        if label:
            labels.append(label)
    if labels and len(labels) != n:
        raise FormatError(f"{len(labels)} of {n} points carry labels; labels are all-or-nothing")
    try:
        return Instance(points, NormSpec(p), labels or None)
    except ValueError as exc:
        raise FormatError(f"invalid instance data: {exc}") from None


def read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {os.fspath(path)!r}: {exc}") from None


def read_instance(path: str | os.PathLike) -> Instance:
    return parse_instance(read_text(path))


def write_instance(path: str | os.PathLike, inst: Instance, comment: str | None = None) -> None:
    atomic_write_text(path, format_instance(inst, comment))


def parse_tour(text: str) -> Tour:
    rows = _content_rows(text)
    if len(rows) != 1:
        raise FormatError(f"tour file must hold exactly one index line, got {len(rows)}")
    try:
        order = [int(t) for t in rows[0].split()]
        return Tour(order)
    except ValueError as exc:
        raise FormatError(f"bad tour line: {exc}") from None


def read_tour(path: str | os.PathLike) -> Tour:
    return parse_tour(read_text(path))


def tsplib_cost_matrix(inst: Instance) -> np.ndarray:
    """Integer costs, 1000 times each distance rounded down; symmetric, zero diagonal."""
    return np.floor(1000.0 * inst.distance_matrix()).astype(np.int64)


def format_tsplib(inst: Instance, name: str) -> str:
    """TSPLIB text of `tsplib_cost_matrix`, whose rule the COMMENT line states."""
    costs = tsplib_cost_matrix(inst)
    lines = [
        f"NAME: {name}",
        "TYPE: TSP",
        "COMMENT: costs floor(1000 * distance)",
        f"DIMENSION: {inst.n}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in costs:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def format_trace(records: Sequence) -> str:
    """Line-oriented iteration trace: iteration ratio delta eta."""
    lines = ["# iteration ratio delta eta"]
    for r in records:
        lines.append(f"{r.iteration} {_format_float(r.ratio)} {_format_float(r.delta)} {_format_float(r.eta)}")
    return "\n".join(lines) + "\n"
