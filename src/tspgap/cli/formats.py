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


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tspgap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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


def parse_instance(text: str) -> Instance:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
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
    points = np.empty((n, d), dtype=float)
    labels: list[str] = []
    for idx, row in enumerate(rows[1:]):
        tokens = row.split()
        if len(tokens) < d:
            raise FormatError(f"point line {idx} has {len(tokens)} fields, need {d}")
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
    except OSError as exc:
        raise FormatError(f"cannot read {os.fspath(path)!r}: {exc}") from None


def read_instance(path: str | os.PathLike) -> Instance:
    return parse_instance(read_text(path))


def write_instance(path: str | os.PathLike, inst: Instance, comment: str | None = None) -> None:
    atomic_write_text(path, format_instance(inst, comment))


def parse_tour(text: str) -> Tour:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
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
    """Integer costs floor(1000 * distance), symmetric, zero diagonal."""
    return np.floor(1000.0 * inst.distance_matrix()).astype(np.int64)


def format_tsplib(inst: Instance, name: str, comment: str = "") -> str:
    costs = tsplib_cost_matrix(inst)
    lines = [
        f"NAME: {name}",
        "TYPE: TSP",
        f"COMMENT: {comment}",
        f"DIMENSION: {inst.n}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in costs:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def parse_tsplib(text: str) -> tuple[str, np.ndarray]:
    """Read back a FULL_MATRIX TSPLIB file; returns (name, integer matrix)."""
    header: dict[str, str] = {}
    body: list[str] = []
    in_section = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if in_section:
            body.append(line)
            continue
        if line == "EDGE_WEIGHT_SECTION":
            in_section = True
            continue
        if ":" not in line:
            raise FormatError(f"bad TSPLIB header line {line!r}")
        key, _, value = line.partition(":")
        header[key.strip()] = value.strip()
    if header.get("EDGE_WEIGHT_TYPE") != "EXPLICIT":
        raise FormatError("only EDGE_WEIGHT_TYPE: EXPLICIT is supported")
    if header.get("EDGE_WEIGHT_FORMAT") != "FULL_MATRIX":
        raise FormatError("only EDGE_WEIGHT_FORMAT: FULL_MATRIX is supported")
    try:
        n = int(header["DIMENSION"])
    except (KeyError, ValueError):
        raise FormatError("missing or bad DIMENSION") from None
    try:
        flat = [int(t) for chunk in body for t in chunk.split()]
    except ValueError as exc:
        raise FormatError(f"bad matrix entry: {exc}") from None
    if len(flat) != n * n:
        raise FormatError(f"matrix has {len(flat)} entries, expected {n}*{n}")
    matrix = np.array(flat, dtype=np.int64).reshape(n, n)
    return header.get("NAME", ""), matrix


def format_trace(records: Sequence) -> str:
    """Line-oriented iteration trace: iteration ratio delta eta."""
    lines = ["# iteration ratio delta eta"]
    for r in records:
        lines.append(f"{r.iteration} {_format_float(r.ratio)} {_format_float(r.delta)} {_format_float(r.eta)}")
    return "\n".join(lines) + "\n"
