"""Path model representation and data ingestion.

A path model couples an inner graph over latent variables (recursive, i.e.
cycle-free with a lower-triangular adjacency once latents are ordered) with
an outer assignment of manifest indicators to exactly one latent block.

The plain-text config format, one directive per line::

    model customer-satisfaction
    latent image exogenous
    latent satisfaction endogenous
    indicators image: img1 img2 img3
    indicators satisfaction: sat1 sat2
    path image -> satisfaction

Blank lines and ``#`` comments are ignored. Endogenous latents may be
declared in any order; a topological ordering is computed and the model is
rejected if the inner graph has a cycle.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice

import numpy as np

from .errors import DataError, ModelError

__all__ = [
    "PathModel",
    "DataMatrix",
    "build_model",
    "parse_model",
    "serialize_model",
    "load_data",
    "load_csv",
]

INTERVAL = "interval"
ORDINAL = "ordinal"
# From 2**53 on a float64 is always a whole number, whatever value was written.
_CODE_LIMIT = 2**53
# Codes above this and the vector's length are sorted; sorting all was 12% slower at 100k rows.
_DENSE_CODES = 1 << 16


def _code_columns(values) -> np.ndarray:
    """Whether each column of N x K ``values`` (each entry of a 1 x K row) holds only codes,
    integers >= 1 below 2**53. Rows go ``_CHUNK_ROWS`` at a time: N x K temporaries raised the
    peak memory of a process loading, then scoring 100 000 x 24 codes from 127 to 137 MB."""
    ok = np.ones(values.shape[1], dtype=bool)
    for chunk in (values[i : i + _CHUNK_ROWS] for i in range(0, len(values), _CHUNK_ROWS)):
        integral = chunk.dtype.kind in "iu" or chunk == np.rint(chunk)
        ok &= ((chunk >= 1) & (chunk < _CODE_LIMIT) & integral).all(axis=0)
    return ok


def _as_codes(values, subject) -> np.ndarray:
    """1-D category codes as integers, or the code rule's DataError naming them ``subject``."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise DataError(f"{subject} must be 1-D, got shape {values.shape}")
    if not _code_columns(values[:, None])[0]:
        if np.all((values >= 1) & (values == np.rint(values))):
            raise DataError(f"{subject} holds code {values.max():g}; codes must be below 2**53")
        raise DataError(f"{subject} must hold integer codes >= 1")
    return values.astype(int, copy=False)


def _compact_codes(codes, categories=None):
    """The ascending ``categories`` (default: the distinct codes) and each code's 1-based rank
    among them, or 0, in the smallest type that holds them; ``codes`` are 1-D integers >= 0."""
    top = int(max(codes.max(initial=0), 0 if categories is None else categories[-1]))
    sparse = top > max(codes.size, _DENSE_CODES)  # a table indexed by code would dwarf the data
    if categories is None:
        categories = np.unique(codes) if sparse else np.flatnonzero(np.bincount(codes))
    if sparse:
        found = np.searchsorted(categories, codes)
        hit = np.take(categories, found, mode="clip") == codes
        return categories, ((found + 1) * hit).astype(np.min_scalar_type(len(categories)))
    table = np.zeros(top + 1, dtype=np.min_scalar_type(len(categories)))
    table[categories] = np.arange(1, len(categories) + 1)
    return categories, table[codes]


@dataclass(frozen=True)
class PathModel:
    """Validated path model: latent ordering, inner adjacency, outer blocks.

    ``latent_names`` lists the exogenous latents first, then the endogenous
    ones in topological order. ``inner_adjacency`` is the 0/1 matrix T with
    ``T[j, k] = 1`` when latent k points at latent j; it is strictly lower
    triangular with all-zero rows for the exogenous latents. ``blocks[j]``
    holds the indicator names of latent j, and their concatenation fixes
    the canonical column order for data and weight matrices. ``build_model``
    constructs it and checks all of this.
    """

    name: str
    latent_names: tuple[str, ...]
    exogenous_count: int
    inner_adjacency: np.ndarray
    blocks: tuple[tuple[str, ...], ...]

    @property
    def n_latents(self) -> int:
        return len(self.latent_names)

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @cached_property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(ind for block in self.blocks for ind in block)

    @cached_property
    def n_indicators(self) -> int:
        return sum(self.block_sizes)

    @cached_property
    def _block_slices(self) -> tuple[slice, ...]:
        stops = accumulate(self.block_sizes)
        return tuple(slice(stop - size, stop) for size, stop in zip(self.block_sizes, stops))

    def block_slice(self, j: int) -> slice:
        return self._block_slices[j]

    @cached_property
    def indicator_latents(self) -> tuple[int, ...]:
        """Index of each indicator's latent, in indicator order."""
        return tuple(j for j, size in enumerate(self.block_sizes) for _ in range(size))

    def weight_pattern(self) -> np.ndarray:
        """0/1 indicator matrix of admissible weights (K x latents)."""
        return (np.array(self.indicator_latents)[:, None] == np.arange(self.n_latents)).astype(float)


def _toposort_endogenous(endogenous, edges):
    """Order endogenous latents so every path points forward.

    ``edges`` are (source, target) pairs restricted to endogenous targets.
    Declaration order is kept among simultaneously ready nodes so the
    result is deterministic.
    """
    incoming = {e: set() for e in endogenous}
    for src, dst in edges:
        if src in incoming and dst in incoming:
            incoming[dst].add(src)
    ordered = []
    remaining = list(endogenous)
    while remaining:
        ready = [e for e in remaining if not (incoming[e] - set(ordered))]
        if not ready:
            raise ModelError(
                "non-recursive model: cycle among latents " + ", ".join(sorted(remaining))
            )
        ordered.append(ready[0])
        remaining.remove(ready[0])
    return ordered


def build_model(name, exogenous, endogenous, blocks, paths) -> PathModel:
    """Assemble and validate a PathModel from parsed components.

    Parameters
    ----------
    exogenous, endogenous : sequence of str
        Latent names by kind, in declaration order.
    blocks : mapping latent -> sequence of indicator names
    paths : sequence of (source, target) latent name pairs
    """
    exogenous = list(exogenous)
    endogenous = list(endogenous)
    all_latents = exogenous + endogenous
    if len(set(all_latents)) != len(all_latents):
        raise ModelError("duplicate latent declaration")
    for src, dst in paths:
        if src not in all_latents:
            raise ModelError(f"path source '{src}' is not a declared latent")
        if dst not in all_latents:
            raise ModelError(f"path target '{dst}' is not a declared latent")
        if dst in exogenous:
            raise ModelError(f"exogenous latent '{dst}' cannot be a path target")
        if src == dst:
            raise ModelError(f"non-recursive model: self-loop on '{src}'")
    for latent in all_latents:
        if latent not in blocks or not blocks[latent]:
            raise ModelError(f"latent '{latent}' has an empty indicator block")
    extra = set(blocks) - set(all_latents)
    if extra:
        raise ModelError(f"indicators declared for unknown latent '{sorted(extra)[0]}'")

    ordered = exogenous + _toposort_endogenous(endogenous, paths)
    seen = set()
    for ind in chain.from_iterable(blocks[latent] for latent in ordered):
        if ind in seen:
            raise ModelError(f"indicator '{ind}' assigned to more than one block")
        seen.add(ind)
    targets = {dst for _, dst in paths}
    unreached = [latent for latent in endogenous if latent not in targets]
    if unreached:
        raise ModelError(f"endogenous latent '{unreached[0]}' has no incoming path")
    index = {latent: i for i, latent in enumerate(ordered)}
    t = np.zeros((len(ordered), len(ordered)))
    for src, dst in paths:
        t[index[dst], index[src]] = 1.0
    return PathModel(
        name=name,
        latent_names=tuple(ordered),
        exogenous_count=len(exogenous),
        inner_adjacency=t,
        blocks=tuple(tuple(blocks[latent]) for latent in ordered),
    )


def parse_model(text: str) -> PathModel:
    """Parse the plain-text model config format into a PathModel."""
    name = "model"
    exogenous, endogenous = [], []
    blocks: dict[str, list[str]] = {}
    paths: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0].lower()
        if keyword == "model":
            if len(parts) != 2:
                raise ModelError(f"line {lineno}: expected 'model <name>'")
            name = parts[1]
        elif keyword == "latent":
            if len(parts) != 3 or parts[2] not in ("exogenous", "endogenous"):
                raise ModelError(f"line {lineno}: expected 'latent <name> exogenous|endogenous'")
            (exogenous if parts[2] == "exogenous" else endogenous).append(parts[1])
        elif keyword == "indicators":
            body = line[len("indicators") :].strip()
            if ":" not in body:
                raise ModelError(f"line {lineno}: expected 'indicators <latent>: <names>'")
            latent, names = body.split(":", 1)
            latent = latent.strip()
            inds = [tok for tok in names.replace(",", " ").split() if tok]
            if not inds:
                raise ModelError(f"line {lineno}: latent '{latent}' has an empty indicator block")
            blocks.setdefault(latent, []).extend(inds)
        elif keyword == "path":
            body = line[len("path") :].strip()
            if "->" not in body:
                raise ModelError(f"line {lineno}: expected 'path <from> -> <to>'")
            src, dst = (tok.strip() for tok in body.split("->", 1))
            if not src or not dst:
                raise ModelError(f"line {lineno}: expected 'path <from> -> <to>'")
            paths.append((src, dst))
        else:
            raise ModelError(f"line {lineno}: unknown directive '{parts[0]}'")
    if not exogenous and not endogenous:
        raise ModelError("no latent variables declared")
    return build_model(name, exogenous, endogenous, blocks, paths)


def serialize_model(model: PathModel) -> str:
    """Emit the config text for a model; parse_model round-trips it."""
    lines = [f"model {model.name}"]
    for i, latent in enumerate(model.latent_names):
        kind = "exogenous" if i < model.exogenous_count else "endogenous"
        lines.append(f"latent {latent} {kind}")
    for latent, block in zip(model.latent_names, model.blocks):
        lines.append(f"indicators {latent}: " + " ".join(block))
    t = model.inner_adjacency
    for j in range(model.n_latents):
        for k in range(model.n_latents):
            if t[j, k]:
                lines.append(f"path {model.latent_names[k]} -> {model.latent_names[j]}")
    return "\n".join(lines) + "\n"


@dataclass
class DataMatrix:
    """Observation matrix with per-column measurement kinds.

    ``values`` is an N x K float matrix; ordinal columns hold integer
    category codes 1..I_k stored as floats. Treat instances as read-only.
    Construction raises ``DataError`` on a non-finite value and on the
    first column, in column order, whose kind is unknown or that is
    ordinal and breaks the code rule (``_code_columns``).
    """

    values: np.ndarray
    columns: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("data must be a 2-D matrix")
        n, k = self.values.shape
        if n < 3:
            raise DataError(f"need at least 3 observations, got {n}")
        if k == 0:
            raise DataError("data must have at least one column")
        if len(self.columns) != k or len(self.kinds) != k:
            raise DataError("column names/kinds do not match data width")
        if not np.all(np.isfinite(self.values)):
            raise DataError("data contains non-finite values")
        unknown = np.array([kind not in (INTERVAL, ORDINAL) for kind in self.kinds])
        faults = unknown | (np.array(self.kinds) == ORDINAL) & ~_code_columns(self.values)
        if faults.any():
            j = int(np.argmax(faults))
            if unknown[j]:
                raise DataError(f"unknown column kind '{self.kinds[j]}'")
            _as_codes(self.values[:, j], f"ordinal column '{self.columns[j]}'")  # raises

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def all_ordinal(self) -> bool:
        return all(kind == ORDINAL for kind in self.kinds)

    @property
    def all_interval(self) -> bool:
        return all(kind == INTERVAL for kind in self.kinds)

    def codes(self, j: int) -> np.ndarray:
        if self.kinds[j] != ORDINAL:
            raise DataError(f"column '{self.columns[j]}' is not ordinal")
        return self.values[:, j].astype(int)


_CHUNK_ROWS = 8192


def _filled(row) -> bool:
    return any(cell.strip() for cell in row)


def _csv_rows(lines, first_row):
    """The csv rows of ``lines`` that are not whitespace-only, the first being row ``first_row``.

    A line ``csv`` cannot split, such as one with a bare carriage return
    outside quotes, is a DataError naming the row it would have been.
    """
    reader, row_no = csv.reader(lines), first_row
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"row {row_no}: unreadable CSV line ({exc})") from None
        if row is None:
            return
        if _filled(row):
            row_no += 1
            yield row


def _parse_cells(header, rows, first_row):
    """Conversion of non-blank csv rows.

    Row numbers in messages count the header and every non-blank row, the
    first row of ``rows`` being number ``first_row``.
    """
    try:  # float() of every cell at once; a chunk that fails goes cell by cell
        return np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError:
        pass
    values = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                raise DataError(f"missing value at row {i}, column '{header[j]}'")
            try:
                values[i - first_row, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric value '{cell}' at row {i}, column '{header[j]}'"
                ) from None
    return values


def _plain_values(lines, width):
    """Raw lines through numpy's C reader; None unless each holds ``width`` unquoted numbers."""
    # The reader converts a cell as float() does, and rejects some tokens float() takes.
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if len(values) and values.shape[1] == width else None


def _read_values(source, select=None):
    """Stream a header+rows CSV into an N x K float matrix.

    The header and first data row are read with ``csv``; a repeated header
    name is rejected, and ``select(header)`` may validate the header and
    return the column order to keep, before any cell is converted. Later
    lines go ``_CHUNK_ROWS`` at a time through numpy's reader, and from the
    first chunk that is not plain numbers on through ``csv`` and the cell
    loop, whose messages name the row. A leading UTF-8 byte-order mark is
    dropped. Returns the header and the values.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(source, encoding="utf-8-sig")
    try:
        with opened as handle:
            nonblank = _csv_rows(handle, 1)
            header, first = next(nonblank, None), next(nonblank, None)
            if first is None:
                raise DataError("CSV needs a header row and at least one data row")
            header[0] = header[0].removeprefix("\ufeff")  # a decoded stream may still start with one
            header = [cell.strip() for cell in header]
            if len(set(header)) < len(header):
                name = next(name for i, name in enumerate(header) if name in header[:i])
                raise DataError(f"repeated data column '{name}'")
            order = select(header) if select is not None else slice(None)
            blocks, row_no = [_parse_cells(header, [first], 2)[:, order]], 3
            while lines := list(islice(handle, _CHUNK_ROWS)):
                if not any(map(str.strip, lines)):
                    continue  # whitespace-only lines are skipped and not counted
                if (values := _plain_values(lines, len(header))) is None:
                    rows = _csv_rows(chain(lines, handle), row_no)
                    while chunk := list(islice(rows, _CHUNK_ROWS)):
                        blocks.append(_parse_cells(header, chunk, row_no)[:, order])
                        row_no += len(blocks[-1])
                    break
                blocks.append(values[:, order])
                row_no += len(values)
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
        raise DataError(f"data file '{name}' is not UTF-8 text: {exc.reason} "
                        f"(byte 0x{exc.object[exc.start]:02x})") from None
    return header, np.concatenate(blocks)


def _resolve_kinds(header, values, kinds):
    if kinds is None:
        return tuple(ORDINAL if ok else INTERVAL for ok in _code_columns(values))
    return tuple([kinds] * len(header))


def load_csv(source, kinds=None) -> DataMatrix:
    """Load a header+rows CSV without a model (column order as given).

    ``kinds`` may be None (infer per column: a column of codes, integers
    >= 1 below 2**53, is ordinal) or a single kind applied to all columns.
    """
    header, values = _read_values(source)
    return DataMatrix(values=values, columns=tuple(header), kinds=_resolve_kinds(header, values, kinds))


def load_data(source, model: PathModel, kinds=None) -> DataMatrix:
    """Load a CSV and align its columns with the model's indicator order.

    The header must contain exactly the model's indicators, in any order.
    """
    expected = model.indicator_names

    def select(header):
        missing = [name for name in expected if name not in header]
        if missing:
            raise DataError(f"missing data column '{missing[0]}'")
        extra = [name for name in header if name not in expected]
        if extra:
            raise DataError(f"unexpected data column '{extra[0]}'")
        return [header.index(name) for name in expected]

    _, values = _read_values(source, select)
    resolved = _resolve_kinds(list(expected), values, kinds)
    return DataMatrix(values=values, columns=expected, kinds=resolved)
