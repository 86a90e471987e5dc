"""Parse raw process-listing text into structured process lists.

Two input shapes are understood:

* ``tasklist_tabular`` -- Windows-style verbose listings with a header of
  PID / PPID / ARCH / SESS / NAME / OWNER columns (any order).  Cells are
  separated by tabs or by runs of two-or-more spaces, because NAME and
  OWNER legitimately contain single spaces ("System Process",
  "NT AUTHORITY\\SYSTEM").
* ``ps_unix`` -- ps-style output with a header of PID and CMD/COMMAND
  columns (PPID and USER/UID are read when present).  Cells are separated
  by tabs or by whitespace, so a space-aligned row keeps spaces only in
  its last column.

The first line that looks like either header decides the format, and
lines before it are ignored.  The canonical serialized form emitted by
:func:`serialize_process_list` is tab-separated with one header line.
"""
from __future__ import annotations

import logging
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, not_

from .errors import EmptyListing, MalformedRow, UnrecognizedFormat

logger = logging.getLogger(__name__)

TASKLIST_TABULAR = "tasklist_tabular"
PS_UNIX = "ps_unix"

ARCH_X86 = "x86"
ARCH_X64 = "x64"
ARCH_UNKNOWN = "unknown"

_TASKLIST_COLUMNS = ("PID", "PPID", "ARCH", "SESS", "NAME", "OWNER")
_SPACE_RUN = re.compile(r" {2,}")
_RULE_LINE = re.compile(r"^[=\- ]+$")


@dataclass(frozen=True)
class ProcessEntry:
    """One row of a process listing."""

    pid: int
    ppid: int
    name: str
    arch: str = ARCH_UNKNOWN
    session: int | None = None
    owner: str | None = None

    def __post_init__(self):
        if self.pid < 0 or self.ppid < 0:
            raise ValueError(f"negative pid/ppid: {self.pid}/{self.ppid}")
        if not self.name.strip():
            raise ValueError("empty process name")
        if self.owner is not None and not self.owner.strip():
            raise ValueError("owner present but blank")


@dataclass(frozen=True)
class ProcessList:
    """A parsed host snapshot: ordered entries plus parse metadata."""

    entries: tuple[ProcessEntry, ...]
    format: str = TASKLIST_TABULAR
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.entries:
            raise ValueError("process list has no entries")
        if sum(1 for e in self.entries if e.pid == 0) > 1:
            raise ValueError("more than one pid-0 pseudo-process")


def _find_header(lines: list[str], fmt: str | None = None) -> tuple[str, int]:
    """Return ``(format, index)`` of the first header line in ``lines``.

    PID plus NAME tokens mark a ``tasklist_tabular`` header, PID plus
    CMD/COMMAND a ``ps_unix`` one; NAME wins on a line with both.  A
    ``fmt`` hint accepts only its own header.  Raises
    :class:`UnrecognizedFormat` when no line qualifies.
    """
    for i, line in enumerate(lines):
        tokens = {tok.upper() for tok in line.split()}
        if "PID" not in tokens:
            continue
        if fmt != PS_UNIX and "NAME" in tokens:
            return TASKLIST_TABULAR, i
        if fmt != TASKLIST_TABULAR and ("CMD" in tokens or "COMMAND" in tokens):
            return PS_UNIX, i
    raise UnrecognizedFormat(f"no {fmt or 'tasklist or ps'} header line found")


def detect_format(text: str) -> str:
    """Return the listing format of ``text``: that of its first header line.

    Raises :class:`UnrecognizedFormat` when no line qualifies.
    """
    return _find_header(text.splitlines())[0]


def _parse_int(cell: str) -> int | None:
    try:
        return int(cell)
    except ValueError:
        return None


def _reader(fmt: str, header: str):
    """``(columns, read)``, by which the rows under a ``fmt`` header line are read.

    ``columns`` holds the six column indices, None where the header lacks one.  ``read``
    gives a row's six cells, or why it is rejected.  A row with a tab is split on tabs in
    either format and its cells taken at ``columns``: a cell past the row's end or a None
    column reads '', and the pid cell is trimmed.  A ps header and row are split on
    whitespace, the row at most once per header column so the last keeps its inner spaces.
    A tasklist header is split on tabs if it has one, else on runs of two or more spaces; a
    row is split on such runs, so it loses its empty cells and those after PID/PPID are
    taken by type: an arch token, an integer session, the name, then an optional owner.
    """
    if fmt == PS_UNIX:
        upper = [tok.upper() for tok in header.split()]
        cmd = next(i for i, tok in enumerate(upper) if tok in ("CMD", "COMMAND"))
        ppid = upper.index("PPID") if "PPID" in upper else None
        user = next((i for i, tok in enumerate(upper) if tok in ("USER", "UID")), None)
        columns = [upper.index("PID"), ppid, None, None, cmd, user]
        def read(line: str) -> Sequence[str]:
            return tab_row(line) if "\t" in line else pick(line.split(None, len(upper) - 1) + pad)
    else:
        cells = ([c.strip() for c in header.split("\t")] if "\t" in header
                 else _SPACE_RUN.split(header.strip()))
        col_of = {tok.upper(): j for j, tok in enumerate(cells) if tok.upper() in _TASKLIST_COLUMNS}
        if "PID" not in col_of:  # header not cell-aligned, assume canonical order
            col_of = {name: j for j, name in enumerate(_TASKLIST_COLUMNS)}
        columns = [col_of.get(name) for name in _TASKLIST_COLUMNS]
        def read(line: str) -> Sequence[str] | str:
            if "\t" in line:
                return tab_row(line)
            cells = _SPACE_RUN.split(line.strip())
            if len(cells) < 3:
                return "fewer than three cells"
            pid, ppid, *rest = cells
            arch = rest.pop(0) if rest[0].lower() in (ARCH_X86, ARCH_X64) else ""
            sess = rest.pop(0) if rest and _parse_int(rest[0]) is not None else ""
            if not rest:
                return "no name cell"
            return pid, ppid, arch, sess, rest[0], rest[1] if len(rest) > 1 else ""
    pick = itemgetter(*(-1 if i is None else i for i in columns))
    pad = [""] * (max(i for i in columns if i is not None) + 2)
    def tab_row(line: str) -> Sequence[str]:
        cells = line.split("\t") + pad
        cells[columns[0]] = cells[columns[0]].strip()  # so a bad pid is quoted trimmed
        return pick(cells)
    return columns, read


def _columns(cells: list[str], columns: list[int | None], width: int) -> list[list] | None:
    """The six columns of the rows laid end to end in ``cells``, ``width`` cells each, as
    ``pick`` reads them: a None column, or one at or past ``width``, reads ''.  The pids are
    read by ``int()`` and the names trimmed.  None when some row is not a good one: a pid
    cell that ``int()`` refuses or reads negative, a blank name, or a second pid 0."""
    rows = len(cells) // width
    cols = [cells[i::width] if i is not None and i < width else [""] * rows for i in columns]
    try:
        cols[0] = list(map(int, cols[0]))
    except ValueError:
        return None
    cols[4] = list(map(str.strip, cols[4]))
    return cols if min(cols[0]) >= 0 and all(cols[4]) and cols[0].count(0) < 2 else None


def _checked_rows(text: str, fmt: str | None, strict: bool,
                  source_id: str) -> tuple[str, list[Iterable], list[str]]:
    """The listing's format, the six columns of its checked rows, and the warnings of its
    skipped rows.

    The one row reader of :func:`parse_process_list` and ``features.featurize_text``; it
    makes every check, logs and raises as that docstring says.  A checked row is ``(pid,
    ppid, arch, sess, name, owner)``: the pid an int >= 0 (at most one is 0), the name
    trimmed and not blank, the other cells as read.  Each column is read once, in row order.

    Under a header with tabs, the body lines with the header's tab count are read by column:
    joined with tabs, split once, each column sliced out with a stride, the pids read by one
    ``map(int, ...)`` and the names trimmed by one ``map(str.strip, ...)``.  Every other
    line goes through the per-line loop, read as :func:`_reader` says: a good row pays for
    its split, one ``int()`` of the pid cell (which ignores the whitespace ``strip`` removes)
    and one ``strip()`` of the name.  If a block row is not a good one, or the loop would
    keep another line as a row, the whole listing is read line by line: the loop decides.
    """
    if fmt not in (None, TASKLIST_TABULAR, PS_UNIX):
        raise UnrecognizedFormat(f"unknown format hint {fmt!r}")
    lines = text.splitlines()
    fmt, header = _find_header(lines, fmt)
    columns, read = _reader(fmt, lines[header])
    tabs = lines[header].count("\t")
    del lines[:header + 1]  # the body: lines[i] is physical line i + header + 2
    warnings = []

    def reject(line_no: int, line: str, why: str) -> None:
        bare = line.strip()
        if not bare or bare[0] in "-=" and _RULE_LINE.match(bare):  # a blank or rule line: no row
            return
        if strict:
            raise MalformedRow(line_no, why)
        warnings.append(f"line {line_no}: skipped ({why})")

    def loop(numbered) -> list[tuple]:
        """The rows kept from ``(line_no, line)`` pairs, read one line at a time."""
        rows, seen_pid0 = [], False
        for line_no, line in numbered:
            cells = read(line)
            if isinstance(cells, str):
                reject(line_no, line, cells)
                continue
            pid, ppid, arch, sess, name, owner = cells
            name = name.strip()
            try:
                pid_n = int(pid)
            except ValueError:
                pid_n = -1
            if name and (pid_n > 0 or pid_n == 0 and not seen_pid0):
                seen_pid0 = seen_pid0 or pid_n == 0
                rows.append((pid_n, ppid, arch, sess, name, owner))
            elif pid_n < 0:
                reject(line_no, line, f"non-numeric pid cell {pid!r}")
            else:
                reject(line_no, line, "duplicate pid-0 row" if name else "empty name cell")
        return rows

    by_column = None
    in_block = list(map(eq, map(str.count, lines, repeat("\t")), repeat(tabs))) if tabs else ()
    if any(in_block):
        outside = list(compress(enumerate(lines, header + 2), map(not_, in_block)))
        cells = "\t".join(compress(lines, in_block))
        del lines  # from here the block is held once, not twice: a listing may be 16 MiB
        cells = cells.split("\t")  # and rebinding drops the joined copy
        by_column = _columns(cells, columns, tabs + 1)
        del cells  # not held while a fallback reads the listing again
        if by_column is None or any(loop([pair]) for pair in outside):
            warnings.clear()
            by_column, lines = None, text.splitlines()[header + 1:]
    if by_column is None:  # a block holds at least one row, the loop perhaps none
        rows = loop(enumerate(lines, header + 2))
        by_column = [map(itemgetter(i), rows) for i in range(6)] if rows else None

    if warnings:
        logger.warning("%s: %d row(s) skipped; first: %s",
                       source_id or "<listing>", len(warnings), warnings[0])
    if by_column is None:
        raise EmptyListing("header present but no data rows parsed")
    return fmt, by_column, warnings


def _entry(pid: int, ppid: str, arch: str, sess: str, name: str, owner: str) -> ProcessEntry:
    """The entry of a checked row.

    A blank, bad or negative ppid reads as 0, an unknown arch as
    ``unknown``, a blank or bad session as None and a blank owner as None.
    """
    ppid_n = _parse_int(ppid) if ppid else 0
    arch = arch.strip().lower()
    return ProcessEntry(pid, ppid_n if ppid_n and ppid_n > 0 else 0, name,
                        arch if arch in (ARCH_X86, ARCH_X64) else ARCH_UNKNOWN,
                        _parse_int(sess) if sess else None, owner.strip() or None)


def parse_process_list(text: str, fmt: str | None = None, *, strict: bool = False,
                       source_id: str = "") -> ProcessList:
    """Parse raw listing text into a :class:`ProcessList`.

    Blank and rule lines are ignored.  Malformed rows, and any pid-0 row
    after the first, are skipped with a recorded warning unless ``strict``
    is set, in which case the first one raises :class:`MalformedRow`.
    Raises :class:`EmptyListing` when the header has no data rows and
    :class:`UnrecognizedFormat` when no header is found.  ``source_id``
    names the listing in the log warning about skipped rows.
    """
    fmt, columns, warnings = _checked_rows(text, fmt, strict, source_id)
    return ProcessList(entries=tuple(map(_entry, *columns)), format=fmt,
                       warnings=tuple(warnings))


def serialize_process_list(plist: ProcessList) -> str:
    """Render a process list back to canonical tab-separated text.

    The header matches the list's format so that parse -> serialize ->
    parse round-trips both entries and detected format.
    """
    if plist.format == PS_UNIX:
        lines = ["PID\tPPID\tUSER\tCMD"]
        for e in plist.entries:
            lines.append(f"{e.pid}\t{e.ppid}\t{e.owner or ''}\t{e.name}")
    else:
        lines = ["\t".join(_TASKLIST_COLUMNS)]
        for e in plist.entries:
            arch = "" if e.arch == ARCH_UNKNOWN else e.arch
            sess = "" if e.session is None else str(e.session)
            lines.append(f"{e.pid}\t{e.ppid}\t{arch}\t{sess}\t{e.name}\t{e.owner or ''}")
    return "\n".join(lines) + "\n"
