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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter

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


def _split_cells(line: str) -> list[str]:
    if "\t" in line:
        return [c.strip() for c in line.split("\t")]
    return _SPACE_RUN.split(line.strip())


def _parse_int(cell: str) -> int | None:
    try:
        return int(cell)
    except ValueError:
        return None


def _picker(indices):
    """``cells -> the row's cells at indices``; a None or out-of-row index reads ''."""
    indices = [-1 if i is None else i for i in indices]
    pad = [""] * (max(indices) + 2)  # every index lands, and cells[-1] is ''
    get = itemgetter(*indices)
    return lambda cells: get(cells + pad)


def _tasklist_reader(header: str):
    """Row reader for a tasklist header; its columns are resolved once here.

    A reader returns a row's (pid, ppid, arch, sess, name, owner) cells, or
    why the row is rejected.  Tab-split rows map cells to header columns
    positionally.  Space-split rows lose their empty cells, so remaining
    cells after PID/PPID are consumed by type: an arch token, then an
    integer session, then the name, then an optional owner.
    """
    col_of = {tok.upper(): j for j, tok in enumerate(_split_cells(header))
              if tok.upper() in _TASKLIST_COLUMNS}
    if "PID" not in col_of:  # header not cell-aligned, assume canonical order
        col_of = {name: j for j, name in enumerate(_TASKLIST_COLUMNS)}
    by_column = _picker(col_of.get(name) for name in _TASKLIST_COLUMNS)

    def read(line: str) -> Sequence[str] | str:
        if "\t" in line:
            return [c.strip() for c in by_column(line.split("\t"))]
        cells = _SPACE_RUN.split(line.strip())
        if len(cells) < 3:
            return "fewer than three cells"
        pid, ppid, *rest = cells
        arch = rest.pop(0) if rest[0].lower() in (ARCH_X86, ARCH_X64) else ""
        sess = rest.pop(0) if rest and _parse_int(rest[0]) is not None else ""
        if not rest:
            return "no name cell"
        return pid, ppid, arch, sess, rest[0], rest[1] if len(rest) > 1 else ""
    return read


def _ps_reader(header: str):
    """Row reader for a ps header.  Space-aligned rows are split at most once
    per header column, so the last column keeps its inner spaces."""
    upper = [tok.upper() for tok in header.split()]
    cmd = next(i for i, tok in enumerate(upper) if tok in ("CMD", "COMMAND"))
    ppid = upper.index("PPID") if "PPID" in upper else None
    user = next((i for i, tok in enumerate(upper) if tok in ("USER", "UID")), None)
    by_column = _picker((upper.index("PID"), ppid, None, None, cmd, user))
    last = len(upper) - 1

    def read(line: str) -> Sequence[str]:
        if "\t" in line:
            return [c.strip() for c in by_column(line.split("\t"))]
        return by_column(line.split(None, last))
    return read


def _checked_rows(text: str, fmt: str | None, strict: bool,
                  source_id: str) -> tuple[str, list[tuple], list[str]]:
    """The listing's format, its checked rows and the warnings of its skipped rows.

    The one row loop of :func:`parse_process_list` and
    ``features.featurize_text``, which makes every check, logs and raises
    as that docstring says.  A checked row is ``(pid, ppid, arch, sess,
    name, owner)``: the pid an int >= 0, the name trimmed and not blank,
    the owner trimmed, the other cells as read.  At most one has pid 0.
    """
    if fmt not in (None, TASKLIST_TABULAR, PS_UNIX):
        raise UnrecognizedFormat(f"unknown format hint {fmt!r}")
    lines = text.splitlines()
    fmt, header = _find_header(lines, fmt)
    read = (_tasklist_reader if fmt == TASKLIST_TABULAR else _ps_reader)(lines[header])

    rows: list[tuple] = []
    warnings: list[str] = []
    seen_pid0 = False
    for line_no, line in enumerate(lines[header + 1:], start=header + 2):
        bare = line.strip()
        if not bare or bare[0] in "-=" and _RULE_LINE.match(bare):
            continue
        cells = read(line)
        if isinstance(cells, str):
            why = cells
        else:
            pid, ppid, arch, sess, name, owner = cells
            pid_n, name = _parse_int(pid), name.strip()
            if pid_n is None or pid_n < 0:
                why = f"non-numeric pid cell {pid!r}"
            elif not name:
                why = "empty name cell"
            elif pid_n == 0 and seen_pid0:
                why = "duplicate pid-0 row"
            else:
                seen_pid0 = seen_pid0 or pid_n == 0
                rows.append((pid_n, ppid, arch, sess, name, owner.strip()))
                continue
        if strict:
            raise MalformedRow(line_no, why)
        warnings.append(f"line {line_no}: skipped ({why})")

    if warnings:
        logger.warning("%s: %d row(s) skipped; first: %s",
                       source_id or "<listing>", len(warnings), warnings[0])
    if not rows:
        raise EmptyListing("header present but no data rows parsed")
    return fmt, rows, warnings


def _entry(pid: int, ppid: str, arch: str, sess: str, name: str, owner: str) -> ProcessEntry:
    """The entry of a checked row.

    A blank, bad or negative ppid reads as 0, an unknown arch as
    ``unknown``, a blank or bad session as None and a blank owner as None.
    """
    ppid_n = _parse_int(ppid) if ppid else 0
    arch = arch.lower()
    return ProcessEntry(pid, ppid_n if ppid_n and ppid_n > 0 else 0, name,
                        arch if arch in (ARCH_X86, ARCH_X64) else ARCH_UNKNOWN,
                        _parse_int(sess) if sess else None, owner or None)


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
    fmt, rows, warnings = _checked_rows(text, fmt, strict, source_id)
    return ProcessList(entries=tuple(starmap(_entry, rows)), format=fmt,
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
