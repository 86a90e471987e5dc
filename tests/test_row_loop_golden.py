"""Golden corpus for the parser's one row loop.

``fixtures/row_loop_golden.jsonl`` holds one case per line: a listing
text and, for lenient and strict mode, what ``parse_process_list``
returns or raises, what ``featurize_text`` returns or raises, and the
log lines each leaves.  The cases are about 500 seeded mutations of a
few base listings, hand-written edge cases, then about 200 seeded
listings under a tab header whose rows mostly have the header's tab
count, and hand-written cases of that shape.  The test replays every
case against the current code, so any change in what the loop accepts,
rejects, reports or logs shows up here, not only a disagreement between
its two callers.

The corpus records behaviour; regenerate it only for an intended change:

    PYTHONPATH=src python tests/test_row_loop_golden.py
"""

import json
import logging
import random
from pathlib import Path

from proctriage.errors import TriageError
from proctriage.features import featurize_text
from proctriage.proclist import parse_process_list

CORPUS = Path(__file__).parent / "fixtures" / "row_loop_golden.jsonl"
SEED = 20201
MUTATED = 500
TAB_WIDTH = 200

TASKLIST_TAB = (
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
    "0\t0\t\t\tSystem Process\t\n"
    "4\t0\tx64\t0\tSystem\tNT AUTHORITY\\SYSTEM\n"
    "612\t4\tx64\t1\texplorer.exe\tCORP\\alice\n"
    "700\t612\tx86\t1\tnotepad.exe\tcorp\\ALICE \n"
)
TASKLIST_REORDERED = (
    "NAME\tOWNER\tPID\tSESS\n"
    "System Process\t\t0\t\n"
    "svchost.exe\tNT AUTHORITY\\NETWORK SERVICE\t812\t0\n"
    "cmd.exe\tCORP\\bob\t990\t1\n"
)
TASKLIST_SPACED = (
    "PID    PPID   ARCH   SESS   NAME           OWNER\n"
    "0      0                    System Process\n"
    "4      0      x64    0      System         NT AUTHORITY\\SYSTEM\n"
    "388    4      X86           smss.exe\n"
    "612    4             1      explorer.exe   CORP\\alice\n"
)
PS_SPACED = (
    "  PID  PPID USER     CMD\n"
    "    1     0 root     /sbin/init\n"
    "  212     1 root     /usr/sbin/sshd\n"
    "  940   212 alice    sshd: alice [priv]\n"
    "  951   940 alice    -bash\n"
)
PS_TAB = "PID\tPPID\tUSER\tCMD\n0\t0\troot\tidle\n1\t0\troot\t/sbin/init\n42\t1\tAlice\tvim notes\n"
PS_NO_USER = "PID CMD\n1 /sbin/init\n7 [kthreadd]\n"
BASES = (TASKLIST_TAB, TASKLIST_REORDERED, TASKLIST_SPACED, PS_SPACED, PS_TAB, PS_NO_USER)

_CELLS = ["", " ", "0", "1", "-1", "7", "+8", "1_0", "0x10", "٣", "\u00a09\u3000",
          " 12 ", "\x1c5", "x64", "X86", "root", "ROOT", "System Process", "-", "=", "?",
          "NT AUTHORITY\\SYSTEM", "corp\\ALICE ", "a b", "été"]
_CHARS = "aZ09 \t-=_.\\\x0b\x0c\x1c\x85\u00a0 \u3000é"
_SEPARATORS = ["\t", "  ", " ", "   ", " \t", "\t "]
_RULES = ["----", "==== ====", "--- -- ---", "-\t-", "=\t==", " ---- "]


def _random_cell(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 5)))
    return rng.choice(_CELLS)


def _random_line(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(_RULES)
    if roll < 0.15:
        return rng.choice(["", "   ", "\t", "\t\t\t", "PID PPID USER CMD", "PID\tNAME", "banner"])
    cells = [_random_cell(rng) for _ in range(rng.randint(0, 7))]
    return rng.choice(_SEPARATORS).join(cells)


def _mutate_line(rng: random.Random, line: str) -> str:
    roll = rng.random()
    if roll < 0.3:  # pad a cell with whitespace
        cells = line.split("\t") if "\t" in line else line.split("  ")
        i = rng.randrange(len(cells))
        pad = rng.choice([" ", "\u00a0", "\u3000", "\x0b", "\x1c", "\x85"])
        cells[i] = pad + cells[i] if rng.random() < 0.5 else cells[i] + pad
        return ("\t" if "\t" in line else "  ").join(cells)
    if roll < 0.5:  # swap separators
        return line.replace("\t", "  ") if "\t" in line else line.replace("  ", "\t", 2)
    if roll < 0.7:  # cut the row short
        return line[:rng.randrange(len(line) + 1)]
    if roll < 0.85:  # replace the first cell
        sep = "\t" if "\t" in line else " "
        return _random_cell(rng) + sep + line.strip().partition(sep)[2]
    return line.upper()


def mutated_listing(rng: random.Random) -> str:
    lines = rng.choice(BASES).splitlines()
    for _ in range(rng.randint(0, 6)):
        op = rng.random()
        if op < 0.45:
            lines.insert(rng.randint(0, len(lines)), _random_line(rng))
        elif op < 0.8 and len(lines) > 1:
            i = rng.randrange(1, len(lines))
            lines[i] = _mutate_line(rng, lines[i])
        elif len(lines) > 1:
            lines.insert(rng.randint(1, len(lines)), lines[rng.randrange(1, len(lines))])
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n"])


EDGE_CASES = [
    # pid cells padded with whitespace that str.strip and int() both ignore
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n \x1c5\t0\t\t\ta\tu\n\u00a06\u00a0\t0\t\t\tb\tv\n"
    "\u30007\u3000\t0\t\t\tc\tw\n\x0b8\x0c\t0\t\t\td\tW\n",
    "PID PPID USER CMD\n\u00a01 0 root init\n2\u3000 0 root kthreadd\n",
    "PID    PPID   NAME   OWNER\n5\u00a0    0      a      u\nx\u3000  0  b  u\nabc \x0b  0  c  u\n",
    # short tab rows with no owner or name cell
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n4\t0\t\t\tSystem\n8\t4\n9\n10\t4\t\t\tsmss.exe\t\n",
    "PID\tCMD\tUSER\n1\tinit\n2\n3\t\troot\n",
    # rows mixing tabs and spaces
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n4  0  x64  0  System  NT AUTHORITY\\SYSTEM\n"
    "8\t4  x64  1  smss.exe\tcorp\\a\n 12 \t 4 \t x64 \t 1 \t cmd.exe \t corp\\b \n",
    "PID    PPID   ARCH   SESS   NAME           OWNER\n"
    "4      0      x64    0      System\tNT AUTHORITY\\SYSTEM\n9\t0\tx64\t0\tb  c\td  e\n",
    "PID PPID USER CMD\n1\t0\troot\tinit\n2 1 root  sh  -c  x\n3 1 \t root\n",
    # rule lines, with and without a tab
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n---\t----\t----\n====\n--- ---\n4\t0\t\t\tSystem\t\n",
    "PID PPID USER CMD\n--- ---- ---- ---\n-\t-\n1 0 root init\n= = = =\n",
    # a duplicate pid 0 with a blank name
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n0\t0\t\t\tSystem Process\t\n0\t0\t\t\t \t\n4\t0\t\t\tSystem\t\n",
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n0\t0\t\t\t\t\n0\t0\t\t\tidle\t\n0\t0\t\t\tidle\t\n",
    "PID PPID USER CMD\n0 0 root\n0 0 root idle\n-0 0 root idle\n7 0 root init\n",
    # a negative pid, and a negative ppid that reads as 0
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n-4\t0\t\t\tSystem\t\n5\t-1\tx64\t-2\tcmd.exe\tu\n",
    "PID PPID USER CMD\n-1 0 root init\n1 -5 root init\n",
    # a 5,000-digit pid, past int()'s 4,300-digit limit, and one within it
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n" + "9" * 5000 + "\t0\t\t\tbig\tu\n"
    + "9" * 4300 + "\t0\t\t\tbig\tu\n4\t0\t\t\tSystem\t\n",
    "PID PPID USER CMD\n" + "9" * 5000 + " 0 root big\n1 0 root init\n",
    # only pid 0, and only bad rows
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n0\t0\t\t\tSystem Process\tSYSTEM\n",
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n?\t?\tbad\nx\n",
    # columns missing from the header, and a header that is not cell-aligned
    "PID\tNAME\n1\tinit\t\textra\n2\t\n",
    "PID PPID ARCH SESS NAME OWNER\n4\t0\tx64\t0\tSystem\tSYSTEM\n",
    "banner\nPID  NAME\n1  init\n\n2  sh  root  extra\n",
    # owners that differ only in case or in surrounding whitespace
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n1\t0\t\t\ta\tCorp\\Al\n2\t0\t\t\tb\t corp\\al\u00a0\n"
    "3\t0\t\t\tc\tSTRASSE\n4\t0\t\t\td\tstraße\n5\t0\t\t\te\t\u3000\n",
    # no header, an empty text, and a header with no rows
    "1 0 root init\n", "", "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n\n   \n",
]


_TAB_HEADERS = ["PID\tPPID\tARCH\tSESS\tNAME\tOWNER", "NAME\tOWNER\tPID\tSESS",
                "PID\tPPID\tUSER\tCMD", "PID\tCMD", "PID\tCMD\tUSER", " PID \t NAME ",
                "PID\tPPID USER\tCMD"]
_TAB_CELLS = {
    "PPID": ["0", "4", "612", "", "-1", "x"],
    "ARCH": ["x64", "x86", "X64", "", "arm"],
    "SESS": ["0", "1", "", "x"],
    "NAME": ["System", "svchost.exe", "cmd.exe", " explorer.exe ", "System Process"],
    "CMD": ["/sbin/init", "sshd: alice [priv]", "-bash", " vim notes "],
    "OWNER": ["", "NT AUTHORITY\\SYSTEM", "CORP\\alice", "corp\\ALICE ", " "],
    "USER": ["root", "alice", "ALICE", "", "\u3000"],
}


def tab_width_listing(rng: random.Random) -> str:
    """A listing under a tab header: a block of rows with the header's tab count, one
    cell perhaps mutated, with space-aligned, pid-0, short, long, blank and rule lines
    placed before, inside or after it, and \\n or \\r\\n line ends."""
    header = rng.choice(_TAB_HEADERS)
    names = [cell.strip().upper() for cell in header.split("\t")]

    def row(pid: str) -> list[str]:
        return [pid if name == "PID" else rng.choice(_TAB_CELLS.get(name, _CELLS))
                for name in names]

    block = [row(str(rng.randint(1, 9999))) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.4:
        block.insert(rng.randint(0, len(block)), row("0"))
    if rng.random() < 0.6:
        cells = rng.choice(block)
        cells[rng.randrange(len(cells))] = _random_cell(rng)
    lines = ["\t".join(cells) for cells in block]
    for _ in range(rng.randint(0, 3)):
        cells = row("0" if rng.random() < 0.3 else str(rng.randint(1, 9999)))
        roll = rng.random()
        if roll < 0.3:
            extra = "  ".join(cells)  # space-aligned
        elif roll < 0.45:
            extra = "\t".join(cells[:-1])  # one cell short
        elif roll < 0.6:
            extra = "\t".join(cells + ["extra"])  # one cell long
        elif roll < 0.8:
            extra = rng.choice(_RULES)
        else:
            extra = rng.choice(["", "   ", "\t" * (len(names) - 1)])
        lines.insert(rng.choice([0, len(lines), rng.randint(0, len(lines))]), extra)
    if rng.random() < 0.15:
        lines.insert(0, header.replace("\t", "  "))  # a second, space-aligned header line
    eol = rng.choice(["\n", "\n", "\r\n"])
    return eol.join([header] + lines) + rng.choice(["", eol])


TAB_EDGE_CASES = [
    # a kept space-aligned pid-0 row before a tab block that holds the second pid 0
    "PID\tCMD\n0 0 System\n0\tsvc.exe\n4\t612\n\tx64\tx64\n",
    "PID\tPPID\tUSER\tCMD\n0\t0\troot\tidle\n1\t0\troot\tinit\n0 0 root idle\n",
    "PID\tCMD\n7 sh\n1\tinit\n?\tbad\n8\tvi\n",
    # pid cells that int() reads, and ones it refuses, inside a block
    "PID\tCMD\n 12 \tinit\n1_0\tsh\n+8\tvi\n\u0663\tx\n\uff17\ty\n",
    "PID\tCMD\n1\tinit\n" + "9" * 5000 + "\tbig\n2\tsh\n",
    "PID\tCMD\n1\tinit\n-4\tneg\n2\tsh\n",
    "PID\tCMD\n1\tinit\n2\t\u3000\n3\tsh\n",
    "PID\tCMD\n0\tidle\n0\tidle\n1\tinit\n",
    "PID\tCMD\n0\tidle\n",
    # line ends that splitlines knows, and cells padded with whitespace
    "PID\tCMD\r1\tinit\r2\tsh\r",
    "PID\tCMD\tUSER\n1\tinit\troot\x1c2\tsh\tALICE\u20283\tvi\t alice\x85",
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\r\n0\t0\t\t\tSystem Process\t\r\n"
    "4\t0\tx64\t0\tSystem\tNT AUTHORITY\\SYSTEM\r\n\r\n---\t---\r\n"
    "612\t4\tx64\t1\t explorer.exe \tCORP\\alice\r\n",
    # a name column past the width of every tab row
    "PID\tPPID USER\tCMD\n1\t0 root\tinit\n",
]


def build_cases() -> list[str]:
    rng = random.Random(SEED)
    cases = [mutated_listing(rng) for _ in range(MUTATED)] + EDGE_CASES
    return cases + [tab_width_listing(rng) for _ in range(TAB_WIDTH)] + TAB_EDGE_CASES


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines: list[list] = []

    def emit(self, record):
        self.lines.append([record.name, record.levelname, record.getMessage()])


def _outcome(call) -> dict:
    """What ``call()`` returns or raises, and the log lines it leaves."""
    handler = _Lines()
    logger = logging.getLogger("proctriage")
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        result = call()
    except TriageError as err:
        result = {"error": type(err).__name__, "message": str(err),
                  "line_no": getattr(err, "line_no", None)}
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)
    return {"result": result, "log": handler.lines}


def _parsed(text: str, strict: bool) -> dict:
    plist = parse_process_list(text, strict=strict, source_id="golden")
    return {"format": plist.format, "warnings": list(plist.warnings),
            "entries": [[e.pid, e.ppid, e.name, e.arch, e.session, e.owner]
                        for e in plist.entries]}


def _featurized(text: str, strict: bool) -> list:
    vector, skipped = featurize_text(text, strict=strict)
    return [vector.process_count, vector.user_count, vector.ratio, skipped]


def record(text: str) -> dict:
    case = {"text": text}
    for strict in (False, True):
        mode = "strict" if strict else "lenient"
        case[mode] = {"parse": _outcome(lambda: _parsed(text, strict)),
                      "featurize_text": _outcome(lambda: _featurized(text, strict))}
    return case


def test_row_loop_replays_the_golden_corpus():
    cases = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert [case["text"] for case in cases] == build_cases()
    changed = [i for i, case in enumerate(cases) if record(case["text"]) != case]
    assert not changed, f"{len(changed)} case(s) changed, first: {cases[changed[0]]['text']!r}"


if __name__ == "__main__":
    with CORPUS.open("w", encoding="utf-8") as fh:
        for text in build_cases():
            fh.write(json.dumps(record(text)) + "\n")
    print(f"wrote {len(build_cases())} cases to {CORPUS}")
