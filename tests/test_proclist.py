"""Parser tests: format detection, lenient/strict behavior, round-trips."""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctriage.errors import EmptyListing, MalformedRow, TriageError, UnrecognizedFormat
from proctriage.features import featurize, featurize_text
from proctriage.proclist import (
    PS_UNIX,
    TASKLIST_TABULAR,
    ProcessEntry,
    ProcessList,
    detect_format,
    parse_process_list,
    serialize_process_list,
)

PS_SAMPLE = """\
  PID  PPID USER     CMD
    1     0 root     /sbin/init
  212     1 root     /usr/sbin/sshd
  940   212 alice    sshd: alice [priv]
  951   940 alice    -bash
"""


def test_detect_tasklist(safe_host_text):
    assert detect_format(safe_host_text) == TASKLIST_TABULAR


def test_detect_ps():
    assert detect_format(PS_SAMPLE) == PS_UNIX


def test_detect_unrecognized():
    with pytest.raises(UnrecognizedFormat):
        detect_format("nothing useful here\njust words\n")


def test_parse_safe_fixture(safe_host_text):
    plist = parse_process_list(safe_host_text)
    assert plist.format == TASKLIST_TABULAR
    assert len(plist.entries) == 221
    assert plist.warnings == ()
    assert plist.entries[0].pid == 0
    assert plist.entries[0].name == "System Process"


def test_parse_sandbox_fixture(sandbox_host_text):
    plist = parse_process_list(sandbox_host_text)
    assert len(plist.entries) == 41
    assert plist.warnings == ()
    owners = {e.owner for e in plist.entries if e.owner}
    assert "NT AUTHORITY\\SYSTEM" in owners


def test_parse_ps_sample():
    plist = parse_process_list(PS_SAMPLE)
    assert plist.format == PS_UNIX
    assert len(plist.entries) == 4
    assert plist.entries[0] == ProcessEntry(pid=1, ppid=0, name="/sbin/init",
                                            arch="unknown", session=None, owner="root")
    assert plist.entries[3].owner == "alice"


def test_blank_owner_maps_to_none(safe_host_text):
    plist = parse_process_list(safe_host_text)
    assert any(e.owner is None for e in plist.entries)


def test_lenient_skips_bad_rows_with_warnings():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "0\t0\t\t\tSystem Process\t\n"
        "abc\t0\t\t\tghost.exe\t\n"
        "8\t4\t\t\tsmss.exe\t\n"
    )
    plist = parse_process_list(text)
    assert len(plist.entries) == 2
    assert len(plist.warnings) == 1
    assert "skipped" in plist.warnings[0]


def test_strict_raises_on_bad_row():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "abc\t0\t\t\tghost.exe\t\n"
    )
    with pytest.raises(MalformedRow):
        parse_process_list(text, strict=True)


def test_empty_text_has_no_recognizable_format():
    with pytest.raises(UnrecognizedFormat):
        parse_process_list("")
    with pytest.raises(UnrecognizedFormat):
        parse_process_list("   \n\n  ")


def test_header_only_listing_rejected():
    with pytest.raises(EmptyListing):
        parse_process_list("PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n")


def test_duplicate_pid0_lenient_and_strict():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "0\t0\t\t\tSystem Process\t\n"
        "0\t0\t\t\tSystem Process\t\n"
        "8\t4\t\t\tsmss.exe\t\n"
    )
    plist = parse_process_list(text)
    assert sum(1 for e in plist.entries if e.pid == 0) == 1
    assert len(plist.warnings) == 1
    with pytest.raises(MalformedRow):
        parse_process_list(text, strict=True)


def test_explicit_format_override():
    with pytest.raises(UnrecognizedFormat):
        parse_process_list(PS_SAMPLE, fmt=TASKLIST_TABULAR)
    with pytest.raises(UnrecognizedFormat):
        parse_process_list(PS_SAMPLE, fmt="csv")


def test_roundtrip_tasklist(sandbox_host_text):
    plist = parse_process_list(sandbox_host_text)
    text = serialize_process_list(plist)
    again = parse_process_list(text)
    assert again.entries == plist.entries
    assert again.format == plist.format


def test_roundtrip_ps():
    plist = parse_process_list(PS_SAMPLE)
    text = serialize_process_list(plist)
    again = parse_process_list(text)
    assert again.entries == plist.entries
    assert again.format == PS_UNIX


def test_entry_validation():
    with pytest.raises(ValueError):
        ProcessEntry(pid=-1, ppid=0, name="x")
    with pytest.raises(ValueError):
        ProcessEntry(pid=1, ppid=0, name="")
    with pytest.raises(ValueError):
        ProcessEntry(pid=1, ppid=0, name="x", owner="   ")


def test_list_validation():
    entry = ProcessEntry(pid=1, ppid=0, name="init")
    pid0 = ProcessEntry(pid=0, ppid=0, name="System Process")
    with pytest.raises(ValueError):
        ProcessList(entries=())
    with pytest.raises(ValueError):
        ProcessList(entries=(pid0, pid0, entry))


def test_space_aligned_tasklist_rows():
    text = (
        "PID    PPID   ARCH   SESS   NAME           OWNER\n"
        "0      0                    System Process\n"
        "4      0      x64    0      System         NT AUTHORITY\\SYSTEM\n"
    )
    plist = parse_process_list(text)
    assert len(plist.entries) == 2
    assert plist.entries[1].arch == "x64"
    assert plist.entries[1].session == 0
    assert plist.entries[1].owner == "NT AUTHORITY\\SYSTEM"


# -- ps rows follow the tasklist rules ------------------------------------------

PS_TWO_PID0 = "PID PPID USER CMD\n0 0 root idle\n0 0 root idle\n7 0 root init\n"


def test_ps_negative_ppid_reads_as_zero():
    plist = parse_process_list("PID PPID USER CMD\n1 -5 root init\n")
    assert plist.entries == (ProcessEntry(pid=1, ppid=0, name="init", owner="root"),)


def test_ps_duplicate_pid0_lenient_and_strict():
    plist = parse_process_list(PS_TWO_PID0)
    assert [e.pid for e in plist.entries] == [0, 7]
    assert plist.warnings == ("line 3: skipped (duplicate pid-0 row)",)
    with pytest.raises(MalformedRow):
        parse_process_list(PS_TWO_PID0, strict=True)


def test_ps_header_after_banner_lines():
    text = "process snapshot from host-17\n\n" + PS_SAMPLE
    assert detect_format(text) == PS_UNIX
    plist = parse_process_list(text)
    assert plist.entries == parse_process_list(PS_SAMPLE).entries
    assert plist.warnings == ()


def test_ps_rule_lines_are_skipped():
    text = PS_SAMPLE.replace("\n", "\n----- ----- -------- ---\n", 1)
    plist = parse_process_list(text)
    assert plist.entries == parse_process_list(PS_SAMPLE).entries
    assert plist.warnings == ()


def test_format_hint_accepts_only_its_own_header():
    text = "PID PPID USER CMD\nPID\tPPID\tARCH\tSESS\tNAME\tOWNER\n4\t0\t\t\tSystem\t\n"
    assert detect_format(text) == PS_UNIX
    plist = parse_process_list(text, fmt=TASKLIST_TABULAR)
    assert plist.format == TASKLIST_TABULAR
    assert [e.name for e in plist.entries] == ["System"]


def test_skipped_rows_log_one_summary_line(caplog):
    text = "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n4\t0\t\t\tSystem\t\n" + "?\t?\tbad\n" * 500
    with caplog.at_level(logging.WARNING, logger="proctriage.proclist"):
        plist = parse_process_list(text, source_id="host-9")
    assert len(plist.warnings) == 500
    records = [r for r in caplog.records if r.name == "proctriage.proclist"]
    assert [r.levelno for r in records] == [logging.WARNING]
    message = records[0].getMessage()
    assert message.startswith("host-9: 500 row(s) skipped")
    assert plist.warnings[0] in message


# -- any text: a listing or a TriageError -----------------------------------------

TASKLIST_SAMPLE = (
    "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
    "0\t0\t\t\tSystem Process\t\n"
    "4\t0\tx64\t0\tSystem\tNT AUTHORITY\\SYSTEM\n"
    "612\t4\tx64\t1\texplorer.exe\tCORP\\alice\n"
)
_CELLS = st.one_of(st.integers(-3, 3).map(str),
                   st.sampled_from(["", " ", "x64", "root", "ROOT", "System Process", "-", "?",
                                    "9" * 5000]),  # int() refuses over 4,300 digits
                   st.text(max_size=6))
_ROWS = st.builds(lambda cells, sep: sep.join(cells),
                  st.lists(_CELLS, max_size=7), st.sampled_from(["\t", "  ", " "]))
_LINES = st.one_of(_ROWS, st.text(max_size=20),
                   st.sampled_from(["", "----", "PID PPID USER CMD", "PID\tNAME", "banner",
                                    "0 0 root idle", "1 -5 root init", "7 1 ROOT init",
                                    "9\t4\tx64\t1\tcmd.exe\tcorp\\ALICE "]))


@st.composite
def _mutated_listings(draw):
    lines = draw(st.sampled_from([PS_SAMPLE, TASKLIST_SAMPLE])).splitlines()
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LINES))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), _mutated_listings()), st.booleans())
def test_any_text_parses_or_raises_triage_error(text, strict):
    try:
        plist = parse_process_list(text, strict=strict)
    except TriageError:
        return
    assert plist.format == detect_format(text)


def test_featurize_text_equals_featurize_of_the_parsed_list(caplog):
    def outcome(reduce):
        """What ``reduce()`` returns or raises, and the log records it leaves."""
        caplog.clear()
        try:
            result = reduce()
        except TriageError as err:
            result = type(err), str(err), getattr(err, "line_no", None)
        return result, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    def parsed(text, strict):
        plist = parse_process_list(text, strict=strict)
        return featurize(plist), len(plist.warnings)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), _mutated_listings()), st.booleans())
    def check(text, strict):
        assert (outcome(lambda: featurize_text(text, strict=strict))
                == outcome(lambda: parsed(text, strict)))

    with caplog.at_level(logging.WARNING):
        check()
