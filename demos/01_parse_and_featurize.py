"""From raw process listing to a three-number feature vector.

Two canned hosts ship with the test suite: a production workstation with
one interactive user, and an analysis sandbox where elevated collection
exposes every service account. Watch how differently they compress.

The service skips the per-row entries and reduces the text directly with
featurize_text, which returns the same vector and the skipped-row count.
"""
from pathlib import Path

from proctriage import featurize, featurize_text, parse_process_list

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

for name in ("safe_host.txt", "sandbox_host.txt"):
    text = (FIXTURES / name).read_text()
    plist = parse_process_list(text)
    print(f"--- {name} ({plist.format}, {len(plist.entries)} rows) ---")

    owners = sorted({e.owner for e in plist.entries if e.owner})
    print(f"visible owners: {owners if owners else '(none)'}")

    v = featurize(plist)
    print(f"process_count = {v.process_count}   (pid 0 pseudo-process excluded)")
    print(f"user_count    = {v.user_count}   (distinct owners, floored at 1)")
    print(f"ratio         = {v.ratio}")

    direct, warnings = featurize_text(text)
    print(f"featurize_text: {direct} with {warnings} skipped row(s); "
          f"same as featurize: {direct == v}")
    print()

print("The production box runs hundreds of processes under what looks like")
print("a single user; the sandbox runs a few dozen spread over several")
print("service accounts. The ratio separates them by an order of magnitude.")
