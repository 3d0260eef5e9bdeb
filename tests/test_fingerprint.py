"""The tree prints the committed fingerprint.

``tests/data/fingerprint.txt`` holds the lines ``tools/fingerprint.py``
printed for this tree: one SHA-256 per pinned output (checkpoint bytes,
activation codes, GeLU, the weight quantizers, short training runs and
the CLI's files).  A change that moves a digest on purpose rewrites the
file and says why; any other moved line is a changed bit.
"""

from pathlib import Path

COMMITTED = Path(__file__).resolve().parent / "data" / "fingerprint.txt"


def test_every_pinned_output_matches_the_committed_digest(fingerprint):
    text = COMMITTED.read_text().splitlines()
    made_with = [line[1:].strip() for line in text if line.startswith("#")]
    want = {line.split()[0]: line for line in text if not line.startswith("#")}
    got = {line.split()[0]: line for line in fingerprint.lines()}
    moved = [f"  was {want.get(name)}\n  now {got.get(name)}"
             for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert not moved, (
        f"{len(moved)} fingerprint line(s) moved:\n" + "\n".join(moved) +
        f"\n{COMMITTED.name} was made with {'; '.join(made_with) or 'unrecorded versions'};"
        f" this host has {fingerprint.versions()}.  Other library builds may"
        " move 'training' and 'cli'.  If the change is meant, rewrite the"
        " file with `PYTHONPATH=src python3 tools/fingerprint.py >"
        " tests/data/fingerprint.txt` and quote the old and new digests in CHANGES.md.")
