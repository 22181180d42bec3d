"""A whole CLI session pinned byte for byte.

Eleven commands run through ``cli.main`` in one directory with relative
paths: two ``synth``, a 12-epoch ``train`` with its epoch-10 checkpoint, a
``--resume`` of that checkpoint, a ``--unary-only`` run, three ``predict``,
``eval`` with and without ``--c1-cap`` and ``sweep-superpixels``.  Each exit
code, the SHA-256 of each command's stdout and the SHA-256 of every file
written must equal the committed table ``cli_session_digests.json``.  The
sweep's wall-clock column and timing text are stripped before hashing.

A change that moves these bits on purpose regenerates the table with

    PYTHONPATH=src python tests/test_cli_session.py --write

and says which files moved and why.  Before it overwrites the table, the
script prints each command and file whose digest changed, was added or was
removed.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("cli_session_digests.json")

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from depthcrf.cli import main  # noqa: E402
from test_cli import FAST  # noqa: E402

SESSION = [
    ["synth", "--out", "train_data", "--set", "count=2", "--set", "seed=7", *FAST],
    ["synth", "--out", "test_data", "--set", "count=2", "--set", "seed=8", *FAST],
    ["train", "--dataset", "train_data", "--out", "run", "--set", "epochs=12", *FAST],
    ["train", "--dataset", "train_data", "--out", "resumed",
     "--resume", "run/checkpoint_epoch_0010.txt", "--set", "epochs=5"],
    ["train", "--dataset", "train_data", "--out", "unary", "--unary-only",
     "--set", "epochs=3", *FAST],
    *(["predict", "--checkpoint", f"{run}/checkpoint.txt",
       "--image", "test_data/img_0000.ppm", "--out", f"predicted_{run}.txt"]
      for run in ("run", "resumed", "unary")),
    ["eval", "--checkpoint", "run/checkpoint.txt", "--dataset", "test_data",
     "--out", "eval.csv"],
    ["eval", "--checkpoint", "run/checkpoint.txt", "--dataset", "test_data",
     "--out", "eval_c1.csv", "--c1-cap", "5.0"],
    ["sweep-superpixels", "--train-dataset", "train_data", "--test-dataset", "test_data",
     "--counts", "9,16", "--out", "sweep.csv", *FAST],
]

SWEEP_TIMING = re.compile(rb", train [^ ]+ s$", re.MULTILINE)


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _timeless(path: Path) -> bytes:
    """The file's bytes; for the sweep CSV without its train_seconds column."""
    blob = path.read_bytes()
    if path.name != "sweep.csv":
        return blob
    return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in blob.splitlines())


def run_session() -> dict:
    """Run the session in the current directory; returns its digest table."""
    commands = []
    for argv in SESSION:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        stdout = SWEEP_TIMING.sub(b"", out.getvalue().encode())
        commands.append({"argv": " ".join(argv), "exit": code, "stdout": _sha256(stdout)})
    files = {p.as_posix(): _sha256(_timeless(p))
             for p in sorted(Path(".").rglob("*")) if p.is_file()}
    return {"commands": commands, "files": files}


def digest_changes(old: dict, new: dict) -> list:
    """One line per command or file whose digest differs between two tables:
    ``changed``, ``added`` (only in ``new``) or ``removed`` (only in ``old``),
    in session order, then removals."""
    lines = []
    for kind, before, after in (
        ("command", {c["argv"]: c for c in old["commands"]}, {c["argv"]: c for c in new["commands"]}),
        ("file", old["files"], new["files"]),
    ):
        for name in [*after, *(name for name in before if name not in after)]:
            if name not in before:
                lines.append(f"added {kind}: {name}")
            elif name not in after:
                lines.append(f"removed {kind}: {name}")
            elif before[name] != after[name]:
                lines.append(f"changed {kind}: {name}")
    return lines


def test_digest_changes_names_each_changed_added_and_removed_entry():
    old = {"commands": [{"argv": "a", "exit": 0, "stdout": "1"}, {"argv": "b", "exit": 0, "stdout": "2"},
                        {"argv": "c", "exit": 0, "stdout": "3"}],
           "files": {"x": "1", "y": "2", "z": "3"}}
    new = {"commands": [{"argv": "a", "exit": 0, "stdout": "1"}, {"argv": "b", "exit": 2, "stdout": "2"},
                        {"argv": "d", "exit": 0, "stdout": "4"}],
           "files": {"w": "0", "x": "1", "y": "9"}}
    assert digest_changes(old, old) == []
    assert digest_changes(old, new) == [
        "changed command: b", "added command: d", "removed command: c",
        "added file: w", "changed file: y", "removed file: z",
    ]


def test_cli_session_matches_committed_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TABLE.read_text())
    actual = run_session()
    assert actual["commands"] == expected["commands"]
    assert actual["files"] == expected["files"]


if __name__ == "__main__":
    import os
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (regenerates {TABLE.name})")
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        table = run_session()
    committed = json.loads(TABLE.read_text()) if TABLE.exists() else {"commands": [], "files": {}}
    changes = digest_changes(committed, table)
    print("\n".join(changes) if changes else "no digest changed")
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['commands'])} commands and {len(table['files'])} files "
          f"to {TABLE}")
