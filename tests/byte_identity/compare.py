"""Compare what the commands of ``commands.txt`` write at two revisions.

    python tests/byte_identity/compare.py REV_A REV_B [--keep DIR]

Each revision is unpacked with ``git archive`` into a scratch directory.
Every command of the list runs in a fresh interpreter
(``python -m monocert.cli ...``, with that revision's ``src`` first on
PYTHONPATH) in a directory of its own, which holds the revision's corpus
weight files and the ``*.sys`` and ``*.json`` files beside the list.  The
script then compares, command by command, every file in that directory,
stdout, stderr and the exit code, prints each command that differs with
what differs, and exits 1 if any does.  The path of each unpacked revision
is written as ``<rev>`` in stdout and stderr, and a traceback's line
numbers as ``?``, so a traceback compares by its frames and message.  ``--keep DIR`` keeps the unpacked trees and the run directories
in DIR for a closer look.

The list and its files are read from the working tree, not from either
revision, so one list can compare any two revisions.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
LIST = HERE / "commands.txt"
REPO = HERE.parents[1]
CORPUS = REPO / "src" / "monocert" / "corpus"
# a traceback's line numbers, which move with any edit above them
_LINE = re.compile(r", line \d+,")


def read_commands(path: Path = LIST, parser_exits: bool = False) -> list:
    """The argv of each command of the list, in order.  A line marked
    ``!`` is a command that argparse answers itself, with help or a usage
    error, and exits; those are left out unless ``parser_exits``."""
    lines = path.read_text().splitlines()
    commands = []
    for argv in (shlex.split(line, comments=True) for line in lines):
        if argv[:1] == ["!"]:
            if not parser_exits:
                continue
            argv = argv[1:]
        if argv:
            commands.append(argv)
    return commands


def input_files(argv: list) -> list:
    """The arguments of ``argv`` that name a system or weight file."""
    return [a for a in argv if a.endswith((".sys", ".json"))]


def unpack(rev: str, into: Path) -> Path:
    """The tree of ``rev`` in ``into``/``rev``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                         check=True, capture_output=True).stdout
    root = into / rev
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(root, filter="data")
    return root


def run(root: Path, argv: list, where: Path) -> dict:
    """Run one command of the revision at ``root`` in ``where``: its
    files, stdout, stderr and exit code."""
    where.mkdir(parents=True)
    inputs = [*(root / "src" / "monocert" / "corpus").glob("*.json"),
              *HERE.glob("*.sys"), *HERE.glob("*.json")]
    for f in inputs:
        shutil.copy(f, where / f.name)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "monocert.cli", *argv],
                          cwd=where, env=env, capture_output=True)
    files = {str(p.relative_to(where)): p.read_bytes()
             for p in sorted(where.rglob("*")) if p.is_file()}
    return {"files": files, "exit": done.returncode,
            **{name: _LINE.sub(", line ?,", out.decode().replace(
                str(root), "<rev>"))
               for name, out in (("stdout", done.stdout),
                                 ("stderr", done.stderr))}}


def differences(a: dict, b: dict) -> list:
    """What differs between two runs of one command, as lines to print."""
    out = []
    if a["exit"] != b["exit"]:
        out.append(f"  exit code {a['exit']} -> {b['exit']}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            out.append(f"  file {name}: " + (
                "differs" if name in a["files"] and name in b["files"]
                else "only at " + ("A" if name in a["files"] else "B")))
    for name in ("stdout", "stderr"):
        if a[name] != b[name]:
            diff = list(difflib.unified_diff(
                a[name].splitlines(), b[name].splitlines(), "A", "B",
                lineterm="", n=0))
            out += [f"  {name}:"] + [f"    {line}" for line in diff[2:22]]
    return out


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--keep", type=Path,
                        help="keep the trees and run directories here")
    cfg = parser.parse_args(args)
    commands = read_commands(parser_exits=True)
    start = time.perf_counter()
    if cfg.keep is not None:
        cfg.keep.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="compare-", dir=cfg.keep))
    try:
        roots = [unpack(rev, scratch) for rev in (cfg.rev_a, cfg.rev_b)]
        results = [[run(root, argv, scratch / f"run-{side}" / f"{i:03d}")
                    for side, root in zip("AB", roots)]
                   for i, argv in enumerate(commands)]
    finally:
        if cfg.keep is None:
            shutil.rmtree(scratch)
    differ = 0
    for i, (argv, (a, b)) in enumerate(zip(commands, results)):
        lines = differences(a, b)
        if lines:
            differ += 1
            print(f"[{i:03d}] {shlex.join(argv)}", *lines, sep="\n")
    print(f"{len(commands)} commands, {differ} differ "
          f"({cfg.rev_a} -> {cfg.rev_b}, {time.perf_counter() - start:.0f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
