"""Digest every output of the sample pipeline, so two source trees can be compared byte for byte.

    python tools/same_bytes.py [--src TREE] > digests.txt

Copies ``TREE/configs`` to a temporary directory and runs the sample
pipeline there, with ``TREE/src`` on the import path: ``gen --seed 7``,
``train --seed 3``, ``eval``, ``cv --seed 5`` with ``--jobs 1`` and with
``--jobs 2``, and ``bench --seed 2``.  Prints each step's exit code and the
digests of its stdout and stderr, then one ``sha256  path`` line per output file.
Timing columns are dropped before hashing: ``wall_seconds`` and
``train_seconds`` in CSV files, ``train seconds`` in the bench ``.txt``
tables.  Run it on two trees and diff what it prints.  ``TREE`` defaults to
the tree holding this script.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

STEPS = (
    ("gen", "data", ("--seed", "7")),
    ("train", "run", ("--seed", "3")),
    ("eval", "eval", ()),
    ("cv", "cv_jobs1", ("--seed", "5", "--jobs", "1")),
    ("cv", "cv_jobs2", ("--seed", "5", "--jobs", "2")),
    ("bench", "bench", ("--seed", "2")),
)
CLI = (sys.executable, "-m", "packedflow.cli")
TIMING_COLUMNS = {"wall_seconds", "train_seconds"}
TIMING_HEADING = "train seconds"


def without_timing_columns(path: Path, raw: bytes) -> bytes:
    """``raw`` with the timing columns of a CSV file or a bench ``.txt`` table cut out."""
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
        out = io.StringIO(newline="")
        csv.writer(out, lineterminator="\r\n").writerows([[row[i] for i in keep] for row in rows])
        return out.getvalue().encode()
    if path.suffix == ".txt":
        lines = raw.decode().split("\n")
        for n, line in enumerate(lines):
            start = line.find(TIMING_HEADING)
            if start >= 0:  # cut the column, from its heading to the next one, out of the table's lines
                end = len(line) - len(line[start + len(TIMING_HEADING) :].lstrip(" "))
                lines[n:] = [row[:start] + row[end:] for row in lines[n:]]
                break
        return "\n".join(lines).encode()
    return raw


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1], help="source tree to run")
    tree = parser.parse_args().src.resolve()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp)
        shutil.copytree(tree / "configs", work, dirs_exist_ok=True)
        configs = {p.relative_to(work) for p in work.rglob("*") if p.is_file()}
        for command, out, flags in STEPS:
            argv = [command, "--config", f"{command}.json", *flags, "--out", out]
            done = subprocess.run([*CLI, *argv], cwd=work, env=env, capture_output=True)
            step = " ".join(argv)
            print(f"exit {done.returncode}  {step}")
            print(f"{digest(done.stdout)}  <{step}>.stdout")
            print(f"{digest(done.stderr)}  <{step}>.stderr")
        for path in sorted(p for p in work.rglob("*") if p.is_file() and p.relative_to(work) not in configs):
            print(f"{digest(without_timing_columns(path, path.read_bytes()))}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
