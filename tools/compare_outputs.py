"""Check that two source trees write byte-identical CLI and demo outputs.

Usage, from the root of a checkout:

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC CONFIG [CONFIG ...]

OLD_SRC and NEW_SRC are directories holding the ``hingedplate`` package
(a checkout's ``src``).  Each CONFIG is a config JSON path, or ``default``
for the built-in config.  For every config, each tree runs, in its own
Python subprocess,

    solve
    optimize --seed 7
    optimize --init right-heavy
    solve --density OUT/optimize-right-heavy/right-heavy/final_density.csv
    certify --suite all

each into its own subdirectory, named for the command, of a fresh output
directory OUT.  The density solve reads the final density that the
right-heavy optimize wrote in the same OUT, so the density-file input
path is compared too.  The two trees' OUT directories are then compared
file by file, bytes and file sets, skipping the run manifests
(``manifest.jsonl``), which carry wall-clock time.  A command whose exit
code or stdout differs between the trees counts as a difference too.  Its
stderr is not compared, because warnings name each tree's source path.
For a JSON file that differs, the line also gives the largest absolute
and relative difference over its numeric leaves and says whether every
other leaf (keys, list lengths, strings, booleans, nulls) matches; if one
does not, it names the first, in document order, by its path.  For a
CSV file that differs, it gives the same two differences over the numeric
cells and says whether the header, the row count and every non-numeric
cell match; if a cell does not, it names the first by its row and column
header, with both values, and a row whose length differs by its row.

Once per tree, every script in the ``demos`` directory beside the tree's
``src`` runs with that tree's package, and the two trees' stdout must match
byte for byte, as must the exit codes.  Every difference is listed; the
exit code is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "solve": ["solve"],
    "optimize-seed-7": ["optimize", "--seed", "7"],
    "optimize-right-heavy": ["optimize", "--init", "right-heavy"],
    # reads what the command above wrote, so it must come after it
    "solve-right-heavy-density": ["solve", "--density",
                                  "{out}/optimize-right-heavy/right-heavy/final_density.csv"],
    "certify-all": ["certify", "--suite", "all"],
}
SKIPPED = {"manifest.jsonl"}


def _leaves(doc, path=()):
    """(path, leaf) pairs of a parsed JSON document; each object's key list
    and each array's length count as leaves too."""
    if isinstance(doc, dict):
        yield path, ("keys", list(doc))
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        yield path, ("length", len(doc))
        for k, value in enumerate(doc):
            yield from _leaves(value, path + (k,))
    else:
        yield path, doc


def _is_number(leaf) -> bool:
    return isinstance(leaf, (int, float)) and not isinstance(leaf, bool)


def _largest_differences(pairs) -> tuple:
    """Largest absolute and relative difference over (old, new) number pairs.
    NaN matches NaN; against a number, or where an infinity differs, the
    difference is infinite."""
    max_abs = max_rel = 0.0
    for a, b in pairs:
        if a != b and not (math.isnan(a) and math.isnan(b)):
            diff = abs(a - b)
            if not math.isfinite(diff):
                diff = math.inf
            max_abs = max(max_abs, diff)
            max_rel = max(max_rel, diff / max(abs(a), abs(b)) if diff < math.inf else diff)
    return max_abs, max_rel


def _leaf_difference(a, b):
    """How two leaves at one path differ, or None if they match.  Numbers
    are left to _largest_differences, and an object's key list counts only
    for its order: a key on one side only is named by its own path."""
    if _is_number(a) and _is_number(b):
        return None
    if isinstance(a, tuple) and isinstance(b, tuple) and a[0] == b[0] == "keys" \
            and set(a[1]) != set(b[1]):
        return None
    return None if type(a) is type(b) and a == b else f"{a!r} -> {b!r}"


def json_differences(old: bytes, new: bytes) -> str:
    """Largest absolute and relative difference over the numeric leaves of
    two JSON documents, and whether every non-numeric leaf matches, naming
    the first that does not (old's document order, then paths only in new)."""
    old_leaves = dict(_leaves(json.loads(old)))
    new_leaves = dict(_leaves(json.loads(new)))
    numbers = [(a, new_leaves[path]) for path, a in old_leaves.items()
               if path in new_leaves and _is_number(a) and _is_number(new_leaves[path])]
    first = None
    for path in {**old_leaves, **new_leaves}:
        if path not in new_leaves or path not in old_leaves:
            how = "only in old" if path in old_leaves else "only in new"
        else:
            how = _leaf_difference(old_leaves[path], new_leaves[path])
        if how is not None:
            first = f"first at {'/'.join(map(str, path)) or '(root)'} ({how}), "
            break
    max_abs, max_rel = _largest_differences(numbers)
    return (f"max abs diff {max_abs:.3e}, max rel diff {max_rel:.3e}; "
            + (f"{first}non-numeric leaves differ" if first else "non-numeric leaves match"))


def _cell_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_differences(old: bytes, new: bytes) -> str:
    """Largest absolute and relative difference over the numeric cells of two
    CSV files with one header row, and whether the header, the row count and
    every non-numeric cell match, naming the first that does not by its row
    (counted from 1 after the header) and old's column header, or the row
    alone if its length differs.  A cell is numeric when both sides parse
    as floats; rows beyond the shorter file are not compared cell by cell."""
    old_rows = list(csv.reader(old.decode().splitlines()))
    new_rows = list(csv.reader(new.decode().splitlines()))
    header = old_rows[0] if old_rows else []
    numbers = []
    first = None
    for r, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if first is None and len(a_row) != len(b_row):
            first = f"row {r} ({len(a_row)} cells -> {len(b_row)} cells)"
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            x, y = _cell_number(a), _cell_number(b)
            if x is not None and y is not None:
                numbers.append((x, y))
            elif first is None and a != b:
                column = header[j] if j < len(header) else f"#{j}"
                first = f"row {r}, column {column} ({a!r} -> {b!r})"
    max_abs, max_rel = _largest_differences(numbers)
    rows = ("matches" if len(old_rows) == len(new_rows)
            else f"differs ({len(old_rows) - 1} -> {len(new_rows) - 1})")
    return (f"max abs diff {max_abs:.3e}, max rel diff {max_rel:.3e}; header "
            f"{'matches' if old_rows[:1] == new_rows[:1] else 'differs'}, row count "
            f"{rows}, "
            + (f"first at {first}, non-numeric cells differ" if first
               else "non-numeric cells match"))


def compare_dirs(old: Path, new: Path) -> list:
    """Differences between two output directories, one line each: files
    present on one side only and files whose bytes differ."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in Path(root).rglob("*")
                if p.is_file() and p.name not in SKIPPED}

    old_files, new_files = files(old), files(new)
    diffs = [f"only in old: {f}" for f in sorted(old_files - new_files)]
    diffs += [f"only in new: {f}" for f in sorted(new_files - old_files)]
    for f in sorted(old_files & new_files):
        a, b = (Path(old) / f).read_bytes(), (Path(new) / f).read_bytes()
        if a != b:
            report = {".json": json_differences, ".csv": csv_differences}.get(Path(f).suffix)
            diffs.append(f"differs: {f} ({report(a, b)})" if report else f"differs: {f}")
    return diffs


def run_tree(src: Path, config: str, out: Path) -> dict:
    """Run every command, in order, with the package from `src` and `{out}`
    in its arguments standing for `out`; command -> (exit code, stdout
    bytes)."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    cfg = [] if config == "default" else ["--config", str(Path(config).resolve())]
    captured = {}
    for name, argv in COMMANDS.items():
        argv = [arg.format(out=out) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "hingedplate.cli", *argv, *cfg,
                               "--out", str(out / name)],
                              env=env, capture_output=True)
        captured[name] = (proc.returncode, proc.stdout)
    return captured


def run_demos(src: Path) -> dict:
    """Run every demo beside `src` with the package from `src`; script name
    -> (exit code, stdout bytes)."""
    root = Path(src).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    captured = {}
    for script in sorted((root / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], cwd=root, env=env,
                              capture_output=True)
        captured[script.name] = (proc.returncode, proc.stdout)
    return captured


def compare_runs(old: dict, new: dict, kind: str) -> list:
    """Differences between two captures of run_tree or run_demos, one line
    each: runs of this kind present on one side only, differing exit codes
    and differing stdout."""
    diffs = [f"{kind} only in old: {n}" for n in sorted(old.keys() - new.keys())]
    diffs += [f"{kind} only in new: {n}" for n in sorted(new.keys() - old.keys())]
    for name in sorted(old.keys() & new.keys()):
        (old_code, old_out), (new_code, new_out) = old[name], new[name]
        if old_code != new_code:
            diffs.append(f"exit code of {kind} {name}: {old_code} -> {new_code}")
        if old_out != new_out:
            diffs.append(f"{kind} stdout differs: {name}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("configs", nargs="+", help="config JSON paths or 'default'")
    args = parser.parse_args(argv)
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, config in enumerate(args.configs):
            old, new = Path(tmp) / f"{k}-old", Path(tmp) / f"{k}-new"
            old_runs = run_tree(args.old_src, config, old)
            new_runs = run_tree(args.new_src, config, new)
            diffs = compare_runs(old_runs, new_runs, "command")
            diffs += compare_dirs(old, new)
            n_files = sum(1 for p in new.rglob("*") if p.is_file())
            codes = {name: code for name, (code, _) in new_runs.items()}
            print(f"{config}: {len(diffs)} differences, {n_files} files, "
                  f"exit codes {codes}")
            for line in diffs:
                print(f"  {line}")
            differences += len(diffs)
    new_demos = run_demos(args.new_src)
    diffs = compare_runs(run_demos(args.old_src), new_demos, "demo")
    codes = {name: code for name, (code, _) in new_demos.items()}
    print(f"demos: {len(diffs)} differences, {len(new_demos)} scripts, exit codes {codes}")
    for line in diffs:
        print(f"  {line}")
    differences += len(diffs)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
