"""Mutation census: which one-token mutants of a source file the test suite misses.

Run from the repository root (pytest does not collect this file):

    python tests/mutation_census.py src/antimagic/labelers.py

Each mutant makes one change to the module: an int constant 0-4 is raised
by 1, a ``falling=`` argument is negated, or ``<`` and ``<=`` (``>`` and
``>=``) are swapped.  For each mutant the suite runs as tier-1 does, with
``-x``, on a temporary copy of ``src/`` and ``tests/`` that holds the
mutated module; the mutant is killed when pytest fails or runs past
TIMEOUT.  JOBS suites run at once, each on its own copy.

A survivor is explained when tests/mutation_equivalent.txt lists its id,
on a line of its own, followed by an indented line giving the reason.  The
script exits 1 when a survivor is unexplained, or when that file lists a
mutant of a censused module that no longer survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "tests" / "mutation_equivalent.txt"
JOBS = 2
TIMEOUT = 600  # seconds per suite run; the unmutated suite takes under 30
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int | None]]:
    """Every mutable spot as (node, comparison operator index), in a fixed order."""
    out: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 4:
            out.append((node, None))
        elif isinstance(node, ast.keyword) and node.arg == "falling":
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
    return out


def _mutate(node: ast.AST, op: int | None) -> str:
    """Apply the site's mutation in place and describe it as `old -> new`."""
    if isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if isinstance(node, ast.keyword):
        old, value = ast.unparse(node), node.value
        if isinstance(value, ast.Constant):
            node.value = ast.Constant(not value.value)
        else:
            node.value = ast.UnaryOp(ast.Not(), value)
        return f"{old} -> falling={ast.unparse(node.value)}"
    old = type(node.ops[op])
    node.ops[op] = SWAPS[old]()
    return f"{OPS[old]} -> {OPS[SWAPS[old]]}"


def mutants(path: Path) -> list[tuple[str, str]]:
    """(id, mutated source) for every mutant of the module at path.

    The id names the module, the enclosing function, the source line and the
    change, so it survives edits elsewhere in the file.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    count = len(_sites(ast.parse(source)))
    out, seen = [], Counter()
    for k in range(count):
        tree = ast.parse(source)
        owner = {child: fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for child in ast.walk(fn)}
        node, op = _sites(tree)[k]
        change = _mutate(node, op)
        ident = f"{path.name}: {owner.get(node, '<module>')}: {lines[node.lineno - 1].strip()}: {change}"
        seen[ident] += 1
        if seen[ident] > 1:
            ident += f" #{seen[ident]}"
        out.append((ident, ast.unparse(tree)))
    return out


def read_equivalent(path: Path) -> dict[str, str]:
    """Mutant id -> reason, from the id line and the indented reason line after it."""
    reasons: dict[str, str] = {}
    ident = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            reasons[ident] = line.strip()
        else:
            ident = line
    return reasons


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _run(copy: Path, env: dict[str, str]) -> bool:
    """True when the suite passes in copy."""
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def census(paths: list[Path]) -> list[str]:
    """Ids of the mutants of the modules at paths that survive the suite."""
    todo = [(path, ident, text) for path in paths for ident, text in mutants(path)]
    print(f"{len(todo)} mutants", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        copies = [Path(tmp) / str(n) for n in range(JOBS)]
        envs = []
        for copy in copies:
            _copy(copy)
            envs.append(dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"))
        where = subprocess.run([sys.executable, "-c", "import antimagic; print(antimagic.__file__)"],
                               env=envs[0], capture_output=True, text=True).stdout
        if not where.startswith(str(copies[0])) or not _run(copies[0], envs[0]):
            raise SystemExit("the unmutated suite must pass on the copy and import it")

        def one(n: int) -> list[str]:
            survivors = []
            for path, ident, text in todo[n::JOBS]:
                target = copies[n] / path.relative_to(ROOT)
                target.write_text(text, encoding="utf-8")
                if _run(copies[n], envs[n]):
                    survivors.append(ident)
                    print(f"survived: {ident}", flush=True)
                shutil.copy(path, target)
            return survivors

        with ThreadPoolExecutor(JOBS) as pool:
            return sorted(ident for part in pool.map(one, range(JOBS)) for ident in part)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="modules to mutate")
    args = parser.parse_args(argv)
    paths = [p.resolve() for p in args.paths]
    survivors = census(paths)
    reasons = read_equivalent(EQUIVALENT)
    names = {f"{p.name}:" for p in paths}
    unexplained = [s for s in survivors if s not in reasons]
    stale = [i for i in reasons if i.split(" ", 1)[0] in names and i not in survivors]
    print(f"{len(survivors)} survivors: {len(survivors) - len(unexplained)} equivalent, "
          f"{len(unexplained)} unexplained")
    for ident in unexplained:
        print(f"UNEXPLAINED {ident}")
    for ident in stale:
        print(f"STALE {ident}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
