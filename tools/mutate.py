"""Mutation testing of hazardrisk modules, standard library only.

    python tools/mutate.py [MODULE ...]

MODULE names a file in src/hazardrisk (default: bands probability risk
severity batch sampler cli reporting). Each mutant changes one node of the
module's syntax tree: a comparison (< and <=, > and >=, == and !=), an
arithmetic operator (+ and -, * and /, // to /, ** to *), bisect_left and
bisect_right, side="left" and side="right", min and max (also numpy's minimum
and maximum). The mutated module is written into a scratch copy of the
repository and the tier-1 suite runs there, stopping at the first failure; one
copy per available CPU runs at a time. A mutant the suite passes survives.
Survivors listed in tools/mutate_equivalent.txt change no behaviour a test
could see; the script prints one line per mutant and exits 1 if any other
mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutate.py checks EQUIVALENT against the sources' own line numbers
# and operators, which every mutant's copy changes: it could only kill falsely.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutate.py"]
# A mutant can make a loop run forever; past this many seconds it counts as killed.
TIMEOUT_S = 300
# A mutant can make an array grow without bound (a sampler that draws ever more
# normals); past this much address space per process an allocation fails and
# the mutant is killed, instead of taking the machine's memory. Tier-1 runs
# within 1 GB.
MEMORY_BYTES = 2 << 30
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Pow: ast.Mult}
FUNCTIONS = {"bisect_left": "bisect_right", "bisect_right": "bisect_left", "min": "max",
             "max": "min", "minimum": "maximum", "maximum": "minimum"}
SIDES = {"left": "right", "right": "left"}
EQUIVALENT = Path(__file__).with_name("mutate_equivalent.txt")


def equivalent_mutants() -> set[str]:
    """Mutants as this script prints them ("sampler.py:76 GtE -> Gt"), from
    lines of EQUIVALENT; a "#" starts the reason."""
    lines = (line.split("#")[0].strip() for line in EQUIVALENT.read_text().splitlines())
    return {line for line in lines if line}


def import_both_bisects(tree: ast.AST) -> None:
    """Make `from bisect import ...` import both functions, so a swapped call
    reaches the other one instead of failing with NameError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bisect":
            node.names = [ast.alias("bisect_left"), ast.alias("bisect_right")]


def mutations(tree: ast.AST):
    """(node number in ast.walk order, description, function that mutates that
    node in place) for every mutation site of a tree."""
    for number, node in enumerate(ast.walk(tree)):
        ops = node.ops if isinstance(node, ast.Compare) else [getattr(node, "op", None)]
        for i, op in enumerate(ops):
            if type(op) in SWAPS:
                yield number, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}", partial(
                    _swap_op, i=i)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in FUNCTIONS:
            yield number, f"{name} -> {FUNCTIONS[name]}", _swap_function
        if isinstance(node, ast.keyword) and node.arg == "side" and getattr(
                node.value, "value", None) in SIDES:
            yield number, f"side={node.value.value!r} -> {SIDES[node.value.value]!r}", _swap_side


def module_tree(name: str) -> tuple[Path, ast.Module]:
    """Path and syntax tree of src/hazardrisk/NAME.py, importing both bisects."""
    path = ROOT / "src" / "hazardrisk" / f"{name}.py"
    tree = ast.parse(path.read_text())
    import_both_bisects(tree)
    return path, tree


def mutants(path: Path, tree: ast.AST) -> list:
    """(mutant as this script prints it, e.g. "sampler.py:76 GtE -> Gt"; node
    number; function that mutates that node) for each mutation site of a
    module's tree."""
    nodes = list(ast.walk(tree))
    return [(f"{path.name}:{nodes[number].lineno} {what}", number, mutate)
            for number, what, mutate in mutations(tree)]


def _swap_op(node: ast.AST, i: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    else:
        node.op = SWAPS[type(node.op)]()


def _swap_function(node: ast.AST) -> None:
    attr = "id" if isinstance(node, ast.Name) else "attr"
    setattr(node, attr, FUNCTIONS[getattr(node, attr)])


def _swap_side(node: ast.keyword) -> None:
    node.value.value = SIDES[node.value.value]


def tier1(work: Path) -> bool:
    """True when the tier-1 suite passes in a copy of the repository."""
    env = {**os.environ, "PYTHONPATH": "src"}
    try:
        return subprocess.run(TIER1, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def killed(module: Path, source: str, copies: queue.Queue) -> bool:
    """True when tier-1 fails with this source in place of the module."""
    work = copies.get()
    target = work / module.relative_to(ROOT)
    original = target.read_text()
    try:
        target.write_text(source)
        return not tier1(work)
    finally:
        target.write_text(original)
        copies.put(work)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="*",
                        default=["bands", "probability", "risk", "severity", "batch", "sampler",
                                 "cli", "reporting"])
    args = parser.parse_args(argv)
    # Every tier-1 run inherits the limit.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    jobs, unparsed, equivalent = [], {}, equivalent_mutants()
    for name in args.modules:
        path, tree = module_tree(name)
        unparsed[path] = ast.unparse(tree)
        for where, number, mutate in mutants(path, tree):
            mutant = copy.deepcopy(tree)
            mutate(list(ast.walk(mutant))[number])
            jobs.append((path, where, ast.unparse(mutant)))
    with tempfile.TemporaryDirectory() as scratch:
        copies: queue.Queue = queue.Queue()
        workers = len(os.sched_getaffinity(0))
        for j in range(workers):
            work = Path(scratch) / str(j)
            shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*"))
            # Mutants lose comments and layout and import both bisects: the
            # baseline does too.
            for path, source in unparsed.items():
                (work / path.relative_to(ROOT)).write_text(source)
            copies.put(work)
        if not tier1(Path(scratch) / "0"):
            print("error: tier-1 fails on the unmutated sources", file=sys.stderr)
            return 2
        survivors = unexpected = 0
        with ThreadPoolExecutor(workers) as pool:
            results = pool.map(lambda job: killed(job[0], job[2], copies), jobs)
            for (_, where, _), dead in zip(jobs, results):
                status = "killed" if dead else "equivalent" if where in equivalent else "SURVIVED"
                print(f"{status} {where}", flush=True)
                survivors += not dead
                unexpected += status == "SURVIVED"
    print(f"{len(jobs)} mutants, {len(jobs) - survivors} killed, {survivors} survived, "
          f"{unexpected} not listed as equivalent")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
