import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_mutate():
    # tools/mutate.py is a script, not part of the package.
    spec = importlib.util.spec_from_file_location("mutate", TOOLS / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutate = _load_mutate()


def test_every_listed_equivalent_mutant_is_generated_from_the_current_source():
    # A listed mutant names a line of the source: one that no longer exists
    # there would hide a new survivor on that line or excuse none.
    listed = mutate.equivalent_mutants()
    generated = set()
    for name in {where.split(".py:")[0] for where in listed}:
        path, tree = mutate.module_tree(name)
        generated.update(where for where, _, _ in mutate.mutants(path, tree))
    assert sorted(listed - generated) == []
