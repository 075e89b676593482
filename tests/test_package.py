"""The package's import contract."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import edrep


def test_cli_import_loads_no_numerical_library():
    """``--threads`` caps the BLAS pools before they start, which works
    only while importing the command line leaves numpy and scipy unloaded."""
    probe = (
        "import sys, edrep.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(edrep.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_every_export_resolves():
    """A removed function or class must not leave a dangling lazy export."""
    missing = [name for name in edrep._EXPORTS if not hasattr(edrep, name)]
    assert missing == []


#: Private names that one module of the package imports from another,
#: as (importer, source, name): helpers shared across that boundary on
#: purpose.
_PRIVATE_IMPORTS = {
    ("graphs", "matstore", "_real"),
    ("io", "graphs", "_whole_numbers"),
    ("mixture", "matstore", "_real"),
    ("optimizer", "znorm", "_log_sum_exp"),
    ("optimizer", "znorm", "_operands"),
    ("optimizer", "znorm", "_score_blocks"),
    ("znorm", "matstore", "_real"),
    ("znorm", "mixture", "_block_cuts"),
    ("znorm", "mixture", "_row_sq_norms"),
}


def test_private_imports_between_modules_are_listed():
    """A module that takes a ``_``-prefixed name from another reaches past
    its public surface; each such import is listed above, so a new one
    is a visible change."""
    package = Path(edrep.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "edrep":
                continue  # another package's names
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add((path.stem, module.rpartition(".")[2], alias.name))
    assert found == _PRIVATE_IMPORTS


#: Seed expressions that reach numpy's generators unwrapped, each checked
#: by ``errors.check_whole`` before it gets there: the seed fields of
#: objects whose constructor runs the rule, the substreams spawned from
#: such a field, and the command line's seed, checked when it is resolved.
_CHECKED_SEEDS = {
    "cfg.seed",
    "self.seed",
    "params.seed",
    "theta_seq",
    "label_seq",
    "np.random.SeedSequence(params.seed).spawn(3)[2]",
    "resolved['seed']",
}


def test_every_seed_reaches_numpy_checked():
    """Every seed given to ``np.random.default_rng`` or ``SeedSequence``
    is a ``check_whole`` call or one of the checked expressions above,
    so an unchecked seed is a visible change."""
    package = Path(edrep.__file__).resolve().parent
    unchecked = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or ast.unparse(node.func) not in {
                "np.random.default_rng", "np.random.SeedSequence"
            }:
                continue
            seed = ast.unparse(node.args[0]) if node.args else ""
            if not seed.startswith("check_whole(") and seed not in _CHECKED_SEEDS:
                unchecked.append((path.stem, node.lineno, seed))
    assert unchecked == []


#: Exports that only tests call, each kept for a stated reason.
_TEST_ONLY_EXPORTS = {
    # The gradient that criteria 3 and 8 check against finite
    # differences; it calls the training loop's own pieces, so the
    # criteria test the loop.
    "approx_gradient",
    # Criterion 9's point-mass mixture, which must reproduce exact Z.
    "singleton_mixture",
}


def test_every_export_has_a_caller_outside_tests():
    """Code that only tests reach is wired in or deleted: every export is
    named in the package or the benchmark beyond its own definition."""
    root = Path(__file__).resolve().parents[1]
    package = Path(edrep.__file__).resolve().parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py"))
    lines = [line for path in sources for line in path.read_text().splitlines()]
    uncalled = []
    for name in edrep._EXPORTS:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.append(name)
    assert set(uncalled) == _TEST_ONLY_EXPORTS
