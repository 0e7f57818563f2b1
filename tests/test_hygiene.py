"""Static hygiene of the package, read with ``ast``: no unused imports, no dead private names."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdiscord"
#: the marker of an import kept bound for the benchmark trace, which wraps it
KEEP_BOUND = "# noqa: F401"


def _modules(*dirs):
    return {path: path.read_text() for d in dirs for path in sorted(d.glob("*.py"))}


def _read_names(tree):
    """Bare names the code reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_no_unused_imports():
    unused = []
    for path, source in _modules(PACKAGE, ROOT / "scripts", ROOT / "tests").items():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(source, str(path))
        lines = source.splitlines()
        read = _read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if KEEP_BOUND in lines[alias.lineno - 1]:
                    continue
                if bound not in read:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, unused


def test_every_private_module_name_is_referenced():
    sources = _modules(PACKAGE, ROOT / "scripts")
    referenced = set()
    for path, source in sources.items():
        tree = ast.parse(source, str(path))
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = []
    for path, source in _modules(PACKAGE).items():
        for node in ast.parse(source, str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert not dead, dead


#: primitives with one home each: the -v log2 v sums live in entropy.py (the
#: stationarity vector's log-ratios in optimize.py), the Pauli matrices and
#: their Kronecker products in states.py, the branch weights w = (2 p +- s)/4
#: in measurement.py, so that no fused kernel forks the one branch kernel, and
#: the class tolerance in closed_forms.py, so that the route of quantum_discord
#: reads the bounds' rank rule and no second class rule; functools' cached_property
#: has no home, since on Python 3.11 it takes a lock on each first read, and neither
#: has tensordot, whose Python layer wraps the one product a builder makes
PRIMITIVE_HOMES = {"log2": {"entropy.py", "optimize.py"}, "np.kron": {"states.py"}, "PAULIS": {"states.py"},
                   "2 * p0": {"measurement.py"}, "CLASS_TOL": {"closed_forms.py"},
                   "functools import cached_property": set(), "tensordot": set()}


def test_each_primitive_is_defined_in_its_home_module_only():
    strays = [f"{path.name}: {word}" for path, source in _modules(PACKAGE).items()
              for word, homes in PRIMITIVE_HOMES.items() if word in source and path.name not in homes]
    assert not strays, strays


#: primitives written exactly once: T^t x as numpy's product and the rank
#: tolerance of [T^t x, y], which both bounds routes (the floats and the LAPACK
#: oracle) and the search's start axes read; the call of validate, in
#: prepare_state, and what the two routes from a matrix to its triple (one
#: matrix, and quantum_discord_many's stack in states._prepared_many) share, so
#: that they cannot fork: validate's arithmetic in states._deviations, one body
#: for a matrix and a stack, marked by the eigvalsh of the Hermitian part; the
#: comparisons against the Hermiticity, trace and PSD thresholds, one body for
#: a matrix and a stack; the Pauli traces' product, which takes one matrix as a
#: stack of one; and the cofactor sum of the determinant repair, which a
#: stack's SVD goes through too; the SVD of one T, which the bounds' rank-0
#: case, the start axes and canonicalize read; the branch weights
#: w = (2 p +- s)/4 and the not-a-state check on them, which the scalar and the
#: batch kernels share, so that no float/array fork comes back; and the seed
#: rule of the samplers
SINGLE_DEFINITIONS = {r"\.T\.T @ \w+\.x\b|\w+\.x @ \w+\.T\b": "states.py", r"1e-10 \* max\(": "bounds.py",
                      r"(?<!def )\bvalidate\(": "states.py", r"eigvalsh\(hermitian\)": "states.py",
                      r"[<>]=? HERMITICITY_TOL": "states.py",
                      r"[<>]=? TRACE_TOL": "states.py", r"[<>]=? -PSD_TOL": "states.py",
                      r"@ _PAULI_TRACES": "states.py", r"np\.linalg\.svd\(t\.T\)": "states.py",
                      r"\* \(f \* k - g \* i\)": "states.py",
                      r"\(2 \* p0 \+ \w+\) / 4": "measurement.py", r"exceeds 2 p_k": "measurement.py",
                      r"np\.random\.default_rng\(rng\)": "states.py"}


def test_each_bounds_primitive_has_one_definition():
    for pattern, home in SINGLE_DEFINITIONS.items():
        found = [path.name for path, source in _modules(PACKAGE).items() for _ in re.finditer(pattern, source)]
        assert found == [home], (pattern, found)
