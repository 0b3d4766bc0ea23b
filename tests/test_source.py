"""Source-level guards: every built-in cross-check must survive python -O,
every name the package defines has a use, and every name the benchmark's
tracer hooks exists."""

import ast
import importlib
import importlib.util
import tokenize
from collections import Counter
from pathlib import Path

import pickylab

SRC = Path(pickylab.__file__).parent


def test_no_assert_statements_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O; raise EngineDefect: {found}"


ROOT = SRC.parents[1]


def _definitions(tree: ast.Module):
    """Module-level functions, classes and assignment targets, and the
    methods of module-level classes, except dunder names."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name


def _name_tokens(*tops: str) -> Counter:
    """How often each NAME token occurs in the .py files under ``tops``."""
    occurrences: Counter = Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            with tokenize.open(path) as fh:
                occurrences.update(
                    tok.string
                    for tok in tokenize.generate_tokens(fh.readline)
                    if tok.type == tokenize.NAME
                )
    return occurrences


def _package_definitions() -> tuple[Counter, set]:
    """Every name the package defines, counted, and the functions
    registered with ``@_check`` (used through ``CHECKS``)."""
    definitions: Counter = Counter()
    registered = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        definitions.update(_definitions(tree))
        registered.update(
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "_check" for d in node.decorator_list)
        )
    return definitions, registered


def test_every_defined_name_is_used():
    """A name defined in the package must occur somewhere under src/,
    scripts/ or tests/ besides its own definitions."""
    occurrences = _name_tokens("src", "scripts", "tests")
    definitions, _ = _package_definitions()
    unused = sorted(name for name, n in definitions.items() if occurrences[name] <= n)
    assert unused == [], f"names without a use: {unused}"


# Public API kept on purpose although only tests call it.
KEPT_API = {
    "centralizer",  # in the README's module table; compared against sympy
    "cycle_type",  # Perm.cycle_type
    "covering_analysis",  # read by acceptance criterion 4, the lemma sweeps
    "zeta",  # Cyclotomic.zeta
    "coefficients",  # Cyclotomic.coefficients
}


def test_every_defined_name_is_used_by_the_program():
    """A name defined in the package must occur under src/ or scripts/
    besides its own definitions: a test alone does not keep code alive.
    Checks registered with ``@_check`` are reached through ``CHECKS``."""
    occurrences = _name_tokens("src", "scripts")
    definitions, registered = _package_definitions()
    unused = sorted(
        name
        for name, n in definitions.items()
        if occurrences[name] <= n and name not in registered | KEPT_API
    )
    assert unused == [], f"names only tests use: {unused}"


def test_every_traced_boundary_exists():
    """Each (module, path) that perfbench/tracer.py wraps names an attribute
    defined on a pickylab module or class, so a rename fails here instead
    of zeroing a per-layer row of the benchmark."""
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _ in tracer.BOUNDARIES:
        owner = importlib.import_module(f"pickylab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module}.{path}")
    assert missing == [], f"traced names missing from pickylab: {missing}"


def test_picky_report_scans_through_the_traced_boundary(monkeypatch):
    """picky_report on a fresh group reaches the scan through the module
    attribute ``subnorm.subnormalizer_set``, once per element: that is the
    object perfbench/tracer.py wraps, so a call that bypassed it would
    zero the ``subnorm.subnormalizer_set_s`` row without failing."""
    from pickylab import subnorm
    from pickylab.exactnum import prime_factors
    from pickylab.permgroup import named_group

    calls = []
    scan = subnorm.subnormalizer_set

    def counting(G, x):
        calls.append(x.images)
        return scan(G, x)

    monkeypatch.setattr(subnorm, "subnormalizer_set", counting)
    G = named_group("S:5")
    want = []
    for p in prime_factors(G.order):
        for x in subnorm.p_element_class_representatives(G, p):
            subnorm.picky_report(G, p, x)
            want.append(x.images)
    assert len(want) > 1
    assert calls == want


def test_registered_checks_match_the_benchmark():
    """The checks register in the order perfbench/layers.py reports them,
    each as the module attribute ``check_<name>`` itself, which is the
    object the tracer patches; a registration mistake fails here instead
    of zeroing a per-check ``self_s`` row."""
    from pickylab import conjectures

    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    (bench_checks,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CHECKS"]
    ]
    assert list(conjectures.CHECKS) == list(bench_checks)
    for name, check in conjectures.CHECKS.items():
        assert check is getattr(conjectures, "check_" + name), name
