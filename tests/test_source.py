"""Source-level guards: every built-in cross-check must survive python -O,
every name the package defines has a use, and every name the benchmark's
tracer hooks exists."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
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


def test_no_program_path_lists_the_sorted_elements():
    """``PermGroup.elements()`` builds a |G|-sized sorted list of Perms; every
    walk in the package streams ``chain.iter_elements()`` instead, so no
    call of ``.elements(`` appears under src/ (its definition aside).  Nor
    does a subgroup orbit key a point by its whole element set: no call of
    ``.element_fingerprint(`` appears there either (``conjugation_key``
    keys it)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("elements", "element_fingerprint")
    ]
    assert found == [], f"calls of .elements() or .element_fingerprint() in src/: {found}"


def _calls_by_enclosing_function(attr: str) -> Counter:
    """module.qualname of the function around each call of ``.<attr>(``
    under src/, counted."""
    found: Counter = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == attr:
                found[scope] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_chains_grow_in_one_loop():
    """Every derived subgroup is grown by ``_Chain.grow``, which holds the
    rules that its generators are the candidates that enlarged the chain
    and that a build stops at its order.  Besides ``grow`` only the
    subnormalizer scan inserts into a chain, one member per orbit with
    ``stop_at = |G|``, and reads only the chain's order.  A hand-written
    growth loop anywhere else fails here."""
    assert _calls_by_enclosing_function("insert") == Counter(
        {"permgroup._Chain.grow": 1, "subnorm._scan_subnormalizer": 1}
    )
    assert set(_calls_by_enclosing_function("_insert")) == {
        "permgroup._Chain.insert",
        "permgroup._Chain._insert",
    }


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
    # PermGroup.elements: the sorted reference the tests compare against,
    # and read by perfbench/tracer.py (wrapped, and called in group_key).
    "elements",
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


def test_picky_report_builds_no_group_from_the_members(monkeypatch):
    """picky_report takes Sub_G(x) from the scan's own chain: no call of
    ``group_generated_by`` rebuilds it from the members, through any
    module that imports the name."""
    import pickylab.cli  # noqa: F401  (imports every module of the package)
    from pickylab import permgroup, subnorm
    from pickylab.exactnum import prime_factors

    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    build = permgroup.group_generated_by
    for name, module in list(sys.modules.items()):
        if name.startswith("pickylab.") and getattr(module, "group_generated_by", None) is build:
            monkeypatch.setattr(module, "group_generated_by", counting)
    G = permgroup.named_group("S:7")
    reports = [
        subnorm.picky_report(G, p, x)
        for p in prime_factors(G.order)
        for x in subnorm.p_element_class_representatives(G, p)
    ]
    assert len(reports) > 1
    assert calls == []


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


def test_cli_loads_neither_openssl_nor_the_process_pool(tmp_path):
    """In a fresh interpreter with no cache, importing the CLI, a table and
    a one-job batch load neither hashlib's OpenSSL binding nor the process
    pool: the cache key and ``--jobs`` > 1 import them where they are used."""
    catalog = tmp_path / "one.json"
    catalog.write_text(json.dumps({"format": 1, "entries": [{"label": "S3", "source": "S:3"}]}))
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        from pickylab import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["table", "S:3"])
        reports = cli.run_batch({str(catalog)!r}, jobs=1)["reports"]
        heavy = ["_hashlib", "concurrent.futures.process", "multiprocessing"]
        print(json.dumps([code, len(reports), [m for m in heavy if m in sys.modules]]))
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "PICKYLAB_CACHE"}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    code, report_count, loaded = json.loads(done.stdout)
    assert code == 0 and report_count > 0
    assert loaded == []
