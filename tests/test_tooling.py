"""Checks on the repository's tooling that the library code must keep
working."""

import ast
import importlib.util
import re
from pathlib import Path

import divscan._errors
import divscan.channels
import divscan.cli
import divscan.presets

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# top-level names in src/divscan that nothing else there references, each
# with the job that keeps it in the library
KEEP_UNCALLED = {
    "compose_pairs": "composes Gaussian pairs for exact divisibility (ROADMAP item 1)",
    "apply_to_covariance": "acts on covariances for photon loss (ROADMAP item 8)",
    "make_pair": "checks an (X, Y) pair a caller passes in",
    "make_gaussian_family": "checks a Gaussian family a caller passes in",
    "kernel_inclusion_report": "reports kernel inclusion for non-invertible families (ROADMAP item 9)",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_resolves_every_site():
    """Tracer().install() looks up every name in SITES, so a rename or a
    deletion in src/ that breaks the benchmark's --trace 1 fails here."""
    tracing = _load_tracing()
    apply, extend = divscan.channels.Channel.__dict__["apply"], divscan.presets.extend_channel
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert divscan.presets.extend_channel.__perfbench_span__ == "channels.extend"
        assert divscan.channels.Channel.__dict__["apply"] is not apply
    finally:
        tracer.uninstall()
    assert divscan.channels.Channel.__dict__["apply"] is apply
    assert divscan.presets.extend_channel is extend


def test_perfbench_tracer_records_cli_spans(tmp_path, monkeypatch):
    """The names tracing.py wraps in divscan.cli are looked up when a runner
    runs, so a traced CLI run records the scan, closed-form, determinant and
    write spans of the cli-presets workload. The gaussian run validates the
    dilation only at the first grid time; its family extracts every other
    pair without a report. intermediate_map imports the probe when it runs,
    so the wrapped positivity_by_contractivity records a span."""
    tracing = _load_tracing()
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert divscan.cli.main(["scan-p", "--preset", "unitary"]) == 0
        assert divscan.cli.main(["idempotent", "--preset", "idempotent-cp"]) == 0
        assert divscan.cli.main(["gaussian", "--preset", "dilation-2x1"]) == 2
        assert divscan.cli.main(["intermediate", "--preset", "unitary"]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"divisibility.scan", "idempotent.closed_form", "gaussian.det_scan", "cli.write", "channels.probe"} <= names
    assert sum(span[0] == "gaussian.dilation_report" for span in tracer.spans) == 1
    written = sum(span[4]["bytes"] for span in tracer.spans if span[0] == "cli.write")
    assert written == sum(path.stat().st_size for path in tmp_path.iterdir())
    assert not hasattr(divscan.cli._write_json, "__perfbench_span__")


def test_no_inline_thresholds():
    """Every small tolerance or step in src/ is a named module constant: a
    float literal with 0 < |x| < 1e-3 may appear only in a module-level
    assignment, so each threshold is decided in one place."""
    inline = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(stmt)
        }
        inline += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3
            and id(node) not in named
        ]
    assert not inline, inline


def test_every_raise_names_a_package_error():
    """Every raise in src/ names a DivscanError subclass from _errors, so
    each failure of the library reaches callers as a typed error; the one
    other raise is the SystemExit that carries the CLI's exit code."""
    typed = {"SystemExit"} | {
        name
        for name, obj in vars(divscan._errors).items()
        if isinstance(obj, type) and issubclass(obj, divscan._errors.DivscanError)
    }
    untyped = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in typed):
                untyped.append(f"{path.name}:{node.lineno}")
    assert not untyped, untyped


def test_only_channels_reads_kraus():
    """A channel is its superoperator: outside channels.py no module in
    src/ reads a channel's `.kraus`, so which form a computation runs on is
    decided in one module."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.name != "channels.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "kraus"
    ]
    assert not readers, readers


def test_operators_has_one_eigensolve():
    """Every trace norm goes through trace_norms and its routes: exactly one
    eigvalsh call in operators.py, so a second trace-norm path cannot grow
    back beside it."""
    tree = ast.parse((ROOT / "src" / "divscan" / "operators.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "eigvalsh" or getattr(node.func, "id", None) == "eigvalsh")
    ]
    assert len(calls) == 1, calls


def test_hp_deviation_is_read_only_by_the_member_check():
    """Each family member is checked for Hermiticity preservation in one
    place: in src/, hp_deviation is called only inside
    DynamicalFamily.channel and the Channel class, so a second member check
    cannot fork off beside it."""

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "hp_deviation":
                yield inner, child.lineno
            yield from calls(child, inner)

    found = [
        (path.name, scope, line)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for scope, line in calls(ast.parse(path.read_text()), "")
    ]
    assert ("divisibility.py", "DynamicalFamily.channel") in {f[:2] for f in found}, found
    stray = [f for f in found if f[1] != "DynamicalFamily.channel" and f[1].split(".")[0] != "Channel"]
    assert not stray, stray


def test_scan_norms_have_one_route():
    """Every norm the scan reads comes from one primitive: in
    divisibility.py, _apply, _support and _trace_norms are called only
    inside _norms, so a second norm route cannot grow back beside it."""
    routes = {"_apply", "_support", "_trace_norms"}

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in routes:
                yield child.func.id, inner, child.lineno
            yield from calls(child, inner)

    found = list(calls(ast.parse((ROOT / "src" / "divscan" / "divisibility.py").read_text()), ""))
    assert {name for name, _, _ in found} == routes, found
    stray = [f for f in found if f[1].split(".")[0] != "_norms"]
    assert not stray, stray


def test_src_holds_no_cache():
    """Nothing is kept from one stencil time to the next: no function or
    property in src/ is decorated with lru_cache, cache or cached_property,
    so memory follows the problem, not the process's history."""
    cached = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in {"lru_cache", "cache", "cached_property"}:
                    cached.append(f"{path.name}:{node.lineno}")
    assert not cached, cached


def test_src_reads_no_environment():
    """The library has no environment setting: no module in src/ touches
    os.environ, os.getenv or os.putenv, so importing divscan changes
    nothing in the process and thread counts come from the BLAS's own
    variables."""
    touched = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv", "putenv"})
        or (isinstance(node, ast.ImportFrom) and node.module == "os")
    ]
    assert not touched, touched


def test_channels_apply_through_stacked_apply():
    """stacked_apply is the one route that applies a superoperator:
    Channel.apply and extend_channel each call it, and channels.py builds no
    kron product, so a second route to Lambda or I (x) Lambda cannot grow
    back beside it."""
    tree = ast.parse((ROOT / "src" / "divscan" / "channels.py").read_text())
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    channel = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Channel")
    apply = next(node for node in channel.body if isinstance(node, ast.FunctionDef) and node.name == "apply")

    def called(node):
        return {
            getattr(call.func, "attr", None) or getattr(call.func, "id", None)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        }

    assert "stacked_apply" in called(apply)
    assert "stacked_apply" in called(funcs["extend_channel"])
    assert "kron" not in called(tree)


def test_src_applies_no_operand_at_a_time():
    """Operands are applied as stacks: no function in src/ calls
    stacked_apply or an .apply method in the body of a for or while loop or
    in the element of a comprehension, so a per-operand apply loop cannot
    grow back."""
    looped = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                bodies = node.body + node.orelse
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                bodies = [node.elt]
            elif isinstance(node, ast.DictComp):
                bodies = [node.key, node.value]
            else:
                continue
            looped += [
                f"{path.name}:{call.lineno}"
                for body in bodies
                for call in ast.walk(body)
                if isinstance(call, ast.Call)
                and (getattr(call.func, "attr", None) or getattr(call.func, "id", None)) in {"stacked_apply", "apply"}
            ]
    assert not looped, looped


def test_scan_draws_the_default_library_lazily():
    """divisibility._scan reads the default library through the generator
    _draws, chunk by chunk: it never calls default_witnesses, which lists
    the whole library, so the library cannot be drawn whole again before
    the first chunk."""
    tree = ast.parse((ROOT / "src" / "divscan" / "divisibility.py").read_text())
    scan = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scan")
    called = {
        getattr(call.func, "attr", None) or getattr(call.func, "id", None)
        for call in ast.walk(scan)
        if isinstance(call, ast.Call)
    }
    assert "_draws" in called
    assert "default_witnesses" not in called


def test_every_library_definition_has_a_user():
    """Every top-level function or class of src/divscan, __init__ aside, is
    referenced by another top-level statement there, imported by the
    acceptance suite or perfbench/ (a SITES entry counts), or kept on
    KEEP_UNCALLED with its reason, so code that only tests call lives in
    tests/_reference.py."""
    statements = [
        stmt
        for path in sorted((ROOT / "src" / "divscan").glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body
    ]
    used = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        for stmt in statements
    ]
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("divscan"):
                outside |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                outside |= set(re.findall(r"divscan\.\w+:(\w+)", node.value))
    defined = [stmt for stmt in statements if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    unused = [
        stmt.name
        for stmt in defined
        if stmt.name not in outside | KEEP_UNCALLED.keys()
        and not any(stmt.name in names for other, names in zip(statements, used) if other is not stmt)
    ]
    assert not unused, unused
    assert KEEP_UNCALLED.keys() <= {stmt.name for stmt in defined}


def test_src_starts_threads_in_one_function():
    """The scan's eigensolve worker is the one pool the library makes: in
    src/, threading.Thread, _thread.start_new_thread or ThreadPoolExecutor
    is called in exactly one function, concurrent.futures is imported only
    inside that function, and no module imports multiprocessing, so a
    second pool cannot grow beside it."""
    starters = {"Thread", "start_new_thread", "ThreadPoolExecutor"}
    pools = {"concurrent", "multiprocessing"}

    def found(node, scope):
        """(what, scope) of each thread start and pool import under node."""
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, ast.FunctionDef) else scope
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and (getattr(func, "attr", None) or getattr(func, "id", None)) in starters:
                yield "start", inner
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            yield from ((name.split(".")[0], inner) for name in modules if name.split(".")[0] in pools)
            yield from found(child, inner)

    seen = {"start": set(), "concurrent": set(), "multiprocessing": set()}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for what, scope in found(ast.parse(path.read_text()), ""):
            seen[what].add((path.name, scope))
    starts = seen["start"]
    assert len(starts) == 1 and "" not in {scope for _, scope in starts}, seen
    assert seen["concurrent"] <= starts, seen
    assert not seen["multiprocessing"], seen
