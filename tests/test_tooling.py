"""The benchmark and the demos load the package's names: the traced run
wraps package functions by name, and the workloads and demos import and
call them.  The demos are read, not run."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from elastic_networks import repar

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # the traced run skips a missing name and only reports it, so a
    # renamed function would silently drop out of the per-layer split
    tracing = _load(TRACING)
    missing = [f"{module}.{attr}" for module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"elastic_networks.{module}"), attr, None))]
    assert tracing.TARGETS and missing == []


def test_workloads_load_and_every_package_attribute_they_call_exists():
    # loading runs the workloads' imports, among them solver.NetworkState
    # and geometry.CurveSamples; the jobs then call package modules by
    # attribute, which only fails once a benchmark run reaches the call
    workloads = _load(WORKLOADS)
    assert set(workloads.WORKLOADS) == {"triod_relax", "fine_grid", "certificate"}
    modules = {name for name, value in vars(workloads).items()
               if getattr(value, "__name__", "").startswith("elastic_networks.")}
    used = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(getattr(workloads, module), attr)]
    assert modules and used and missing == []


def test_certificate_per_curve_resampling_equals_the_network_call():
    # the certificate workload resamples its networks one curve at a time,
    # as the package once did; its callers now resample a network at once
    workloads = _load(WORKLOADS)
    certificate = workloads.Certificate()
    for k in range(len(certificate.grid)):
        state, _ = certificate.network(k)
        per_curve = workloads.NetworkState(
            curves=[repar.const_speed_reparam(c)[0] for c in state.curves],
            time=state.time,
        )
        assert np.array_equal(per_curve.nodes, repar.const_speed_reparam(state)[0])


def _package_uses(path):
    """(line, name, object, keywords, positional) for each name path
    imports from elastic_networks, each attribute it reads from an
    imported package module and each call of either.  object is None
    where the package no longer has the name; keywords are a call's
    keyword names, else (); positional is a call's count of positional
    arguments, None where it is no call or * or ** hide arguments."""
    tree = ast.parse(path.read_text())
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "elastic_networks"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:  # not a submodule
                    value = getattr(module, alias.name, None)
                names[alias.asname or alias.name] = value
                yield node.lineno, f"{node.module}.{alias.name}", value, (), None

    def resolve(node):
        if isinstance(node, ast.Name) and node.id in names:
            return node.id, names[node.id]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and inspect.ismodule(names.get(node.value.id))):
            module = names[node.value.id]
            return f"{node.value.id}.{node.attr}", getattr(module, node.attr, None)
        return None

    for node in ast.walk(tree):
        is_call = isinstance(node, ast.Call)
        found = resolve(node.func if is_call else node)
        if found:
            keywords = [k.arg for k in node.keywords if k.arg] if is_call else ()
            hidden = not is_call or (
                any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
            yield node.lineno, *found, keywords, None if hidden else len(node.args)


def _accepts(function, keyword):
    parameters = inspect.signature(function).parameters
    kind = getattr(parameters.get(keyword), "kind", None)
    return (kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                     inspect.Parameter.KEYWORD_ONLY)
            or any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in parameters.values()))


def test_every_package_name_a_demo_uses_exists():
    # a demo breaks only when someone runs it, so it is read instead
    missing = [f"{path.name}:{line}: {name}" for path in DEMOS
               for line, name, value, *_ in _package_uses(path) if value is None]
    assert DEMOS
    assert missing == []


def test_every_keyword_passed_to_a_package_function_is_accepted():
    # a keyword that a signature lost is a TypeError only once the call runs
    calls = [(path.name, *use) for path in [WORKLOADS] + DEMOS
             for use in _package_uses(path) if use[3]]
    rejected = [f"{name}:{line}: {callee}({keyword}=...)"
                for name, line, callee, function, keywords, _ in calls
                if callable(function)
                for keyword in keywords if not _accepts(function, keyword)]
    assert calls
    assert rejected == []


def _binds(function, positional, keywords):
    try:
        inspect.signature(function).bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError:
        return False
    return True


def test_every_package_call_binds_to_its_signature():
    # too many or too few positional arguments are a TypeError only once
    # the call runs, as a lost keyword is; calls whose * or ** hide
    # arguments are left to the keyword check
    calls = [(path.name, *use) for path in [WORKLOADS] + DEMOS
             for use in _package_uses(path) if use[4] is not None]
    unbound = [f"{name}:{line}: {callee} with {positional} positional and "
               f"keywords {keywords}"
               for name, line, callee, function, keywords, positional in calls
               if callable(function) and not _binds(function, positional, keywords)]
    assert calls
    assert unbound == []


SRC = ROOT / "src" / "elastic_networks"

# public names that stay although no module, demo or benchmark file calls
# them: the acceptance criteria call the first five, and the readers load
# what `elastic-networks simulate` writes
UNCALLED_BUT_KEPT = {
    "geometry.flow_velocity",  # criterion 5, the parabolic form
    "geometry.geometric_velocity",  # criterion 5, the geometric form
    "fixtures.circle",  # criterion 6
    "junction.junction_phi",  # criterion 7
    "diagnostics.first_variation_check",  # criterion 11
    "diagnostics.records_from_csv",  # reads diagnostics.csv
    "io.load_trajectory",  # reads trajectory.json
}


def _definitions(statement):
    # the names a top-level statement binds, imports aside
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _reads(statement):
    # the bare names and attribute names a statement reads
    return {getattr(node, "id", None) or node.attr for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_used_outside_the_tests():
    # a name that only tests use is surface without a job: give it one or
    # remove it.  Names are matched by spelling.  A top-level statement of
    # src/ counts as a user only once something used reads a name it
    # defines; the demos, the benchmark and src/'s statements that define
    # nothing (the entry point's guard) are used from the start.
    definitions = {}
    live = set()
    for folder in (SRC, ROOT / "demos", PERFBENCH):
        for path in sorted(folder.glob("*.py")):
            for statement in ast.parse(path.read_text()).body:
                names = _definitions(statement) if folder == SRC else set()
                kept = {n for n in names if f"{path.stem}.{n}" in UNCALLED_BUT_KEPT}
                if names and not kept:
                    definitions[statement] = (path.stem, names)
                else:
                    live |= _reads(statement)
    grown = True
    while grown:
        grown = False
        for statement, (_, names) in list(definitions.items()):
            if names & live:
                live |= _reads(statement)
                del definitions[statement]
                grown = True
    unused = sorted(f"{module}.{name}" for module, names in definitions.values()
                    for name in names if not name.startswith("_"))
    assert unused == [], f"only tests use: {', '.join(unused)}"


# defaulted parameters that stay although no module, demo or benchmark
# file passes them: the acceptance criteria call these helpers with
# their own values, and their defaults are the criteria's
DEFAULTS_KEPT = {
    "fixtures.circle",  # criterion 6
    "diagnostics.first_variation_check",  # criterion 11
}


def _defaulted(function, skip=0):
    # {name: position, or None if keyword-only} of the defaulted
    # parameters of a def, past its first skip (self) parameters
    args = function.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    found = {p.arg: k for k, p in enumerate(positional) if k >= first}
    found.update({p.arg: None for p, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None})
    return found


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a default that no caller overrides is a constant in disguise: make
    # it one or pass it.  The public functions and class constructors of
    # src/ are checked against every call of their name (by spelling) in
    # src/, demos/ and the benchmark; a call passes a parameter by
    # keyword, by position or through * or **.
    passed = {}
    for folder in (SRC, ROOT / "demos", PERFBENCH):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                count, names = passed.get(name, (0, set()))
                passed[name] = (max(count, math.inf if starred else len(node.args)),
                                names | keywords)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            name = getattr(statement, "name", "_")  # defs and classes only
            if name.startswith("_") or f"{path.stem}.{name}" in DEFAULTS_KEPT:
                continue
            if isinstance(statement, ast.ClassDef):
                inits = [f for f in statement.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                parameters = _defaulted(inits[0], skip=1) if inits else {}
            else:
                parameters = _defaulted(statement)
            count, names = passed.get(name, (0, set()))
            unpassed += [f"{path.stem}.{name}({parameter})"
                         for parameter, position in parameters.items()
                         if parameter not in names and None not in names
                         and (position is None or position >= count)]
    assert unpassed == [], f"never passed outside the tests: {', '.join(unpassed)}"


# private SciPy modules that src/ may import.  SciPy promises nothing
# about them, and the tests run on one SciPy version while pyproject.toml
# declares an older floor, so each entry says what it is needed for
PRIVATE_SCIPY_KEPT = {
    "scipy.sparse._sparsetools",  # csr_matvec(s): @ without its dispatch
}


def _imported_paths(tree):
    # the dotted path of each name an absolute import binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _private_scipy_imports(tree):
    # each imported scipy path cut after its first private component
    for path in _imported_paths(tree):
        parts = path.split(".")
        private = [k for k, part in enumerate(parts) if part.startswith("_")]
        if parts[0] == "scipy" and private:
            yield ".".join(parts[:private[0] + 1])


def test_src_imports_private_scipy_modules_only_from_the_allow_list():
    found = {module for path in sorted(SRC.glob("*.py"))
             for module in _private_scipy_imports(ast.parse(path.read_text()))}
    assert found - PRIVATE_SCIPY_KEPT == set(), "private SciPy modules imported"
    assert PRIVATE_SCIPY_KEPT - found == set(), "allow-list entries no longer used"


def _within(path, module):
    return path == module or path.startswith(module + ".")


def test_only_the_solver_imports_scipy_sparse_beyond_the_kept_kernels():
    # SuperLU in solver is the one use of SciPy's Python sparse layer;
    # other modules may import only the compiled kernels kept above
    found = {f"{path.name}: {imported}" for path in sorted(SRC.glob("*.py"))
             if path.name != "solver.py"
             for imported in _imported_paths(ast.parse(path.read_text()))
             if _within(imported, "scipy.sparse")
             and not any(_within(imported, kept) for kept in PRIVATE_SCIPY_KEPT)}
    assert found == set(), "scipy.sparse imported outside solver"


def _imports_in_functions(tree):
    # the module of each import statement inside a def
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield "." * node.level + (node.module or "")


def test_src_imports_nothing_inside_functions():
    # an import inside a function costs a lookup on every call and hides
    # a dependency from the module's head
    found = {f"{path.name}: {module}" for path in sorted(SRC.glob("*.py"))
             for module in _imports_in_functions(ast.parse(path.read_text()))}
    assert found == set(), "imports inside functions"


# private names of another package module that src/ may read or write,
# each with the reason: a private name is its own module's business
PRIVATE_NAMES_KEPT = {
    "geometry._is_finite",  # SolverConfig's number check, as NetworkState's
}


def _private_names_of_other_modules(tree):
    # "module._name" for each private name of a sibling module that a
    # module imports (from .module import _name) or reads off it
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if not node.module:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield f"{modules[node.value.id]}.{node.attr}"


def test_src_uses_private_names_of_other_modules_only_from_the_allow_list():
    found = {name for path in sorted(SRC.glob("*.py"))
             for name in _private_names_of_other_modules(ast.parse(path.read_text()))}
    assert found - PRIVATE_NAMES_KEPT == set(), "private names of other modules used"
    assert PRIVATE_NAMES_KEPT - found == set(), "allow-list entries no longer used"


def _names(tree):
    # every name a module imports, reads or reads off another object
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_only_geometry_picks_stencil_offsets_or_weights():
    # geometry.stencil decides which stencil sits at which node; every
    # other module takes a node's offsets and weights from it
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "geometry.py"
             for name in _names(ast.parse(path.read_text()))
             if name in ("stencil_weights", "boundary_offsets")}
    assert found == set(), "stencil offsets or weights picked outside geometry"


def _python_floor():
    # (major, minor) of pyproject.toml's requires-python = ">=X.Y"; read
    # without tomllib, which the declared floor itself (3.10) lacks
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "requires-python is not of the form >=X.Y"
    return int(match[1]), int(match[2])


def test_src_parses_with_the_declared_python_floor():
    # grammar newer than the floor (except*, type statements, PEP 695
    # generics ...) fails here rather than on an older interpreter
    floor = _python_floor()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_ab_pairs_summary_arithmetic_on_canned_results():
    # tools/ab_pairs.py's summary of runs it did not start: medians and
    # inclusive quartiles per side, and the pairs the change read lower
    ab_pairs = _load(ROOT / "tools" / "ab_pairs.py")
    stdout = "wall_s 1.0 s\n" + json.dumps({
        "correct": True, "attempted": 9, "failed": 0,
        "metrics": {"wall_s": {"value": 0.25, "unit": "s"},
                    "ok_ratio": {"value": 1.0, "unit": "ratio"}}}) + "\n"
    assert ab_pairs.parse_result(stdout) == (True, {"wall_s": 0.25, "ok_ratio": 1.0})
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.9, 2.5, 2.0, 3.9, 5.0]  # lower, higher, lower, lower, tie
    pairs = [({"wall_s": p, "ok_ratio": 1.0}, {"wall_s": c, "ok_ratio": 1.0})
             for p, c in zip(parent, change)]
    summary = ab_pairs.summarize(pairs)
    assert summary["wall_s"] == {"parent": (2.0, 3.0, 4.0), "change": (2.0, 2.5, 3.9),
                                 "lower": 3, "ties": 1, "pairs": 5}
    assert summary["ok_ratio"] == {"parent": (1.0, 1.0, 1.0), "change": (1.0, 1.0, 1.0),
                                   "lower": 0, "ties": 5, "pairs": 5}
    assert ab_pairs.format_summary(summary)[0] == (
        "wall_s: change lower in 3/5 pairs (ties 1); median 3 -> 2.5 (-16.7 %); "
        "parent IQR 2")
    assert ab_pairs.summarize(pairs[:1])["wall_s"]["change"] == (0.9, 0.9, 0.9)


def test_bench_record_entry_on_canned_results(monkeypatch):
    # tools/bench_record.py's trend entry from runs it did not start: the
    # environment without the seed, and per workload the inclusive
    # quartiles of each end-to-end metric over the seeds
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_record = _load(ROOT / "tools" / "bench_record.py")

    def stdout(seed, wall, correct=True):
        return (f"perfbench w seed={seed} trace=0 inputs=[]\n"
                f"environment {json.dumps({'seed': seed, 'cores': 2})}\n"
                + json.dumps({"correct": correct, "attempted": 9, "failed": 0,
                              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                          "ok_ratio": {"value": 1.0, "unit": "ratio"}}})
                + "\n")

    runs = {"a": [stdout(1, 0.3), stdout(2, 0.1), stdout(3, 0.2)],
            "b": [stdout(1, 2.0), stdout(2, 1.0, correct=False), stdout(3, 4.0)]}
    source = {"commit": "c0ffee", "uncommitted": False, "harness": "beef"}
    entry = bench_record.make_entry(source, runs, ["wall_s", "ok_ratio"],
                                    (15.5, "319 passed in 15.50s"))
    assert entry == {
        "commit": "c0ffee", "uncommitted": False, "harness": "beef",
        "environment": {"cores": 2},
        "seeds": [1, 2, 3], "tier1": {"wall_s": 15.5, "summary": "319 passed in 15.50s"},
        "workloads": {
            "a": {"correct": True, "wall_s": pytest.approx(
                {"median": 0.2, "q1": 0.15, "q3": 0.25}),
                  "ok_ratio": {"median": 1.0, "q1": 1.0, "q3": 1.0}},
            "b": {"correct": False, "wall_s": {"median": 2.0, "q1": 1.5, "q3": 3.0},
                  "ok_ratio": {"median": 1.0, "q1": 1.0, "q3": 1.0}}}}
