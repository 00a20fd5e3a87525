"""Rules about the library source itself."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import char2kit
from char2kit import gf2m

SOURCES = sorted(Path(char2kit.__file__).parent.glob("*.py"))
MODULES = [importlib.import_module("char2kit" if path.stem == "__init__" else f"char2kit.{path.stem}")
           for path in SOURCES]


def test_no_assert_in_library():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the library raises instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_cap_parameter_on_public_functions():
    # Caps are module constants, checked in one place per entry point; a
    # per-call override is an option no caller uses.
    found = [f"{path.name}:{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_")
             and "cap" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]]
    assert found == []


def test_module_level_caches_are_pinned():
    # A process cache is shared state: each one here hands every caller the
    # same value (frozen catalog entries; a Field, whose arrays are read-only).
    # A new one needs a deliberate edit of this set.
    found = {f"{fn.__module__}.{fn.__qualname__}" for module in MODULES
             for fn in vars(module).values() if hasattr(fn, "cache_clear")}
    assert found == {"char2kit.gf2m.get_field", "char2kit.zeta.catalog_lpoly",
                     "char2kit.curves.catalog_curve"}


def test_exception_classes_are_pinned():
    # A wrong number is a failed row; an exception is a refused argument or a
    # bad data file (both ValueErrors, exit 2).  A new exception class is a
    # second way to fail and needs a deliberate edit of this set.
    found = {f"{cls.__module__}.{cls.__qualname__}" for module in MODULES
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, BaseException)
             and cls.__module__ == module.__name__}
    assert found == {"char2kit.gf2m.FieldError", "char2kit.zeta.ZetaError"}


def test_field_public_surface_is_pinned():
    # A Field is its tables and the vector maps read off them; the library
    # has no scalar field arithmetic.  A new public method or attribute needs
    # a deliberate edit of this set.  has_tables and trace_table stay public:
    # traced benchmark runs read them.  trace_table is a cached_property, so
    # dir() lists it before its first read builds it.
    found = {name for name in dir(gf2m.Field(3)) if not name.startswith("_")}
    assert found == {"exp_table", "has_tables", "log_table", "m", "orbit_traces", "orbits", "order",
                     "pow_log", "reduction", "size", "trace_seq", "trace_table"}


MUTATORS = {"add", "append", "cache_clear", "clear", "discard", "extend", "insert", "pop",
            "popitem", "remove", "reverse", "setdefault", "sort", "update"}


def _root(node):
    """The name at the base of an attribute or subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _global_state_writes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names, imported_modules, assigned = set(), set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
            module_names |= names
            if isinstance(node, ast.Import):
                imported_modules |= names
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(node.name)
        else:
            assigned |= {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    module_names |= assigned
    # A plain import binds a module object: np.add(x, y, out=x) calls a function
    # of the module and does not mutate it.  From-imported names stay shared.
    imported_modules -= assigned
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))]
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module_names - local
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS and _root(node.func.value) in shared
                    and not (isinstance(node.func.value, ast.Name)
                             and node.func.value.id in imported_modules)):
                found.append(node.lineno)
            elif (isinstance(node, (ast.Subscript, ast.Attribute))
                  and isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) in shared):
                found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(set(found))]


def test_no_process_global_mutable_state():
    # Every result is a function of its arguments: no function rebinds a
    # global or mutates a module-level object (a dict, a cache, a module).
    assert [hit for path in SOURCES for hit in _global_state_writes(path)] == []


def test_global_state_rule_skips_module_functions(tmp_path):
    # np.add and np.insert are functions of an imported module, not mutations
    # of it; a module-level dict and a from-imported cached function are shared.
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "from char2kit.gf2m import get_field as get\n"
        "CACHE = {}\n"
        "\n"
        "\n"
        "def f(x, y):\n"
        "    np.add(x, y, out=x)\n"
        "    x = np.insert(x, 0, 0)\n"
        "    CACHE.update(x=x)\n"
        "    get.cache_clear()\n"
        "    return x\n")
    assert _global_state_writes(path) == ["mod.py:9", "mod.py:10"]


def _bodies(path):
    """(name, dump of the body without its docstring) of every function in path."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            out.append((f"{path.stem}.{fn.name}", ast.dump(ast.Module(body, []))))
    return out


def test_library_shares_no_function_body_with_the_oracles():
    # An oracle that runs the library's own code checks nothing: no library
    # function may repeat the body of a function in tests/oracles.py.
    oracle = {dump: name for name, dump in _bodies(Path(__file__).parent / "oracles.py")}
    assert [(name, oracle[dump]) for path in SOURCES for name, dump in _bodies(path)
            if dump in oracle] == []


def _referenced_names(node):
    """How often each name is read: every Name id and Attribute attr under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller_in_the_library():
    # A library function or method that only tests call is code kept for the
    # tests' sake: each public one is referenced in src/ outside its own def.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    total = sum((_referenced_names(tree) for tree in trees), Counter())
    found = [f"{path.name}:{fn.name}"
             for path, tree in zip(SOURCES, trees)
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not fn.name.startswith("_")
             and total[fn.name] == _referenced_names(fn)[fn.name]]
    assert found == []


def test_every_check_returns_a_verdict():
    # An identity check returns its two exact sides, so a failed row shows
    # what disagreed: Verdict is the one class with a holds attribute, and
    # every public *_check function is annotated to return it (a cmd_*
    # subcommand of the CLI returns rows).
    holders = {f"{cls.__module__}.{cls.__qualname__}" for module in MODULES
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and ("holds" in vars(cls) or "holds" in vars(cls).get("__annotations__", {}))}
    assert holders == {"char2kit.verdict.Verdict"}
    returns = {f"{module.__name__}.{name}": fn.__annotations__.get("return")
               for module in MODULES for name, fn in vars(module).items()
               if callable(fn) and getattr(fn, "__module__", None) == module.__name__
               and name.endswith("_check") and not name.startswith(("_", "cmd_"))}
    assert returns and {name for name, annotation in returns.items() if annotation != "Verdict"} == set()


def test_trace_table_is_read_only_in_gf2m():
    # The library reads each trace off the m-sequence Field.trace_seq, by
    # exponent; the element-indexed trace_table is the oracles' independent
    # route, so outside gf2m no library module reads it.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "gf2m.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "trace_table"]
    assert found == []


def _zeta_literals(path):
    """Every string literal in path that names z1..z4 or holds a P_m( label."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in {"z1", "z2", "z3", "z4"} or "P_m(" in node.value)]


def test_cli_states_no_zeta_identity():
    # Each identity's route and label live in expsums.ZETA_ROUTES, and the
    # l1prime rows in acceptance: the CLI loops over them and names none.
    assert _zeta_literals(Path(char2kit.__file__).parent / "cli.py") == []


def test_zeta_literal_rule_sees_labels_and_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(m, L):\n'
        '    return f"K_{m} = -P_m(z2)", L("z4"), "z5", "P_m", f"P_{m}"\n')
    assert _zeta_literals(path) == ["mod.py:2", "mod.py:2"]


def _keyed_literals(path):
    """Every string literal in path that begins with a criterion key and a space."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.match(r"C\d+ ", node.value)]


def test_criteria_yield_unprefixed_rows():
    # verify-all names a row "<key> <name>": a criterion that wrote its own
    # key would print it twice, and a shared row could not be shared.
    assert _keyed_literals(Path(char2kit.__file__).parent / "acceptance.py") == []


def test_keyed_literal_rule_sees_plain_and_formatted_strings(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(m):\n'
        '    return f"C4 A1 (m={m})", "C12 x", "C1", "AC1 x", f"{m} C5 y"\n')
    assert _keyed_literals(path) == ["mod.py:2", "mod.py:2"]


def test_cli_restates_no_theorem_check():
    # Theorem 1, the one-sixth bound, both A_1 routes and the corrected count
    # prediction are rows built in acceptance; the CLI turns them into rows.
    tree = ast.parse((Path(char2kit.__file__).parent / "cli.py").read_text())
    names = set(_referenced_names(tree)) | {a.name.split(".")[-1] for a in ast.walk(tree)
                                             if isinstance(a, ast.alias)}
    assert names & {"theorem1_multiplicities", "match_multiplicities", "one_sixth_slack",
                    "a1_from_spectrum", "a1_formula", "corrected_prediction"} == set()
