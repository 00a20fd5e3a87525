"""Rules about the library source itself."""

import ast
import functools
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
    # traced benchmark runs read them.  orbit_blocks is the one cut of the
    # orbit leaders into blocks, which expsums and curves iterate, and kept
    # the one memo, which every module that keeps a value calls.  trace_table
    # and orbit_blocks are cached_properties, so dir() lists them before
    # their first read builds them.
    found = {name for name in dir(gf2m.Field(3)) if not name.startswith("_")}
    assert found == {"exp_table", "fold", "has_tables", "kept", "log_table", "m", "orbit_blocks",
                     "orbit_total", "orbit_traces", "orbits", "order", "reduction", "size", "trace",
                     "trace_table"}


def test_field_lazy_tables_are_pinned():
    # A table built on first read lives as long as the shared field.  Each one
    # here is a function of m over the orbit leaders, or the oracles' element
    # table; a new one, such as a whole-period memo, needs a deliberate edit
    # of this set.
    found = {name for name, attr in vars(gf2m.Field).items() if isinstance(attr, functools.cached_property)}
    assert found == {"orbits", "_short_orbits", "orbit_blocks", "trace_table"}


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
    # The library reads each trace by exponent, through Field.trace; the
    # element-indexed trace_table is the oracles' independent route, so
    # outside gf2m no library module reads it.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "gf2m.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "trace_table"]
    assert found == []


def _private_reads(path):
    """Every read or write in path of a single-underscore attribute, x._name."""
    return [f"{path.name}:{line}"
            for line in sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                               if isinstance(node, ast.Attribute) and re.match(r"_(?!_)", node.attr))]


def test_gf2m_owns_the_field_state():
    # A Field's memo and its coset sizes are private to gf2m: a module that
    # keeps a value calls Field.kept, and no module reaches into another's
    # underscored names.
    assert [hit for path in SOURCES if path.name != "gf2m.py" for hit in _private_reads(path)] == []


def test_private_read_rule_sees_single_underscore_attributes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(field, key, x):\n'
        '    n = field._kept.get(key)\n'
        '    field._kept[key] = x._short_orbits[0]\n'
        '    return crosscorr._runs(x), field.kept(key, list), x.__class__, _runs(x), x.__len__()\n')
    assert _private_reads(path) == ["mod.py:2", "mod.py:3", "mod.py:3", "mod.py:4"]


def _exponent_rule_breaks(path):
    """Where path reads the coset sizes (`_short_orbits`, their one record),
    reduces by `order` with %=, or reads a table at a % by it (a subscript,
    or a take or trace argument)."""
    def by_order(node):
        return isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node).split(".")[-1] == "order"

    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [n.slice for n in ast.walk(tree) if isinstance(n, ast.Subscript)]
    reads += [a for n in ast.walk(tree) if _called(n) in ("take", "trace") for a in n.args]
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_short_orbits"]
    found += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod) and by_order(node.value)]
    found += [node.lineno for read in reads for node in ast.walk(read)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and by_order(node.right)]
    return [f"{path.name}:{line}" for line in sorted(set(found))]


def test_gf2m_owns_exponent_arithmetic():
    # Field.fold is the one reduction of an exponent array mod 2^m - 1, and
    # Field.orbit_total the one weighting by coset size: outside gf2m no
    # module reads the sizes or reduces by order.
    assert [hit for path in SOURCES if path.name != "gf2m.py" for hit in _exponent_rule_breaks(path)] == []


def test_exponent_rule_sees_sizes_and_reductions(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(field, reps, x, e, order):\n'
        '    short, deficit = field._short_orbits\n'
        '    n = field.orbit_total(x) + field._short_orbits[0].size + len(field.orbits)\n'
        '    x %= order\n'
        '    x %= field.order\n'
        '    t = field.log_table[(reps * e) % field.order] + field.exp_table.take(x % order)\n'
        '    u = field.trace(x % field.order)\n'
        '    return x % order, (e % order, 1), field.exp_table[field.fold(x)], field.trace(field.fold(x))\n'
        '    return field.orbits, field.orbit_blocks, field.orbits @ x\n')
    assert _exponent_rule_breaks(path) == ["mod.py:2", "mod.py:3", "mod.py:4", "mod.py:5", "mod.py:6", "mod.py:7"]


def _orbits_subscripts(path):
    """Every subscript of a `.orbits` in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "orbits"]


def test_no_module_subscripts_orbits():
    # Field.orbits is the array of coset leaders alone, so an orbits[0] left
    # from when it was (reps, sizes) would read the first leader, the number
    # 0, and not fail.  A pass over the leaders reads orbits or orbit_blocks.
    assert [hit for path in SOURCES for hit in _orbits_subscripts(path)] == []


def test_orbits_subscript_rule_sees_indices_and_slices(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(field, lo):\n'
        '    reps = field.orbits[0]\n'
        '    n = len(field.orbits) + len(get_field(3).orbits[lo:lo + 2])\n'
        '    reps = field.orbits\n'
        '    return reps[lo], field.orbit_blocks[0], field.orbit_traces(3)[lo]\n')
    assert _orbits_subscripts(path) == ["mod.py:2", "mod.py:3"]


def _upper_imports(path):
    """Every import in path, relative or absolute, of char2kit's zeta, curves, acceptance or cli."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "char2kit" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.startswith("char2kit.") and name.split(".")[1] in {"zeta", "curves", "acceptance", "cli"}
               for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_sum_modules_import_nothing_above_them():
    # gf2m, expsums and crosscorr compute the field, the sums and the spectra.
    # The zeta side, the curves and the rows that compare them with the sums
    # read these modules, never the reverse.
    lower = ("gf2m.py", "expsums.py", "crosscorr.py")
    assert [hit for path in SOURCES if path.name in lower for hit in _upper_imports(path)] == []


def test_layering_rule_sees_relative_and_absolute_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'from . import gf2m, zeta\n'
        'from .curves import TrivariatePoly\n'
        'import char2kit.acceptance as acc\n'
        'def f():\n'
        '    from char2kit.cli import main\n'
        'from char2kit import expsums, verdict\n'
        'from .verdict import Verdict\n'
        'import zeta, char2kitx.cli\n')
    assert _upper_imports(path) == ["mod.py:1", "mod.py:2", "mod.py:3", "mod.py:5"]


def _zeta_literals(path):
    """Every string literal in path that names z1..z4 or holds a P_m( label."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in {"z1", "z2", "z3", "z4"} or "P_m(" in node.value)]


def test_cli_states_no_zeta_identity():
    # Each identity's route and label live in acceptance.ZETA_ROUTES, and the
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
                    "theorem1_applies", "a1_formula", "corrected_prediction"} == set()


def _unsourced_checks(path):
    """The top-level functions in path with a checked(...) whose expected side is not read
    off a row that an acceptance call yields, or is fed by an expsums, crosscorr or zeta
    call: the row is *X or X is its third argument, and X, or each binding of the name X
    (an assignment, a loop or a comprehension), calls into acceptance and no library module."""
    found = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        bindings = {}
        for node in ast.walk(fn):
            pairs = ([(t, node.value) for t in node.targets] if isinstance(node, ast.Assign) else
                     [(node.target, node.iter)] if isinstance(node, (ast.For, ast.comprehension)) else [])
            for target, value in pairs:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bindings.setdefault(name.id, []).append(value)

        def sourced(node, seen=frozenset()):
            if any(isinstance(n, ast.Call) and _root(n.func) in {"expsums", "crosscorr", "zeta"}
                   for n in ast.walk(node)):
                return False
            if isinstance(node, ast.Call):
                return _root(node.func) == "acceptance" or sourced(node.func, seen)
            return (isinstance(node, ast.Name) and node.id not in seen and bool(bindings.get(node.id))
                    and all(sourced(value, seen | {node.id}) for value in bindings[node.id]))

        for node in ast.walk(fn):
            if _called(node) == "checked":
                row = (node.args[0].value if len(node.args) == 1 and isinstance(node.args[0], ast.Starred)
                       else node.args[2] if len(node.args) == 3 else None)
                if row is None or not sourced(row):
                    found.append(fn.name)
    return found


def test_cli_builds_no_check_of_its_own():
    # Every checked row of a subcommand is a row that an acceptance builder
    # yields, and no library call in cli.py feeds its expected side.  The one
    # row the CLI states itself is a raise, expected "no exception".
    assert _unsourced_checks(Path(char2kit.__file__).parent / "cli.py") == ["_raised"]


def test_unsourced_check_rule_sees_rows_built_outside_acceptance(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def ok(args, L, dist):\n'
        '    rows = [checked(*row) for row in acceptance.weight_rows("", dist)]\n'
        '    for key, criterion in acceptance.CRITERIA.items():\n'
        '        rows += [checked(f"{key} {n}", o, e) for n, o, e in criterion(3, 2)]\n'
        '    return rows + [checked(*acceptance.a1_row(7, 3))]\n'
        'def pinned(n):\n'
        '    return checked("A_64", n, KNOWN_WEIGHTS[7][64])\n'
        'def library(L, s, n):\n'
        '    return checked(f"N_{s}", n, zeta.predicted_count(L, s))\n'
        'def fed(L):\n'
        '    return [checked(*row) for row in acceptance.count_rows("", zeta.catalog_lpoly("z2"), 3)]\n'
        'def verdict(L):\n'
        '    v = zeta.functional_equation_check(L)\n'
        '    return checked(*v)\n'
        'def rebound(m):\n'
        '    row = acceptance.a1_row(m, 1)\n'
        '    row = ("x", 1, expsums.kloosterman(m).value)\n'
        '    return checked(*row)\n')
    assert _unsourced_checks(path) == ["pinned", "library", "fed", "verdict", "rebound"]


def test_readme_names_exactly_the_caps_in_src():
    # A cap the README names and the library no longer has, or the reverse,
    # is a stale document.
    readme = (Path(char2kit.__file__).parents[2] / "README.md").read_text()
    defined = {target.id for path in SOURCES for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.Assign) for target in node.targets
               if isinstance(target, ast.Name) and target.id.endswith("_CAP")}
    assert defined and set(re.findall(r"\b[A-Z][A-Z0-9_]*_CAP\b", readme)) == defined


def _mode_passing_calls(path):
    """Every call of weight_distribution in path that passes mode, by keyword or position."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
            == "weight_distribution"
            and (len(node.args) > 2 or any(kw.arg in ("mode", None) for kw in node.keywords))]


def test_no_library_call_passes_a_weight_mode():
    # Both modes of weight_distribution run one route; mode= stays only for
    # the benchmark's callers, so the library never chooses one.
    assert [hit for path in SOURCES for hit in _mode_passing_calls(path)] == []


def test_mode_rule_sees_keyword_positional_and_unpacked_modes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def f(cc, kw):\n'
        '    cc.weight_distribution(7, 1, mode="direct"), weight_distribution(7, 1, "direct")\n'
        '    cc.weight_distribution(7, 1, **kw), cc.weight_distribution(7, 1), x.take(1, mode="wrap")\n')
    assert _mode_passing_calls(path) == ["mod.py:2", "mod.py:2", "mod.py:3"]


def _called(node):
    return isinstance(node, ast.Call) and (node.func.id if isinstance(node.func, ast.Name)
                                           else getattr(node.func, "attr", None))


def _restating_functions(path):
    """The functions in path that restate a rule stated once in crosscorr:
    ("hypothesis", f) where f tests parity (% 2 or a range of step 2) and
    calls gcd, and ("runs", f) where f sets an array's x[1:] against its x[:-1]."""
    def sliced(operands, bounds):
        return {a.value.id for a in operands if isinstance(a, ast.Subscript) and isinstance(a.value, ast.Name)
                and isinstance(a.slice, ast.Slice) and ast.unparse(a.slice) == bounds}

    out = []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        parity = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) and ast.unparse(n.right) == "2"
                     or _called(n) == "range" and len(n.args) == 3 and ast.unparse(n.args[2]) == "2"
                     for n in nodes)
        if parity and any(_called(n) == "gcd" for n in nodes):
            out.append(("hypothesis", fn.name))
        pairs = [n.args if isinstance(n, ast.Call) else [n.left, *n.comparators]
                 for n in nodes if isinstance(n, (ast.Call, ast.Compare))]
        if any(sliced(operands, "1:") & sliced(operands, ":-1") for operands in pairs):
            out.append(("runs", fn.name))
    return out


def test_each_crosscorr_rule_is_stated_once():
    # expsums.theorem1_applies is the one test of the paper's hypothesis (odd
    # m, gcd(k, m) = 1) for expsums, crosscorr and acceptance, and _runs the
    # one walk over the run edges of a sorted array in the library.
    hits = [(path.stem, *hit) for path in SOURCES for hit in _restating_functions(path)]
    assert [hit for hit in hits if hit[0] in ("expsums", "crosscorr", "acceptance") or hit[1] == "runs"] == [
        ("crosscorr", "runs", "_runs"), ("expsums", "hypothesis", "theorem1_applies")]


def test_restating_rule_sees_parity_with_gcd_and_neighbour_pairs(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'def a(m, k):\n'
        '    return m % 2 == 0 or math.gcd(k, m) != 1\n'
        'def b(n):\n'
        '    return [m for m in range(1, n, 2) if gcd(3, m) == 1]\n'
        'def c(m, k):\n'
        '    return m % 2, range(m), math.gcd(k, m), x[1:] != y[:-1], z[1:] + z[:-1]\n'
        'def d(w):\n'
        '    return np.flatnonzero(w[1:] != w[:-1])\n'
        'def e(w):\n'
        '    np.not_equal(w[1:], w[:-1], out=w[:-1])\n')
    assert _restating_functions(path) == [("hypothesis", "a"), ("hypothesis", "b"), ("hypothesis", "c"),
                                          ("runs", "d"), ("runs", "e")]


def _comment_cuts(path):
    """Each call in path with a str argument that begins with "#", by line: the function
    or method it is in, as module.name or module.Class.name, or module:line outside one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [(f"{path.stem}.{fn.name}", fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    scopes += [(f"{path.stem}.{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    calls = sorted((node.lineno, node.col_offset) for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and any(isinstance(a, ast.Constant) and isinstance(a.value, str) and a.value.startswith("#")
                           for a in node.args))
    return [next((name for name, fn in scopes if fn.lineno <= line <= fn.end_lineno), f"{path.stem}:{line}")
            for line, _ in calls]


def test_only_records_reads_the_comment_mark():
    # The catalog data format, one record of ints per line with '#' starting
    # a comment, is read by zeta.records alone: the L-polynomial and curve
    # parsers, the catalogs and the CLI's file paths all go through it.
    assert [hit for path in SOURCES for hit in _comment_cuts(path)] == ["zeta.records"]


def test_comment_rule_sees_functions_methods_and_module_code(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'import re\n'
        'def cut(line):\n'
        '    return line.split("#", 1)[0], line.partition("#")[0]\n'
        'class P:\n'
        '    def parse(cls, text):\n'
        '        return [re.sub(r"#.*", "", t) for t in text.splitlines() if not t.startswith("#")]\n'
        'HEAD = "x # y".split("#")\n'
        'def ok(line):\n'
        '    return line.split(), "#", line.split(" "), print(f"#{line}")\n')
    assert _comment_cuts(path) == ["mod.cut", "mod.cut", "mod.P.parse", "mod.P.parse", "mod:7"]
