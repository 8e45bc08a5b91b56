"""Source hygiene of src/hochtrace, checked with the standard-library ast:
no unused import, no bare ``assert`` (checks raise typed errors), no
``/`` or ``/=`` outside ``grdlin.dense_rank``: exact code divides only
through ``Fraction``, so no float is reachable; and no ``X if n else [()]``
outside ``bimod.bimodule_inputs``, the one place that decides how a zero
algebra (None) enumerates its words; and no function but ``bimod.action``
that calls both a structure-map ``eval`` and ``hom_label``, so every
End-valued operator built from structure maps comes from one place; and
no function or method takes a parameter named ``check`` and no
``Complex`` is built with a ``check`` argument, so every object is
validated where it is built and every d*d = 0 that elimination relies on
is certified; and only ``ainf`` flattens (``to_rational_algebra``,
``flat_tables``), while ``transfer`` reads no ``.is_rational`` and calls
no ``isinstance``, so whether an HH letter is a pair (b, v) is decided by
the ``ainf`` rule; and
no function both calls ``.compose`` and compares with ``==`` or ``!=``, so
every chain-map check goes through ``grdlin.chain_map_witness``; and no
function is decorated with ``functools.cache`` or ``lru_cache``: a memo
lives only as long as the object or construction that fills it, since an
unbounded structure-map memo raised peak RSS by 31-84%; and no function
in ``hoch``, ``bimod``, ``ainf`` or ``wheeled`` calls ``mul_basis``, so
every product by a base label there goes through ``cdga.times_base`` and
``cdga.leibniz_column``; and no module but ``grdlin`` reads
``.entries``, the label-keyed view of a ``GradedMap`` that converts a
column each time it is read, so no library path pays for it; and every
module-level function, class or constant, and every method but a dunder,
is named somewhere in ``src``, ``bench`` or ``tests`` outside its own
definition."""
import ast
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "hochtrace").glob("*.py"))
NAMING = sorted(p for top in ("src", "bench", "tests") for p in (REPO / top).rglob("*.py"))


def _imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def bare_asserts(source):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def _outside(tree, allowed):
    """The nodes of ``tree`` outside the functions named in ``allowed``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    return [node for node in ast.walk(tree) if id(node) not in exempt]


def divisions(source, allowed=()):
    """Lines of every ``/`` and ``/=`` outside the functions named in
    ``allowed``."""
    return sorted(node.lineno for node in _outside(ast.parse(source), allowed)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def _is_empty_word_list(node):
    return (isinstance(node, ast.List) and len(node.elts) == 1
            and isinstance(node.elts[0], ast.Tuple) and not node.elts[0].elts)


def empty_word_guards(source, allowed=()):
    """Lines of every conditional expression with a ``[()]`` branch outside
    the functions named in ``allowed``."""
    return sorted(node.lineno for node in _outside(ast.parse(source), allowed)
                  if isinstance(node, ast.IfExp)
                  and (_is_empty_word_list(node.body) or _is_empty_word_list(node.orelse)))


def _calls(fn):
    """(attribute names, bare names) called anywhere inside ``fn``."""
    attrs, names = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                attrs.add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                names.add(node.func.id)
    return attrs, names


def end_operator_builders(source, allowed=()):
    """Names of the functions outside ``allowed`` that call a structure map
    (``.eval`` or ``.eval_mu``) and ``hom_label``: each builds an
    End-valued operator by hand."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name not in allowed:
            attrs, names = _calls(fn)
            if attrs & {"eval", "eval_mu"} and "hom_label" in names:
                found.append(fn.name)
    return sorted(found)


def calls_to(source, names):
    """Lines of every call, by bare or attribute name, to one of ``names``;
    ``source`` is text or a parsed node."""
    tree = ast.parse(source) if isinstance(source, str) else source
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) in names)


def callers_of(source, names):
    """Qualified names (``Class.method``, ``function``, or ``<module>`` for
    a statement outside any) of the top-level definitions that call one of
    ``names``; a nested function counts for the definition it sits in."""
    found = set()
    for node in ast.parse(source).body:
        prefix = node.name + "." if isinstance(node, ast.ClassDef) else ""
        for member in node.body if prefix else [node]:
            if calls_to(member, names):
                found.add(prefix + getattr(member, "name", "<module>"))
    return sorted(found)


def attribute_reads(source, attr):
    """Lines of every ``.attr`` in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def compose_comparers(source):
    """Names of the functions that call ``.compose`` and compare with ``==``
    or ``!=``: each checks a chain map by hand."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and "compose" in _calls(fn)[0]:
            if any(isinstance(node, ast.Compare)
                   and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                   for node in ast.walk(fn)):
                found.append(fn.name)
    return sorted(found)


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", getattr(node, "id", None))


def memo_decorated(source):
    """Names of the functions decorated with ``cache`` or ``lru_cache``,
    bare, called or as an attribute such as ``functools.cache``."""
    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(_decorator_name(d) in ("cache", "lru_cache")
                          for d in fn.decorator_list))


def check_parameters(source):
    """Names of the functions and methods with a parameter named ``check``:
    each is an option to skip validation."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            if any(a.arg == "check" for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.append(getattr(fn, "name", "<lambda>"))
    return sorted(found)


def unchecked_complexes(source):
    """Qualified names of the functions that build a ``Complex`` with a
    ``check`` argument other than the literal True: each skips, or may
    skip, the d*d = 0 certificate."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "Complex"
                  and any(k.arg == "check" and not (isinstance(k.value, ast.Constant)
                                                    and k.value.value is True)
                          for k in child.keywords)):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


OVER_THE_BASE = [p for p in SOURCES if p.name in ("ainf.py", "bimod.py", "hoch.py", "wheeled.py")]
OUTSIDE_GRDLIN = [p for p in SOURCES if p.name != "grdlin.py"]


# every Complex certifies its own d*d = 0: no site is listed
UNCHECKED_COMPLEXES = {}


def _named(tree):
    """Every identifier ``tree`` names: bare names, attributes, imported
    names and string constants (as in ``monkeypatch.setattr(m, "name", v)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def names_in(sources):
    """How often the texts ``sources`` name each identifier."""
    named = Counter()
    for text in sources:
        named.update(_named(ast.parse(text)))
    return named


def orphans(source, named):
    """Names of the module-level functions, classes and constants of
    ``source``, and ``Class.method`` of the methods of its module-level
    classes but the dunders, that ``named``, the ``names_in`` count of
    sources that hold ``source``, names only inside the definition
    itself."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own = Counter(_named(node))
        found += [name for name in names if named[name] == own[name]]
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                name = getattr(method, "name", "__")
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (name.startswith("__") and name.endswith("__"))
                        and named[name] == Counter(_named(method))[name]):
                    found.append(f"{node.name}.{name}")
    return found


def test_the_scan_sees_the_sources():
    assert {p.name for p in SOURCES} >= {"grdlin.py", "hoch.py", "transfer.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert bare_asserts(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_division(path):
    allowed = ("dense_rank",) if path.name == "grdlin.py" else ()
    assert divisions(path.read_text(), allowed) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_empty_word_guard(path):
    allowed = ("bimodule_inputs",) if path.name == "bimod.py" else ()
    assert empty_word_guards(path.read_text(), allowed) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_end_valued_action(path):
    allowed = ("action",) if path.name == "bimod.py" else ()
    assert end_operator_builders(path.read_text(), allowed) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_flattening_rule(path):
    source = path.read_text()
    flatteners = () if path.name == "ainf.py" else ("to_rational_algebra", "flat_tables")
    assert calls_to(source, flatteners) == []
    if path.name == "transfer.py":
        assert calls_to(source, ("isinstance",)) == []
        assert attribute_reads(source, "is_rational") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_chain_map_certificate(path):
    assert compose_comparers(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unbounded_memo(path):
    assert memo_decorated(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_unchecked_complexes_are_the_listed_sites(path):
    assert unchecked_complexes(path.read_text()) == UNCHECKED_COMPLEXES.get(path.name, [])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_parameter(path):
    assert check_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", OVER_THE_BASE, ids=lambda p: p.name)
def test_one_k_linear_extension(path):
    assert callers_of(path.read_text(), ("mul_basis",)) == []


@pytest.mark.parametrize("path", OUTSIDE_GRDLIN, ids=lambda p: p.name)
def test_no_entries_view_read_outside_grdlin(path):
    assert attribute_reads(path.read_text(), "entries") == []


@pytest.fixture(scope="module")
def named():
    return names_in(p.read_text() for p in NAMING)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_orphan_definition(path, named):
    assert orphans(path.read_text(), named) == []


def test_the_checks_fire():
    source = "from itertools import product, permutations\nassert product\n"
    assert unused_imports(source) == [("permutations", 1)]
    assert bare_asserts(source) == [2]
    source = "x = 1 / 2\nx /= 3\ny = 7 // 2\ndef dense_rank(m):\n    return m / 2\n"
    assert divisions(source) == [1, 2, 5]
    assert divisions(source, ("dense_rank",)) == [1, 2]
    source = ("a = p(l) if l else [()]\nb = [()] if n else q\nc = p(l) if l else [(1,)]\n"
              "def bimodule_inputs(l):\n    return p(l) if l else [()]\n")
    assert empty_word_guards(source) == [1, 2, 5]
    assert empty_word_guards(source, ("bimodule_inputs",)) == [1, 2]
    source = ("def action(m, p):\n    return {hom_label(v, w): m.eval(p)}\n"
              "def by_hand(m, v, w):\n    return {hom_label(v, w): m.eval_mu(v)}\n"
              "def twist(m, v, w):\n    return {hom_label(v, w): m.d.column(v)}\n"
              "def builtin(v, w):\n    return {hom_label(v, w): eval(v)}\n")
    assert end_operator_builders(source) == ["action", "by_hand"]
    assert end_operator_builders(source, ("action",)) == ["by_hand"]
    source = ("class A:\n    def f(self, c):\n        return Complex(s, d, check=c)\n"
              "def g():\n    return Complex(s, d, check=False)\n"
              "def h():\n    return Complex(s, d, check=True), Complex(s, d)\n")
    assert unchecked_complexes(source) == ["A.f", "g"]
    source = ("class A:\n    def __init__(self, d, check=True):\n        self.d = d\n"
              "def f(x, *, check):\n    return x\n"
              "def g(x, /, check):\n    return x\n"
              "h = lambda check=False: check\n"
              "def ok(x, checked=True, **check):\n    return check(x)\n")
    assert check_parameters(source) == ["<lambda>", "__init__", "f", "g"]
    source = ("a = ainf.to_rational_algebra(s)\nb = flat_tables(f, l, n)\n"
              "c = to_rational_algebra\nd = isinstance(x, tuple) and base.is_rational\n"
              "e = is_rational(base)\n")
    assert calls_to(source, ("to_rational_algebra", "flat_tables")) == [1, 2]
    assert calls_to(source, ("isinstance",)) == [4]
    assert attribute_reads(source, "is_rational") == [4]
    source = ("a = f.entries\nb = hh.d.entries.get(v, {})\nentries = {}\n"
              "c = entries[v]\nd = f.columns\nf.entries = {}\n")
    assert attribute_reads(source, "entries") == [1, 2, 6]
    source = ("def by_hand(f, d, e):\n    return f.compose(d) == e.compose(f)\n"
              "def differs(f, d, e):\n    return f.compose(d) != e\n"
              "def summed(d, h):\n    return d.compose(h) + h.compose(d)\n"
              "def compared(a, b):\n    return a == b\n")
    assert compose_comparers(source) == ["by_hand", "differs"]
    source = ("@functools.cache\ndef a(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef b(x):\n    return x\n"
              "class C:\n    @functools.lru_cache\n    def c(self):\n        return 1\n"
              "    @property\n    def d(self):\n        return cache(1)\n"
              "@cache\nasync def e():\n    return 1\n")
    assert memo_decorated(source) == ["a", "b", "c", "e"]
    source = ("class B:\n    def _differential(self, b, c):\n"
              "        def add():\n            return base.mul_basis(b, c)\n"
              "        return add()\n    def mul(self, c):\n        return base.mul(c, c)\n"
              "def extend(base, b, c):\n    return mul_basis(b, c)\n"
              "x = base.mul_basis(1, 2)\n")
    assert callers_of(source, ("mul_basis",)) == ["<module>", "B._differential", "extend"]
    source = ("X = 1\nY: int = X\ndef f(n):\n    return f(n - 1)\n"
              "class C:\n    pass\ndef g():\n    return C\n"
              "class D:\n    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        return 1\n"
              "    def alone(self, n):\n        return self.alone(n - 1)\n"
              "    @property\n    def size(self):\n        return 2\n")
    assert orphans(source, names_in([source])) == ["Y", "f", "g", "D", "D.alone", "D.size"]
    assert orphans(source, names_in([source, "from m import g, D\nsetattr(m, 'Y', 2)\n"
                                              "D().size\n"])) == ["f", "D.alone"]
