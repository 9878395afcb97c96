import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _string_annotation_names(tree):
    """Names read by the string annotations in ``tree``, such as
    ``doc: "NetlistDoc"`` over an import made only for type checking."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def _exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """(line, name) of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree) | _string_annotation_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "faultres").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in paths for line, name in unused_imports(p)]
    assert found == []


def _source_names(tree):
    """Every name ``tree`` binds or reads, every attribute, argument and
    keyword name, and every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_readme_library_layout_names_exist():
    # Every backticked Python name in README's "Library layout" section is a
    # module of faultres or a name in its source; a dotted one that is not a
    # module must have each part there.
    section = (ROOT / "README.md").read_text().split("## Library layout\n", 1)[1]
    section = re.sub(r"```.*?```", "", section.split("\n## ", 1)[0], flags=re.S)
    mentioned = {t for t in re.findall(r"`([^`\n]+)`", section)
                 if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", t)}
    assert len(mentioned) > 40
    paths = sorted((ROOT / "src" / "faultres").glob("*.py"))
    modules = {"faultres"} | {m for p in paths for m in (p.stem, f"faultres.{p.stem}")}
    names = set().union(*(_source_names(ast.parse(p.read_text(), str(p))) for p in paths))
    missing = sorted(t for t in mentioned
                     if t not in modules and not set(t.split(".")) <= names)
    assert missing == []
