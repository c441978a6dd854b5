"""Every ``PUGPARA_*`` variable the library reads is documented in the
README's environment table, so a new knob shows up as a visible doc diff;
and every ``PUGPARA_*`` name the source mentions is one the code reads, so
a retired knob cannot linger in a docstring, comment or ``--help`` text."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"PUGPARA_[A-Z_]+")


def read_knobs(src: pathlib.Path = ROOT / "src") -> set[str]:
    """Names that appear as a whole quoted string literal in the code —
    ``os.environ.get("PUGPARA_JOBS")`` counts, a mention inside a longer
    docstring or help text does not."""
    return {node.value for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and KNOB.fullmatch(node.value)}


def mentioned_knobs(src: pathlib.Path = ROOT / "src") -> dict[str, str]:
    """Every ``PUGPARA_*`` name anywhere under ``src`` (code, docstrings,
    comments, help epilogs), mapped to one ``file:line`` that mentions it."""
    found: dict[str, str] = {}
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in KNOB.findall(line):
                found.setdefault(name, f"{path.relative_to(src)}:{lineno}")
    return found


def _table_knobs() -> set[str]:
    """The first cell of each row of the README's environment table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(PUGPARA_[A-Z_]+)` \|", section, re.M))


def test_every_knob_is_in_the_readme_table():
    missing = read_knobs() - _table_knobs()
    assert not missing, f"undocumented PUGPARA_* knobs: {sorted(missing)}"


def test_the_table_names_no_dead_knob():
    dead = _table_knobs() - read_knobs()
    assert not dead, f"README documents unread knobs: {sorted(dead)}"


def test_every_mentioned_knob_is_read():
    read = read_knobs()
    stale = {name: where for name, where in mentioned_knobs().items()
             if name not in read}
    assert not stale, f"mentions of knobs the code never reads: {stale}"
