"""Every ``PUGPARA_*`` variable the library reads is documented in the
README's environment table, so a new knob shows up as a visible doc diff."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"PUGPARA_[A-Z_]+")


def _source_knobs() -> set[str]:
    return {name for path in (ROOT / "src" / "repro").rglob("*.py")
            for name in KNOB.findall(path.read_text(encoding="utf-8"))}


def _table_knobs() -> set[str]:
    """The first cell of each row of the README's environment table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(PUGPARA_[A-Z_]+)` \|", section, re.M))


def test_every_knob_is_in_the_readme_table():
    missing = _source_knobs() - _table_knobs()
    assert not missing, f"undocumented PUGPARA_* knobs: {sorted(missing)}"


def test_the_table_names_no_dead_knob():
    assert _table_knobs() <= _source_knobs()
