"""The public API is the surface README documents under "Library use"."""

import re
from pathlib import Path

import oplspm

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_names():
    # Backticked names in the section's bullets, continuation lines included.
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return [name for bullet in bullets for name in re.findall(r"`([^`]+)`", bullet)]


def test_readme_library_use_lists_the_package_namespace():
    names = library_use_names()
    assert len(names) == len(set(names)) == 28
    assert set(names) == set(oplspm.__all__)
