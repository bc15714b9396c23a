"""The package's public names and the README's examples."""

import pathlib
import re

import pytest

import seesawqec

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_public_name_resolves():
    missing = [name for name in seesawqec.__all__ if not hasattr(seesawqec, name)]
    assert not missing
    assert len(set(seesawqec.__all__)) == len(seesawqec.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seesawqec import *", namespace)
    assert set(seesawqec.__all__) <= set(namespace)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("source", EXAMPLES, ids=lambda s: s.splitlines()[0])
def test_readme_example_runs(source, tmp_path, monkeypatch):
    # In a temporary directory, so the files an example writes land there.
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
