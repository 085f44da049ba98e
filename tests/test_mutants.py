"""``tools/mutants.py`` tells a killed mutant from a survivor.

The real list takes minutes, so the tool runs here on a two-file tree
with one test: one mutant that test catches, one it misses, one marked
equivalent.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load()

SOURCE = "def half(x):\n    return x / 2\n\n\ndef sign(x):\n    return 1 if x >= 0 else -1\n"
TEST = "from toy import half, sign\n\n\ndef test_half():\n    assert half(4) == 2\n"


def fake_tree(root: pathlib.Path) -> pathlib.Path:
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text(SOURCE)
    (root / "tests" / "test_toy.py").write_text(TEST)
    return root


def test_a_caught_mutant_is_killed_and_a_missed_one_survives(tmp_path):
    tree = fake_tree(tmp_path / "tree")
    listed = [
        mutants.Mutant("half doubles", "src/toy.py", "x / 2", "x * 2"),
        mutants.Mutant("sign of zero", "src/toy.py", "x >= 0", "x > 0"),
        mutants.Mutant("same sign", "src/toy.py", "else -1", "else -1 * 1", equivalent="same"),
    ]
    verdicts = [(m.name, verdict, by) for m, verdict, by in mutants.run(tree, listed)]
    assert verdicts == [
        ("half doubles", "killed", "tests/test_toy.py::test_half"),
        ("sign of zero", "survived", ""),
        ("same sign", "equivalent", ""),
    ]
    assert (tree / "src" / "toy.py").read_text() == SOURCE


def test_the_tools_own_list_check_kills_no_mutant(tmp_path):
    # like the real tests/test_mutants.py, this check reads the tree it
    # sits in, so in a mutated copy it fails whatever the code does
    tree = fake_tree(tmp_path / "tree")
    (tree / "tests" / "test_mutants.py").write_text(
        "import pathlib\n\n\ndef test_listed_text_applies():\n"
        "    root = pathlib.Path(__file__).resolve().parent.parent\n"
        "    assert (root / 'src' / 'toy.py').read_text().count('x >= 0') == 1\n"
    )
    missed = [mutants.Mutant("sign of zero", "src/toy.py", "x >= 0", "x > 0")]
    assert [verdict for _, verdict, _ in mutants.run(tree, missed)] == ["survived"]


def test_a_stale_mutant_is_an_error(tmp_path):
    tree = fake_tree(tmp_path / "tree")
    stale = [mutants.Mutant("gone", "src/toy.py", "x // 2", "x * 2")]
    with pytest.raises(ValueError, match="holds 0 copies"):
        list(mutants.run(tree, stale))


def test_every_listed_mutant_applies_to_this_tree():
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
