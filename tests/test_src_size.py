"""``scripts/src_size.py``: the size report CHANGES.md entries cite."""

from __future__ import annotations

import gc
import importlib.util
import shutil
import subprocess
import warnings
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_size.py"

#: Eight lines: a docstring (2), a comment, a blank, code (4 — two of
#: them one string that is not a docstring).
PLAIN = '''"""A module
docstring."""
# a comment

X = 1
Y = """not a
docstring"""
Z = 2  # trailing comments keep a code line
'''

#: Seven lines: two code lines, a one-line and a two-line docstring.
CLASSY = '''class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        return 1
'''


@pytest.fixture(scope="module")
def src_size():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "plain.py").write_text(PLAIN)
    (tmp_path / "src" / "classy.py").write_text(CLASSY)
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    return tmp_path


def test_code_lines_leave_out_docstrings_comments_and_blanks(src_size):
    assert src_size.code_lines(PLAIN) == 4
    assert src_size.code_lines(CLASSY) == 3


def test_measure_counts_python_files_under_src(src_size, tree):
    assert src_size.measure(tree / "src") == {
        "files": 2, "wc -l": 8 + 7, "code": 4 + 3,
    }


def commit(tree):
    """Make ``tree`` a git repository with one commit of everything."""
    for args in (("init", "-q"), ("add", "-A"),
                 ("commit", "-q", "-m", "fixture")):
        subprocess.run(["git", "-C", str(tree), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args],
                       check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_revision_against_the_work_tree(src_size, tree, capsys):
    commit(tree)
    (tree / "src" / "classy.py").unlink()
    assert src_size.main(["HEAD"], root=tree) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["src/", "files", "wc", "-l", "code"]
    assert lines[1].split() == ["HEAD", "2", "15", "7"]
    assert lines[2].split() == ["work", "tree", "1", "8", "4"]
    assert lines[3].split() == ["delta", "-1", "-7", "-3"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_measuring_a_revision_closes_the_archive_pipe(src_size, tree):
    commit(tree)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert src_size.measure_rev("HEAD", root=tree)["files"] == 2
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []
