"""The examples in the word layer's docstrings and the README run as tests."""

import doctest
import re
from pathlib import Path

from repvol import words


def test_words_doctests():
    result = doctest.testmod(words, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_tour():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
