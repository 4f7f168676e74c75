"""The examples in the word layer's docstrings run as tests."""

import doctest

from repvol import words


def test_words_doctests():
    result = doctest.testmod(words, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0
