"""The package's public surface."""

import qna


def test_all_names_resolve_and_are_listed_once():
    # a name that a deletion leaves behind in __all__ fails here rather than
    # at `from qna import *`
    names = qna.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(qna, n)] == []
