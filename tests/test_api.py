"""Public API guard: the package exports only names it defines."""

import redplan


def test_every_exported_name_resolves():
    missing = [name for name in redplan.__all__ if not hasattr(redplan, name)]
    assert missing == []
    assert len(set(redplan.__all__)) == len(redplan.__all__)
