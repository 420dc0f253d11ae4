"""The package namespace: every exported name exists and is listed once."""

from collections import Counter

import entrokit


def test_all_names_resolve():
    missing = [name for name in entrokit.__all__ if not hasattr(entrokit, name)]
    assert missing == []


def test_all_names_listed_once():
    repeated = [name for name, count in Counter(entrokit.__all__).items() if count > 1]
    assert repeated == []


def test_one_probability_vector_type():
    assert not hasattr(entrokit, "Spectrum")
    assert "majorization_margin" in entrokit.__all__
