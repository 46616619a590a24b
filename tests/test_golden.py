"""Every command line of the golden corpus (golden.json) prints what it pins."""

import golden


def test_golden_corpus():
    assert golden.differences(golden.load()) == []
