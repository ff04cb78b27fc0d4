"""The CLI's reports, byte for byte against the golden corpus.

``tests/golden/corpus.py`` holds the cases and regenerates the corpus; a
mismatch fails and names every moved field, it never skips.
"""

import pytest

from golden.corpus import CASES, example_tree, moved_fields, run_case, stored


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    return example_tree(tmp_path_factory.mktemp("golden") / "examples")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_corpus(name, tree, tmp_path):
    got, want = run_case(name, tree, tmp_path), stored(name)
    if got != want:
        pytest.fail("moved fields:\n" + "\n".join(moved_fields(name, want, got)))
