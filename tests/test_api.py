"""The package's public names and the README's list of them agree."""

import re
from pathlib import Path

import zerocensored

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_lists_only_public_names():
    missing = [name for name in zerocensored.__all__ if not hasattr(zerocensored, name)]
    assert not missing, f"__all__ names that the package does not define: {missing}"
    sentence = re.search(r"Lower-level pieces \((.*?)\)", README.read_text(encoding="utf-8"), re.DOTALL)
    assert sentence, "README has no 'Lower-level pieces' sentence"
    listed = re.findall(r"`([^`]+)`", sentence.group(1))
    assert listed
    stale = [name for name in listed if name not in zerocensored.__all__]
    assert not stale, f"README advertises names that are not public: {stale}"
