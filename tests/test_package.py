"""The package surface: ``__all__`` lists every public name, and pydoc
documents each of them."""

import hashlib
import pydoc
import re

import ppcforge as pf


def test_all_holds_the_public_names():
    # __all__ is derived from the imports of __init__; these are its 57 names
    names = sorted(pf.__all__)
    assert len(names) == 57
    assert hashlib.sha256(repr(names).encode()).hexdigest() == (
        "2e9d9166b8febd2609a1b3d803cb5b112c79d11049029d266bd7e2542c95adaa"
    )
    assert all(getattr(pf, name) is not None for name in names)


def test_help_documents_every_public_name():
    # pydoc documents only what __all__ lists: each name heads an entry of
    # its CLASSES, FUNCTIONS or DATA section
    text = pydoc.render_doc(pf, renderer=pydoc.plaintext)
    missing = [name for name in pf.__all__
               if not re.search(rf"^    (class )?{name}\b", text, re.MULTILINE)]
    assert missing == []
