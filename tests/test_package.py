"""The package surface: ``__all__`` lists every public name, pydoc
documents each of them, and a failure has its own error class only where a
caller tells it apart."""

import hashlib
import importlib
import pkgutil
import pydoc
import re

import ppcforge as pf


def test_all_holds_the_public_names():
    # __all__ is derived from the imports of __init__; these are its 56 names
    names = sorted(pf.__all__)
    assert len(names) == 56
    assert hashlib.sha256(repr(names).encode()).hexdigest() == (
        "5737ce549c8c39dafb7900b60cbceaaaeb2399f60757143f5115500c0f22e629"
    )
    assert all(getattr(pf, name) is not None for name in names)


def test_help_documents_every_public_name():
    # pydoc documents only what __all__ lists: each name heads an entry of
    # its CLASSES, FUNCTIONS or DATA section
    text = pydoc.render_doc(pf, renderer=pydoc.plaintext)
    missing = [name for name in pf.__all__
               if not re.search(rf"^    (class )?{name}\b", text, re.MULTILINE)]
    assert missing == []


# ToolkitError, the six other exported errors, the three caught by name
# outside the tests, and the four Room square conditions that validate_room
# reports; a new error class has to be added here on purpose
KEPT_ERRORS = {
    "ToolkitError", "OutOfRange", "RepeatedPoint", "PairViolation", "ParseError",
    "Exhausted", "SearchTooDeep", "NotMaximum", "BadCertificate", "RoomValidationError",
    "CellNotEdge", "EdgeMissingOrDoubled", "RowNotOneFactor", "ColNotOneFactor",
}


def test_error_classes_are_the_kept_ones():
    defined = []
    for info in pkgutil.iter_modules(pf.__path__):
        module = importlib.import_module(f"ppcforge.{info.name}")
        defined += [name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, pf.ToolkitError)
                    and obj.__module__ == module.__name__]
    assert sorted(defined) == sorted(KEPT_ERRORS)

