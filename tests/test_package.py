"""The package surface: ``__all__`` lists every public name, pydoc
documents each of them, a failure has its own error class only where a
caller tells it apart, and an order that is not an int is refused."""

import hashlib
import importlib
import pkgutil
import pydoc
import re

import pytest

import ppcforge as pf
from ppcforge.onefactor import rainbow_matching

from conftest import raises_exactly


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


# ToolkitError, the six other exported errors and the three caught by name
# outside the tests.  A class is kept only where a caller outside the tests
# tells it apart, so validate_room raises RoomValidationError alone: its
# message names the failed condition.  A new error class has to be added
# here on purpose
KEPT_ERRORS = {
    "ToolkitError", "OutOfRange", "RepeatedPoint", "PairViolation", "ParseError",
    "Exhausted", "SearchTooDeep", "NotMaximum", "BadCertificate", "RoomValidationError",
}


def test_error_classes_are_the_kept_ones():
    defined = []
    for info in pkgutil.iter_modules(pf.__path__):
        module = importlib.import_module(f"ppcforge.{info.name}")
        defined += [name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, pf.ToolkitError)
                    and obj.__module__ == module.__name__]
    assert sorted(defined) == sorted(KEPT_ERRORS)



# a float or a bool order is refused with the error class that the same
# function raises for an int order out of range, never truncated or used
@pytest.mark.parametrize("call,args,cls,message", [
    (pf.round_robin, (8.0,), pf.ToolkitError, "need an even order >= 2, got 8.0"),
    (rainbow_matching, (8.0,), pf.ToolkitError,
     "rainbow matchings are built for even orders >= 6, got 8.0"),
    (pf.max_packing, (5.0,), pf.OutOfRange, "need rho >= 1, got 5.0"),
    (pf.max_packing, (True,), pf.OutOfRange, "need rho >= 1, got True"),
    (pf.construct_bose, (9.0,), pf.ToolkitError, "need v = 3 mod 6, got 9.0"),
    (pf.gap_bound, (1.5,), pf.ToolkitError, "need rho >= 1, got 1.5"),
    (pf.gap_bound, (True,), pf.ToolkitError, "need rho >= 1, got True"),
    (pf.beta_lower, (1.0, 9), pf.ToolkitError, "need v >= 3*rho >= 3, got rho=1.0, v=9"),
    (pf.beta_upper, (True, 9), pf.ToolkitError, "need v >= 3*rho >= 3, got rho=True, v=9"),
    (pf.beta_upper, (1, 9.0), pf.ToolkitError, "need v >= 3*rho >= 3, got rho=1, v=9.0"),
    (pf.brute_beta, (1.0, 5), pf.ToolkitError, "need v >= 3*rho >= 3, got rho=1.0, v=5"),
    (pf.beta_exact_known, (1.0, 20), pf.ToolkitError,
     "need v >= 3*rho >= 3, got rho=1.0, v=20"),
    (pf.beta_exact_known, (2, 7.0), pf.ToolkitError, "need v >= 3*rho >= 3, got rho=2, v=7.0"),
    (pf.bound_table, (27, 2.0), pf.ToolkitError, "rho_max must be an int or None, got 2.0"),
    (pf.bound_table, (27, True), pf.ToolkitError, "rho_max must be an int or None, got True"),
    (pf.bound_table, ("9",), pf.OutOfRange, "point count must be a positive integer, got '9'"),
    (pf.bound_table, (27.0,), pf.OutOfRange, "point count must be a positive integer, got 27.0"),
    (pf.bound_table, (True,), pf.OutOfRange, "point count must be a positive integer, got True"),
    (pf.bound_table, (0,), pf.OutOfRange, "point count must be a positive integer, got 0"),
])
def test_a_non_int_order_is_refused(call, args, cls, message):
    with raises_exactly(message, cls):
        call(*args)
