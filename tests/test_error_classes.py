"""Each exception class of `gravshift.errors` names one kind of failure that
the package raises.

Every class in ``errors.__all__`` but the base `GravshiftError` is raised by
some ``raise`` statement of the package, and the base itself by none, so no
class is kept that is only caught, exported or documented.
"""

import ast

from gravshift import errors
from test_unused_imports import PACKAGE, _parse


def _raised_names():
    """The name of each class a ``raise`` of the package raises, called or not."""
    for path in PACKAGE:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    yield exc.id
                elif isinstance(exc, ast.Attribute):
                    yield exc.attr


def test_errors_exports_every_class_it_defines():
    defined = [name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert sorted(defined) == sorted(errors.__all__)


def test_every_error_class_but_the_base_is_raised():
    raised = set(_raised_names())
    assert "GravshiftError" not in raised
    assert [name for name in errors.__all__
            if name != "GravshiftError" and name not in raised] == []
