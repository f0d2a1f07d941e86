"""Setup shared by every test module."""

import warnings

# When a property test fails, hypothesis imports hypothesis.extra._patching to
# suggest a patch. That imports libcst, which warns that
# mypy_extensions.TypedDict is deprecated; under pyproject.toml's
# error::DeprecationWarning filter the import raises, and pytest shows an
# INTERNALERROR instead of the failure. Importing it here, with that one
# warning ignored, keeps the failure report.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis suggests no patch
        pass
