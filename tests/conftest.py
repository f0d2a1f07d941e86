"""Setup and helpers shared by every test module."""

import os
import sys
import warnings

import pytest

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


def use_cpus(monkeypatch, count):
    """Let every step that forks see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def wrap_in_package(monkeypatch, original, wrapper):
    """Bind ``wrapper`` in place of ``original`` in every ``alarm_pipeline``
    module namespace that holds it, as the traced benchmark run does: the
    package binds names at import (``from .temporal import extract_alarms``)."""
    for name, module in list(sys.modules.items()):
        if name == "alarm_pipeline" or name.startswith("alarm_pipeline."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def count_forks(monkeypatch):
    """A list that grows by one at each fork this process makes."""
    fork, forks = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
