"""Shared test set-up."""

import os
from pathlib import Path

import pytest

import powersidon


@pytest.fixture(autouse=True)
def _package_on_child_path(monkeypatch):
    # tests that start `python -m powersidon` need the child to import the
    # package under test, also from a checkout that is not installed
    src = str(Path(powersidon.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
