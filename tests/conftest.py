"""Fixtures shared by the test modules."""

import pytest

import sidonlab.sets as sets_module


@pytest.fixture
def profile_calls(monkeypatch):
    """Sets passed to sets.representation_profile while the test runs."""
    seen = []
    real = sets_module.representation_profile

    def counted(s):
        seen.append(s)
        return real(s)

    monkeypatch.setattr(sets_module, "representation_profile", counted)
    return seen
