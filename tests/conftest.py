"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(cls, name) wraps the method cls.name for one test and
    returns the list it fills: the instance of each call, in call order."""

    def install(cls, name):
        calls = []
        real = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
        return calls

    return install
