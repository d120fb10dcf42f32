"""Install the run-time checks of ``tests/programs.py`` for every tier-1
test: the memory system's invariants in every visited cycle and the
stamp window on every comparison.  The fixture is session-scoped, so the
runs of module-scoped fixtures are checked too."""

import pytest
from programs import checking_invariants, checking_window


@pytest.fixture(scope="session", autouse=True)
def checked_runs():
    with checking_invariants(), checking_window():
        yield
