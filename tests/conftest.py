import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohalab import PathOrder
# the fixture builders live with the shared checks; test modules import them from here
from cohalab.checks import framed_a2, framed_loops, loop_quiver, vertex_only


@pytest.fixture
def two_loop():
    return framed_loops(2, 1)


@pytest.fixture
def two_loop_double_framing():
    return framed_loops(2, 2)


@pytest.fixture
def a2():
    return framed_a2(1)


@pytest.fixture
def shortlex():
    return PathOrder.shortlex()


@pytest.fixture
def lex():
    return PathOrder.lex()
