import os

import pytest

import g2kr


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports this g2kr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(g2kr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env
