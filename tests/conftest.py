import os

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow acceptance checks (bore refinement chain)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_child_left():
    # ratio tables fork workers; every test must have reaped all of them
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
