"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The zoos
are built once and cached on disk, so the first run pays the build cost
and later runs only pay the experiment itself.
"""

from __future__ import annotations

import pytest

from repro.zoo import ZooConfig, get_or_build_zoo


def pytest_addoption(parser):
    parser.addoption(
        "--fit-executor", action="store", default="thread",
        choices=("thread", "process", "both"),
        help="fit-executor axis for the async-router benches: run them "
             "with this executor ('both' parametrizes over the two); "
             "the thread-vs-process cold-fit speedup bench runs "
             "whenever 'process' is included")


def pytest_generate_tests(metafunc):
    if "fit_executor" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--fit-executor")
        modes = ("thread", "process") if choice == "both" else (choice,)
        metafunc.parametrize("fit_executor", modes)


@pytest.fixture(scope="session")
def image_zoo():
    return get_or_build_zoo(ZooConfig.default(modality="image", seed=0))


@pytest.fixture(scope="session")
def text_zoo():
    return get_or_build_zoo(ZooConfig.default(modality="text", seed=0))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
