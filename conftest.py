"""The suite, tests/ and bench/ alike, runs with no skips: a skipped test,
or a module skipped as a whole at collection, is reported as a failure."""

import pytest


def _fail_skip(report) -> None:
    if report.skipped and not hasattr(report, "wasxfail"):
        report.outcome = "failed"
        report.longrepr = ("skipped, and this suite allows no skips: "
                           f"{report.longrepr}")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    _fail_skip(outcome.get_result())


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    outcome = yield
    _fail_skip(outcome.get_result())
