"""Shared test plumbing: one hypothesis profile for every property test,
and the acceptance one-liners collected for the final summary."""

from hypothesis import settings

# no deadline (the exact kernels vary widely in time per example) and no
# example database; each test sets its own max_examples
settings.register_profile("nilflow", deadline=None, database=None)
settings.load_profile("nilflow")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
