"""Fixtures shared across the test tree."""

import pytest

from repro.cli import main


@pytest.fixture
def usage_error(capsys):
    """Run the CLI on ``argv`` and assert argparse refused it as a usage
    error (exit 2) whose stderr names every one of ``needles``; returns
    that stderr."""

    def check(argv, *needles):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, err
        for needle in needles:
            assert needle in err, err
        return err

    return check
