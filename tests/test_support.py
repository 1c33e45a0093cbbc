"""The suite's own tooling."""

import time

import pytest
from support import time_limit


def test_time_limit_fails_a_loop_that_never_ends():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match=r"time limit of 0\.1 s exceeded"):
        with time_limit(0.1):
            while True:
                time.sleep(0.01)
    assert time.monotonic() - start < 5

