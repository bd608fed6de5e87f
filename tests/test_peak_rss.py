"""The peak-RSS helper reads the child's own peak, not its parent's."""

import resource

from peak_rss import run_child


def test_a_child_peak_does_not_follow_the_test_process():
    ballast = b"\x01" * (200 << 20)  # written, so every page is resident
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 >= 200
    run = run_child(["-c", "pass"])
    assert run.exit_code == 0 and run.peak_mb < 30
    del ballast


def test_a_child_past_its_timeout_is_killed():
    run = run_child(["-c", "import time; time.sleep(60)"], timeout=0.5)
    assert run.exit_code == -9
