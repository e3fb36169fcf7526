"""Golden observability documents pinned by ``tests/test_obs/test_golden.py``."""
