"""``scipy.stats`` stays off the import graph and the campaign path.

``import scipy.stats`` costs more than the rest of ``repro.cli``'s imports
together, and no campaign needs it: the library imports it only inside the
functions that call it, and the layerwise depth correlation
(``rank_correlation``) computes its statistics without it. The gate runs in a fresh interpreter, so modules
other tests imported do not mask a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent(
    """
    import sys

    import numpy as np

    import repro.cli  # noqa: F401
    import repro.obs as obs
    from repro.core import BayesianFaultInjector, LayerwiseCampaign, ProbabilitySweep
    from repro.data import two_moons
    from repro.exec import ForwardSpec, McmcSpec
    from repro.nn import paper_mlp
    from repro.obs.estimator import EstimatorTracker

    def assert_no_scipy_stats(where):
        assert "scipy.stats" not in sys.modules, f"scipy.stats loaded by {where}"

    assert_no_scipy_stats("import repro.cli")
    x, y = two_moons(24, noise=0.1, rng=0)
    model = paper_mlp(rng=0).eval()
    injector = BayesianFaultInjector(model, x, y, seed=0)
    injector.run(ForwardSpec(p=1e-2, samples=8))
    assert_no_scipy_stats("a forward campaign")
    injector.run(McmcSpec(p=1e-2, chains=2, steps=4))
    assert_no_scipy_stats("a chain campaign")
    LayerwiseCampaign(model, x, y, p=1e-2, samples=4).run()
    assert_no_scipy_stats("a layerwise campaign")

    tracker = EstimatorTracker()
    with obs.Session(sinks=[tracker]):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-3, -0.5, 6)), spec=ForwardSpec(p=1e-3, samples=8)
        ).run()
    fit = sweep.fit_regimes()
    assert 0.0 <= fit.f_test_p <= 1.0
    assert 0.0 < tracker.estimates()["overall"]["halfwidth"] < 0.5
    assert_no_scipy_stats("a sweep, its knee fit and the estimator's half-width")

    from repro.analysis.stats import rank_correlation

    rho = rank_correlation(np.arange(5.0), np.array([1.0, 3.0, 2.0, 5.0, 4.0]))["spearman_rho"]
    assert abs(rho - 0.8) < 1e-12, rho
    ties = rank_correlation(np.arange(40.0), np.arange(40.0) // 3)
    assert ties["kendall_tau"] > 0.9 and ties["kendall_p"] < 1e-6, ties
    assert_no_scipy_stats("rank_correlation, exact and tied")
    print("ok")
    """
)


def test_campaign_path_never_imports_scipy_stats():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
