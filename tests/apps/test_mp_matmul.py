"""Tests for the message-passing matrix multiply (the SVM twin's rival)."""

import numpy as np
import pytest

from repro.apps.matmul import MatmulApp
from repro.apps.mp_matmul import MpMatmulApp, run_mp_matmul
from repro.exps.parallel import run_app


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_mp_matmul_matches_golden(nprocs):
    app, ivy = run_mp_matmul(nprocs, n=48)
    assert ivy.time_ns > 0


def test_mp_matmul_uses_no_shared_pages_for_data():
    app, ivy = run_mp_matmul(3, n=32)
    total = ivy.cluster.total_counters()
    # Message passing moves data explicitly: no SVM data-page coherence
    # faults beyond the few sync/stack pages the runtime itself touches.
    assert total["mp_sends"] >= 6  # 3 work + 3 result messages
    assert total["shared_bytes_written"] < 10_000


def test_mp_and_svm_matmul_agree_with_each_other():
    n, seed = 40, 9
    svm_result = run_app(lambda p: MatmulApp(p, n=n, seed=seed), 2).result
    app, ivy = run_mp_matmul(2, n=n, seed=seed)
    # Same inputs, same partitioning: identical numerical answers.
    assert np.allclose(svm_result, app.golden())


def test_mp_matmul_requires_binding():
    app = MpMatmulApp(2, n=16)
    from repro import ClusterConfig, Ivy

    ivy = Ivy(ClusterConfig(nodes=2))
    with pytest.raises(Exception, match="bind"):
        ivy.run(app.main)
