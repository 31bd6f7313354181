"""Prints the numpy and BLAS set-up before the run and one verdict line per acceptance criterion after it."""

import contextlib

ACCEPTANCE_TESTS = {
    "test_criterion_1_gradient_correctness": (1, "analytic gradients match finite differences"),
    "test_criterion_2_loss_oracles": (2, "loss closed forms and unit quadrature"),
    "test_criterion_3_homoscedastic_recovery": (3, "shared scale recovers the true noise level"),
    "test_criterion_4_heteroscedastic_recovery": (4, "predicted scale tracks the true scale"),
    "test_criterion_5_selective_risk_ordering": (5, "learned score beats variance at keep 25%"),
    "test_criterion_6_error_keep_machinery": (6, "curve monotonicity and rank invariance"),
    "test_criterion_7_error_score_correlation": (7, "score correlates with realized error"),
    "test_criterion_8_baselines_sanity": (8, "trained model beats naive baselines"),
    "test_criterion_9_determinism": (9, "byte-identical datasets and checkpoints"),
}


def pytest_report_header(config):
    """numpy, its BLAS and the OpenBLAS thread count in effect, which every timing depends on."""
    import numpy as np

    blas = threads = "unknown"
    # the header must not stop the run: an older numpy, broken package code or no known symbol
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
        from forecast_uq.cli import _openblas_threads

        threads = _openblas_threads()[0]()
    return f"numpy {np.__version__}, BLAS {blas}, OpenBLAS threads {threads}"


def pytest_terminal_summary(terminalreporter):
    verdicts = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "").rsplit("::", 1)[-1].split("[")[0]
            if name in ACCEPTANCE_TESTS:
                number, label = ACCEPTANCE_TESTS[name]
                ok = status == "passed" and verdicts.get(number, (label, True))[1]
                verdicts[number] = (label, ok)
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(verdicts):
        label, ok = verdicts[number]
        terminalreporter.write_line(
            f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
        )
