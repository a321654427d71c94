"""Acceptance gate: every criterion at its pinned tolerance, one line each."""

from embedlens import acceptance


def _run(fn):
    result = fn()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_1_embedding_oracle():
    _run(acceptance.criterion_1_embedding_oracle)


def test_criterion_2_snf_certificates():
    _run(acceptance.criterion_2_snf_certificates)


def test_criterion_3_necessity():
    _run(acceptance.criterion_3_necessity)


def test_criterion_4_stability_diagonalization():
    _run(acceptance.criterion_4_stability_diagonalization)


def test_criterion_5_coupling_identity():
    _run(acceptance.criterion_5_coupling_identity)


def test_criterion_6_correlation_decay():
    _run(acceptance.criterion_6_decay)


def test_criterion_7_dictatorship_completeness():
    _run(acceptance.criterion_7_dicttest_completeness)


def test_criterion_8_reduction_constructions():
    _run(acceptance.criterion_8_reduction_constructions)


def test_criterion_9_product_ascent():
    _run(acceptance.criterion_9_product_ascent)


def test_criterion_10_cauchy_schwarz():
    _run(acceptance.criterion_10_cauchy_schwarz)


def test_a_failing_criterion_reports_its_first_five_failures(monkeypatch):
    monkeypatch.setattr(acceptance, "run_test_exact", lambda inst, f, n: 0)
    result = acceptance.criterion_7_dicttest_completeness()
    assert not result.passed
    assert result.details == "; ".join(f"3lin n={n} dictator {j}: exact 0"
                                       for n, j in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1)))
    assert result.line() == f"[FAIL] criterion 7 (dictatorship-completeness): {result.details}"
