import numpy as np
import pytest
from numpy.testing import assert_allclose

from opmeanlab import (
    EXP_MINUS_ONE,
    IDENTITY,
    RepresentingFunction,
    custom_scalar,
    increasing_on,
    is_operator_monotone,
    midpoint_concave,
    power_function,
    scaled_power_function,
    validate_representing,
)


class TestCatalog:
    def test_values(self):
        t = np.array([0.25, 1.0, 4.0])
        assert_allclose(IDENTITY(t), t)
        assert_allclose(power_function(2.0)(t), t**2)
        assert_allclose(scaled_power_function(3.0, 0.5)(t), 3.0 * np.sqrt(t))
        assert_allclose(EXP_MINUS_ONE(np.array([0.0])), [0.0])

    def test_names(self):
        assert IDENTITY.name == "identity"
        assert power_function(0.5).name == "power:0.5"
        assert scaled_power_function(2.0, 3.0).name == "spower:2,3"
        assert EXP_MINUS_ONE.name == "expm1"

    def test_validation(self):
        with pytest.raises(ValueError):
            power_function(-1.0)
        with pytest.raises(ValueError):
            scaled_power_function(0.0, 1.0)
        with pytest.raises(ValueError):
            scaled_power_function(1.0, -2.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                power_function(bad)
            with pytest.raises(ValueError, match="coefficient must be positive and finite"):
                scaled_power_function(bad, 1.0)
            with pytest.raises(ValueError, match="power must be nonnegative and finite"):
                scaled_power_function(1.0, bad)


class TestCustom:
    def test_accepts_increasing_nonnegative(self):
        fn = custom_scalar("log1p", np.log1p)
        assert fn.name == "log1p"
        assert_allclose(fn(np.e - 1.0), 1.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            custom_scalar("recip", lambda t: 1.0 / (1.0 + t))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            custom_scalar("shifted", lambda t: t - 10.0)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite values on the sample grid"):
            custom_scalar("overflow", lambda t: np.where(t > 1.0, np.inf, t))

    def test_rejects_scalar_only_handle(self):
        with pytest.raises(ValueError, match="vectorized"):
            custom_scalar("bad", lambda t: 1.0)


class TestProbes:
    def test_operator_monotone_classification(self):
        assert is_operator_monotone(IDENTITY)
        assert is_operator_monotone(power_function(0.5))
        assert is_operator_monotone(power_function(1.0))
        assert not is_operator_monotone(power_function(2.0))
        assert is_operator_monotone(scaled_power_function(4.0, 0.25))
        assert not is_operator_monotone(scaled_power_function(2.0, 3.0))
        assert not is_operator_monotone(EXP_MINUS_ONE)

    def test_operator_monotone_probe_refutes_square(self):
        # a custom wrapper hides the analytic classification, so the 2x2
        # probe has to find an order-breaking pair on its own
        fn = custom_scalar("square", lambda t: t**2)
        assert not is_operator_monotone(fn)

    def test_operator_monotone_probe_passes_sqrt(self):
        fn = custom_scalar("root", np.sqrt)
        assert is_operator_monotone(fn)

    def test_midpoint_concave(self):
        assert midpoint_concave(np.sqrt, 1.0, 2.0)
        assert midpoint_concave(lambda t: t, 1.0, 2.0)
        assert not midpoint_concave(lambda t: t**2, 1.0, 2.0)

    def test_increasing_on(self):
        assert increasing_on(np.expm1, 0.5, 3.0)
        assert increasing_on(lambda t: np.full_like(t, 2.0), 0.5, 3.0)
        assert not increasing_on(lambda t: -t, 0.5, 3.0)


def _log_mean(t):
    t = np.asarray(t, dtype=float)
    near_one = np.isclose(t, 1.0)
    return np.where(near_one, 1.0, (t - 1.0) / np.where(near_one, 1.0, np.log(t)))


def _donoghue(t):
    # t/(1+t) up to t = 2, then the tangent-slope line 2/3 + (t-2)/9: C^1,
    # and 2-monotone by Donoghue's criterion since (f')^(-1/2) = min(1+t, 3)
    # is concave, but not operator monotone, since it is not analytic at 2
    t = np.asarray(t, dtype=float)
    return np.where(t < 2.0, t / (1.0 + t), 2.0 / 3.0 + (t - 2.0) / 9.0)


def _normalized(handle):
    return RepresentingFunction("custom", handle=lambda t: handle(t) / handle(1.0))


MONOTONE = [
    ("sqrt", np.sqrt),
    ("log1p", np.log1p),
    ("log-mean", _log_mean),
    ("t^0.999", lambda t: t**0.999),
    ("constant", lambda t: np.full_like(t, 2.0)),
]
NOT_MONOTONE = [
    ("t^2", lambda t: t**2),
    ("t^1.05", lambda t: t**1.05),
    ("arctan", np.arctan),
    ("donoghue", _donoghue),
    # finite on the custom_scalar grid, NaN at the Loewner probe's last slope node
    ("nan-past-1e3", lambda t: np.where(t > 1e3, np.nan, t)),
]


class TestLoewnerProbe:
    """One deterministic Loewner-matrix test decides both monotonicity probes."""

    def test_refutes_a_two_monotone_function(self):
        # random ordered 2x2 pairs cannot refute this function; its Loewner
        # matrix on 32 nodes has a clearly negative eigenvalue
        assert not is_operator_monotone(custom_scalar("donoghue", _donoghue))
        report = validate_representing(_normalized(_donoghue))
        assert report.passed
        assert not report.monotone_ok
        assert_allclose(report.worst_margin, -0.78, atol=0.01)

    @pytest.mark.parametrize("name, handle", MONOTONE, ids=[n for n, _ in MONOTONE])
    def test_passes(self, name, handle):
        assert is_operator_monotone(custom_scalar(name, handle))
        assert validate_representing(_normalized(handle)).monotone_ok

    @pytest.mark.parametrize("name, handle", NOT_MONOTONE, ids=[n for n, _ in NOT_MONOTONE])
    def test_refutes(self, name, handle):
        assert not is_operator_monotone(custom_scalar(name, handle))
        report = validate_representing(_normalized(handle))
        assert not report.monotone_ok
        assert report.worst_margin < -0.5

    def test_probes_draw_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("a probe constructed a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert not is_operator_monotone(custom_scalar("donoghue", _donoghue))
        assert not validate_representing(_normalized(_donoghue)).monotone_ok
        assert midpoint_concave(_donoghue, 0.5, 4.0)
        assert not midpoint_concave(np.expm1, 0.5, 4.0)
        assert increasing_on(_donoghue, 0.5, 4.0)
