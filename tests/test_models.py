"""The model factories' own rules: both refuse the same inputs with the
same message, so no model name prices where its vol form would not."""

import numpy as np
import pytest

from sabrkit import DomainError, SabrParams, price_fn_for_model, vol_fn_for_model

NO_KAPPA = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)


@pytest.mark.parametrize("factory", [price_fn_for_model, vol_fn_for_model])
def test_kappa_model_requires_mean_reversion(factory):
    # at kappa0 = 0 the model is sa2, which has its own name
    with pytest.raises(DomainError, match=r"^model 'kappa' requires kappa0 > 0$"):
        factory("kappa", NO_KAPPA)


@pytest.mark.parametrize("factory", [price_fn_for_model, vol_fn_for_model])
def test_kappa_model_with_mean_reversion(factory):
    params = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3, kappa0=1.0, theta=0.2)
    assert callable(factory("kappa", params))


def test_unknown_price_model():
    with pytest.raises(DomainError) as exc:
        price_fn_for_model("foo", NO_KAPPA)
    assert str(exc.value) == (
        "unknown model 'foo'; expected one of ('sa2', 'd', 'h', 'bs', 'kappa')"
    )


def test_unknown_vol_model():
    with pytest.raises(DomainError) as exc:
        vol_fn_for_model("foo", NO_KAPPA)
    assert str(exc.value) == "no implied-vol form for model 'foo'"


@pytest.mark.parametrize("model", ["sa2", "kappa", "bs"])
def test_point_by_point_vol_on_arrays_is_the_float_calls(model):
    # these vol forms run a scalar function point by point; on a (3, 5)
    # open mesh of (t, y) the array call broadcasts to the float calls
    params = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3, kappa0=1.0 if model == "kappa" else 0.0,
                        theta=0.25)
    t, y = np.ix_([0.25, 1.0, 2.0], [-0.3, -0.1, 0.0, 0.2, 0.4])
    fn = vol_fn_for_model(model, params)
    got = fn(y, t)
    assert isinstance(got, np.ndarray) and got.shape == (3, 5)
    want = [[fn(float(yj), float(ti)) for yj in y[0]] for ti in t[:, 0]]
    assert all(isinstance(v, float) for row in want for v in row)
    assert (got == np.array(want)).all()
