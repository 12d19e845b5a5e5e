"""The model factories' own rules: both refuse the same inputs with the
same message, so no model name prices where its vol form would not."""

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
