import pytest

from hazardrisk.cli import CONFIG_ENV_VAR


@pytest.fixture(scope="session", autouse=True)
def builtin_catalog():
    """Every test, module fixtures and bench/tests included, starts without
    the caller's $HAZARD_RISK_CONFIG, which would replace the built-in catalog."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        yield
