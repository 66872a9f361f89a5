import pytest

from mcluster.arquiver import knit_module_category
from mcluster.derived import DerivedModel
from mcluster.quiver import preset

_worlds = {}


@pytest.fixture(scope="session")
def world():
    """Factory for cached (preset, m) derived models."""

    def get(name: str, m: int = 1) -> DerivedModel:
        key = (name, m)
        if key not in _worlds:
            _worlds[key] = DerivedModel(knit_module_category(preset(name)), m)
        return _worlds[key]

    return get
