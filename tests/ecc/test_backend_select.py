"""Backend selection: env/CLI resolution, rejected names, cache keys."""

import random

import pytest

from repro.ecc import backend as backend_mod
from repro.ecc import matrix
from repro.ecc.backend import (
    available_backends,
    get_engine,
    requested_backend,
    reset_backend,
    selected_backend,
    selection_info,
    set_backend,
)
from repro.ecc.bch import BchCode
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Every test starts from an unresolved selection state."""
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    reset_backend()
    yield
    reset_backend()


class TestResolution:
    def test_default_is_auto(self):
        assert requested_backend() == "auto"
        assert selected_backend() == "bitsliced"
        assert get_engine().name == "bitsliced"
        assert selection_info() == {"requested": "auto", "selected": "bitsliced"}

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "matrix")
        assert selected_backend() == "matrix"
        assert get_engine() is None

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "matrix")
        set_backend("bitsliced")
        assert selected_backend() == "bitsliced"
        assert get_engine().name == "bitsliced"

    def test_unknown_names_rejected(self, monkeypatch):
        for name in ("cuda", "numpy"):
            reset_backend()
            with pytest.raises(ConfigurationError):
                set_backend(name)
            monkeypatch.setenv(backend_mod.ENV_VAR, name)
            with pytest.raises(ConfigurationError):
                selected_backend()

    def test_matrix_and_bitsliced_always_available(self):
        assert available_backends() == ["matrix", "bitsliced"]

    def test_metrics_export_carries_selection(self):
        set_backend("matrix")
        registry = MetricsRegistry()
        registry.record_codec_backend()
        assert registry.namespace("ecc.backend") == {
            "requested": "matrix",
            "selected": "matrix",
        }


class TestCacheKeying:
    """Regression: compiled tables must be keyed by (backend, code params).

    Before the fix, ``cached_tables`` keyed on code parameters alone, so
    switching backends mid-process could hand one fold path another
    engine's tables.  The effective key now leads with the backend name.
    """

    def test_same_params_distinct_backends_distinct_entries(self):
        built = []

        def builder_for(tag):
            def build():
                built.append(tag)
                return tag
            return build

        key = ("regression-code", 6, 516)
        a = matrix.cached_tables(key, builder_for("matrix-tables"))
        b = matrix.cached_tables(
            key, builder_for("bitsliced-maps"), backend="bitsliced"
        )
        assert (a, b) == ("matrix-tables", "bitsliced-maps")
        assert built == ["matrix-tables", "bitsliced-maps"]
        # Second lookups hit, never cross-talk.
        assert matrix.cached_tables(key, builder_for("X")) == "matrix-tables"
        assert matrix.cached_tables(
            key, builder_for("X"), backend="bitsliced"
        ) == "bitsliced-maps"

    def test_codec_batches_never_share_maps_across_backends(self):
        """Driving one code through both paths builds a separate map entry."""
        matrix.clear_table_cache()
        code = BchCode(t=1, data_bits=24)
        rng = random.Random(8)
        datas = [rng.getrandbits(24) for _ in range(40)]
        set_backend("matrix")
        words = code.encode_batch(datas)
        entries_after_matrix = matrix.table_cache_info()["entries"]
        set_backend("bitsliced")
        assert code.encode_batch(datas) == words
        assert matrix.table_cache_info()["entries"] > entries_after_matrix
