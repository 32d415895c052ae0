"""The package's public names."""

import types

import sigbounds


class TestPublicNames:
    def test_every_name_resolves_and_none_is_a_module(self):
        assert len(set(sigbounds.__all__)) == len(sigbounds.__all__)
        for name in sigbounds.__all__:
            value = getattr(sigbounds, name)
            assert not isinstance(value, types.ModuleType), name

    def test_renamed_import_and_version_are_listed(self):
        assert "compile_regex" in sigbounds.__all__
        assert "compile" not in sigbounds.__all__
        assert "__version__" in sigbounds.__all__
