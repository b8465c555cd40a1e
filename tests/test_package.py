"""The package's public surface: ``rmtlaw.__all__`` names exactly what the
package namespace exports."""

import types

import rmtlaw


def test_all_matches_public_namespace():
    exported = rmtlaw.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(rmtlaw, name), name
    public = {
        name
        for name, value in vars(rmtlaw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
