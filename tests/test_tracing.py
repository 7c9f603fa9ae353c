"""The benchmark tracer's binding sites: every name it patches exists where
perfbench/tracing.py looks for it, and is put back afterwards. A refactor
that drops or renames a bound name fails here, not in a traced run."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_site_is_patched_and_restored():
    tracing = load_tracing()
    sites = []
    for owner_path, attr, _, _ in tracing.BINDINGS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module("resultantforge." + module)
        if cls:
            owner = getattr(owner, cls)
        # the tracer reads vars(owner)[attr]: the name must be bound there itself
        assert attr in vars(owner), f"{owner_path}.{attr} is not bound"
        sites.append((owner_path, owner, attr, vars(owner)[attr]))
    assert sites
    with tracing.Tracer().installed():
        for owner_path, owner, attr, original in sites:
            assert vars(owner)[attr] is not original, f"{owner_path}.{attr} was not patched"
    for owner_path, owner, attr, original in sites:
        assert vars(owner)[attr] is original, f"{owner_path}.{attr} was not restored"
