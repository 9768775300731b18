"""Guard for the benchmark's traced run: every (module, attribute) that
perfbench/tracing.py wraps must still exist, or `run.py --trace 1` stops
with a TraceError."""


def test_every_traced_layer_resolves(perfbench):
    import tracing

    for name, module_name, path in tracing.LAYERS:
        owner, attr, raw = tracing._resolve(module_name, path)
        assert callable(getattr(owner, attr)), f"{name}: {module_name}.{path} is not callable"
