"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` records layer spans by replacing module globals
and class attributes of the package with wrappers. A refactor that
renames or drops one of them breaks traced benchmark runs, which tier-1
does not run. This test loads the tracer from its file, installs it on
every package module, checks that each replaced attribute was defined in
``vecoff``, and puts the originals back.
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vecoff"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package() -> dict:
    """Every vecoff module, keyed as the tracer keys them (``rl.nets``)."""
    shorts = [
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    ]
    return {short: importlib.import_module(f"vecoff.{short}") for short in shorts}


def _defined_in_package(obj) -> bool:
    fn = getattr(obj, "__func__", obj)  # a classmethod or staticmethod
    return getattr(fn, "__module__", "").startswith("vecoff")


def test_every_traced_name_is_defined_in_the_package():
    probe = _load_tracer().Tracer("probe", 1)
    try:
        probe.install(_package())
        saved = probe.patched()
        assert len(saved) > 30
        foreign = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in saved
            if not _defined_in_package(original)
        ]
        assert foreign == []
    finally:
        probe.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in saved)
