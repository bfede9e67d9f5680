"""Every site the bench tracer wraps must exist in the package.

``bench/tracer.py`` looks traced functions and methods up by name; a
renamed or deleted one would fail only in a traced bench run.  The
first test loads its site tables without installing anything; the
second installs the tracer, which also wraps ``Fraction.__new__`` and
``Quad.__init__`` directly, and checks that uninstalling puts every
original object back.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import gometrics  # noqa: F401  (imports every traced module)
from gometrics.scalars import Quad

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracer = _load_tracer()
    sites = [site for table in (tracer.SPANS, tracer.COUNTS) for sites in table.values() for site in sites]
    assert sites
    missing = []
    for site in sites:
        module = importlib.import_module("gometrics." + site[0])
        if len(site) == 2:
            ok = callable(getattr(module, site[1], None))
        else:
            cls = getattr(module, site[1], None)
            # the tracer replaces the class's own attribute, not an inherited one
            ok = cls is not None and site[2] in vars(cls)
        if not ok:
            missing.append(".".join(site))
    assert not missing, f"traced sites not found: {missing}"


def _package_objects() -> dict:
    """Every module attribute and class attribute in the package, by id."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "gometrics" and not modname.startswith("gometrics."):
            continue
        for attr, value in vars(module).items():
            out[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    out[modname, attr, name] = member
    return out


def test_install_and_uninstall_restore_every_wrapped_object():
    tracer = _load_tracer().Tracer()
    new, init = Fraction.__dict__["__new__"], Quad.__dict__["__init__"]
    before = _package_objects()
    try:
        tracer.install()
        assert Fraction.__dict__["__new__"] is not new
        assert Quad.__dict__["__init__"] is not init
        assert _package_objects() != before
    finally:
        tracer.uninstall()
    assert Fraction.__dict__["__new__"] is new
    assert Quad.__dict__["__init__"] is init
    after = _package_objects()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, f"not restored: {changed}"
