"""Every site the bench tracer wraps must exist in the package.

``bench/tracer.py`` looks traced functions and methods up by name; a
renamed or deleted one would fail only in a traced bench run.  This
test loads its site tables without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import gometrics  # noqa: F401  (imports every traced module)

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
