"""The benchmark tracer (`perfbench/tracer.py`) wraps nflab functions by name.

A refactor that drops or renames one of them breaks only the benchmark, so
this checks every (module, name) it lists against the package.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import BOUNDARIES  # noqa: E402


def test_every_traced_name_is_a_callable_of_nflab():
    missing = [f"nflab.{mod}.{name}" for mod, names in BOUNDARIES.items() for name in names
               if not callable(getattr(importlib.import_module(f"nflab.{mod}"), name, None))]
    assert sum(len(names) for names in BOUNDARIES.values()) >= 20
    assert missing == []


def test_the_rebound_names_are_the_traced_objects():
    # the tracer wraps fine_samples and apply_form in every module that binds them, and
    # perfbench's uninstall test reads these bindings
    from nflab import iterate, lattice, nullform
    assert iterate.fine_samples is lattice.fine_samples
    assert nullform.fine_samples is lattice.fine_samples
    assert iterate.apply_form is nullform.apply_form


def test_apply_form_routes_qtilde_through_the_patched_name(monkeypatch):
    # perfbench's test_broken_form_reports_failures skews qtilde by patching nullform._qtilde
    from nflab import nullform
    from nflab.lattice import SPACETIME, make_grid, random_field
    assert callable(getattr(nullform, "_qtilde", None))
    g = make_grid(2, 8, 8, 1.0, 1.0)
    u, v = random_field(g, SPACETIME, 1), random_field(g, SPACETIME, 2)
    calls, marker = [], object()
    monkeypatch.setattr(nullform, "_qtilde", lambda a, b: calls.append((a, b)) or marker)
    assert nullform.apply_form(nullform.BilinearFormSpec("qtilde"), u, v) is marker
    assert [(a is u, b is v) for a, b in calls] == [(True, True)]
