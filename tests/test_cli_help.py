"""Every ``python -m repro.*`` entry point answers ``--help``.

``python -m repro.exps.scale --help`` crashed for several PRs on a bare
``%`` in one help string, because nothing ever asked.  The entry points
are found, not listed: any module under ``src/repro`` with a
``__main__`` guard is one.
"""

import pathlib
import runpy
import sys
import warnings

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent


def entry_points():
    for path in sorted(ROOT.rglob("*.py")):
        if 'if __name__ == "__main__":' not in path.read_text():
            continue
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__main__" else parts)


def test_the_entry_points_are_found():
    found = set(entry_points())
    assert {"repro.analysis", "repro.analysis.static", "repro.obs"} <= found
    assert {"repro.exps.all", "repro.exps.fig5", "repro.exps.scale"} <= found


@pytest.mark.parametrize("module", list(entry_points()))
def test_help_exits_zero(module, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [module, "--help"])
    with warnings.catch_warnings():
        # runpy notes that the module is already imported; harmless here.
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module(module, run_name="__main__")
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out
