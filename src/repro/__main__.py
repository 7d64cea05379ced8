"""``python -m repro``: the :mod:`repro.cli` command line."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
