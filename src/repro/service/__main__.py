"""``python -m repro.service`` — run the query server as a process.

Kept separate from :mod:`repro.service.cli` so the module executed by
``-m`` is not also a module the package imports (which would load it
twice under two names).
"""

from .cli import main

if __name__ == "__main__":
    main()
