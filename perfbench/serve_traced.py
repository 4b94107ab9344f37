"""Run the service CLI with the layer wrappers installed in its process.

Usage::

    python perfbench/serve_traced.py LAYERS.json serve --store DIR --port N --quiet

Installs :func:`layers.install` and then hands the remaining arguments to
``repro.cli.main``, so the traced server has the same process layout as an
untraced ``python -m repro serve``.  When the server exits (``POST
/shutdown``), the per-layer totals are written to ``LAYERS.json``.
"""

from __future__ import annotations

import json
import sys

from layers import LayerTracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
