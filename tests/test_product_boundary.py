"""The phenotype KG engine stands without ``phenobert_ray.functions``.

``functions/`` holds an operator outside the query registry; the KG
surfaces — the annotate pipeline, the HTTP server, the Python API and the
CLI — must never import it, so cutting it can never change the KG path."""

import os
import subprocess
import sys

_PROBE = """
import sys
import phenobert_ray.pipelines.annotate
import phenobert_ray.serve
import phenobert_ray.api
import phenobert_ray.__main__
print("\\n".join(sorted(m for m in sys.modules
                        if m.startswith("phenobert_ray.functions"))))
"""


def test_kg_surfaces_do_not_import_functions():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.run([sys.executable, "-c", _PROBE], cwd=root,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "", p.stdout
