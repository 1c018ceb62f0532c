"""Server process of the serve_ner workload.

Builds ``phenobert_ray.serve.make_server`` over the packaged ontology
(``HpoDag(json.load(DAG.json))``), the builtin scorer and the builtin
``ner_np`` tagger, prints the bound port on one stdout line and serves until
terminated.

    python3 kgperf/server.py <checkout root>
"""

import os
import sys


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, root)
    from benchutil import MIN_DAG_PHRASES, load_dag, load_ner, load_scorer, model_config

    from phenobert_ray.serve import make_server

    dag = load_dag(root)
    if len(dag.phrase2hpo) < MIN_DAG_PHRASES:
        print(f"ontology loaded {len(dag.phrase2hpo)} phrases", file=sys.stderr)
        return 2
    state = (dag, load_scorer(dag, model_config()), load_ner())
    srv = make_server("127.0.0.1", 0, state)
    print(srv.server_address[1], flush=True)
    try:
        srv.serve_forever()
    finally:
        srv.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
