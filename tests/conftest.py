import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def mini():
    from phenobert_ray.assets.mini_hpo import mini_dag

    return mini_dag()


@pytest.fixture(scope="session")
def sf_small():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def mini_session_dag():
    # function-scoped hypothesis tests need a session fixture alias that
    # hypothesis accepts (no function-scoped fixtures in @given)
    from phenobert_ray.assets.mini_hpo import mini_dag

    return mini_dag()


@pytest.fixture(scope="session")
def shipped_dag():
    """The shipped 14k-node ontology (assets/trained/DAG.json)."""
    import json
    from importlib.resources import files

    from phenobert_ray.assets.hpo_dag import HpoDag

    return HpoDag(json.loads(
        files("phenobert_ray.assets").joinpath("trained/DAG.json").read_text()))
