import ldfm


def test_every_public_name_resolves():
    assert len(set(ldfm.__all__)) == len(ldfm.__all__)
    missing = [name for name in ldfm.__all__ if not hasattr(ldfm, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ldfm import *", namespace)
    assert set(ldfm.__all__) <= namespace.keys()


def test_kernels_and_run_chain_stay_private_to_the_engine():
    from ldfm import sampling

    for name in ("gibbs_sweep", "tree_augmented_step", "run_chain"):
        assert name not in ldfm.__all__ and not hasattr(ldfm, name)
        assert callable(getattr(sampling, name))


def test_oracle_stays_off_the_top_level():
    from ldfm import oracle

    for name in (
        "brute_partition_and_posteriors",
        "brute_unnormalized_joint",
        "brute_valid_normalizer",
        "enumerate_rooted_trees",
        "exact_conditional",
    ):
        assert name not in ldfm.__all__ and not hasattr(ldfm, name)
        assert callable(getattr(oracle, name))
