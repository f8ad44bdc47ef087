"""Golden byte pins for small DSE runs.

Every other DSE test compares one run with another (same seed, or a
resumed copy).  These pin the SHA-256 of ``archive.json`` and
``trajectory.jsonl`` for five fixed configurations, so any change to how
candidates are proposed, screened, evaluated or archived shows up as a
digest mismatch — including refactors of the thermal screen, whose
scores decide which placement move a mutation keeps.

The ``counts=(8,)`` run is the configuration where more placement moves
touch few enough thermal nodes to matter for screening; the other four
cover each strategy at the default counts.  Regenerate the digests only
when a change of results is intended, and say why.
"""

import hashlib

import pytest

from repro.dse import DseConfig, run_dse

GOLDEN = [
    (
        "random", (4,),
        "e60ac4cb3bffb6a8954c9021ee6f7e26161bba09c0041e7a4ef6e73c8b429207",
        "3a77dfc5623b6b3ba71f79fe423bd65c53c71b46fa3ad4ee21a6d2c8e0a805f9",
    ),
    (
        "greedy", (4,),
        "cd3cb456ac1650cbe951dc1258fdf413e49dc3e86588c9180d9659d2f17b5e6b",
        "689ccc43f758414115edc1a28be23b3d23229645d3a5de742ddaee492c743b31",
    ),
    (
        "annealing", (4,),
        "23fa173bac73fb96c2d482c5f1494bbfc2d231ad8c12a980be4a1aa278c2aba4",
        "7e89f4987df4ea183656cfff7f3621cf9aea823ce7ade0a31d222ba753594cb6",
    ),
    (
        "nsga2", (4,),
        "62c65841b277621f35dd4d92cd9df4cf946fa0dbabe3127262aad4cc58a7cef3",
        "2dc429c303dd43a714516e6efe5c8130d836a7fa0832eb4676d99876c6937d15",
    ),
    (
        "nsga2", (8,),
        "61564ee6c1ec36018f91e28121b456282cadbec52df1ed7769622e86e4cead13",
        "972914965e850e89b47d2643623bf9a4c2bd6af1b1f5afe8fabad4c23e92ef1b",
    ),
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "strategy,counts,archive_sha,trajectory_sha",
    GOLDEN,
    ids=[f"{strategy}-counts{counts[0]}" for strategy, counts, _, _ in GOLDEN],
)
def test_dse_run_matches_golden_digest(
    strategy, counts, archive_sha, trajectory_sha, tmp_path
):
    config = DseConfig(
        benchmark="Bm1",
        strategy=strategy,
        seed=7,
        generations=4,
        population=6,
        counts=counts,
        policies=("thermal", "heuristic3"),
        dvfs_options=(False,),
    )
    run_dse(config, tmp_path)
    assert sha256(tmp_path / "archive.json") == archive_sha
    assert sha256(tmp_path / "trajectory.jsonl") == trajectory_sha
