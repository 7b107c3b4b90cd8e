"""Golden digests of a cold shared-store build, per dataset and policy.

A cold :meth:`PairFeatureStore.build` is pinned four ways, each as a
sha256 so a refactor of the build path cannot drift by a single bit:

* ``matrix`` -- the bytes of every universe row gathered at full width
  (float32);
* ``pairs`` -- the universe's ``(left, right, label)`` sequence;
* ``memo`` -- the insertion order of the in-process name-distance memo
  (it is FIFO-evicted and recorded to the persistent cache in that
  order, so the order is behaviour, not an accident);
* ``counters`` -- the pipeline's ``name_distance.computed`` /
  ``name_distance.cache_hit`` (distinct name pairs sent to the kernel),
  ``pair_diff`` (zero: no pair row is computed at build) and
  ``property_aggregate`` counts.

Each case starts from an empty distance memo and a fresh pipeline.
"""

import hashlib
import json

import pytest

from repro.blocking.policy import CandidatePolicy
from repro.core import PairFeatureStore
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import clear_distance_memo
from repro.datasets import build_domain_embeddings, load_dataset

from tests.conftest import full_matrix

PINNED_COUNTERS = (
    "name_distance.computed",
    "name_distance.cache_hit",
    "pair_diff",
    "property_aggregate",
)

GOLDEN = {
    ("headphones", "null"): {
        "matrix": "0b74025c03adf89f45291f6b0e358ba1654bbd847e5dd2804610f917f04c23f0",
        "pairs": "70ea85c9f82c2d029ae0ad956608bf49409e0816ee1c47bdf660261381702091",
        "memo": "f705f0c9efa02459faf5bf9f3d6959ad244f22ab207da87a7f98894ba86e12b7",
        "counters": "fd8c5eaf0ab03b632ba41ce9ec3cd825f07895b68df3de753ecf347c11df9c26",
    },
    ("headphones", "minhash"): {
        "matrix": "a6e0f6b2e03fadfafef39c3cf80560f40e88e8771a856dbf2bf4ee4c95014b47",
        "pairs": "1f287052cb65aecc5f0158a61c66aa6c4ca844dc5b5e486735069f122871a666",
        "memo": "463690e294354928d86c685704ef1ffca9f77d626576367e65106064682882f7",
        "counters": "5f9824cc5854a08996b6f379978b77fc22f1385bedf5ccca2a43b75fada3cc7f",
    },
    ("phones", "null"): {
        "matrix": "1256516f1e2c05f1ba4681984befcce58992c3997612221cda8e1f48b512b5c7",
        "pairs": "814fc1fe1af207f5025c67e001d1c0f7385be65c4c87201a620bc4eb22fcd3fc",
        "memo": "f6118270c610b80a24459639d8408120c4b4f78b6bc4c3c6f3d5d5d2e39b8e8f",
        "counters": "37de43eb537792892d79f04bc7b2a8f7265867755d2cd9be699c85850af5313f",
    },
    ("phones", "minhash"): {
        "matrix": "57fb3c2cdd4add7945bd287f433a1d673fe3841310b8c446fdb24f8aa565996e",
        "pairs": "905c0f4b1f3254bc33e87230e55d286866862efcdbc96cbe882c5b1b9c251481",
        "memo": "911c1adce76e0801fcf691e03bbee18fcb031cd3b8609e050f3b90d5fd2ec5c9",
        "counters": "f6d2504f1a80aac9e24304faa3fb0d39c7d4b483c6ab4acb04db9daf7bb67cb2",
    },
    ("tvs", "null"): {
        "matrix": "af28dbac2f73df98208541751e7bc3c478abfa255e84936eea5ad2f46693a5b5",
        "pairs": "caaebd8aba4aa477c11dae227376d87221a928caa1ce6a9ec69e8b829e5a44b4",
        "memo": "680309171dbd533c59de4951d7715e31f03eb07356086a287c85a10e909be7f9",
        "counters": "6a4e15851ebf9754b5c52b5f5442a503665dcd1080b6e81f3332d1daff43983f",
    },
    ("tvs", "minhash"): {
        "matrix": "c50ca0ebb23a10522423ecd8b1b790f68a46299db5e3d0fa6745e2c10182712c",
        "pairs": "a168bd50c886833c1cb7ad20e67b26139908fde35a10618d9fffc79988e3a0f9",
        "memo": "868bd5dfc70cf0fc90d500b6b43a7270275d68fb5bee4e1b2b430c965166476a",
        "counters": "a94f8dd83962f48b5d253b7d3e15b70a681f8d0a211334230160461300eac0b1",
    },
    ("cameras", "null"): {
        "matrix": "9edf74324899f5c2bbfbe8d7931b3183e00780ff5239ba797a83deb806df97c3",
        "pairs": "c40ac3bf36367b74cfa2d4fc11f385ec33633c667ceeccfec87bc160a0d67879",
        "memo": "f2cbeb95a8a9c772f9f9b99a2cdb763765f636dda38f03db4d712082e05f09dd",
        "counters": "1044bf90ee2d3c37748d167366c6a974d484cdd38a0d23ee97272a16f59ec9cf",
    },
    ("cameras", "minhash"): {
        "matrix": "c9f9b6491c1964bb227c096bae0f14104483f987657bd19ac90d12eeda77c7eb",
        "pairs": "32386d842418790e6f692f3f1dc07def6358db2f4b86ad2f06afa1ad31503613",
        "memo": "020f21290ea0ef624a751a366a419e88628a5789b344b5c685c07f966f00e20a",
        "counters": "a1506776b13b8ae48696cc6862fb87cc4c779ed2892d211c6f7a34717b4f0aa9",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_digests(domain: str, policy_label: str) -> dict[str, str]:
    """The four digests of a cold small-scale store build."""
    dataset = load_dataset(domain, scale="small", seed=0)
    embeddings = build_domain_embeddings(domain, scale="small")
    policy = CandidatePolicy.from_label(policy_label)
    clear_distance_memo()
    try:
        store = PairFeatureStore.build(dataset, embeddings, policy=policy)
        memo_keys = list(pipeline_module._DISTANCE_CACHE)
        matrix = full_matrix(store)
    finally:
        clear_distance_memo()
    pairs = "\n".join(
        f"{p.left.source}\x1f{p.left.name}\x1f{p.right.source}\x1f"
        f"{p.right.name}\x1f{int(p.label)}"
        for p in store.universe.pairs
    )
    calls = store.pipeline.stage_calls
    counters = {name: int(calls.get(name, 0)) for name in PINNED_COUNTERS}
    return {
        "matrix": _sha(matrix.tobytes()),
        "pairs": _sha(pairs.encode("utf-8")),
        "memo": _sha("\n".join(f"{a}\x1f{b}" for a, b in memo_keys).encode("utf-8")),
        "counters": _sha(json.dumps(counters, sort_keys=True).encode("utf-8")),
    }


@pytest.mark.parametrize("domain,policy", sorted(GOLDEN))
def test_cold_store_build_matches_golden(domain, policy):
    assert store_digests(domain, policy) == GOLDEN[(domain, policy)]
