"""Golden digests of a cold shared-store build, per dataset and policy.

A cold :meth:`PairFeatureStore.build` is pinned four ways, each as a
sha256 so a refactor of the build path cannot drift by a single bit:

* ``matrix`` -- the full-width float32 store matrix bytes;
* ``pairs`` -- the universe's ``(left, right, label)`` sequence;
* ``memo`` -- the insertion order of the in-process name-distance memo
  (it is FIFO-evicted and recorded to the persistent cache in that
  order, so the order is behaviour, not an accident);
* ``counters`` -- the pipeline's ``name_distance.computed`` /
  ``name_distance.cache_hit``, ``pair_diff`` and ``property_aggregate``
  counts.

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
        "counters": "9e8495bb6d0ec32f9f97ad2ec7a1cc28da5cc777ae3d6af9179aa6c95b3f2993",
    },
    ("headphones", "minhash"): {
        "matrix": "a6e0f6b2e03fadfafef39c3cf80560f40e88e8771a856dbf2bf4ee4c95014b47",
        "pairs": "1f287052cb65aecc5f0158a61c66aa6c4ca844dc5b5e486735069f122871a666",
        "memo": "463690e294354928d86c685704ef1ffca9f77d626576367e65106064682882f7",
        "counters": "aa98ee958b65fd291b6acf169ee100a319a2904814831d4522ae7867052051bb",
    },
    ("phones", "null"): {
        "matrix": "1256516f1e2c05f1ba4681984befcce58992c3997612221cda8e1f48b512b5c7",
        "pairs": "814fc1fe1af207f5025c67e001d1c0f7385be65c4c87201a620bc4eb22fcd3fc",
        "memo": "f6118270c610b80a24459639d8408120c4b4f78b6bc4c3c6f3d5d5d2e39b8e8f",
        "counters": "9709b1b6267eaeef39b92a5d79259098cc98b790a01ca295e7917e6729f0192f",
    },
    ("phones", "minhash"): {
        "matrix": "57fb3c2cdd4add7945bd287f433a1d673fe3841310b8c446fdb24f8aa565996e",
        "pairs": "905c0f4b1f3254bc33e87230e55d286866862efcdbc96cbe882c5b1b9c251481",
        "memo": "911c1adce76e0801fcf691e03bbee18fcb031cd3b8609e050f3b90d5fd2ec5c9",
        "counters": "6e3afbef111da033af4ecba615d4dc57c1b0eda29924b68ed8e55e6a2396a0b3",
    },
    ("tvs", "null"): {
        "matrix": "af28dbac2f73df98208541751e7bc3c478abfa255e84936eea5ad2f46693a5b5",
        "pairs": "caaebd8aba4aa477c11dae227376d87221a928caa1ce6a9ec69e8b829e5a44b4",
        "memo": "680309171dbd533c59de4951d7715e31f03eb07356086a287c85a10e909be7f9",
        "counters": "f3dfd8fb9f760ffc83eab06834f217105b733b7450677aa92d075155eea1d2d7",
    },
    ("tvs", "minhash"): {
        "matrix": "c50ca0ebb23a10522423ecd8b1b790f68a46299db5e3d0fa6745e2c10182712c",
        "pairs": "a168bd50c886833c1cb7ad20e67b26139908fde35a10618d9fffc79988e3a0f9",
        "memo": "868bd5dfc70cf0fc90d500b6b43a7270275d68fb5bee4e1b2b430c965166476a",
        "counters": "336d13012f1c122b9c5156b9f4c7cf2e2683d3c28be2ca8fea0fb0481774311b",
    },
    ("cameras", "null"): {
        "matrix": "9edf74324899f5c2bbfbe8d7931b3183e00780ff5239ba797a83deb806df97c3",
        "pairs": "c40ac3bf36367b74cfa2d4fc11f385ec33633c667ceeccfec87bc160a0d67879",
        "memo": "f2cbeb95a8a9c772f9f9b99a2cdb763765f636dda38f03db4d712082e05f09dd",
        "counters": "bde8f9985a5055d4961228b77e171e9cd3487caeeb4c4072a1d96a690a8d1e8b",
    },
    ("cameras", "minhash"): {
        "matrix": "c9f9b6491c1964bb227c096bae0f14104483f987657bd19ac90d12eeda77c7eb",
        "pairs": "32386d842418790e6f692f3f1dc07def6358db2f4b86ad2f06afa1ad31503613",
        "memo": "020f21290ea0ef624a751a366a419e88628a5789b344b5c685c07f966f00e20a",
        "counters": "9364f56cddedab4d7c185ed1817d01478d3bdbe22880da3b528d1a5b7788ebec",
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
        "matrix": _sha(store.matrix.tobytes()),
        "pairs": _sha(pairs.encode("utf-8")),
        "memo": _sha("\n".join(f"{a}\x1f{b}" for a, b in memo_keys).encode("utf-8")),
        "counters": _sha(json.dumps(counters, sort_keys=True).encode("utf-8")),
    }


@pytest.mark.parametrize("domain,policy", sorted(GOLDEN))
def test_cold_store_build_matches_golden(domain, policy):
    assert store_digests(domain, policy) == GOLDEN[(domain, policy)]
