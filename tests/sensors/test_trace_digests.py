"""Pinned digests of recorded traces and surveys on every builder place.

The sensor trace and the three surveys are the inputs of every walk,
golden and benchmark digest downstream, so a speed-up of the radio or
place queries must leave them byte-identical.  These sha256 digests
were recorded before the radio moment was batched (per-transmitter
shadowing, per-moment GPS geometry, ``Segment``-based polygon test),
and hold unchanged since recording became one radio pass per walk
(wall-free readings for every moment first, walls counted only for
the APs still audible, noise drawn afterwards); each is taken over the
``repr`` of the snapshots or survey entries, so a one-ulp drift, a
reordered scan or a float turned ``np.float64`` all change it.

Regenerate only on a deliberate change of the simulated sensors:
``PYTHONPATH=src python tests/sensors/test_trace_digests.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.eval.setup import PlaceSetup, survey_points
from repro.fleet import place_builders

#: Trace seeds, the paths walked (each place's first two) and the walk length.
TRACE_SEEDS = (0, 1, 2)
PATHS_PER_PLACE = 2
WALK_LENGTH_M = 150.0

#: Horus samples per survey point; fewer than the default 20 keep the
#: campus survey short while every point is still sampled repeatedly.
HORUS_SAMPLES = 3

PINNED = {
    "campus": {
        "survey.wifi": (
            "559bd00897ce1de30cd8cb351c67a87cc94059da70192db5d79658acf7858214"
        ),
        "survey.cellular": (
            "28240518e3cb92ad6a269bdcad35b9d57df3798e98f84d459fc8ed754e16ac9a"
        ),
        "survey.horus": (
            "46a415eb4728da788aaa0ec2dc811eb81905062b0b706f2865f34a61eb9fd36f"
        ),
        "trace.path1.0": (
            "de8f412c3d240bf6fd757456558092437a4c77a56807d9720f0913cea8911e4e"
        ),
        "trace.path1.1": (
            "6ca0c51a620f0c8f0b573e30d574f92b2c19b53a40323cce16f724a4f62b97cc"
        ),
        "trace.path1.2": (
            "0cd9163da1606b44bc6faa3d7db39eacaf02f256e65f9a147b68710d72de05df"
        ),
        "trace.path2.0": (
            "00847b09141d5d6c099a91e46d3cb12ec466cf62eb7d9befccb65fad58e3c7d2"
        ),
        "trace.path2.1": (
            "4075fd42fb0e7d73c08033c622a05200e183957828dbfc697575d4b6b2389615"
        ),
        "trace.path2.2": (
            "60bcb97fbc369e384543ed521d2afb8f123217802e279c7efbeaf5e13c96cdbf"
        ),
    },
    "daily": {
        "survey.wifi": (
            "35a6ed12642a89fa708b891df660485a918182f9e062cd9ed5398774748336db"
        ),
        "survey.cellular": (
            "bdd26e665eaf4fb2ee88d481b23f45c546545a3f98e351c0675d51a7a27a84a5"
        ),
        "survey.horus": (
            "3b5f572d31bead3a10a16492e9f79036157c8ff983f6df4883fce7ec76e89384"
        ),
        "trace.path1.0": (
            "ad3a658f095ce2c590f6fb17e996b75b764766a6179c31fb1dbdf3c5e722f0f4"
        ),
        "trace.path1.1": (
            "fef9f8228d29ee1908e50d20225f8fa6f374e1b0960f48b56c9d24e6e3e26bd9"
        ),
        "trace.path1.2": (
            "55e4602119343ae01f650810d383e8b421c7ffaea6636689d79b559e0732211d"
        ),
    },
    "mall": {
        "survey.wifi": (
            "8ef6a18e1f8180cdeb0a574a94501d681265ba228635ed437904de3d27f4c0a6"
        ),
        "survey.cellular": (
            "9fc1cd559c5ef6b95c500a4e4403e2a23316bacef4514f5aa9d066746c673c4a"
        ),
        "survey.horus": (
            "47a43bf2d1e4d355e4ef83ad668fe0d700ab5b5dad7e710c2f915fc4f1d7fb4f"
        ),
        "trace.survey.0": (
            "a82d205bcbf504c624eebe2673bd5257dc11d9d326211bad53176cfaf71dfa4e"
        ),
        "trace.survey.1": (
            "7ab61a884b7dd9645f1e6ccdfceed59252cca3b0de24ef8281fc13c09381c0db"
        ),
        "trace.survey.2": (
            "7e9ba4401b6e7055104b48db8292db1713a1590e553f0757a61a7832710dba27"
        ),
    },
    "office": {
        "survey.wifi": (
            "0b7271ef6c13024320dafdc095f19b2757bd89a34888631e18420a42e246b993"
        ),
        "survey.cellular": (
            "6f41356db80880f29200daf0cea79583210834dbed2428b9eb228c3b88c50521"
        ),
        "survey.horus": (
            "10bdb4498c04fefcdac1e8b7a9d96878beb82f7de45f37552d07d633375ece5e"
        ),
        "trace.survey.0": (
            "6337abca7fcadd9867d1eacea65c3d3e434a164abc55b5b829b782abd639f0b8"
        ),
        "trace.survey.1": (
            "847dfada6dea9e194d89e95a1d1a6f3cc26c3bc0f8d483d87a9eb35b3cbddc8c"
        ),
        "trace.survey.2": (
            "c154a14cf08b7277e236aa7655005e7e19e64b784d6618b7f46fadf43e91d212"
        ),
    },
    "office-2": {
        "survey.wifi": (
            "4da3d8d975e67200756e175b4dc3a4e039a52991207ca58d4cd38e6e20784f4c"
        ),
        "survey.cellular": (
            "e4184a9a6b7d6802156f4cb219dcfe390d11550047741b0efe2b034d828d8acb"
        ),
        "survey.horus": (
            "795eca9acc54cf0dac136fe36988a1b15c7e4d9f6907873f613d12a43e55360c"
        ),
        "trace.survey.0": (
            "917fff342825bef6c5e1e5fc675c3b05186e7a4ed37159f7bb38bf13b84221c1"
        ),
        "trace.survey.1": (
            "dc3917d6f8bcaef23f4fb9af00a9c054e5fe6f035f801bd3e3ad155a76f8f2e5"
        ),
        "trace.survey.2": (
            "64f6e4c5f8261dd49bc0cb82ae36d6d15d7a50d89aa2307261f3c7d8abf16552"
        ),
    },
    "open-space": {
        "survey.wifi": (
            "c8302f466ff09520894a20f0010d062eff19bc02ca930d478dec5608f4ea580b"
        ),
        "survey.cellular": (
            "ca53f83f75084a28afa52c78e6750ec0947ff6407de20907b08e1697aac35712"
        ),
        "survey.horus": (
            "f5decb9c30d906eba4c15df87f37cfb6bb885750f7448792b4c3e1b0a900cb2c"
        ),
        "trace.survey.0": (
            "df73709603f1df45157316c2ee466224cfa1e86a3039d82295e385e5c2cef5ab"
        ),
        "trace.survey.1": (
            "fc7f7257d408b2fb3d701bd31f76a9143bbd500dc5c5a8a15f8ca7b87c7f5694"
        ),
        "trace.survey.2": (
            "37cc1ead67c5d61e04cf6269bd47cbec468f7b8a555480eef95358183f8eb50d"
        ),
    },
    "urban-open-space": {
        "survey.wifi": (
            "072f57e61889c3a25252bf740f865037d5fdf2bea6fbb660821cc97e07c8c58b"
        ),
        "survey.cellular": (
            "868fb2c1e4bffd61174ed495ecd35582441c63e1cc4bfb99876601b1dffc7edf"
        ),
        "survey.horus": (
            "5667bee8c070498abe9857833adba59e5ad382e6fcfa865fadee41cfa6a09694"
        ),
        "trace.survey.0": (
            "aa4d15d0faa797112b376cfa2461a35228e33c4cc326098bc341945c16c74f51"
        ),
        "trace.survey.1": (
            "0ca077912be22ea8122ed91352813cde294d2201672ee1847dac2aa0536c97d5"
        ),
        "trace.survey.2": (
            "764a56196fd8139f685d24f3be08130488d166e201c06902725382b229efc273"
        ),
    },
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def place_digests(name: str) -> dict[str, str]:
    """Return the trace and survey digests of one builder place."""
    setup = PlaceSetup.create(place_builders()[name](), seed=0)
    out = {
        "survey.wifi": _digest(setup.wifi_db.entries),
        "survey.cellular": _digest(setup.cell_db.entries),
    }
    points = [p for path in setup.place.paths for p in survey_points(setup.place, path)]
    horus = setup.radio.survey_wifi_gaussian(
        points, np.random.default_rng(5), samples_per_point=HORUS_SAMPLES
    )
    out["survey.horus"] = _digest(horus.entries)
    for path in list(setup.place.paths)[:PATHS_PER_PLACE]:
        for seed in TRACE_SEEDS:
            _, snapshots = setup.record_walk(
                path, walk_seed=seed, trace_seed=seed + 1, max_length=WALK_LENGTH_M
            )
            out[f"trace.{path}.{seed}"] = _digest(snapshots)
    return out


#: Campus (192 APs) takes about 3 s; every other place under 1 s.
PLACES = [
    pytest.param(name, marks=pytest.mark.slow) if name == "campus" else name
    for name in sorted(place_builders())
]


@pytest.mark.parametrize("name", PLACES)
def test_traces_and_surveys_match_pinned_digests(name):
    assert place_digests(name) == PINNED[name]


if __name__ == "__main__":
    print(json.dumps({n: place_digests(n) for n in sorted(place_builders())}, indent=1))
