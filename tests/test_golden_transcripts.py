"""Golden outputs: the exact bytes the simulator writes at fixed seeds.

A change to the simulator's internals (memo layout, state tables, a new
engine) must leave every transcript byte and every printed line unchanged.
The digests below are sha256 of the ``run --output`` file of each
(protocol, strategy) pair at 2,000 rounds; regenerate them only for a
deliberate change of the RNG contract or the transcript format, and say so.
"""

import hashlib

import pytest

from qdialogue.cli import main

ROUNDS = 2000

GOLDEN_OUTPUT_SHA256 = {
    ("original", "none", 3, 0.5): "e827a43dcdfcb3c9f7889e0f1294b6e89f915905b229cd513e359e5d730f38a0",
    ("original", "disturbance", 3, 0.5): "2153ce166bdb0a05a89bb7a1bc9b452e0544d5e0eb0b177f646a5db6ddf92476",
    ("original", "measure-resend", 3, 0.5): "96dd42dea1904478ca37013f4d2435138e0f65e0d1a3a3bde3bd97dc79a3e42f",
    ("original", "bell-substitution", 3, 0.5): "615c463ed3c885c1baad727f88f22244d55b748338e850ad96d1beef0edb569b",
    ("modified", "none", 3, 0.5): "56aea0e90744867600095e5ba6da5fd1f010a3cbce198e8a32ec8bebe018528c",
    ("modified", "disturbance", 3, 0.5): "a896d7663788bc75c2f875a0da48eb62fd24cea9e464272f3d8c52c43d285ae9",
    ("modified", "measure-resend", 3, 0.5): "a822096fe2ccfaa6c447aad92c6a79a4e9165afab0105320e4088d44779da223",
    ("modified", "bell-substitution", 3, 0.5): "329fc5d647595bc09f96191ac7ae61ad91843c046ab8cb2edbf0fad58b642892",
    ("original", "none", 17, 0.8): "16e28a122ce2d7ddf85717ec464295aa6a412d026c06980fe82c53ae80004f2a",
    ("original", "disturbance", 17, 0.8): "4d7d06b72bb6c7b3b4d6c13e2a157c4fb202ef4ad0c5de5d92c60a2ec6d8dcb3",
    ("original", "measure-resend", 17, 0.8): "bd430dcb2eeae1dfc319530233f6e3c2e449264650dbde087d4c4da5ebd6f24c",
    ("original", "bell-substitution", 17, 0.8): "6c822bd02884f836767c91484534ea627fcd48d6878a21494e52c62e046fc0b3",
    ("modified", "none", 17, 0.8): "c2b0bcff2c6494de1aeb50bc23ff3f77fe0fd221caefbf9a779518dfc3b38e66",
    ("modified", "disturbance", 17, 0.8): "8c0604a1e48efbcbb9abc3298254f25da7a6fb7c02e806686f71b39181ea912a",
    ("modified", "measure-resend", 17, 0.8): "4ea3df108c9fc016843b0e20ed17803d620ad488a98dbb4f750346f4974ed4d4",
    ("modified", "bell-substitution", 17, 0.8): "f3d583bdd90ae5128bab3312c1a4de504f04faff7d073f627dccb9af218a76e2",
}

DIALOGUE_ARGS = ["dialogue", "--attack", "bell-substitution",
                 "--alice-text", "attack at dawn", "--bob-text", "hold the line", "--seed", "9"]

GOLDEN_DIALOGUE = {
    False: (
        "alice sent     'attack at dawn'\n"
        "bob recovered  'attack at dawn'\n"
        "bob sent       'hold the line'\n"
        "alice recovered 'hold the line'\n"
        "eve's copy of alice's text: 'attack at dawn'\n"
        "eve's copy of bob's text:   'hold the line'\n"
    ),
    True: (
        "alice sent     'attack at dawn'\n"
        "bob recovered  'attack at dawn'\n"
        "bob sent       'hold the line'\n"
        "alice recovered 'hold the line'\n"
        "eve's copy of alice's text: 'attack at dawn'\n"
        "eve's copy of bob's text:   (nothing)\n"
    ),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_OUTPUT_SHA256), ids=lambda key: "-".join(map(str, key))
)
def test_run_output_bytes(key, tmp_path, capsys):
    protocol, strategy, seed, p_cm = key
    path = tmp_path / "run.jsonl"
    argv = ["run", "--protocol", protocol, "--attack", strategy, "--rounds", str(ROUNDS),
            "--seed", str(seed), "--p-cm", str(p_cm), "--output", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_OUTPUT_SHA256[key]


@pytest.mark.parametrize("suppress", sorted(GOLDEN_DIALOGUE))
def test_dialogue_stdout(suppress, capsys):
    argv = DIALOGUE_ARGS + (["--suppress-outcome-reveal"] if suppress else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_DIALOGUE[suppress]
