"""Golden outputs: the exact bytes the simulator writes at fixed seeds.

A change to the simulator's internals (memo layout, state tables, a new
engine) must leave every transcript byte and every printed line unchanged.
The digests below are sha256 of the ``run --output`` file of each
(protocol, strategy) pair at 2,000 rounds, of library runs the CLI cannot
make (an original run with its outcome reveals suppressed, a text payload
mixed with checking rounds), and of ``dialogue`` stdout under the strategies
whose output depends on the seed; regenerate them only for a deliberate
change of the RNG contract or the transcript format, and say so.
"""

import hashlib
import io

import pytest

from qdialogue.cli import main
from qdialogue.harness import RunConfig, iter_rounds, write_transcripts

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


# original runs with suppress_outcome_reveal=True, at 2,000 rounds, seed 3, p_cm 0.5
GOLDEN_SUPPRESSED_SHA256 = {
    "none": "eb276e148ac7385977e0a211734ace095e7906556686cbfd55d8bf871281e52c",
    "disturbance": "b9edd4d0b5f236c35ea2a55886beb8160427e8367d07cd9250a71956d31062d1",
    "measure-resend": "ef5093ee4017af461ceb0b312549e0c298f016d50435b091f55beee12430b745",
    "bell-substitution": "f5a161f0c667592e24b8d7296f13d4b54df56352aae1410e46ee534f0869d3ad",
}

# text payloads at p_cm 0.5 (checking rounds carry none), 400 rounds, seed 3:
# the texts run out partway, and later message rounds carry random codes
TEXT_RUN = dict(strategy="none", rounds=400, seed=3, p_cm=0.5,
                alice_text="attack at dawn", bob_text="hold the line")
GOLDEN_TEXT_SHA256 = {
    "original": "42ceec7f8430b726a5216f3e1bfb41f6be1f91e805351ea1289fc4f61fb18907",
    "modified": "b2e2e0d8ae890949dfe36ed279d9657e471922b95ae7d1883e0624077446e482",
}

# dialogue stdout under strategies that garble the texts, so it depends on the seed
GOLDEN_NOISY_DIALOGUE_SHA256 = {
    "disturbance": "0a95fffe8766dd7f5af3de71ab4c1d235b9c2b469708f9a31a76593e9e85417a",
    "measure-resend": "9da6e6fbdac62777465a168f4a08606c97928699fa44b98c39f000303062307f",
}


def transcripts_sha256(config: RunConfig) -> str:
    sink = io.StringIO()
    write_transcripts(iter_rounds(config), sink)
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


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


@pytest.mark.parametrize("strategy", sorted(GOLDEN_SUPPRESSED_SHA256))
def test_suppressed_run_bytes(strategy):
    config = RunConfig(strategy=strategy, rounds=ROUNDS, seed=3, p_cm=0.5,
                       suppress_outcome_reveal=True)
    assert transcripts_sha256(config) == GOLDEN_SUPPRESSED_SHA256[strategy]


@pytest.mark.parametrize("protocol", sorted(GOLDEN_TEXT_SHA256))
def test_text_payload_run_bytes(protocol):
    config = RunConfig(protocol=protocol, **TEXT_RUN)
    assert transcripts_sha256(config) == GOLDEN_TEXT_SHA256[protocol]


@pytest.mark.parametrize("strategy", sorted(GOLDEN_NOISY_DIALOGUE_SHA256))
def test_noisy_dialogue_stdout(strategy, capsys):
    argv = ["dialogue", "--attack", strategy, *DIALOGUE_ARGS[3:]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_NOISY_DIALOGUE_SHA256[strategy]
