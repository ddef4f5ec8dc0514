"""Golden runs: fixed-seed configs whose output files must not change.

Each config is run end to end and every CSV plus ``manifest.txt`` is
compared by SHA-256 against the digests recorded below, together with the
saved shot files and the ``compare_report`` summary (without its first line,
which names the run directory) where a config produces them. The library's
``run_randomized_measurements`` is pinned the same way: ``LIBRARY_GOLDEN``
digests its shot tables, unitaries and purity estimate. A refactor that
claims to keep outputs unchanged must keep these digests; an intentional
change of output (a re-keyed random stream, a new column) re-records them
once and says why in CHANGES.md.

Re-record with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sshquench import (
    child_generator,
    estimate_purity,
    quench_circuit,
    run_randomized_measurements,
)
from sshquench.experiment import compare_report, run_experiment

CONFIGS = {
    "noiseless_entropy": """\
L = 8
initial = neel
boundary = obc
t_points = 4
quantities = entropy
n_unitaries = 16
n_shots = 512
seed = 11
""",
    "noisy_mitigated_entropy": """\
L = 8
initial = singlet
boundary = pbc
t_max = 1.5707963267948966
t_points = 3
quantities = entropy
n_unitaries = 16
n_shots = 1024
p_layer = 0.013625
readout_flip = 0.01
mitigate = on
seed = 12
""",
    "twist_berry_readout": """\
L = 8
initial = singlet
boundary = obc
t_max = 1.5707963267948966
t_points = 6
quantities = twist,berry
n_shots = 4096
readout_flip = 0.02
seed = 13
""",
    # every table writer, both shot files and the report in one run
    "writers_full": """\
L = 8
initial = neel
boundary = pbc
t_max = 1.5707963267948966
t_points = 5
quantities = entropy,twist,berry
n_unitaries = 8
n_shots = 256
p_layer = 0.01
readout_flip = 0.02
mitigate = on
shift_mode = valley_to_zero
save_shots = true
seed = 14
""",
    # the exact-probabilities branch of every series, on an explicit subsystem
    "exact_all_quantities": """\
L = 8
initial = singlet
boundary = obc
t_max = 1.5707963267948966
t_points = 4
quantities = entropy,twist,berry
subsystem = 2,3,5
exact_probabilities = true
seed = 15
""",
    # plug-in estimator, noise without mitigation, a shift and two threads
    "plugin_shifted_threads": """\
L = 8
initial = neel
boundary = pbc
t_max = 1.5707963267948966
t_points = 4
quantities = entropy
subsystem = 1,4,6
n_unitaries = 6
n_shots = 128
estimator = plugin
p_layer = 0.02
mitigate = off
shift_mode = zero_at_t0
save_shots = true
threads = 2
seed = 16
""",
}

# configs whose comparison report is digested too
REPORTED = (
    "writers_full",
    "exact_all_quantities", "plugin_shifted_threads",
)

GOLDEN = {
    # The manifests of noiseless_entropy and twist_berry_readout were
    # re-recorded once: the manifest writes floats with repr, so their zero
    # noise rates read 0.0 where they read 0.
    "noiseless_entropy": {
        "entropy.csv": "78e1444427a164463078bc659f9718eed1392d2990811cd52e859f5eb27647b0",
        "manifest.txt": "d628e069e9c62ca8ee8b606e2024dade8b6fbc8b572183c8ed6b3c5146798249",
    },
    "noisy_mitigated_entropy": {
        "entropy.csv": "fb9abb18531ad2738d7e1f4f2c70d2f5e6b9d175f7e80ef733c37124b8f8fd4d",
        "manifest.txt": "de264610a479ca96b8b1dd68ed0e87bfeb570639f47301b69ef8f1f5db55f064",
    },
    # Recorded on states built from the fused link blocks. The gate-level
    # build leaves rounding noise (down to 1e-102) on the probabilities
    # outside the singlet quench's support, and the multinomial sampler
    # spends a random draw on every nonzero entry, so the shot stream of a
    # singlet run without local rotations depends on which build made it.
    "twist_berry_readout": {
        "berry.csv": "9018a62c87368bd24ce396aeccf397a48f9ecceaa4c9d1b635ff3b8c0258ea61",
        "twist.csv": "335670866e44c23c4c13c48d34d40563b95d24fee2b290bc3a35598f70eab345",
        "manifest.txt": "908a909c8c970c7585bc01acea255db371878660b18164c37f9c29ca9f2968c3",
    },
    "writers_full": {
        "berry.csv": "131ff86a79ada1e67043c92e21e2376929fd8c754d6e03ed7ae1853301d041c6",
        "entropy.csv": "8092d599837d30ecafd2e7eda7fe0d1c0336ed22a854a56e9b2e1dc7c12765c0",
        "twist.csv": "352f92843610a1c415f93480432823f2b0a38f3dd81d9b999823113c59e789a5",
        "manifest.txt": "1775bb160594253455c012182352cf8c419f4aeb825ea891d4f4ffb5811b2d41",
        "shots/entropy_t0000.txt": "2b0a7fe03ef2f9476b68e1044aebdb07db7ccd993ba02cd0e4bb449e8e979f51",
        "shots/entropy_t0001.txt": "168996f9db411f3fb5fd43431935030865db711ece7bcdcdf2f3e93ccdd5b376",
        "shots/entropy_t0002.txt": "b0de2ddfac23eaa42a6eddda8a027dce8a265521de1f3b52a2ab9950909e58cb",
        "shots/entropy_t0003.txt": "0b8f048a3298fb1a533db91dffc6257f5763c0d442602f7214f9645464d2deb5",
        "shots/entropy_t0004.txt": "3a1f3acf0b1e3ccad347407bb6e809592259165174d84eb29fcff3b74f79b435",
        "shots/twist_t0000.txt": "4efda7d50da0c64d12d9b3866c1a43fca81b08d4a1e7d6faded6e3d44602ed95",
        "shots/twist_t0001.txt": "9650849206cd9707076b10c6f40e9b50a2ce0198ab9749e03a168af87e1364af",
        "shots/twist_t0002.txt": "7e20b6e399e923b26af09873fb2c9bcee80b34901b38418defa6f941dec12ec2",
        "shots/twist_t0003.txt": "d9476571086885a236c28ab69e2152e60a684b7b0d6a0e4a824b34ffa54d7f2f",
        "shots/twist_t0004.txt": "6dca1eb092f20ffa1368fa827ab7ed1eb79122013807f8cdd5a4e22e4c735718",
        "summary.txt": "1348a86a1521cda5a2eacd352355a4e7e011000c1ab8d5992c2be6a7290e03d0",
    },
    "exact_all_quantities": {
        "berry.csv": "8c1385a9d4e9e3746806a3d30ede3f04e03bade95aca216db00f5f84382ea92c",
        "entropy.csv": "f17b1f00e5c78d4a1a1862479b73e9d77d2e78ddfb047f020ff9e563233c51ca",
        "twist.csv": "00f9cedd865753e1b6d98813cbc043759cd5847a4a1584aeffb750d606fb898e",
        "manifest.txt": "3d29026338e706cc3503b99cd2e6acbcf96aff68e7c34e78906a83778b1b61d8",
        "summary.txt": "22dc0ada20dfbbe406b89c8b4fd94255633a8489fbd3691dbe077ba4d10f26e9",
    },
    "plugin_shifted_threads": {
        "entropy.csv": "0c75cde8bbc1c9bf35d8f215c8ba39ed7f5e9cc23c3b8e4a9e16882c122ef128",
        "manifest.txt": "ac772712d98e4391dddf85751d23a2999fe46ac88f108241500913c6372e9275",
        "shots/entropy_t0000.txt": "ff191bd3f4c276f11384c8fe8f138731cab3ceebc8cc8ec255b5d2b627e7b0bc",
        "shots/entropy_t0001.txt": "416a7fb0630622fa9f0bec11b9596045ce9eed1b2f06893a4e5f76aa97bfbc77",
        "shots/entropy_t0002.txt": "b4188a2411af69b333fb0360d52d0e59d89a2e3697f7a17356baefad10a1f694",
        "shots/entropy_t0003.txt": "f2e1bfe2ff31dd95db116a28a463529e839aedbbabbdaf2b2011cc718bdaef50",
        "summary.txt": "3dce839d6aae62653e317e44297c6893b1fb53c3f229f9de54e279dcdd90a17d",
    },
}


def run_digests(name: str, work: Path) -> dict[str, str]:
    """SHA-256 of every CSV, the manifest and the shot files of one golden run."""
    conf = work / f"{name}.conf"
    conf.write_text(CONFIGS[name])
    out = run_experiment(conf, out_dir=work / name, quiet=True)
    files = sorted(out.glob("*.csv")) + [out / "manifest.txt"]
    files += sorted(out.glob("shots/*.txt"))
    digests = {
        f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in files
    }
    if name in REPORTED:
        _run_line, body = compare_report(out).split("\n", 1)
        digests["summary.txt"] = hashlib.sha256(body.encode()).hexdigest()
    return digests


# library calls: (L, initial state) of a ring quenched to t = 0.3
LIBRARY_CASES = {"neel_l4": (4, "neel"), "singlet_l8": (8, "singlet")}

LIBRARY_GOLDEN = {
    "neel_l4": "2d004cd8a29036c35555f2b85f0bf3a9b3cacbe3a26e694384fb7b23315817f1",
    "singlet_l8": "35b4ccc3080f90099878b157ca7b73a0e106cfeff79d767ab1ed76c9d017b2f7",
}


def library_digest(name: str) -> str:
    """SHA-256 of the library's shot tables and purity estimate for one case.

    Covers every round's index, counts and unitaries, so a change in the
    order in which ``run_randomized_measurements`` draws from its generator
    changes the digest.
    """
    num_sites, initial = LIBRARY_CASES[name]
    state = quench_circuit(0.3, num_sites, initial, "pbc").run()
    tables = run_randomized_measurements(state, 6, 257, child_generator(7, 0))
    h = hashlib.sha256()
    for tb in tables:
        h.update(np.int64(tb.unitary_index).tobytes())
        h.update(np.asarray(tb.counts, dtype=np.int64).tobytes())
        for u in tb.unitaries:
            h.update(np.asarray(u, dtype=np.complex128).tobytes())
    est = estimate_purity(tables, (0, 1))
    h.update(repr((est.value, est.sigma)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_stream_digest(name):
    assert library_digest(name) == LIBRARY_GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {name: run_digests(name, Path(work)) for name in sorted(CONFIGS)}
    sys.stdout.write("GOLDEN = {\n")
    for name, files in digests.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for fname, digest in files.items():
            sys.stdout.write(f'        "{fname}": "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n\nLIBRARY_GOLDEN = {\n")
    for name in sorted(LIBRARY_CASES):
        sys.stdout.write(f'    "{name}": "{library_digest(name)}",\n')
    sys.stdout.write("}\n")
