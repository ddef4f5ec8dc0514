"""Golden runs: fixed-seed configs whose output files must not change.

Each config is run end to end and every CSV plus ``manifest.txt`` is
compared by SHA-256 against the digests recorded below. A refactor that
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

import pytest

from sshquench.experiment import run_experiment

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
}

GOLDEN = {
    "noiseless_entropy": {
        "entropy.csv": "78e1444427a164463078bc659f9718eed1392d2990811cd52e859f5eb27647b0",
        "manifest.txt": "72175cec636dd7c179b0b20306b2a5afc74cd39e06be98d31493b5af0d82f173",
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
        "manifest.txt": "d389f632046018ceea7ddf1c00d596269988214332470acceca44324b9b5c57e",
    },
}


def run_digests(name: str, work: Path) -> dict[str, str]:
    """SHA-256 of every CSV and the manifest of one golden run."""
    conf = work / f"{name}.conf"
    conf.write_text(CONFIGS[name])
    out = run_experiment(conf, out_dir=work / name, quiet=True)
    files = sorted(out.glob("*.csv")) + [out / "manifest.txt"]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {name: run_digests(name, Path(work)) for name in sorted(CONFIGS)}
    sys.stdout.write("GOLDEN = {\n")
    for name, files in digests.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for fname, digest in files.items():
            sys.stdout.write(f'        "{fname}": "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
