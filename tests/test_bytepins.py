"""Byte pins for the report commands.

The default stdout of `stats`, `check` (exact and sampled) and `arcflags`,
and the CSV `arcflags` writes, are pinned by sha256 on two small seeded
inputs.  The commands run from the input's directory with relative file
names, so the `source` and `out` fields do not depend on where it lives.
Any change to how the flag laws or the census are computed must leave
these bytes alone.
"""
import hashlib

import pytest

from tourney import carousel, random_uniform
from tourney.cli import main
from tourney.io import write_trn

INPUTS = {"r.trn": lambda: random_uniform(201, 5), "c.trn": lambda: carousel(101)}

SAMPLED = ("--exact-limit", "100", "--samples", "20000")

COMMANDS = {
    "stats": ("stats",),
    "check-carousel": ("check", "--profile", "carousel"),
    "check-random": ("check", "--profile", "random"),
    "check-carousel-sampled": ("check", "--profile", "carousel", *SAMPLED),
    "check-random-sampled": ("check", "--profile", "random", *SAMPLED),
    "arcflags-c": ("arcflags", "--flag", "c", "-o", "c.csv"),
    "arcflags-c-bins": ("arcflags", "--flag", "c", "--bins", "7", "-o", "c.csv"),
}

# (stdout sha256, CSV sha256 or None), taken before flag multisets became histograms;
# the default `check` reports name the budget in provenance, so their pins are
# those of the same code run with an explicit `--exact-limit 8000`
PINS = {
    ('c.trn', 'arcflags-c'): ('6be90289dc20608291a83af1e8057b4049744d4ac051472da941b9efcbb7f8c2', 'fec73154de1aca1ec887815e2ad60b8ebdc60b7ec310dd4c2a5a39fe52805312'),
    ('c.trn', 'arcflags-c-bins'): ('6be90289dc20608291a83af1e8057b4049744d4ac051472da941b9efcbb7f8c2', '7cc9b68c92d22cd8c1f088757fb25119d353981bbf34258e6bb58054e1a0d81c'),
    ('c.trn', 'check-carousel'): ('f90608e82d99e3d69e91feb55a5a8ea6f76909fe8b307bff3243062ca2c0d1dc', None),
    ('c.trn', 'check-carousel-sampled'): ('26448792ff41731dfd6fcce839b7a2dd5cf8ea9f4300a42351a9f1c9fb28580e', None),
    ('c.trn', 'check-random'): ('a2faf77c94d53695dd23d942fcd754c4c6a45035a8b900981762f907bd219b7c', None),
    ('c.trn', 'check-random-sampled'): ('a08e49a7d18265b8a652bda5b9e05331e4d6a9da3daa27ebcee063993ad8b466', None),
    ('c.trn', 'stats'): ('38211c0b9e71f94205965fe7ab06f37cb494c0564f85a41b3d0cf93286093452', None),
    ('r.trn', 'arcflags-c'): ('0d93153f8780a90e4fcd8f8a2a4852a8120c3c482cd234c337c3c730c65f5a42', 'c716143e90553ebfb050c66cb2e24159f830909768f968b2ee20163abdbdf5e1'),
    ('r.trn', 'arcflags-c-bins'): ('0d93153f8780a90e4fcd8f8a2a4852a8120c3c482cd234c337c3c730c65f5a42', '7bd70fb7d54a730c0cec8f227b50f23e913b6e556a8b710da1f2f59913cf15ce'),
    ('r.trn', 'check-carousel'): ('1b76debec8d1f889948e41a4aff55e568f305d3254c0bdad4fb226408e09fa3c', None),
    ('r.trn', 'check-carousel-sampled'): ('60c0cc90b2428cbec5ac3bc0466e63d1b02c1b3ff2fc553bb09dd75ecebd4280', None),
    ('r.trn', 'check-random'): ('525ca75c2223f15ac4ed55671da0443159642153ce5c207fee772b11af120c60', None),
    ('r.trn', 'check-random-sampled'): ('bf0e2f0b1b0c0d1c293b96224cec6ee3091f927e0a25bf9a4fd0f73dd62d5afd', None),
    ('r.trn', 'stats'): ('5c939ea3d9e57dbee39f2758b4159363a201175c1a3df05b03b12dbd860ef129', None),
}


def digests(capsys, path: str, command: str) -> tuple:
    argv = list(COMMANDS[command])
    argv.insert(1, path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    csv = hashlib.sha256(open("c.csv", "rb").read()).hexdigest() if "-o" in argv else None
    return hashlib.sha256(out.encode()).hexdigest(), csv


@pytest.mark.parametrize("path", sorted(INPUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stdout_and_csv_bytes_pinned(capsys, tmp_path, monkeypatch, path, command):
    monkeypatch.chdir(tmp_path)
    write_trn(INPUTS[path](), path)
    assert digests(capsys, path, command) == PINS[path, command]
