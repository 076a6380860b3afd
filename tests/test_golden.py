"""Byte-for-byte output of the CLI, pinned by sha256.

The path and verify digests were recorded from the compare-driven path
walk that the digit-driven walk replaced.  The resolve and ringgens
digests were recorded before tree vertices and chart bases became one
class.  The six digests of the pair A, B below (a/b = [3; 1, 4, 1, 5, 9,
2, 6, ..., 9, 5], 155 blow-ups, 21-digit exponents) and of the text
stream path were recorded before resolve and path output were written
from fixed templates.  The two plain-text resolve digests, of 24, 7 and
of A, B, were recorded before the trace emitters read the integer rows
through one kernel.  The digests of A, B and of the text stream path
are the only goldens with big exponents.  The three cf JSON digests
(several digits, a negative first digit, one digit) and that of the
one-vertex truncated stream path were recorded before the JSON layouts
were cut from ``json.dumps`` output.  Any change to vertex order,
generator order, chart data or formatting shows up here.
"""

import hashlib

import pytest

from monoval import cli

A, B = "488032046811688643031", "127468235891474990090"

GOLDEN = [
    (("path", "200001", "200000", "--format", "text"),
     "a0b21eddb06d5eea2970702475030f82286a46f83f120c2d672953a67ba24c8d"),
    (("path", "377", "233", "--format", "json"),
     "7554533789b408a47170c2c5a158fad5e860f8335dd19a487108670c1c947fac"),
    (("path", "--stream", "sqrt2", "--max-steps", "500", "--format", "json"),
     "42f21003bac1b537ab1e8043a1f0d356b25a1feaa37f4ffc96f4f4a6eba833dc"),
    (("path", "--stream", "0;3,1", "--max-steps", "300", "--format", "dot"),
     "f899a6dc7557f9a8f5c1c55862a1aad2e79477e9eae98d28dc3d04402586df33"),
    (("verify", "--max", "60", "--format", "json"),
     "189cae2e4c025e89746ae71ac45167ae7e4ebb9908df8eadfcbc11292e677040"),
    (("resolve", "24", "7", "--format", "json"),
     "089cdc898a2642dde7905f6b5ba0d1e434909d6255aa891fefdef1422ee9f1e9"),
    (("resolve", "377", "233", "--format", "dot"),
     "2165b08601c917a8c9d2f309d2b961e9db1d423c13af027ced1068b3a44ff49f"),
    (("resolve", "24", "7", "--trace"),
     "007901a247b2a07102e8d79575a0a28236e90dbd5af75f6ff129733440125981"),
    (("ringgens", "24", "7", "--format", "json"),
     "d9a451788bf035e237610d03d434ba17b44b6e9578ea1d557924c4fca27a2165"),
    (("resolve", A, B, "--format", "json"),
     "b62c2a35629f11fb3339b267f009faf293825745620d09261fc8df3d57548f24"),
    (("resolve", A, B, "--trace"),
     "1317b972e06435f409de4ac524e9744a58e7a65610f8b98bcab1995838153ab5"),
    (("resolve", A, B, "--format", "dot"),
     "6f94af8db59b7b357756e3e74d6f63cbaf59c5c34deaa9bbc1d9b00a5d1eb195"),
    (("path", A, B, "--format", "dot"),
     "562b842e90d54fcfbf8e0230afc4c54408c1af92f94844a692cbcb542c9fc1cb"),
    (("path", A, B, "--format", "json"),
     "632c40051b4ddb137b928eacdf5f8d64a30744f49e5d7a7ca996198f71df8ed5"),
    (("path", "--stream", "0;3,1", "--max-steps", "300", "--format", "text"),
     "208e363dae31754e5a53405a034944a1a4e48e64f1fa0d400756b8c994f4de14"),
    (("resolve", "24", "7"),
     "5ef4902dee79dc6a5e46c414811ea235cc8d533d35faa2d23ba616c6bd8e770d"),
    (("resolve", A, B),
     "e6241fa8f294a872f6e916d058ccbb8dd161cf8b75979ba6a38cd1f34d130531"),
    (("cf", "24/7", "--format", "json"),
     "d2d82c903e92bdc48caeca1ef9c7f2917516d470b7b004348a03eab8be851dac"),
    (("cf", "-7/3", "--format", "json"),
     "08df2ad2df6cae4b8fdb0eb9e674a524c801e6e61b2ea3594af49c396a7b7525"),
    (("cf", "5", "--format", "json"),
     "3637eddfb97da4887e35b0d7a8a1fdc6f9325bdc111e9766ab929c4536005b5b"),
    (("path", "--stream", "sqrt2", "--max-steps", "1", "--format", "json"),
     "0b98ea40edec1c6eddedc95e7803d2bab74f8e2b068d34468f95ff0e45245d98"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_is_byte_identical(capsys, argv, digest):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("ascii")).hexdigest() == digest
