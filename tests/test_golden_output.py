"""The exact bytes that `continuant` and `homology` print, as sha256 digests.

The digests were recorded before the continuant complexes were written from
the closed form of their iterated cones; they pin every character, and so
the order in which the degrees are printed, which an equality of parsed
JSON documents would not notice."""

import hashlib

import pytest

from tlab.cli import main

DIGESTS = (
    ("continuant --n 0 --variant lower --format text", "60eb4f784af33a68b555452f9ee57c3d4f798ae48252cec61183293f048bdc10"),
    ("continuant --n 0 --variant lower --format json", "48a9cec4a54b1d3796af3d57669e1936e2a3465b5719b4cf417ef82519c720c3"),
    ("continuant --n 0 --variant upper --format text", "60eb4f784af33a68b555452f9ee57c3d4f798ae48252cec61183293f048bdc10"),
    ("continuant --n 0 --variant upper --format json", "48a9cec4a54b1d3796af3d57669e1936e2a3465b5719b4cf417ef82519c720c3"),
    ("continuant --n 3 --variant lower --format text", "de3cbb9f089919703bb46ac5fd295259daf09bb5e69a261729efd06fcc3ff81f"),
    ("continuant --n 3 --variant lower --format json", "5b58738a85309ca47e53fa41181201fa60bd0609cc02e7679fa48cbb21c591e8"),
    ("continuant --n 3 --variant upper --format text", "d4a3e7b16e1319ba8dab3ba1010535155ab01c3b0264f6fb29be2afe3cbf3517"),
    ("continuant --n 3 --variant upper --format json", "309038666cc284e11c09ac53073c0f477884e31d774a7f0a1edf4c37a5bca170"),
    ("continuant --n 8 --variant lower --format text", "5b8a65a4cf13424327774da74325dc2dd1d50c75ee5abb101ff35023767a34e2"),
    ("continuant --n 8 --variant lower --format json", "20bca7e8446b0dd66cd6814dd36b1e286c79dd25e2e72256cab022d8d8723446"),
    ("continuant --n 8 --variant upper --format text", "98f7e9499934c27945bec9b87618fd9065a1023c81cf7783611a4faef58b75d8"),
    ("continuant --n 8 --variant upper --format json", "3a6856c0e411e7d319197c019c12931b4a572963886912acc38bb9dc5244bc3f"),
    ("continuant --n 12 --variant lower --format text", "44878f016cf0aa41f70c2202a928b65a98101c46b9095f79ff152c63d9f84832"),
    ("continuant --n 12 --variant lower --format json", "a3d9025d40fc3dca6cd08b7ad22e66edb1b72337111c7ef573276517f53544f7"),
    ("continuant --n 12 --variant upper --format text", "c625f24eb68924f65021b006fe990347370283eaf101051d3d5c6b897c849e55"),
    ("continuant --n 12 --variant upper --format json", "71df9858aa3b47e7dabb7f9a5ff2e02209806a2e705b94e7daa8cc5b278d088a"),
    ("homology --n 5 --variant lower --format json", "9573a052426f34811e89f2270137e471537860dab04de0ba8be3a7a3fb269f6b"),
    ("homology --n 5 --variant upper --format json", "142b19410da558cdb878a5648a75653aa12deeea73e2793d732b4a733394a41e"),
    ("homology --n 8 --variant lower --format json", "2d4ade08d40ba7565cc8af6e0718c5182bd828cc0e3233ef39aa13e2772b18d7"),
    ("homology --n 8 --variant upper --format json", "da2dce4498adc0448605a69a13abeab750a59838300ced57b4ff2839ad35dd97"),
    ("homology --n 5 --variant lower --ring cyclo:10 --q q --format json", "9573a052426f34811e89f2270137e471537860dab04de0ba8be3a7a3fb269f6b"),
    ("homology --n 5 --variant upper --ring cyclo:10 --q q --format json", "142b19410da558cdb878a5648a75653aa12deeea73e2793d732b4a733394a41e"),
    ("homology --n 8 --variant lower --ring cyclo:10 --q q --format json", "2d4ade08d40ba7565cc8af6e0718c5182bd828cc0e3233ef39aa13e2772b18d7"),
    ("homology --n 8 --variant upper --ring cyclo:10 --q q --format json", "da2dce4498adc0448605a69a13abeab750a59838300ced57b4ff2839ad35dd97"),
    ("homology --n 5 --variant lower --ring Fp:7 --q 3 --format json", "9573a052426f34811e89f2270137e471537860dab04de0ba8be3a7a3fb269f6b"),
    ("homology --n 5 --variant upper --ring Fp:7 --q 3 --format json", "142b19410da558cdb878a5648a75653aa12deeea73e2793d732b4a733394a41e"),
    ("homology --n 8 --variant lower --ring Fp:7 --q 3 --format json", "2d4ade08d40ba7565cc8af6e0718c5182bd828cc0e3233ef39aa13e2772b18d7"),
    ("homology --n 8 --variant upper --ring Fp:7 --q 3 --format json", "da2dce4498adc0448605a69a13abeab750a59838300ced57b4ff2839ad35dd97"),
)


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_stdout_bytes_are_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
