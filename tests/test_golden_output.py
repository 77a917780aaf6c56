"""The exact bytes that `continuant`, `homology`, `jw` and `bound` print, as
sha256 digests.

The digests were recorded before the continuant complexes were written from
the closed form of their iterated cones; they pin every character, and so
the order in which the degrees are printed, which an equality of parsed
JSON documents would not notice.  The `--model 2tl` digests were recorded
while that model still built JW_n and took its Markov trace; they cover
idempotents that exist, blocked ones that exist (cyclo:10 at n = 9, F_3 at
n = 5 and 8, F_2 at n = 3 and 7) and ones that do not.

The `jw` digests were recorded while JW_n over Q(t) and Q(t)(u) still came
from the single-clasp recursion over those fields, and before a NotExists
verdict carried its binomial witness; they cover the integer table route
(the default tower, monomial triples over Q(t)), the recursion (prime and
cyclotomic fields), the blocked cases over F_2 and F_3, the constant
product delta1 * delta2 = 1, and the verdicts when JW_n does not exist.
The digests over Q at (2, 5), cyclo:12 at n = 7 and ratfun:Q at
(t+t^-1, 2t) were recorded while the recursion still divided by [k] at
every level.  The digests from cyclo:10 at n = 9 on were recorded while a
blocked JW_n, and every JW_n over ratfun:Fp:101, still came from a sparse
linear solve or the recursion over the field, before the integer table
was divided at the point; they cover a root of unity, a Lucas case over
F_5, (0, 0) at a fourth root of unity, delta2 = 0 with delta1 != 0,
delta1 = 0 with delta2 != 0, and a loop value that is not a monomial.

The last two `homology` digests were recorded while each entry of a
differential was still realized as a matrix of its own and copied into
place, and the two `bound` digests while `bound` still printed a strictly
bounded verdict through a branch of its own."""

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
    ("homology --model 2tl --n 0 --format text", "377b5157d88d7d682c5fb712ee673507b82517243f0c8faca980cac111dece07"),
    ("homology --model 2tl --n 0 --format json", "ce4701b34d5bcca269c3185e4091a39b4cc9478c515b6f9e8119555c01f085ba"),
    ("homology --model 2tl --n 1 --format text", "42633ebbba50785e6f831dad55ebf247a66d43056ff9cb4e3276f2cadd28f458"),
    ("homology --model 2tl --n 1 --format json", "ea84f5c82af1e605fcda9da6c2fc1780d94753788225c9ceb0e4db47db50fa9c"),
    ("homology --model 2tl --n 5 --format text", "cee3b90805882256667a45d84b4d6a5cd4bd7f65f5eeaae498bc501d7b97b873"),
    ("homology --model 2tl --n 5 --format json", "300348751c947c91b81463e46228828c4804b4ec3e2276c8e39c122e5f3c4742"),
    ("homology --model 2tl --n 9 --format text", "eed12c722d31b9383bbc4be885b6abb836f584d6f0dcd70173b1fd7c192b046c"),
    ("homology --model 2tl --n 9 --format json", "7f114b514ec7cc050a4d36b07cf2bf23533fa8fed360b4c850dd842b4c0f58a8"),
    ("homology --model 2tl --n 4 --ring cyclo:10 --q q --format text", "fad159dc2b9298eb16c554b574a48a740500a5095fd816882ce1f09ebc1f840a"),
    ("homology --model 2tl --n 4 --ring cyclo:10 --q q --format json", "7f950be145ce47b0611d00512489726d8ce3b76739e0d6117385bb2f8d6f63f1"),
    ("homology --model 2tl --n 5 --ring cyclo:10 --q q --format text", "efd57b3cdfd934497416be47143965bccc779ffe063bdc133d773336ea78a52c"),
    ("homology --model 2tl --n 5 --ring cyclo:10 --q q --format json", "081cf01af40acde0f4b8b074838bb54f6c7a8a4c365ddbbbd9d094a661d061b0"),
    ("homology --model 2tl --n 9 --ring cyclo:10 --q q --format text", "6c12a4f086f97d6280781a4ef634d848e406072b5d7fa893890f7d163282a996"),
    ("homology --model 2tl --n 9 --ring cyclo:10 --q q --format json", "cc99f019326914556bdff8dddb6504fd8ed2d765588fb6fa206c569c422987d5"),
    ("homology --model 2tl --n 5 --ring Fp:3 --q 1 --format text", "5a27797c923174c637c4ed9cefd36909594b6472f08c4b556bce91967fe5810a"),
    ("homology --model 2tl --n 5 --ring Fp:3 --q 1 --format json", "fdbcf05cefbada7ad0890e5febd9a2b184b37f5291ac2862b407b4eae70f0d98"),
    ("homology --model 2tl --n 6 --ring Fp:3 --q 1 --format text", "8674f165dd31c5163e067a00d1b2d6c3b9c159aa4dbfbf68d2dd37928fd19cf2"),
    ("homology --model 2tl --n 6 --ring Fp:3 --q 1 --format json", "459b47a9a593e4cd612e6f8bd1fdd0a78e0ed75036fd3cb981059e10a8b80231"),
    ("homology --model 2tl --n 8 --ring Fp:3 --q 1 --format text", "4731ff4df47f77092be10188d861f47742e8b257bb5015e5b942e1bd4faa0d0e"),
    ("homology --model 2tl --n 8 --ring Fp:3 --q 1 --format json", "9bd2bb1560af3265a99b534cb2b818b4e74a49bbd701a0255e226f2ebc4a537e"),
    ("homology --model 2tl --n 3 --ring Fp:2 --q 1 --format text", "f9c88e7cab6cfd002053d1fac5eff85748a8d9aec417a80eb7f8618acee52d2e"),
    ("homology --model 2tl --n 3 --ring Fp:2 --q 1 --format json", "0829aa912acc856e4f3f8c3246970067b7b5a28e651d61affc4a750196d08ed9"),
    ("homology --model 2tl --n 5 --ring Fp:2 --q 1 --format text", "499ed44308b6e72952b56305ce61573be815528e1c09fa1c4b4077d5234e72fe"),
    ("homology --model 2tl --n 5 --ring Fp:2 --q 1 --format json", "c1dbc1544328f48682cb0dfc5c375e3c31b096eda15b5ed2823ef78acfa0e484"),
    ("homology --model 2tl --n 7 --ring Fp:2 --q 1 --format text", "5d096236189a1052078b4dc222a7c30a6f0761e496779146c0a97ea0171f792e"),
    ("homology --model 2tl --n 7 --ring Fp:2 --q 1 --format json", "6fa5d7670a3b4deeb90c6d36f97f29fef6e624d18649c0003a9ca1ebcc5a3440"),
    ("homology --n 10 --ring cyclo:10 --q q --format json", "f69b71f13d3751567fc3bc7489e7cc22fdb20eb4501b60e2158a5cdc21524945"),
    ("homology --n 9 --variant upper --ring Q --q 2 --format json", "42818f6672a09128aa8d0199c5c6ffe697767b3b9d0a2e523d84771f8e38ffd3"),
    ("bound --builtin ising --object sigma", "73a0afa014816308773cc38d969adceb8ab74b52185187390ee73095f7a5a3ba"),
    ("bound --builtin ising --object eps", "2f0e14da2d79ecd87c8324f460d598d1f1eb83b61a95a5d1ab649df1f534a3ea"),
)

JW_DIGESTS = (
    ("jw --n 5", "7317e7091742436feeb760e8ec328dd48f8ab0a088ccee36d2ed3402f4c91dc4"),
    ("jw --n 6", "ae991e1297481cf53fca289a6f81d9d02460a052f1c0c0eaa7287b73272b7a95"),
    ("jw --n 7", "97beafacc4faa8fe232bc088f02471b406da2b1bb37866b452233c824d40c04e"),
    ("jw --n 6 --format json", "4ec7584ab040194f391a66efa6cbe7d0a0341f27e76cf09cd445d3517f79bc9a"),
    ("jw --ring Fp:101 --d1 3 --d2 5 --n 7", "3063e851a4c1ad0327d90063a95ccaad59215548e510aa1698c2c5c7142ca504"),
    ("jw --ring Fp:2 --d1 0 --d2 0 --n 7", "fd59414bdfb913ce12fc80688372d5d8056a6a18f61ac10574e7bd2011ddcf62"),
    ("jw --ring Fp:3 --d1 2 --d2 2 --n 8", "0702039cfff7b700b288e0f0ef860bed2c6d76054c5ac82117874ff66227f0e4"),
    ("jw --ring cyclo:12 --d1 q+q^-1 --d2 q^2+q^-2 --n 6", "e2cd6803758d365a9ba4022d29c2fb8eebf5aeee6c55b7489753e58635848079"),
    ("jw --ring cyclo:12 --d1 q+q^-1 --d2 q^2+q^-2 --n 7", "dc1f7109d1ae36bc6a7c552d1de41c93cf5b8ac745bbac995bedfda3d6ed3892"),
    ("jw --ring Q --d1 2 --d2 5 --n 7", "888d43c934a5e799fa6cdf2582e6062e161fdc1d7721fb1d111a55622f4f9886"),
    ("jw --ring ratfun:Q --d1 t+t^-1 --d2 2*t --n 6", "84dac1bbb4d47ad3b0b170cdaf75380b18fe27ec86c8e3f85e08a3353df2c38c"),
    ("jw --ring ratfun:Q --d1 t --d2 t --n 6", "1ccbbff2d802cd32dbca282ad65551cfdccca0c6af4516bff581bbe7f37f14bb"),
    ("jw --ring ratfun:Q --d1 t --d2 t --n 7", "dd3b6c06392924cb601eeb769421a58cd0d437192bd24ea03ab32e0901bb8029"),
    ("jw --ring ratfun:Q --d1 t^-1 --d2 t^3 --n 5 --format json", "c5b95e54784f97a25c3eedef5096886d24030b615dac80e291bdb3af35a79e71"),
    ("jw --ring ratfun:Q --d1 t --d2 t^-1 --n 5", "70fd542ef14c44f75d5cbdca2a7e66bf61ecd43cced17ba100ffa44832ccc2f6"),
    ("jw --ring ratfun:Q --d1 t --d2 t^-1 --n 3 --format json", "0994a72d6e4a75e1e3e242c5cfe6652bba65fcbd2b9665ad78c69972dc6aaee4"),
    ("jw --ring Fp:2 --d1 0 --d2 0 --n 5", "f3a78e9716a1cb15fd94fb882960a3379c1db7374829c1c703fae1717370235d"),
    ("jw --ring Fp:2 --d1 0 --d2 0 --n 5 --format json", "7299dcd5ac069ea32972d3e0f8bcfcaa8b9f50d0e84b6a1c0c82a4a94fc8184e"),
    ("jw --ring Fp:3 --d1 2 --d2 2 --n 4", "965dc9797688b9b8c68c79141b94545550f4aaa02ce80a441386d7822a492fc1"),
    ("jw --ring cyclo:10 --d1 q+q^-1 --d2 q+q^-1 --n 9", "3378a6a3a0dfef6485db29c5cac100732a52427927a7cb2afa657e0d3703a724"),
    ("jw --ring Fp:5 --d1 2 --d2 2 --n 9", "22c78fa860587d11abeb949b17d5dddb9ac9cfcece84de448c98d0a5ceb67b22"),
    ("jw --ring cyclo:4 --d1 0 --d2 0 --n 8", "c1ff38afa0c59d3091680f053e7283f9f94733122b6530c99cc674f3e5f3615e"),
    ("jw --ring Fp:2 --d1 1 --d2 0 --n 7", "15ea398b76172417e7808795ea235ff55bfe5c339cbdcd612df51189e45d061d"),
    ("jw --ring Fp:2 --d1 1 --d2 0 --n 7 --format json", "73532f2759ee4bd8a939a556fb31f1582a53e10ab8033563762ae3669f4733d7"),
    ("jw --ring Fp:2 --d1 0 --d2 1 --n 7", "aa06d579dd370bd8010bbf4391e8b4a265aecd82e10539e0fbef28b78d1faa5e"),
    ("jw --ring ratfun:Fp:101 --d1 t+t^-1 --d2 2*t --n 7", "0567033d8d4682aa0ba835f7b64a396426d2dd783719e39d77de8eb93c26e2e2"),
)


@pytest.mark.parametrize("command, digest", DIGESTS + JW_DIGESTS, ids=[c for c, _ in DIGESTS + JW_DIGESTS])
def test_stdout_bytes_are_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
