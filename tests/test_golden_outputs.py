"""Byte-identical analysis output, pinned by digest.

The sha256 of ``run_analysis(ctx, seed=0).to_json()`` after ``full_verify``,
the calls ``analyze --format json --seed 0`` makes, for each of the 38
distinct instances among the fixtures, the closed-form instances of
``test_closed_forms`` and the 47 instances the benchmark generates at seed
0 (labelled as in ``instances.py``).  A change to the arithmetic underneath
(storage, elimination order, fraction handling) must leave every report
byte for byte as it was; one that changes a report on purpose updates the
digest here and says why.
"""

import hashlib

import pytest

from coring_lab import cli

from instances import DISTINCT

DIGESTS = {
    "fixture-fix-t": "7dd7c5da38d7df93b08fa57a536934fd7184e2cb024ed933812a8ed938bab171",
    "fixture-fix-h": "3daf45c3746db5f54d04f5d86dfcef1db62188417f45cd1438df4396132a24db",
    "fixture-fix-n": "535f44d57c8a3bae1ed4e7f62e3cdf314fac8e9e47821c2272cbb7c7ec95e2d4",
    "fixture-fix-s": "2a56f8fc0dec89a9caf7580bc7181fa70cfdc60f0e6844ff9e98af30f9aea262",
    "closed-forms-fix-t-F7": "2a1c57cca2d8afad8e075526eccc5c41dd798ff4805e598b9879dc161f619e02",
    "closed-forms-fix-h-F7": "649288cd0fd45cfde8702d0d1f8d42ab323590a92af6d0dae0008ee165011bd6",
    "closed-forms-fix-n-F7": "d25651ffdf6616f06af9c3c75e7a670627745e91c1f87731ad8e6a96e7d94d4b",
    "closed-forms-fix-s-F7": "12171af211d6d80b1dab090444a3029768bd8264cfc187b47bed9e5cc2865e63",
    "closed-forms-dense-QZ3": "91d3911bc9a006aff5eaa70cdc7e3005c71c486a37daf0060e21af64bcf3bc2c",
    "closed-forms-fix-s-conj": "e409ecef3508797ff2872636c0dd3db4e00d690bd6fc043204bf1cf9f6322818",
    "closed-forms-fix-s-over-k": "2cc8874b171e7b421b1b03310c93e8399ab913c1e5f366c7d15e94875d0a8576",
    "ladder-00-QZ5-x0-Q": "c7c2f0668bfe4b91c20a03c7e297b26c65d5708e4ae5626d5410d9e35ebc72e1",
    "ladder-01-QZ3-x0-Q": "f9fef232f2b7baa234fa32d4f9d025822c7db96e27e60d4aa92f77211571d341",
    "ladder-04-QZ2-x0-Q": "66e1f238d2ba70733fd74c96597ddc6e7b151a6367be1c448012e3144a09944a",
    "ladder-07-QZ6-x0-Q": "e1b16c789ed9f1b4931e25a18b67df3a43e0afaa39ca589c47407a35fe425f4f",
    "ladder-08-QZ4-x0-Q": "1533dac5d80992a53488cec9aaae9a8923eeca7801a1852e512f0a5f08132ae9",
    "dense-00-dense-fix-n": "48cc24613ef938cbfd2abff2dc9fc96bd590559187ee7a4566c156a808248691",
    "dense-01-dense-fix-t": "e4d834b3e754e2e1e0e31aaddc01a2212b24c67d78d06080d9d3dc88a56fa28c",
    "dense-02-dense-fix-h": "5fa430c3ab156cb6d25c53e4dd7a4c72d8c44d1376d2840a1032a2a1b6950688",
    "small-00-SG5-x1-Fp": "b9a65152fb6698b0681002e9a5f589e4cf5f690e327c230f8ee4851d4d6497b9",
    "small-02-QZ4-x2-Fp": "d44e7ef0c37d168cabc191f92efc052c404e5a36ab3e880ad6faf3a71d972d1b",
    "small-03-QZ3-x1-Fp": "d9643ec39336aeca77fecb144552fa48e338e6345dcd2ad022e120c56eed65b9",
    "small-04-QZ3-x2-Q": "7e2e4e08e8f774caa44d2f7d6e0d17899885fd61df0681e84831ddb631783d59",
    "small-05-SG5-x4-Q": "2f23fc155c5d1e4dc544b71e667bdc1583a432432963fccb9d66d9f294533f2a",
    "small-06-QZ2-x1-Fp": "31505f46edf0d9a3a1dd72d6d272318eb6c9810e7cf751ed2a2a5e6c28bd85af",
    "small-07-SG6-x1-Fp": "6e9782a245de05bb192a31c7028d2e626637147b1b3e70df0cd96de9872abab1",
    "small-08-QZ4-x1-Fp": "cca95b943afb5e2fc8da496072080e908c4ec8f4230e785496b336ddc5a12763",
    "small-09-QZ2-x0-Fp": "ada73c74b8f0eded52c20e4318f8c40ac65aa53f01dd1039af49a03e7524ba11",
    "small-10-SG4-x1-Fp": "80bbcfacc8e13c5c55053b6ec0984b7736379778e36c9556a61f0ca203fa75ce",
    "small-12-QZ4-x3-Fp": "b198f2b87aa2b425cff5c1cee9bae10fade2d5908423f8d545f092f79283aa09",
    "small-13-QZ2-x1-Q": "24e7f86875911b0610d3eff6af4e615fd50c1064f4bb6456a029341a7cb4bdf7",
    "small-15-SG2-x1-Q": "0d5911b3250751bd6bc8aaa262054a041084cc809e0b008891f2f7058f06b07b",
    "small-16-SG4-x3-Q": "83d2ea2725bacdbf8b1fcf1f193d7a270acd4fce079544c1d7a45a6793bbce1e",
    "small-20-SG3-x1-Fp": "3006ea82cf44bbdf8c675a196a48f97bff56b1f09f71bfd76d914c8ce601d5c4",
    "small-22-QZ4-x3-Q": "879bc25c92b62716a8c79b93a342091bf34358b813ef99402975d51a22018a06",
    "small-24-QZ4-x1-Q": "47950dd88a4341f700ce550522aa473ae6b8119a5657ff62e88e92be813451ef",
    "small-27-SG6-x5-Q": "742f03544c0bbb60ee02079d906c4e7cfe56baccc33c113b87418516812961da",
    "small-31-SG3-x2-Q": "d56f2e8b8648d314c9cf63db3448f8b17a121259f3736839152f3fd16e707736",
}


def test_every_distinct_instance_is_pinned():
    assert sorted(DIGESTS) == sorted(label for label, _ in DISTINCT.values())


@pytest.mark.parametrize("label,ctx", list(DISTINCT.values()),
                         ids=[label for label, _ in DISTINCT.values()])
def test_analysis_output_is_byte_identical(label, ctx):
    cli.full_verify(ctx)
    text = cli.run_analysis(ctx, seed=0).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[label]
