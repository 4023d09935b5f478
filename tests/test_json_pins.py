"""Every named form's JSON record pinned byte for byte.

Each digest is the SHA-256 of json.dumps(form.to_json_dict()) at the
precisions in PRECISIONS.  The record carries the coefficients, the name,
the weight, the level bound and the trace tags, so a change to how a form
is built or what its record holds must leave every one of them exactly as
it was.
"""

import hashlib
import json
from functools import partial

import pytest

from plusforms import _cache
from plusforms.constructions import (
    ap_named,
    cusp_line_13_half,
    f_form,
    g31,
    hurwitz_progression,
    phi,
    psi,
    psi10,
    theta_off_multiples_of_three,
)

PRECISIONS = (1, 2, 3, 50, 651)

BUILDERS = {
    **{"phi:%d" % k: partial(phi, k) for k in range(9, 22, 2)},
    **{"psi:%d" % k: partial(psi, k) for k in range(12, 31, 2)},
    **{build.__name__: build for build in (
        psi10, f_form, g31, hurwitz_progression, cusp_line_13_half,
        theta_off_multiples_of_three)},
    "ap_named(psi:12, 2, 3)": lambda p: ap_named(psi(12, p), 2, 3),
}

# name -> one digest per precision in PRECISIONS
DIGESTS = {
    "phi:9": (
        "631fd7a1abe2b87382ca47a453a53defd28ad4c6f0fc72266a8f2f961b78db98",
        "88d7cb97ccf0e7c64c32b14383f8e2c80852bac8d29d3ca61fdcd1bd3cc58d89",
        "6bd10bde79915ee425d3703d78fccbac5359c9df98fe9a07613f576350801924",
        "963dec94c044d034619e0469297f15b521733e4571c6991a0ae08349541d118c",
        "346227822d5c7d5bac6a32c8e3526f214412c5f23a5a4750a8318f4a21959532",
    ),
    "phi:11": (
        "f9f8a888ff9df8667ed32227b22d83cb56c6d667e4b76be4b904d2c597561c87",
        "9e123564b6aef3c760ae6364e5a959f8ac9d0e43665e9836644fc3d7f830a564",
        "9880248eb21bf72eb4a8f7aa3b354c949b6855f6445731937ac4dd84b32f79f6",
        "61e835bbef63ef4cd5fe4672c8c28f9536e1a20ca83407cf530b83f72328cd1b",
        "e8d16a74fb452ee38579259822b39b4a4f6a9ab78113ba5d69efee4713f9cb61",
    ),
    "phi:13": (
        "c015bc06fac2696e770f178413bdcfce9af0e276d5c80c2a8cddf131f2e7d754",
        "620a6ca269fc63f63f33825e8d041a424b5ff121176914279790765c4f7760f5",
        "92bb490bb006ea9d4e81fd4f4d4d720ab2ae42ab4185aaf0802b2acd69a23883",
        "2fe445bfe2f624309cad3b2329252423052956249eac1715bebc4e4d10605de0",
        "1b4e65bbf9bee275742704f9aabd91b59323187d6f5e210516485bb8f51b3a00",
    ),
    "phi:15": (
        "48fe58e3a5345eccdf1e888d5b92ec1011aa32be2ca9a07b05b724b1543f9db0",
        "693738a5356dcfa2973069524975c79cfecb9b137f81e4fedcb4ffbb7d14dd9a",
        "72e75c3ecf4ec8a407387aa40d329d89abd45e34be0363481b1a2c843bf19331",
        "7c3ba886da1173cad6ee2a5221a68e38c87875039a2f90aaf0ead457ff9c536f",
        "bd35dd6739b2d4106c47bba809b8f81a9a4d3d856fd2a11ce15472f912b25dca",
    ),
    "phi:17": (
        "9a2a24fdaa67e664e209e31f4ec6f9a5075e5cb50a61552dd815b159a1ce88c7",
        "52ba2aae07661e40887bede2a4faa8d56723084ddadbd09841173d27f4768acd",
        "26dbb076963b131e16a30d4ce4b23eac9e23d024d33eee6431069940236804d2",
        "d73516d0fbde0e2642fd470d0f9b86fbafbdf8a5a0dffb7b34dd0cf4df93827a",
        "9e9726721a0397d61969aee9729015eb1bf283178a0f352a2b17f255860b8db3",
    ),
    "phi:19": (
        "849da521ea9d3423916f99874b9fce6df75e0dd8f2d681b081246905300c909d",
        "6896b23deb71753206fc182a492485ab9ae36114af519a6c19141130d6b421eb",
        "08cb1e2140ab39cd0753fb09e8a8231378ccc1221180d40fbfb072f805e270fd",
        "8070eed73d71d9157fc110a0cac873d17ddf67509422ef725bd990067735eed8",
        "25d204e5db3b0f853893c62e01b66bfb2f512415a0ecd4bae53f8e1445733b1f",
    ),
    "phi:21": (
        "e11cad6dc246eea9bf7c2b8f28dc0864518c40b1b00a0aadef7f8f34060dfd62",
        "f75216b5a812f78c563691fcab84174008161634d5352438b0a096e8bee3a505",
        "6fe949397e2176c307b2eac859a6a4550887bae1d6f9ebab741d2e1b1cda13b0",
        "8af6dbad6c5ce858b0615940824a3b66e7239644b03224a9c9193ab9f28e3eaa",
        "47db7fa1742153eb3b2159aeec90bf538bd54d248fdc5785926bfeb5e131bfa7",
    ),
    "psi:12": (
        "6222ad77f9668a4a734554fb189927ff84003486cb3ea0569a375bc8f80038a1",
        "be291bcf98654692f034304d3480a620e5fbc8e90d73ceb354c6d851fe60210c",
        "b40661e466e4f8eaaa4b6bc51f1f2bddcd402da7bcecab05e71e214c970c0d80",
        "ede9f79ee61b3b3cb1e5a997ebb1365c994068e58362dc93ece1c5b972b15cff",
        "463a20c1d3b98575146cf83de3d05fc1adfc4ded5f387f185f714d015519c1b7",
    ),
    "psi:14": (
        "27ec7902743296087dde7faf43636797f95369991a2eb067fb30cd9b9c7fdd36",
        "654cb133e0448334f2e1662f09475610b26da37e0ff6a8a19d71ce806ffaf5a5",
        "f09fa8417051034d01b824f83f5fa3a1d4891d90ca13f0a587d99b6cd3b4f831",
        "270f36e68325b46cac6c74b1c51ec5167345736ff82df2eb180b7143c5d64944",
        "97fffb6f9c1a5d5c7c47d730230fe2364eeb8cf4e213e347272e065498aaf61e",
    ),
    "psi:16": (
        "09f3a4ad828498d62cbb2320fa6dc65626b335eec3eec87c4c6376655fa9e75f",
        "8dfbb5496f996bc6402d1c5f5df2a04afe1bd58c0715a4054e3a5697e0aea5d6",
        "67100bbccbaa74ce8de0cb33e0d72fa9388fc60290e359779f1334b665fbfd37",
        "30267522671d0d66b946aff88716ccea2e6f972020b9f382278dfa5b38e60a09",
        "0c69024efd6f9acfe01610518ae4bd9067fc3c92ec6d9e23105d8b6ba8ee21b9",
    ),
    "psi:18": (
        "f2311038220eed23dd2598e11a54c37c9be49ebb7fb5ea29e2b49367fdcd04fc",
        "67078087852b7dc5c87746a80c7d4ee9a8010cd56188742aa4e0c1cd2733c962",
        "27871cb6ce3c620f940e8730c60f2578ad0c9e75ac1a918f74e4d090eb40b462",
        "3b872a22b94ea0eadd4913217c4ab817fb0cfd80d22873704c7c490935a67cc8",
        "60bd0b5f774ea160911a8d0e544988e5d6d0d624154df3df49001a188a149c46",
    ),
    "psi:20": (
        "2ec06c1a037334916720e1e673b450da7f6c5ab77b254353052c393d7c67c17a",
        "e670118b1d04adf35477b0f2d26f315fac8aba1331f92152ccb4cc81aecdf32c",
        "2c7a4b011615b710e8b834bd5107384ce339f7e31cb4f6066c86fcd347159816",
        "a32d66b3e30841cc8f1226fe5a4334c0e83b274497cbedc0f75d42d27a6980a0",
        "6d2ca481276e106452cd6fafec7aeb0a54172ebd03531d745f56ab80255a3d26",
    ),
    "psi:22": (
        "26eaa076778383b543412de18475657a64ac1f9dc4a728bb86d22ce65f76984e",
        "f154f69ffa2663a721db6bbd7072b08acfdcbaca2424cb61098580623f8e5446",
        "9570d9a3ead2b45a516771b3df4744816d883a0e31ea82cb00960a9d912bb6ee",
        "c4d129fedd5da416feae11fe2b5f913a8300431c4fc5bb594d028594fd892322",
        "fdcf1f3b0ada23f98698018fa6f4675112a5f3d9492e755e5f00c33fb1795008",
    ),
    "psi:24": (
        "f5aff9bc03360fb58bdc1350459029c39e833ee0d7f97131c8f783fe12ff2df8",
        "40da22802f1b14ff90f99e2237920f9176214d20dd5375f6c331e24cb0336a77",
        "da1e1d6c184da8224cf2e9b3d283a6f69117a9f6903d4a1c0c3a3aba92e1c050",
        "828fd8c2b35bb3473fb55209e811c7c72215bc18dfa785bf886e8db27115b8f9",
        "65eb89b4ea4e68291fccbb94d0c821748d91df650ccedd76aebebf6b98493fc3",
    ),
    "psi:26": (
        "603e34e800235d9ed3b45e3e654e4b08eb7b223fa29d3b8f10a96a5624112dd2",
        "8e0c286d772a8d1a3f15f8635fbb75382aa4ce65b98207854f030389a01a44b2",
        "bb09c1bcec4224174760f9f817ffbdb43ab1f57deb37a52d58bd78e9e49ef127",
        "1d411425723622d9439e3a2a0966d80aa45fb4d1ce9345a9893db38df6a1db83",
        "c1d84f21630823bc8611252ef1131f7dd2eaab12195b24228bbc4540c65c5773",
    ),
    "psi:28": (
        "e587a16548ab6b565308fdd7cf0a95ca7c50bb4050cd1125c3c3c3823c4b0bd3",
        "324e861e7d73f02728235ae1525ae3e9e510fd51c59e7e39b30b8a6b2f1bb8ce",
        "b13593d84f7b04dbc45ed6002c916135c85f81fa3d5147443e9da51d53c5b316",
        "0ca6f3e5341793e2613d7760295c2bc05e54b3d5292897817cf57825a23ea4e5",
        "2bd43f1e8af9849008eea0e4d76aeee95cf9b56b6455776ceca13082fcda3168",
    ),
    "psi:30": (
        "13bc1b709411f0afb55827266d35041dc6ec7c1f13a5d11977d682d4538a8678",
        "2113e789b3a88ed5629d0cdf16c8a668df0eb54c2bc3a430e7c2b94f3dd1c900",
        "b1ad56f953e6639c2e2de610a2266ea9ac361aeb740272e7601871d7d110a84a",
        "2b320df2ce2cfda740b09ab50dcc9171ad26d33a72e4b166ef68302455f6caf4",
        "d170038b5444d6fe37647afac65fe351ac8888ef0735a87e601933a8e861fa8a",
    ),
    "psi10": (
        "f26f8a7531575823b2796fbfc83169a235154dc47855d688c363a80a05d3219f",
        "3daf8c522693455612096e0c96b17e9b9ee19df1a3062ebfd60cb8aaec19ce95",
        "a7bada03787f231682b4b384caa4214c411e2750ba441cc6104e12354274623f",
        "8434fca5a88159cad083c01b501cd3a21246841da59de66f46bd87f623cde529",
        "2fed1fc6ae37a436def116946cd12cb1a13981270870d8dc7daef39961eb4c72",
    ),
    "f_form": (
        "417bc3aa00f93cf812ac33058d89d8e62149afb818a391a968bb123b56097ac7",
        "1ef25000116b096b73e4e7ea13acaa6ea3e1c37c7192b35238ca0dcdc3b0b42f",
        "b599eb941e18e98250d99e0eacc4d2d3c061220f21156089ab7ba09716556a02",
        "7bc4de3664f3d8264cb22fa2287d4f4b356ab2ea83da3ebb9149d0f561756192",
        "c35ef5cb72aa2eb0a3c0c487f20adaa6226beea7bfd04497345a447c5aefc4ca",
    ),
    "g31": (
        "fa18470ec9b847d5079c0cb5b54e07a36080e73da0689cf40178cb5467daae49",
        "e472894beb2e77f414cb53481a95aa166fc031fd7f3c5adfdf65fa683315fe0a",
        "c9ee1627bac765c3cbb41618938b0964437e2da1e3a16a877b01636bd4c94256",
        "7018620852335949e25c9e270053d50b5b1a548dac7230974e72a1aabee0ddac",
        "55af500a6fbd8bfdc29b2518fdd9fa7d2363a00f2a38acab8ec9713a834dfa38",
    ),
    "hurwitz_progression": (
        "d27a7e2bc691c66cc6c0b57d5d5a7b7ce701b4eb8505741c8bd8090dbaee0c2b",
        "c4f0dfebb8daaf146cf5a8713ed642e56463976626325a184b4ff0fd9e821258",
        "e1ae1b67de6f234b26aead634e0aac796b8ab86513d6c179aa5c1116fca52755",
        "0023c80be9ea64797ed2ec78f76bf93c9fab8ecddbc4aee731b29743efcec320",
        "9cc3f05021d573e87635ff3059b828a9d6dd2f8adf3d4a61114228438bb8b08f",
    ),
    "cusp_line_13_half": (
        "fadf2a21750f639ce9b22bd9ef64130bede8135352bd4f9014fe65ad9abad940",
        "7cac4e0d5f2523185f8627f0046e5050b670fc75501ca7be7d8d52bbcee74340",
        "fbcee0f480d31a8c3cbe10e4efcde4fc7787cf12f05ee9998c398e5d33e7bee4",
        "bb20c6e8707b76df6803ac9a3aabad2b519ab5885a5b7ef2c14eae3439772b56",
        "1805b515ec18dc5083d24df8557b9f4c4494d78c2c25816df1f0648339215f9f",
    ),
    "theta_off_multiples_of_three": (
        "67c89ae7005a1fd4f080240269a5bb45bf9693a438ee3d62328cf9f60377c955",
        "e3592f298c7f6c9269f6eecbf0cfc80c4f612b887149dae2617324a7c2e638ac",
        "decc0e2bad8a9c8ebe32aeb9ac62352d33bd85c2d719f24d265ab96b0f9b88f4",
        "26e458132075b2166127d2fe00baa8d57c3948856ce6cc442da936312cc7d93e",
        "bcd457fd00e25a248cc811198d967c09f72d6083294eefcecb763d51c707ca2a",
    ),
    "ap_named(psi:12, 2, 3)": (
        "1d92c77852b1106e4f17545a9fca76ee7b723a91fa8dea5733f76f63d5c4cab2",
        "7f9ed86798265686ea252d40d329b78f40167bc3c95831571546135cf92972e5",
        "22ffcbaf3f7a73dea69f75406be550adb75a3be35f6092332758a2a2ec01d5d3",
        "4887422ab24763057e3d683edb7ea04ffd22dc5827310782de8246efaa8b4233",
        "b18bbb7dce76bfdf47441970e29976d038ec7918366e100ebb47c629c9e58bc2",
    ),
}


def test_every_builder_is_pinned():
    assert sorted(DIGESTS) == sorted(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_json_record_is_pinned(name):
    _cache.clear()
    digests = tuple(
        hashlib.sha256(json.dumps(BUILDERS[name](p).to_json_dict())
                       .encode()).hexdigest()
        for p in PRECISIONS)
    assert digests == DIGESTS[name]
