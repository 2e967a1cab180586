"""Golden-output guard: the standard suite's outputs are pinned byte for byte.

Each of the 12 STANDARD_SUITE scenarios runs at its own default seed (None)
and at seeds 1 and 2; the sha256 of the metrics.json and events.jsonl it
writes must equal the digest recorded here. A change that is meant to keep
behaviour must leave every digest alone; a change that alters an output on
purpose updates the digest and says why.
"""

import hashlib

import pytest

from dctlab.cli import STANDARD_SUITE, builtin_scenario
from dctlab.scenario import run_scenario

# (scenario id, seed) -> (sha256 of metrics.json, sha256 of events.jsonl)
GOLDEN = {
    ("relay_centralized", None): (
        "df12e3d1fb1d6a0b27218580eecc22fc225e46e767645a91c20d6678ba0a287c",
        "8962848c50e0f59e856ecadd407a6c26b616e3cbb0b38232dc6127e3e27e20b4"),
    ("relay_centralized", 1): (
        "93caae3f9a7f1c265385d19fda358f0f78aa2ff1556c6757a415ce23af009e43",
        "e3857ecc69818f3945b874c7de8d2f45781ee6fe12def8362ad97e9af6ba43cf"),
    ("relay_centralized", 2): (
        "f2bb254e6c703ca8d45d496f54318468ca567aaaeb59aa08f53a9d06880d43bd",
        "bcc9632c0b60ca0cfe90e4fda8a8f5bc94805b554c894f0c3b51d16b64af5690"),
    ("relay_tek", None): (
        "05cbf8bb5bd0c03defcd402651577667d53c18eae501603638a397f4e432b773",
        "b067d98ebd82f2af26e2d0126e2b49e48433a5d3a6f00bd2f38465e9ef7b227b"),
    ("relay_tek", 1): (
        "10d49bcf76bf84060c384e0be180d373321f41cdb6582b259e40ecdd39b460bf",
        "ec45d71ca39f027e27e2ed47de79bfc2169b40a557f208b7f1d3df27deebe530"),
    ("relay_tek", 2): (
        "98081bab146696c9c8b119126b3424080884d6219c6e1adb4f604151c8af078d",
        "2b52b4e56d1f058cea54297e5667bdc600fc88cf8026b19b8d2fb22ec1fb7e51"),
    ("relay_dh", None): (
        "88e4921de470f719089c3b786ebbd3a0d01f6c7c725b3b2eeb4a867694dcde7e",
        "8524e7212c565b0b3116da8ee91ff5f556ecb9fc83a1fc705dc00098feaf00c5"),
    ("relay_dh", 1): (
        "f45946b7b740888aa15c47f2215d0ce2c79afb5fdcef843822efd3b56cce8b1a",
        "c1bbe3d8ffe342dd173ef4dbffe96132a1fa2c457067fcfb68a2b93188031d51"),
    ("relay_dh", 2): (
        "30b8a0dd3d38915884e6ed76fd244957b12a0345858cabab266ec2a20986f1ca",
        "d1a97977666d8ee9e7813e7c65efbd8ef8ad7b944fcccac622f65452d2d52b47"),
    ("fake_claim_centralized", None): (
        "0a9b2e78e2b6024f0285d191fe1680fe43e7d4bdfc66c0e8481aea75de6222d2",
        "01a70cf3e1b79ec6fc64284b5be2ca3c9586191b6cf27d868256dc31360aa571"),
    ("fake_claim_centralized", 1): (
        "466a3da471bb1dbc7613b464fadfe8c621a74fc9705e080b094223500b3179bb",
        "31c01e5c024be96f3827d3c1d72b36934a7618a036b030539dc98185f8634549"),
    ("fake_claim_centralized", 2): (
        "ace0c0031a2dbc9c02307d91e144691c4158ca212a6af45ceae0931485e93e73",
        "2ad56768b7f0e431a80398b40f8bf2594dfad00b78344e32457f2dc3c3a686dd"),
    ("fake_claim_tek", None): (
        "d5e4c32b6744f17a515e640d991f67f4d17c57cbfc7d98a5a8dab96d5f92bcdf",
        "dc449693809be866bf13a933328e1a171d5802d54a4e9e461d016fc1169ef2f0"),
    ("fake_claim_tek", 1): (
        "c83b9e16eed6565d4a8733f8871995564304c5ffd9111cc400c58260ed1aec3a",
        "111bc7f991f7aef4b60c38373123245c533a54dbb5a3d57bd2e40c658dbaa4b8"),
    ("fake_claim_tek", 2): (
        "314a0b50f001550efe1fc5f52dfc1e9cfd7637fe54b7efaf59938d1d7f17ea96",
        "04cd7615d0d29d0b8d2d387ee9738fb4a209724276feb16f84b50a4c4fd35eb8"),
    ("fake_claim_dh", None): (
        "f159fb68b96658c5543ae0b73957c90c3abda2423b90eae181d1285f581d86cc",
        "b816c8cea00a3b36fa8c00bf0af49b3c8a3b7bc5f72af351d8ef6cc5e71239a1"),
    ("fake_claim_dh", 1): (
        "ce7db08e9a60210ca913226d02518ebee32ddf0f2b49e8346632ef09e304d6ef",
        "acf9e455f0d68388c960f815a11a4f6cea7e86ff413bfe5f365d25fe9aaee5e1"),
    ("fake_claim_dh", 2): (
        "9fc53b4554f286054403a3c40dc88833c05febcf8a4459f770b8c600c4a08757",
        "38905ccb56e9c3f0da0de1f94639d4b8c07087b9e5ed4e4f4513522f46780978"),
    ("linkage_centralized", None): (
        "434b2ca3131e1ef308bae66665d4f790ca163f13e26465d52c47e9778dd670d4",
        "85b92990c65bcda2fcdb2431bf0fdeef4a3f54db0a6cfffd0cd0f57c3066039b"),
    ("linkage_centralized", 1): (
        "086d90458ea078f9a5b01a5b90b1ee4cf01db6c61b848ad0c563149b80a61e4b",
        "6f3f8c37723308c5ab69088a9b713151b28448159a5fc86d03f4286b8697c036"),
    ("linkage_centralized", 2): (
        "08cd8fc755cb34f575a9dcfdfbb6ea29fdd62e7818910bc537fc9e1b602ae2c3",
        "605ca6815ae68016edada025df55b135c7c7a986e933a4dd3d9aedeb9e621d5d"),
    ("linkage_tek", None): (
        "9b09761d96c6d92c38a2bd68f500cb4786a9358d36d34f4c4a02fa5371f4e076",
        "aa00e0f2ac5d4d50487a8c2058d6ea99722854bd413af1adfb382513299e679e"),
    ("linkage_tek", 1): (
        "bed19a7fa6f80d95262cd5d2c10a570718f5682ae3969a7a4f0998a1f58d42af",
        "1d74322b8f7ecf9765b4cccf6bc48e1a79f8ec20753ccd79fb09d91543600bdf"),
    ("linkage_tek", 2): (
        "16a1158c8fede16792b67edc59e150b1eccbde89385cbccf93cedeed499b7fe6",
        "2c628a16ca31a6f60a32e069ed731416003d35b19cddff294b73b4fd1fbb8ae9"),
    ("linkage_dh", None): (
        "89e1648093075f34df22d40e25b617b08129415ee8f635052f70b82fa465e433",
        "4dd2ddbc2dbb3e12a6819425a3c4889b8d29badae3159fb4ce8033fe0730e315"),
    ("linkage_dh", 1): (
        "2941602a4b0c974bcde05fd5d7754b20d66fd8b402a22f4c9d3c892ad7caf852",
        "a2054fdc021a27164a420ef7ee21741ecac17401e1eeae631fe9ef813f2ffaa3"),
    ("linkage_dh", 2): (
        "7d7d291d90c25ba751dd205e9ffa188d890cc907d9af802e63519b9bcbc16b73",
        "d1b899e21d74f7e2cfc9561cb58518c5a3db52d67de32e63fc8cf57fa4a69808"),
    ("social_graph", None): (
        "19a0a9577b3d7b70cd0c7856e3a498724a41e7aaeae6c79e65b0e3401ad21778",
        "69b337b1023f50a5c0f433f4e43ee542504076ca71f7572af46014b9c9f8fcbe"),
    ("social_graph", 1): (
        "5dc949be9d9d9fcc33fe57ca25ee7aa01d1fe6c095f79f820969da932148d01c",
        "fe4fdfad62041eacc43b27d64ff2d941b7547e9d396d9bb58cd30ad6f6180a3d"),
    ("social_graph", 2): (
        "cac6b94c2b42e186bf01311f63641a737afab598fd9463c0f00fe7e695766e29",
        "b2467b40d6b841976127d7032d8c7a67bf1f520a90a80a72debeab28741ef53b"),
    ("superspreader", None): (
        "b9ada12ed62456429bf51898b3d146c1363105ecb3761b6e2f377c90c51a0571",
        "a4ecdd8cc33086ca931ca48dba79a23923d05d51fcdab8ce40c1908d51812efd"),
    ("superspreader", 1): (
        "96606caa6234927c3c7c954477fc0314edf36857fb37d09ce95987f9d1d0e106",
        "49ad8f86760ee82f9c32ff6ef1c326f221bbd808191e5b873ad50e287bb56fc5"),
    ("superspreader", 2): (
        "e95d9baebb9aca3e071e38859fc18f5273fc8607070c620c9ae7168ce8bc00f5",
        "f2914c68c1033c859b57c7c131a5450b7245b97869da1ff9e698a0c476e0a72c"),
    ("time_travel", None): (
        "5e853a41771fd0bb8b783ec485b0b93631eb945ad5b39bedae274cfcd99210e6",
        "dc8bd9d971e2a5d3e3c989f1d6c41e94fef0d171f8afa4363991b2bab294dc4b"),
    ("time_travel", 1): (
        "198eff6d38525ebe067f51559d78b683bdf99f69c0d1b0b6bc69572beffb980e",
        "34825b7a311d661519bba7b64fcf62a88f5e81076ef4644a4749c42b8b2a8b3d"),
    ("time_travel", 2): (
        "84b6729aa53758dc0892b355251a610ce8065d6a7f194ec8a7ff989027cda8ad",
        "6083d93d73e8433a3283491a2b41d1e146be6aebb78ba3d6d1fb480ed689ee0f"),
}


def test_golden_table_covers_the_suite():
    assert set(GOLDEN) == {(sid, seed) for sid in STANDARD_SUITE for seed in (None, 1, 2)}


@pytest.mark.parametrize("sid,seed", sorted(GOLDEN, key=lambda k: (k[0], k[1] or 0)))
def test_outputs_byte_identical(sid, seed, tmp_path):
    run_scenario(builtin_scenario(sid), seed=seed, out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("metrics.json", "events.jsonl"))
    assert digests == GOLDEN[(sid, seed)]
