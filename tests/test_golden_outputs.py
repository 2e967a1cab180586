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
        "328c1510dd58113866e2a8d1dccd4f7059fc93fb87b07a7db982ed0fdf7a5839"),
    ("relay_centralized", 1): (
        "93caae3f9a7f1c265385d19fda358f0f78aa2ff1556c6757a415ce23af009e43",
        "6ad85ffb290ba3073aee95b72123956c72e216a959d43892b21b83bf62710add"),
    ("relay_centralized", 2): (
        "f2bb254e6c703ca8d45d496f54318468ca567aaaeb59aa08f53a9d06880d43bd",
        "83d0ad1dee463fc371c37396d7bdbe4d1e158a31525fbfb5db5cc4ed309ea54a"),
    ("relay_tek", None): (
        "05cbf8bb5bd0c03defcd402651577667d53c18eae501603638a397f4e432b773",
        "8cc33e1473ac41f002bfc1d126c97c68edf613aeddc0e97120490a4c876f1086"),
    ("relay_tek", 1): (
        "10d49bcf76bf84060c384e0be180d373321f41cdb6582b259e40ecdd39b460bf",
        "142ef89150b9efd954fd2b5b67ad7f16ef6aa6d89e3bb0caae733a8a53c2fff8"),
    ("relay_tek", 2): (
        "98081bab146696c9c8b119126b3424080884d6219c6e1adb4f604151c8af078d",
        "10b6542079758f29482682fb2118afcee23a369d03b76012956dbd6f532762b8"),
    ("relay_dh", None): (
        "88e4921de470f719089c3b786ebbd3a0d01f6c7c725b3b2eeb4a867694dcde7e",
        "266184e15813c7c82639cd62ee3964f9164c054f575188b29a217064f68b81c3"),
    ("relay_dh", 1): (
        "f45946b7b740888aa15c47f2215d0ce2c79afb5fdcef843822efd3b56cce8b1a",
        "7d4aca3cc93cf390d3e86a2a2a03b051dfed2abd235645295cb525a7f2ff22b5"),
    ("relay_dh", 2): (
        "30b8a0dd3d38915884e6ed76fd244957b12a0345858cabab266ec2a20986f1ca",
        "cd56ad99966dd408d2dcbb7537976eb4620dd7dc271074d9bca5ef52a8649b6c"),
    ("fake_claim_centralized", None): (
        "0a9b2e78e2b6024f0285d191fe1680fe43e7d4bdfc66c0e8481aea75de6222d2",
        "de9019f6188b600e4f3a64bf3096c1935a14bfefb7f36c9d0efb58da1b8dd439"),
    ("fake_claim_centralized", 1): (
        "466a3da471bb1dbc7613b464fadfe8c621a74fc9705e080b094223500b3179bb",
        "1aa94a34593deb13dd3fb1dfe9703cac1eb0e8b319ac391a9f7813a02c25f37e"),
    ("fake_claim_centralized", 2): (
        "ace0c0031a2dbc9c02307d91e144691c4158ca212a6af45ceae0931485e93e73",
        "6d893e9d8bf4d74361ccfff729b65b202227914fd2643d59f5c7942ca7f5a297"),
    ("fake_claim_tek", None): (
        "d5e4c32b6744f17a515e640d991f67f4d17c57cbfc7d98a5a8dab96d5f92bcdf",
        "2f11e48ff3a500d7683334e221253617be281faebf4068046d34b9ed9ef79415"),
    ("fake_claim_tek", 1): (
        "c83b9e16eed6565d4a8733f8871995564304c5ffd9111cc400c58260ed1aec3a",
        "a2c65c9f2dacb1fca7bb84801792e796b7cb6429f5ad0077c6b9c2174116845e"),
    ("fake_claim_tek", 2): (
        "314a0b50f001550efe1fc5f52dfc1e9cfd7637fe54b7efaf59938d1d7f17ea96",
        "e2e9be41e51291db9dc143a233f6f207f54352c5b9ff13107242bd40346e5637"),
    ("fake_claim_dh", None): (
        "f159fb68b96658c5543ae0b73957c90c3abda2423b90eae181d1285f581d86cc",
        "dd387b9aaa8856f3ea33bbfcc8a3b5c99adcfbce1788dc347537f0496d10b61a"),
    ("fake_claim_dh", 1): (
        "ce7db08e9a60210ca913226d02518ebee32ddf0f2b49e8346632ef09e304d6ef",
        "2ae5dc65cd6680ff826f6245461863b6cf6c1cc0d4dd4a9ab60104898071cead"),
    ("fake_claim_dh", 2): (
        "9fc53b4554f286054403a3c40dc88833c05febcf8a4459f770b8c600c4a08757",
        "dd664b34737ac6faabb8286dfc5fad0e4aa1611f9415a05762ab370ee4701b68"),
    ("linkage_centralized", None): (
        "434b2ca3131e1ef308bae66665d4f790ca163f13e26465d52c47e9778dd670d4",
        "abc85b8c41f764b4d1400871fa9219281a9048e8ba1537f5f8c65506e5ec7a51"),
    ("linkage_centralized", 1): (
        "086d90458ea078f9a5b01a5b90b1ee4cf01db6c61b848ad0c563149b80a61e4b",
        "0a1284188ea2650a1240cf3518025b00c6d071029ae5ce5cbc1f033d69660027"),
    ("linkage_centralized", 2): (
        "08cd8fc755cb34f575a9dcfdfbb6ea29fdd62e7818910bc537fc9e1b602ae2c3",
        "5ceb3dce4a682d2e02569cce7caddf31c9580b23aa89c8b1c9712f66f02062d4"),
    ("linkage_tek", None): (
        "9b09761d96c6d92c38a2bd68f500cb4786a9358d36d34f4c4a02fa5371f4e076",
        "211085dde53aab5c402378bc51323807d1fa7cc9b7852d28b8aa166bedeed300"),
    ("linkage_tek", 1): (
        "bed19a7fa6f80d95262cd5d2c10a570718f5682ae3969a7a4f0998a1f58d42af",
        "8b2efe2b4e7f80ffe0e6d47cc3660c5d6ec0c9769f9fecee5ae7aa2370deac84"),
    ("linkage_tek", 2): (
        "16a1158c8fede16792b67edc59e150b1eccbde89385cbccf93cedeed499b7fe6",
        "013f4a6cc6d2b97efd314ad0ee14377acf8b51164877cc046057c97e03122cdb"),
    ("linkage_dh", None): (
        "89e1648093075f34df22d40e25b617b08129415ee8f635052f70b82fa465e433",
        "e3fd9a582b24f95e71af51cdb7274fce3f762e0575b6304c3b2a10df89136cc4"),
    ("linkage_dh", 1): (
        "2941602a4b0c974bcde05fd5d7754b20d66fd8b402a22f4c9d3c892ad7caf852",
        "242aac03a0f418359593c35cc3033333143d24deeace83add3a4ca121b455a88"),
    ("linkage_dh", 2): (
        "7d7d291d90c25ba751dd205e9ffa188d890cc907d9af802e63519b9bcbc16b73",
        "931065d47cbb44f0bcd26983e3601dbaacca5cd7f4570f4cbb4b36ef658a6a69"),
    ("social_graph", None): (
        "19a0a9577b3d7b70cd0c7856e3a498724a41e7aaeae6c79e65b0e3401ad21778",
        "d1179639a519f4d82fa4fca68957e608043a49ed2fb699ade20b290b3c2fde6f"),
    ("social_graph", 1): (
        "5dc949be9d9d9fcc33fe57ca25ee7aa01d1fe6c095f79f820969da932148d01c",
        "915156f97b863f4d1d95cbf87cc201619faf17823cfb67648b2111bc6bfd11fc"),
    ("social_graph", 2): (
        "cac6b94c2b42e186bf01311f63641a737afab598fd9463c0f00fe7e695766e29",
        "c203377d393fc5be89c5a8124d49b9a67c44cc4001e74df20b4f0e52216691d4"),
    ("superspreader", None): (
        "b9ada12ed62456429bf51898b3d146c1363105ecb3761b6e2f377c90c51a0571",
        "c12a6ff0686b4a1c678c3d76a32e50d6e1c5196dc4ee412f8675fb370167dff9"),
    ("superspreader", 1): (
        "96606caa6234927c3c7c954477fc0314edf36857fb37d09ce95987f9d1d0e106",
        "508ae400ee14068e5ea4679b0886e4642fb4b7ab57d813d10d9af540cb59a149"),
    ("superspreader", 2): (
        "e95d9baebb9aca3e071e38859fc18f5273fc8607070c620c9ae7168ce8bc00f5",
        "32bd059708a236e2410629d5316a1fe8df6dfb3da0c8904463792672f9325ea0"),
    ("time_travel", None): (
        "5e853a41771fd0bb8b783ec485b0b93631eb945ad5b39bedae274cfcd99210e6",
        "0eda4cf34f0014e39c861330962d907fcbbc1ee8cb5f093c58e31bde10781e1e"),
    ("time_travel", 1): (
        "198eff6d38525ebe067f51559d78b683bdf99f69c0d1b0b6bc69572beffb980e",
        "cf9cb105d8f2a5acc52903b4247d7d21deac7bef219fd72c0435111197cbd890"),
    ("time_travel", 2): (
        "84b6729aa53758dc0892b355251a610ce8065d6a7f194ec8a7ff989027cda8ad",
        "f8ddd49199cde44461a8a284b4df8fd0de582ad5a435287a2f3eb3bc0c61d5c3"),
}


def test_golden_table_covers_the_suite():
    assert set(GOLDEN) == {(sid, seed) for sid in STANDARD_SUITE for seed in (None, 1, 2)}


@pytest.mark.parametrize("sid,seed", sorted(GOLDEN, key=lambda k: (k[0], k[1] or 0)))
def test_outputs_byte_identical(sid, seed, tmp_path):
    run_scenario(builtin_scenario(sid), seed=seed, out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("metrics.json", "events.jsonl"))
    assert digests == GOLDEN[(sid, seed)]
